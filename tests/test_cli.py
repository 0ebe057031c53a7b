import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bilink import cli, pipeline, synthetic
from bilink.checkpoint import load_arrays, load_model_state, save_decoder
from bilink.cli import (EXIT_OK, EXIT_VALIDATION, build_config,
                        build_parser, main, read_config_file)
from bilink.errors import ValidationError
from bilink.model import init_decoder, state_checksum
from bilink.synthetic import SyntheticSpec, write_dataset
from bilink.training import VariantConfig
from util import SHORT_COMPLEMENTS, resave_checkpoint

DATA = Path(__file__).parent / "data"

FAST_FLAGS = [
    "--pretrain-epochs", "4", "--decoder-epochs", "6",
    "--input-dim", "12", "--hidden-dim", "12", "--output-dim", "8",
    "--decoder-hidden-dims", "12,6",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(["gen-synth", "--n-u", "30", "--n-v", "30", "--n-edges", "400",
                 "--weight-skew", "4", "--seed", "3", "--out-dir", str(out)])
    assert code == EXIT_OK
    return out


def dataset_flags(data_dir):
    return ["--edges", str(data_dir / "edges.csv"),
            "--u-features", str(data_dir / "u_features.csv"),
            "--v-features", str(data_dir / "v_features.csv")]


def test_cli_import_loads_no_heavy_scipy_subpackages():
    """Every CLI call pays its imports; scipy is used only for sparse matrices."""
    import bilink

    src = str(Path(bilink.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, bilink.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.linalg') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


CONFIG_FIELDS = (
    "weighted_pretrain", "weighted_bce", "loss_balance", "tau", "hidden_dim",
    "output_dim", "dropout", "lr", "weight_decay", "batch_size", "pretrain_epochs",
    "decoder_epochs", "patience", "feature_drop_p", "edge_keep_prob", "input_dim",
    "decoder_hidden_dims", "unk_substitution_rate", "hits_k")


def test_cli_surface_is_pinned():
    """Every option string and config field: a new knob needs an edit here."""
    assert tuple(f.name for f in dataclasses.fields(VariantConfig)) == CONFIG_FIELDS
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    dataset = {"--edges", "--u-features", "--v-features"}
    grid = (dataset | {"--seeds", "--workers", "--out-dir", "--config"}
            | {"--" + name.replace("_", "-") for name in CONFIG_FIELDS})
    assert got == {
        "gen-synth": {"--n-u", "--n-v", "--n-edges", "--weight-skew", "--no-blocks",
                      "--n-blocks", "--intra-prob", "--time-span", "--seed", "--out-dir"},
        "run": grid, "ablate": grid,
        "eval-only": dataset | {"--model", "--decoder", "--seed", "--out"},
        "inspect-checkpoint": set()}
    assert {name: len(opts) for name, opts in got.items()} == {
        "gen-synth": 10, "run": 26, "ablate": 26, "eval-only": 7, "inspect-checkpoint": 0}


@pytest.mark.parametrize("cls,unruled", [
    (VariantConfig, {"weighted_pretrain", "weighted_bce"}),
    (SyntheticSpec, {"block_structure"}),
])
def test_every_setting_carries_a_rule(cls, unruled):
    """A field added without a range would pass `check_fields` unchecked."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    assert unruled <= set(fields)
    for name, f in fields.items():
        assert ("rule" in f.metadata) == (name not in unruled), name


class TestGenSynth:
    def test_writes_three_files(self, tmp_path):
        code = main(["gen-synth", "--n-u", "10", "--n-v", "12", "--n-edges", "50",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        for name in ("edges.csv", "u_features.csv", "v_features.csv"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "edges.csv").read_text().strip().splitlines()
        assert lines[0] == "u_id,v_id,weight,timestamp"
        assert len(lines) == 51

    @pytest.mark.parametrize("flags", [["--time-span", "0"], ["--n-blocks", "0"],
                                       ["--intra-prob", "1.5"], ["--seed", "-1"],
                                       ["--time-span", "100000000000000000000"],
                                       ["--weight-skew", "100000000000000000000"]])
    def test_bad_spec_exits_validation(self, tmp_path, capsys, flags):
        code = main(["gen-synth", *flags, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_more_blocks_than_nodes_exits_validation_without_blocks(self, tmp_path,
                                                                    capsys):
        """`n_blocks` sets the feature width with or without block structure,
        so it is bounded by the smaller partition either way."""
        out = tmp_path / "out"
        code = main(["gen-synth", "--no-blocks", "--n-u", "2", "--n-v", "2",
                     "--n-edges", "2", "--n-blocks", "100000", "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert "more blocks than nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_come_from_synthetic_spec(self, tmp_path):
        assert main(["gen-synth", "--out-dir", str(tmp_path / "cli")]) == EXIT_OK
        write_dataset(SyntheticSpec(), tmp_path / "spec")
        for name in ("edges.csv", "u_features.csv", "v_features.csv"):
            assert ((tmp_path / "cli" / name).read_bytes()
                    == (tmp_path / "spec" / name).read_bytes())

    def test_infeasible_count_exits_validation(self, tmp_path, capsys):
        code = main(["gen-synth", "--n-u", "3", "--n-v", "3", "--n-edges", "100",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_single_seed_writes_report_and_manifest(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = main(["run", *dataset_flags(dataset), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"] == [42]
        assert set(report["per_seed"][0]) == {
            "roc_auc", "average_precision", "hits_at_k", "precision",
            "recall", "f1"}
        manifest = json.loads((out / "seed_42" / "manifest.json").read_text())
        assert manifest["seed"] == 42
        assert manifest["dataset_hash"] == report["dataset_hash"]
        assert len(manifest["pretrain_trace"]) == 4
        assert "timing" in manifest
        assert (out / "seed_42" / "model.npz").exists()
        assert (out / "seed_42" / "decoder.npz").exists()

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        args = ["run", *dataset_flags(dataset), "--seeds", "42,43", *FAST_FLAGS]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out-dir", str(out_a)]) == EXIT_OK
        assert main(args + ["--out-dir", str(out_b)]) == EXIT_OK
        assert ((out_a / "report.json").read_bytes()
                == (out_b / "report.json").read_bytes())
        # manifests match except the timing block
        for seed in (42, 43):
            ma = json.loads((out_a / f"seed_{seed}" / "manifest.json").read_text())
            mb = json.loads((out_b / f"seed_{seed}" / "manifest.json").read_text())
            ma.pop("timing"), mb.pop("timing")
            assert ma == mb

    def test_one_task_runs_in_process_whatever_the_workers(self, dataset, tmp_path,
                                                          monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-task grid created a process pool")

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
        for workers in ("1", "2"):
            assert main(["run", *dataset_flags(dataset), "--seeds", "42",
                         "--workers", workers, "--out-dir", str(tmp_path / workers),
                         *FAST_FLAGS]) == EXIT_OK
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_two_seeds_aggregate_block(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = main(["run", *dataset_flags(dataset), "--seeds", "42,43",
                     "--out-dir", str(out), *FAST_FLAGS])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert set(report["aggregate"]) == {
            "roc_auc", "average_precision", "hits_at_k", "precision",
            "recall", "f1"}
        assert len(report["per_seed"]) == 2
        csv_text = (out / "report.csv").read_text()
        assert "±" in csv_text

    def test_default_seed_grid_aggregates_five_entries(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = main(["run", *dataset_flags(dataset), "--out-dir", str(out),
                     *FAST_FLAGS])  # default --seeds 42,43,44,45,46
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"] == [42, 43, 44, 45, 46]
        assert len(report["per_seed"]) == 5
        assert report["aggregate"]["roc_auc"]["std"] >= 0.0

    def test_missing_dataset_exits_validation(self, tmp_path, capsys):
        code = main(["run", "--edges", "/nonexistent.csv",
                     "--u-features", "/nope.csv", "--v-features", "/nope2.csv",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION


class TestConfigValidation:
    @pytest.mark.parametrize("command,flags", [
        ("run", ["--batch-size", "0"]),
        ("run", ["--lr", "-1"]),
        ("run", ["--tau", "2"]),
        ("run", ["--dropout", "1.0"]),
        ("run", ["--hits-k", "0"]),
        ("ablate", ["--edge-keep-prob", "0"]),
        ("run", ["--seeds", "42,x"]),
        ("run", ["--decoder-hidden-dims", "4,x"]),
        ("run", ["--decoder-hidden-dims", ","]),
        ("run", ["--lr", "inf"]),
        ("run", ["--weight-decay", "inf"]),
        ("run", ["--tau", "nan"]),
        ("ablate", ["--seeds", "42,"]),
        ("run", ["--hidden-dim", "abc"]),
        ("ablate", ["--lr", "abc"]),
        ("run", ["--weighted-pretrain", "maybe"]),
        ("run", ["--hidden-dim", "2.5"]),
        ("run", ["--seeds", ",42"]),
        ("run", ["--seeds", "42,,43"]),
        ("run", ["--seeds", "42 43"]),
    ])
    def test_bad_value_exits_before_training(self, dataset, tmp_path, capsys,
                                             command, flags):
        out = tmp_path / "out"
        code = main([command, *dataset_flags(dataset), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS, *flags])
        assert code == EXIT_VALIDATION
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("seeds", ["42,42", "", "42,4294967338", "-1"])
    def test_empty_or_repeated_seed_list_exits_before_training(
            self, dataset, tmp_path, capsys, command, seeds):
        out = tmp_path / "out"
        code = main([command, *dataset_flags(dataset), "--seeds", seeds,
                     "--out-dir", str(out), *FAST_FLAGS])
        assert code == EXIT_VALIDATION
        assert "seed list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_split_too_small_for_decoder_exits_before_pretraining(
            self, tmp_path, capsys, monkeypatch, command):
        data = tmp_path / "tiny"  # 12 events: a validation era of one pair
        assert main(["gen-synth", "--n-u", "5", "--n-v", "5", "--n-edges", "12",
                     "--n-blocks", "2", "--out-dir", str(data)]) == EXIT_OK

        def no_pretrain(*args):
            raise AssertionError("pretrain called")

        monkeypatch.setattr(pipeline, "pretrain", no_pretrain)
        capsys.readouterr()
        out = tmp_path / "out"
        code = main([command, *dataset_flags(data), "--seeds", "42",
                     "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert "needs >= 2 validation-era pairs, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_u,n_v,events,error", SHORT_COMPLEMENTS,
                             ids=["no-pool", "too-few-test-negatives"])
    def test_short_complement_exits_before_pretraining(self, tmp_path, capsys, monkeypatch,
                                                       n_u, n_v, events, error):
        data = tmp_path / "data"
        data.mkdir()
        (data / "edges.csv").write_text("u_id,v_id,weight,timestamp\n" + "".join(
            f"u{u},v{v},{w},{t}\n" for u, v, w, t in events))
        for side, n in (("u", n_u), ("v", n_v)):
            (data / f"{side}_features.csv").write_text("id,f1\n" + "".join(
                f"{side}{i},{i + 1}\n" for i in range(n)))
        monkeypatch.setattr(pipeline, "pretrain", no_pretrain)
        out = tmp_path / "out"
        assert main(["run", *dataset_flags(data), "--seeds", "42",
                     "--out-dir", str(out)]) == EXIT_VALIDATION
        assert_one_error_line(capsys, error)
        assert not out.exists()

    def test_malformed_config_file_int_exits_before_training(self, dataset, tmp_path,
                                                             capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("hidden_dim = abc\n")
        out = tmp_path / "out"
        code = main(["run", *dataset_flags(dataset), "--seeds", "42",
                     "--config", str(cfg_file), "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert "hidden_dim" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_bad_worker_count_exits_before_training(self, dataset, tmp_path, capsys,
                                                    command, workers):
        out = tmp_path / "out"
        code = main([command, *dataset_flags(dataset), "--seeds", "42",
                     "--workers", workers, "--out-dir", str(out), *FAST_FLAGS])
        assert code == EXIT_VALIDATION
        assert "workers" in capsys.readouterr().err
        assert not out.exists()


def assert_one_error_line(capsys, name):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and name in err[0], err


class TestMalformedTypedFlag:
    """A flag argparse would type itself exits EXIT_VALIDATION with one line."""

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_run_and_ablate_workers(self, dataset, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = main([command, *dataset_flags(dataset), "--seeds", "42",
                     "--workers", "abc", "--out-dir", str(out), *FAST_FLAGS])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, "workers")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n-u", "--n-v", "--n-edges", "--weight-skew",
                                      "--n-blocks", "--intra-prob", "--time-span",
                                      "--seed"])
    def test_gen_synth(self, tmp_path, capsys, flag):
        code = main(["gen-synth", flag, "abc", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, flag[2:].replace("-", "_"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["4.2", "-1", "4294967338"])
    def test_eval_only_seed(self, dataset, tmp_path, capsys, seed):
        """`rng.child_seed` keeps 32 bits of a seed, so one outside
        [0, 2**32) would score the negatives of one inside."""
        out = tmp_path / "eval.json"
        code = main(["eval-only", *dataset_flags(dataset),
                     "--model", str(DATA / "parent_model.npz"),
                     "--decoder", str(DATA / "parent_decoder.npz"),
                     "--seed", seed, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, "seed")
        assert not out.exists()


def _required(command, out):
    """`command`'s required arguments, with its output path `out`."""
    data = dataset_flags(Path("d"))
    return {"gen-synth": ["--out-dir", out],
            "run": [*data, "--out-dir", out],
            "ablate": [*data, "--out-dir", out],
            "eval-only": [*data, "--model", "m.npz", "--decoder", "d.npz", "--out", out],
            "inspect-checkpoint": ["m.npz"]}[command]


# One abbreviation of a real flag per subcommand.
_ABBREVIATED = {"gen-synth": ["--n-e", "50"], "run": ["--hidden", "8"],
                "ablate": ["--hidden", "8"], "eval-only": ["--mod", "m.npz"],
                "inspect-checkpoint": ["--he"]}


class TestBadInvocation:
    """Unknown and abbreviated flags exit EXIT_VALIDATION with one line,
    before any file is read or written."""

    @pytest.mark.parametrize("command", list(_ABBREVIATED))
    @pytest.mark.parametrize("kind", ["unknown", "abbreviated"])
    def test_flag_exits_validation(self, tmp_path, capsys, command, kind):
        flags = ["--bogus", "1"] if kind == "unknown" else _ABBREVIATED[command]
        out = tmp_path / "out"
        assert main([command, *_required(command, str(out)), *flags]) == EXIT_VALIDATION
        assert_one_error_line(capsys, f"unrecognized arguments: {flags[0]}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_removed_option_is_an_unknown_flag(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, *_required(command, str(out)),
                     "--eval-negative-ratio", "2"]) == EXIT_VALIDATION
        assert_one_error_line(capsys, "unrecognized arguments: --eval-negative-ratio 2")
        assert not out.exists()

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--hidden-dim" in capsys.readouterr().out


class TestUnreadableInput:
    """A missing, unreadable or malformed input file exits EXIT_VALIDATION
    with one line naming it."""

    @pytest.fixture
    def bad_files(self, tmp_path):
        text = tmp_path / "text.npz"
        text.write_text("not an archive\n")
        npy = tmp_path / "array.npz"
        with open(npy, "wb") as fh:
            np.save(fh, np.ones(3))
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe\x00id,f1\n")
        files = {"missing": tmp_path / "missing.file", "text": text, "npy": npy,
                 "binary": binary, "dir": tmp_path}
        for name, meta in (("list_meta", b"[]"), ("broken_meta", b"{")):
            files[name] = tmp_path / f"{name}.npz"
            np.savez(files[name], __meta__=np.frombuffer(meta, dtype=np.uint8))
        return files

    @pytest.mark.parametrize("which", ["missing", "binary", "dir"])
    @pytest.mark.parametrize("flag", ["--edges", "--u-features", "--v-features"])
    def test_dataset_csv(self, dataset, bad_files, tmp_path, capsys, which, flag):
        argv = dataset_flags(dataset)
        argv[argv.index(flag) + 1] = str(bad_files[which])
        out = tmp_path / "out"
        assert main(["run", *argv, "--seeds", "42", "--out-dir", str(out),
                     *FAST_FLAGS]) == EXIT_VALIDATION
        assert_one_error_line(capsys, str(bad_files[which]))
        assert not out.exists()

    @pytest.mark.parametrize("which", ["missing", "binary", "dir"])
    def test_config_file(self, dataset, bad_files, tmp_path, capsys, which):
        out = tmp_path / "out"
        assert main(["ablate", *dataset_flags(dataset), "--seeds", "42",
                     "--config", str(bad_files[which]),
                     "--out-dir", str(out)]) == EXIT_VALIDATION
        assert_one_error_line(capsys, str(bad_files[which]))
        assert not out.exists()

    @pytest.mark.parametrize("which", ["missing", "text", "npy", "dir", "list_meta",
                                       "broken_meta"])
    @pytest.mark.parametrize("flag", ["--model", "--decoder"])
    def test_eval_only_checkpoint(self, dataset, bad_files, capsys, which, flag):
        argv = ["--model", str(DATA / "parent_model.npz"),
                "--decoder", str(DATA / "parent_decoder.npz")]
        argv[argv.index(flag) + 1] = str(bad_files[which])
        assert main(["eval-only", *dataset_flags(dataset), *argv]) == EXIT_VALIDATION
        assert_one_error_line(capsys, str(bad_files[which]))

    @pytest.mark.parametrize("which", ["missing", "text", "npy", "dir", "list_meta",
                                       "broken_meta"])
    def test_inspect_checkpoint(self, bad_files, capsys, which):
        assert main(["inspect-checkpoint", str(bad_files[which])]) == EXIT_VALIDATION
        assert_one_error_line(capsys, str(bad_files[which]))


def with_extra_edges(data_dir, out_dir, rows):
    """Copy of a gen-synth dataset with `rows` appended to its edge file."""
    out_dir.mkdir()
    for name in ("u_features.csv", "v_features.csv"):
        (out_dir / name).write_bytes((data_dir / name).read_bytes())
    text = (data_dir / "edges.csv").read_text() + "".join(f"{r}\n" for r in rows)
    (out_dir / "edges.csv").write_text(text)
    return out_dir, text.count("\n")


def with_heavy_pair(data_dir, out_dir):
    """Copy of a gen-synth dataset with two more train-era events of its
    first pair, whose weights sum to inf. Returns (dir, the pair's ids)."""
    rows = (data_dir / "edges.csv").read_text().splitlines()[1:]
    u_id, v_id = rows[0].split(",")[:2]
    t_min = min(int(row.split(",")[3]) for row in rows)
    data, _ = with_extra_edges(data_dir, out_dir, [f"{u_id},{v_id},1e308,{t_min}"] * 2)
    return data, f"('{u_id}', '{v_id}')"


def with_heavy_total(data_dir, out_dir):
    """Copy of a gen-synth dataset with every edge weight 1e307: no pair's
    events sum past the largest float, but all of them together do."""
    rows = (data_dir / "edges.csv").read_text().splitlines()
    rows[1:] = [",".join([*r.split(",")[:2], "1e307", r.split(",")[3]]) for r in rows[1:]]
    data, _ = with_extra_edges(data_dir, out_dir, [])
    (data / "edges.csv").write_text("\n".join(rows) + "\n")
    return data


def no_pretrain(*args):
    raise AssertionError("pretrain called")


class TestOutputDirectoryThatCannotBeMade:
    """An output directory that cannot be made (here, one under a regular
    file) exits EXIT_VALIDATION with one line naming it, before any
    pretraining, generation or scoring."""

    @pytest.fixture
    def blocker(self, tmp_path, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started")

        for module, name in ((pipeline, "pretrain"), (synthetic, "generate"),
                             (cli, "score_eval")):
            monkeypatch.setattr(module, name, no_work)
        path = tmp_path / "file"
        path.write_text("")
        return path

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_run_and_ablate(self, dataset, blocker, capsys, command):
        out = blocker / "out"
        assert main([command, *dataset_flags(dataset), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS]) == EXIT_VALIDATION
        assert_one_error_line(capsys, f"{out if command == 'run' else out / 'wp_wb'}: "
                                      "cannot create output directory")

    def test_ablate_variant(self, dataset, blocker, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "nwp_nwb").write_text("")
        assert main(["ablate", *dataset_flags(dataset), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS]) == EXIT_VALIDATION
        assert_one_error_line(capsys, str(out / "nwp_nwb"))

    def test_gen_synth(self, blocker, capsys):
        assert main(["gen-synth", "--out-dir", str(blocker)]) == EXIT_VALIDATION
        assert_one_error_line(capsys, f"{blocker}: cannot create output directory")


class TestUnrepresentableInput:
    """Input that passes its value checks but that training cannot represent
    exits EXIT_VALIDATION with one line: before any seed runs when a check
    can see it up front, else naming the op that failed every seed."""

    @pytest.fixture(scope="class")
    def heavy_pair(self, dataset, tmp_path_factory):
        return with_heavy_pair(dataset, tmp_path_factory.mktemp("heavy") / "data")

    @pytest.mark.parametrize("earlier", [[], ["u0,v0,0,1"]], ids=["alone", "after-fault"])
    def test_timestamp_outside_int64(self, dataset, tmp_path, capsys, earlier):
        data, n_lines = with_extra_edges(dataset, tmp_path / "data",
                                         [*earlier, "u0,v0,1,99999999999999999999999"])
        out = tmp_path / "out"
        assert main(["run", *dataset_flags(data), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS]) == EXIT_VALIDATION
        want = ("edge weight must be positive" if earlier
                else "malformed row (timestamp 99999999999999999999999 is outside")
        assert_one_error_line(capsys, f"edges.csv:{n_lines - len(earlier)}: {want}")
        assert not out.exists()

    @pytest.mark.parametrize("command,flags", [
        ("run", ["--weighted-pretrain", "true"]), ("run", ["--weighted-bce", "true"]),
        ("ablate", []),
    ])
    def test_overflowing_pair_weight(self, heavy_pair, tmp_path, capsys, monkeypatch,
                                     command, flags):
        data, pair = heavy_pair
        monkeypatch.setattr(pipeline, "pretrain", no_pretrain)
        out = tmp_path / "out"
        assert main([command, *dataset_flags(data), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS, *flags]) == EXIT_VALIDATION
        assert_one_error_line(capsys, f"pair {pair} sum past the largest float")
        assert not out.exists()

    def test_unweighted_run_of_overflowing_pair_passes(self, heavy_pair, tmp_path):
        data, _ = heavy_pair
        assert main(["run", *dataset_flags(data), "--seeds", "42",
                     "--out-dir", str(tmp_path / "out"), *FAST_FLAGS]) == EXIT_OK

    @pytest.fixture(scope="class")
    def heavy_total(self, dataset, tmp_path_factory):
        return with_heavy_total(dataset, tmp_path_factory.mktemp("heavy-total") / "data")

    @pytest.mark.parametrize("command,flags", [
        ("run", ["--weighted-pretrain", "true"]), ("run", ["--weighted-bce", "true"]),
        ("ablate", []),
    ])
    def test_overflowing_total_weight(self, heavy_total, tmp_path, capsys, monkeypatch,
                                      command, flags):
        """Without the check, the loss and keep-probability totals of weighted
        pretraining read inf and training runs on, scaled to nothing."""
        monkeypatch.setattr(pipeline, "pretrain", no_pretrain)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, *dataset_flags(heavy_total), "--seeds", "42",
                         "--out-dir", str(out), *FAST_FLAGS, *flags])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, "weights together sum past the largest float")
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    def test_unweighted_run_of_overflowing_total_passes(self, heavy_total, tmp_path):
        assert main(["run", *dataset_flags(heavy_total), "--seeds", "42",
                     "--out-dir", str(tmp_path / "out"), *FAST_FLAGS]) == EXIT_OK

    def test_feature_whose_norm_overflows_names_the_op(self, dataset, tmp_path, capsys):
        data, _ = with_extra_edges(dataset, tmp_path / "data", [])
        rows = (data / "u_features.csv").read_text().splitlines()
        first = rows[1].split(",")
        rows[1] = ",".join([first[0], "1e200", *first[2:]])  # finite, its square is not
        (data / "u_features.csv").write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", *dataset_flags(data), "--seeds", "42",
                         "--out-dir", str(tmp_path / "out"), *FAST_FLAGS])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, "non-finite value produced by row_normalize")
        assert [str(w.message) for w in caught] == []


class TestConfigPrecedence:
    def test_flags_beat_file_beat_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tau = 0.5\nhidden_dim = 64\nweighted_pretrain = true\n")
        args = build_parser().parse_args(
            ["run", "--edges", "e", "--u-features", "u", "--v-features", "v",
             "--out-dir", "o", "--config", str(cfg_file), "--tau", "0.25"])
        cfg = build_config(args)
        assert cfg.tau == 0.25          # flag wins
        assert cfg.hidden_dim == 64     # file wins over default
        assert cfg.weighted_pretrain is True
        assert cfg.output_dim == 128    # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("banana = 1\n")
        with pytest.raises(ValidationError, match="banana"):
            read_config_file(bad)

    def test_comments_and_blanks_ignored(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("# comment\n\nlr = 0.01  # trailing\n")
        assert read_config_file(f) == {"lr": 0.01}

    def test_byte_order_mark_accepted(self, tmp_path):
        f = tmp_path / "bom.cfg"
        f.write_bytes(b"\xef\xbb\xbfhidden_dim = 64\nlr = 0.01\n")
        assert read_config_file(f) == {"hidden_dim": 64, "lr": 0.01}

    def test_repeated_key_rejected(self, tmp_path):
        f = tmp_path / "twice.cfg"
        f.write_text("hidden_dim = 64\nlr = 0.01\nhidden_dim = 32\n")
        with pytest.raises(ValidationError, match="twice.cfg:3: config key 'hidden_dim' "
                                                  "is already set at line 1"):
            read_config_file(f)

    @pytest.mark.parametrize("key,raw", [("weighted_bce", "yes"), ("hidden_dim", "64"),
                                         ("tau", "0.5"), ("decoder_hidden_dims", "8, 4")])
    def test_flag_parses_like_config_value(self, tmp_path, key, raw):
        cfg_file = tmp_path / "one.cfg"
        cfg_file.write_text(f"{key} = {raw}\n")
        base = ["run", "--edges", "e", "--u-features", "u", "--v-features", "v",
                "--out-dir", "o"]
        parser = build_parser()
        from_flag = build_config(parser.parse_args(
            base + ["--" + key.replace("_", "-"), raw]))
        from_file = build_config(parser.parse_args(base + ["--config", str(cfg_file)]))
        assert from_flag == from_file != VariantConfig()


class TestAblate:
    def test_four_rows_and_gap(self, dataset, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", *dataset_flags(dataset), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS])
        assert code == EXIT_OK
        rows = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(rows) == 5  # header + 4 variants
        labels = {r.split(",")[0] for r in rows[1:]}
        assert labels == {"wp_wb", "wp_nwb", "nwp_wb", "nwp_nwb"}
        summary = json.loads((out / "ablation.json").read_text())
        assert "max_pairwise_roc_auc_gap" in summary
        assert set(summary["mean_roc_auc"]) == labels
        for label, report in summary["variants"].items():  # one seed: its own value
            assert report["aggregate"] == {}
            assert summary["mean_roc_auc"][label] == report["per_seed"][0]["roc_auc"]
        # weights 1..4 in this dataset: the variant rows genuinely diverge
        per_seed = [json.dumps(v["per_seed"], sort_keys=True)
                    for v in summary["variants"].values()]
        assert len(set(per_seed)) > 1

    def test_failed_variant_keeps_other_variants_reports(self, dataset, tmp_path,
                                                         monkeypatch):
        real = pipeline.pretrain

        def flaky(split, cfg, seed):
            if cfg.weighted_pretrain:
                raise RuntimeError("synthetic pretrain failure")
            return real(split, cfg, seed)

        monkeypatch.setattr(pipeline, "pretrain", flaky)
        out = tmp_path / "ablate"
        code = main(["ablate", *dataset_flags(dataset), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS])
        assert code != EXIT_OK
        for label in ("nwp_wb", "nwp_nwb"):
            assert (out / label / "report.json").exists()
            assert (out / label / "seed_42" / "manifest.json").exists()
        for label in ("wp_wb", "wp_nwb"):
            report = json.loads((out / label / "report.json").read_text())
            assert report["seeds"] == [] and report["aggregate"] == {}
            assert report["failures"][0]["type"] == "RuntimeError"
            assert "synthetic pretrain failure" in report["failures"][0]["traceback"]
            assert "n/a" in (out / label / "report.csv").read_text()

    def test_unit_weight_dataset_rows_identical(self, tmp_path):
        data = tmp_path / "flat"
        assert main(["gen-synth", "--n-u", "20", "--n-v", "20", "--n-edges",
                     "200", "--weight-skew", "1", "--seed", "5",
                     "--out-dir", str(data)]) == EXIT_OK
        out = tmp_path / "ablate"
        code = main(["ablate", *dataset_flags(data), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS])
        assert code == EXIT_OK
        summary = json.loads((out / "ablation.json").read_text())
        assert summary["max_pairwise_roc_auc_gap"] == 0.0
        per_seed = [v["per_seed"] for v in summary["variants"].values()]
        assert all(p == per_seed[0] for p in per_seed)


class TestEvalAndInspect:
    def test_eval_only_reproduces_run_metrics(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", *dataset_flags(dataset), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS]) == EXIT_OK
        manifest = json.loads((out / "seed_42" / "manifest.json").read_text())
        capsys.readouterr()
        code = main(["eval-only", *dataset_flags(dataset),
                     "--model", str(out / "seed_42" / "model.npz"),
                     "--decoder", str(out / "seed_42" / "decoder.npz"),
                     "--seed", "42"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"] == manifest["metrics"]

    def test_pooled_checkpoints_equal_serial_ones(self, dataset, tmp_path, capsys):
        runs = {}
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            assert main(["run", *dataset_flags(dataset), "--seeds", "42,43",
                         "--workers", str(workers), "--out-dir", str(out),
                         *FAST_FLAGS]) == EXIT_OK
            runs[workers] = out
        report = json.loads((runs[2] / "report.json").read_text())
        for i, seed in enumerate((42, 43)):
            serial, pooled = (runs[w] / f"seed_{seed}" for w in (1, 2))
            model_s, _ = load_model_state(serial / "model.npz")
            model_p, _ = load_model_state(pooled / "model.npz")
            assert state_checksum(model_s) == state_checksum(model_p)
            dec_s, dec_p = (load_arrays(d / "decoder.npz")[0] for d in (serial, pooled))
            assert dec_s.keys() == dec_p.keys()
            for name in dec_s:
                np.testing.assert_array_equal(dec_s[name], dec_p[name])
            capsys.readouterr()
            assert main(["eval-only", *dataset_flags(dataset),
                         "--model", str(pooled / "model.npz"),
                         "--decoder", str(pooled / "decoder.npz"),
                         "--seed", str(seed)]) == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            assert report["seeds"][i] == seed
            assert payload["metrics"] == report["per_seed"][i]

    def test_inspect_checkpoint_lists_shapes(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", *dataset_flags(dataset), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS]) == EXIT_OK
        capsys.readouterr()
        code = main(["inspect-checkpoint", str(out / "seed_42" / "model.npz")])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "online.encoder.conv1" in text
        assert "shape=" in text and "model_state" in text


# The gen-synth set that tests/data/parent_*.npz were trained on, and the
# eval-only output of the code that wrote them.
PARENT_SYNTH = ["--n-u", "12", "--n-v", "15", "--n-edges", "80", "--n-blocks", "2",
                "--weight-skew", "3", "--seed", "5"]
PARENT_EVAL = {
    "dataset_hash": "7edbee41153c2d7d731ae56081b43b7a980a63db0fed3999d437884cb143b65b",
    "metrics": {"average_precision": 0.6139423076923077, "f1": 0.4,
                "hits_at_k": 0.5, "precision": 1.0, "recall": 0.25,
                "roc_auc": 0.453125},
}
# SHA-256 of that code's whole printed eval-only output, newline included.
PARENT_EVAL_SHA256 = "2de815b59674638cfb97a2480edffbfd9172935a4b573b3bb3c5b5fc36b6dfc1"


# perfbench's two set-ups at dataset seed 7 (`--weight-skew` 1 and 50):
# generation is byte-stable, features, weights, times and CSV text included.
PERFBENCH_HASHES = {
    "1": "74962b09bb7931dd9f8a324c78dea2aee0bc0da836b17ff0810ec651dc364bed",
    "50": "969a4738f15cc1d9491dba07efb9e2414a46eabd934ad461457b5984247cf048",
}


@pytest.mark.parametrize("skew", sorted(PERFBENCH_HASHES))
def test_perfbench_datasets_are_pinned(tmp_path, capsys, skew):
    assert main(["gen-synth", "--n-u", "200", "--n-v", "300", "--n-edges", "4000",
                 "--weight-skew", skew, "--seed", "7", "--out-dir", str(tmp_path)]) == EXIT_OK
    paths = json.loads(capsys.readouterr().out)
    assert pipeline.dataset_hash(paths) == PERFBENCH_HASHES[skew]


class TestCheckpointFiles:
    @pytest.fixture(scope="class")
    def parent_data(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("parent_data")
        assert main(["gen-synth", *PARENT_SYNTH, "--out-dir", str(out)]) == EXIT_OK
        return out

    def _eval(self, data, model=DATA / "parent_model.npz",
              decoder=DATA / "parent_decoder.npz"):
        return main(["eval-only", *dataset_flags(data), "--model", str(model),
                     "--decoder", str(decoder), "--seed", "42"])

    def _resaved(self, tmp_path, source, edit_arrays=None, edit_config=None):
        arrays, meta = load_arrays(source)
        if edit_arrays:
            edit_arrays(arrays)
        if edit_config:
            edit_config(meta["config"])
        path = tmp_path / source.name
        resave_checkpoint(path, arrays, meta)
        return path

    def test_parent_checkpoints_evaluate_as_before(self, parent_data, capsys):
        assert self._eval(parent_data) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["dataset_hash"] == PARENT_EVAL["dataset_hash"]
        assert payload["metrics"] == PARENT_EVAL["metrics"]
        assert payload["eval_info"]["n_test_positives_new_u"] == 0
        assert payload["eval_info"]["n_test_positives_new_v"] == 0

    def test_parent_checkpoints_print_the_same_bytes(self, parent_data, capsys):
        assert self._eval(parent_data) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PARENT_EVAL_SHA256

    def test_eval_only_out_file_equals_printed_json(self, parent_data, tmp_path, capsys):
        out = tmp_path / "eval.json"
        assert main(["eval-only", *dataset_flags(parent_data),
                     "--model", str(DATA / "parent_model.npz"),
                     "--decoder", str(DATA / "parent_decoder.npz"),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text() == capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["eval.json"]

    def test_eval_only_makes_the_out_directory(self, parent_data, tmp_path, capsys):
        out = tmp_path / "new" / "eval.json"
        assert main(["eval-only", *dataset_flags(parent_data),
                     "--model", str(DATA / "parent_model.npz"),
                     "--decoder", str(DATA / "parent_decoder.npz"),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("where", ["under_file", "dir"])
    def test_eval_only_unwritable_out_exits_before_scoring(self, parent_data, tmp_path,
                                                           capsys, monkeypatch, where):
        def no_scoring(*args):
            raise AssertionError("score_eval called")

        monkeypatch.setattr(cli, "score_eval", no_scoring)
        (tmp_path / "file").write_text("")
        out = {"under_file": tmp_path / "file" / "eval.json", "dir": tmp_path}[where]
        assert main(["eval-only", *dataset_flags(parent_data),
                     "--model", str(DATA / "parent_model.npz"),
                     "--decoder", str(DATA / "parent_decoder.npz"),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert_one_error_line(capsys, str(out.parent if where == "under_file" else out))

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("tau"), lambda m: m.update(tau="0.99"),
        lambda m: m.update(tau=float("nan")), lambda m: m.update(tau=1.5),
    ], ids=["no-tau", "string-tau", "nan-tau", "tau-above-1"])
    def test_metadata_tau_is_not_read(self, parent_data, tmp_path, capsys, edit):
        """The parent files carry a top-level tau, which older code wrote and
        checked; the EMA rate is read from the recorded config alone."""
        arrays, meta = load_arrays(DATA / "parent_model.npz")
        assert meta["tau"] == meta["config"]["tau"] == 0.99
        edit(meta)
        model = tmp_path / "parent_model.npz"
        resave_checkpoint(model, arrays, meta)
        capsys.readouterr()
        assert self._eval(parent_data, model=model) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["metrics"] == PARENT_EVAL["metrics"]

    @pytest.mark.parametrize("edit, problem", [
        (lambda m: m.update(config=[1, 2]), "recorded config is not a JSON object"),
        (lambda m: m["config"].update(hidden_dim="abc"),
         "recorded config: hidden_dim must be an integer, got 'abc'"),
        (lambda m: m["config"].update(decoder_hidden_dims=[3, 2.5]),
         "recorded config: decoder_hidden_dims must be comma-separated integers, "
         "got [3, 2.5]"),
        (lambda m: m["config"].update(tau=2.0),
         "recorded config: tau must be in [0, 1], got 2.0"),
    ], ids=["config-list", "string-width", "float-in-widths", "config-tau-above-1"])
    def test_malformed_metadata_exits_validation(self, parent_data, tmp_path, capsys,
                                                 edit, problem):
        arrays, meta = load_arrays(DATA / "parent_model.npz")
        edit(meta)
        model = tmp_path / "parent_model.npz"
        resave_checkpoint(model, arrays, meta)
        capsys.readouterr()
        assert self._eval(parent_data, model=model) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {model}: {problem}\n"

    def test_overflowing_pair_weight_exits_validation_when_weighted(
            self, parent_data, tmp_path, capsys):
        data, pair = with_heavy_pair(parent_data, tmp_path / "heavy")
        assert self._eval(data) == EXIT_OK
        capsys.readouterr()
        model = self._resaved(tmp_path, DATA / "parent_model.npz",
                              edit_config=lambda c: c.update(weighted_pretrain=True))
        assert self._eval(data, model=model) == EXIT_VALIDATION
        assert_one_error_line(capsys, f"pair {pair} sum past the largest float")

    def test_missing_key_exits_validation(self, parent_data, tmp_path, capsys):
        model = self._resaved(tmp_path, DATA / "parent_model.npz",
                              lambda a: a.pop("online.encoder.conv1"))
        assert self._eval(parent_data, model=model) == EXIT_VALIDATION
        assert "online.encoder.conv1" in capsys.readouterr().err

    def test_target_shape_mismatch_exits_validation(self, parent_data, tmp_path, capsys):
        model = self._resaved(
            tmp_path, DATA / "parent_model.npz",
            lambda a: a.update({"target.encoder.conv1": np.zeros((3, 5))}))
        assert self._eval(parent_data, model=model) == EXIT_VALIDATION
        assert "target.encoder.conv1 has shape (3, 5)" in capsys.readouterr().err

    def test_feature_width_mismatch_exits_validation(self, tmp_path, capsys):
        # three blocks: five feature columns per side instead of four
        assert main(["gen-synth", "--n-u", "12", "--n-v", "15", "--n-edges", "80",
                     "--n-blocks", "3", "--out-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        assert self._eval(tmp_path) == EXIT_VALIDATION
        assert "feature widths (5, 5)" in capsys.readouterr().err

    def test_decoder_width_mismatch_exits_validation(self, parent_data, tmp_path, capsys):
        decoder = tmp_path / "decoder.npz"
        save_decoder(decoder, init_decoder(np.random.default_rng(0), 3, (3, 2)))
        assert self._eval(parent_data, decoder=decoder) == EXIT_VALIDATION
        assert "decoder input width 6" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("num_layers", 3), ("final_layer_relu", True),
        ("loss_on_raw_embeddings", True), ("symmetrize_pretrain_loss", True),
        ("decoder_monitor_fraction", 0.2), ("decoder_negative_pool_factor", 2.0),
        ("eval_negative_ratio", 2.0)])
    def test_removed_switch_set_exits_validation(self, parent_data, tmp_path, capsys,
                                                 field, value):
        model = self._resaved(tmp_path, DATA / "parent_model.npz",
                              edit_config=lambda c: c.update({field: value}))
        assert self._eval(parent_data, model=model) == EXIT_VALIDATION
        assert f"removed field {field}" in capsys.readouterr().err
