import json
from pathlib import Path

import numpy as np
import pytest

from bilink.cli import (EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main,
                        read_config_file)
from bilink.errors import ValidationError

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
        assert code != EXIT_OK
        assert code in (EXIT_VALIDATION, EXIT_RUNTIME)


class TestConfigValidation:
    @pytest.mark.parametrize("command,flags", [
        ("run", ["--batch-size", "0"]),
        ("run", ["--lr", "-1"]),
        ("run", ["--tau", "2"]),
        ("run", ["--dropout", "1.0"]),
        ("run", ["--hits-k", "0"]),
        ("ablate", ["--edge-keep-prob", "0"]),
    ])
    def test_bad_value_exits_before_training(self, dataset, tmp_path, capsys,
                                             command, flags):
        out = tmp_path / "out"
        code = main([command, *dataset_flags(dataset), "--seeds", "42",
                     "--out-dir", str(out), *FAST_FLAGS, *flags])
        assert code == EXIT_VALIDATION
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()


class TestConfigPrecedence:
    def test_flags_beat_file_beat_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tau = 0.5\nhidden_dim = 64\nweighted_pretrain = true\n")
        from bilink.cli import build_config, build_parser

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
        # weights 1..4 in this dataset: the variant rows genuinely diverge
        per_seed = [json.dumps(v["per_seed"], sort_keys=True)
                    for v in summary["variants"].values()]
        assert len(set(per_seed)) > 1

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
