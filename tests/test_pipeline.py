import collections
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bilink import pipeline, training
from bilink.cli import EXIT_OK, EXIT_RUNTIME, main
from bilink.errors import ValidationError
from bilink.graph import chronological_split
from bilink.model import ModelState, ParamStore
from bilink.rng import seed_int
from bilink.synthetic import SyntheticSpec, write_dataset
from bilink.training import VariantConfig
from util import make_graph

FAST = dict(pretrain_epochs=3, decoder_epochs=5, input_dim=12, hidden_dim=12,
            output_dim=8, decoder_hidden_dims=(12, 6))
# The four cells of the weighting ablation, in `run_ablation`'s order.
VARIANTS = [{"weighted_pretrain": wp, "weighted_bce": wb}
            for wp in (True, False) for wb in (True, False)]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    return write_dataset(SyntheticSpec(n_u=25, n_v=25, n_edges=300,
                                       weight_skew=3, seed=11), out)


def _load(paths):
    return pipeline.load_dataset(paths["edges"], paths["u_features"],
                                 paths["v_features"])


def test_worker_pool_matches_sequential(dataset, tmp_path):
    graph, ds_hash = _load(dataset)
    cfg = VariantConfig(**FAST)
    seq = pipeline.run_dataset(graph, cfg, [42, 43], tmp_path / "seq", ds_hash,
                               workers=1)
    par = pipeline.run_dataset(graph, cfg, [42, 43], tmp_path / "par", ds_hash,
                               workers=2)
    assert seq["per_seed"] == par["per_seed"]
    assert ((tmp_path / "seq" / "report.json").read_bytes()
            == (tmp_path / "par" / "report.json").read_bytes())


def test_failed_seed_recorded_others_proceed(dataset, tmp_path, monkeypatch):
    graph, ds_hash = _load(dataset)
    cfg = VariantConfig(**FAST)
    real = pipeline.pretrain

    def flaky(split, cfg_, seed):
        if seed == 43:
            raise RuntimeError("synthetic failure for seed 43")
        return real(split, cfg_, seed)

    monkeypatch.setattr(pipeline, "pretrain", flaky)
    pipeline.run_dataset(graph, cfg, [42, 43, 44], tmp_path, ds_hash)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seeds"] == [42, 44]
    assert report["failures"][0]["seed"] == 43
    assert "synthetic failure" in report["failures"][0]["error"]
    assert len(report["per_seed"]) == 2
    assert not (tmp_path / "seed_43").exists()


@pytest.mark.parametrize("seeds", [[], [42, 42], [42, 42 + 2 ** 32], [-1]])
def test_empty_or_repeated_seed_list_rejected(dataset, tmp_path, seeds):
    graph, ds_hash = _load(dataset)
    cfg = VariantConfig(**FAST)
    with pytest.raises(ValidationError, match="seed list"):
        pipeline.run_dataset(graph, cfg, seeds, tmp_path / "run", ds_hash)
    with pytest.raises(ValidationError, match="seed list"):
        pipeline.run_ablation(graph, cfg, seeds, tmp_path / "ablate", ds_hash)
    assert list(tmp_path.iterdir()) == []


def test_dataset_hash_tracks_contents(dataset, tmp_path):
    _, h1 = _load(dataset)
    _, h2 = _load(dataset)
    assert h1 == h2
    other = write_dataset(SyntheticSpec(n_u=25, n_v=25, n_edges=300,
                                        weight_skew=3, seed=12), tmp_path)
    _, h3 = _load(other)
    assert h3 != h1
    # A file of several chunks hashes as its whole bytes, the last chunk included.
    big = tmp_path / "big.bin"
    data = bytearray(b"0123456789abcdef" * (pipeline.HASH_CHUNK // 8) + b"tail")
    big.write_bytes(data)
    h4 = pipeline.dataset_hash({"edges": big})
    assert h4 == hashlib.sha256(b"edges" + data).hexdigest()
    data[-1:] = b"!"
    big.write_bytes(data)
    assert pipeline.dataset_hash({"edges": big}) != h4


def test_runtime_failure_exit_code(tmp_path, capsys):
    """An output file that cannot be written in a directory that can be made
    is a runtime failure; an input that cannot be read, or an output
    directory that cannot be made, is a validation error (`test_cli.py`)."""
    (tmp_path / "edges.csv").mkdir()
    code = main(["gen-synth", "--out-dir", str(tmp_path)])
    assert code == EXIT_RUNTIME
    assert "runtime failure" in capsys.readouterr().err


def test_split_reused_across_seeds_is_unmutated(dataset):
    graph, _ = _load(dataset)
    split = chronological_split(graph)
    before = split.train.edges.u.copy()
    pipeline.run_seed(split, [VariantConfig(**FAST)], 42)
    pipeline.run_seed(split, [VariantConfig(**FAST)], 43)
    np.testing.assert_array_equal(split.train.edges.u, before)


def _without_timing(path):
    manifest = json.loads(path.read_text())
    manifest.pop("timing")
    return manifest


@pytest.mark.parametrize("workers", [1, 2])
def test_ablation_matches_separate_runs(dataset, tmp_path, workers):
    graph, ds_hash = _load(dataset)
    base = VariantConfig(**FAST)
    pipeline.run_ablation(graph, base, [42, 43], tmp_path / "grid", ds_hash,
                          workers=workers)
    summary = json.loads((tmp_path / "grid" / "ablation.json").read_text())
    for flags in VARIANTS:
        cfg = base.replace(**flags)
        alone = tmp_path / "alone" / cfg.variant_label
        pipeline.run_dataset(graph, cfg, [42, 43], alone, ds_hash)
        shared = tmp_path / "grid" / cfg.variant_label
        for name in ("report.json", "report.csv"):
            assert (shared / name).read_bytes() == (alone / name).read_bytes()
        report = json.loads((shared / "report.json").read_text())
        assert (summary["mean_roc_auc"][cfg.variant_label]
                == report["aggregate"]["roc_auc"]["mean"])
        for seed in (42, 43):
            assert (_without_timing(shared / f"seed_{seed}" / "manifest.json")
                    == _without_timing(alone / f"seed_{seed}" / "manifest.json"))


def test_ablation_mean_roc_auc_is_the_report_mean(dataset, tmp_path, monkeypatch):
    """`mean_roc_auc` equals each report's mean bit for bit. At three seeds
    scoring 0.1, 0.2 and 0.3 the float sum rounds, so an exactly rounded mean
    (`statistics.fmean`, 0.19999999999999998) differs from numpy's
    (0.20000000000000004); two seeds cannot tell the two apart."""
    auc = {42: 0.1, 43: 0.2, 44: 0.3}

    def scored(split, cfgs, seed, checkpoint_dir=None):
        return [{"seed": seed, "metrics": dict.fromkeys(pipeline.mt.METRIC_NAMES,
                                                        auc[seed])}] * len(cfgs)

    monkeypatch.setattr(pipeline, "run_seed", scored)
    graph, ds_hash = _load(dataset)
    pipeline.run_ablation(graph, VariantConfig(**FAST), list(auc), tmp_path, ds_hash)
    summary = json.loads((tmp_path / "ablation.json").read_text())
    for label, report in summary["variants"].items():
        assert report["aggregate"]["roc_auc"]["mean"] == 0.20000000000000004
        assert summary["mean_roc_auc"][label] == 0.20000000000000004


def test_ablation_pretrains_once_per_pretraining_config(dataset, tmp_path, monkeypatch):
    graph, ds_hash = _load(dataset)
    real, calls = pipeline.pretrain, []

    def counting(split, cfg_, seed):
        calls.append((cfg_.weighted_pretrain, seed))
        return real(split, cfg_, seed)

    monkeypatch.setattr(pipeline, "pretrain", counting)
    pipeline.run_ablation(graph, VariantConfig(**FAST), [42, 43], tmp_path, ds_hash)
    assert sorted(calls) == [(False, 42), (False, 43), (True, 42), (True, 43)]
    for seed in (42, 43):
        timing = {label: json.loads(
            (tmp_path / label / f"seed_{seed}" / "manifest.json").read_text())["timing"]
            for label in ("wp_wb", "wp_nwb", "nwp_wb", "nwp_nwb")}
        assert [t["pretrain_reused"] for t in timing.values()] == [False, True,
                                                                   False, True]


def _failures(path):
    return json.loads((path / "report.json").read_text()).get("failures", [])


def test_ablation_builds_the_frozen_encoder_inputs_once_per_pretrain(
        dataset, tmp_path, monkeypatch):
    """Per seed and pretraining config: the train and train+val embeddings,
    the decoder's negative pool and the test negatives, once each for the
    two variants that read them."""
    graph, ds_hash = _load(dataset)
    tasks = []  # one call count per pretrain

    def spy(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            if name == "pretrain":
                tasks.append(collections.Counter())
            else:
                tasks[-1][name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    spy(pipeline, "pretrain")
    for module in (pipeline, training):
        spy(module, "extract_embeddings")
        spy(module, "sample_negatives")
    pipeline.run_ablation(graph, VariantConfig(**FAST), [42, 43], tmp_path, ds_hash)
    assert tasks == [{"extract_embeddings": 2, "sample_negatives": 2}] * 4


def test_failed_shared_step_recorded_under_every_variant_sharing_it(
        dataset, tmp_path, monkeypatch):
    graph, ds_hash = _load(dataset)
    real, failed = pipeline.sample_negatives, []

    def flaky(split, count, rng_seed):
        # the first task of seed 43 (weighted pretraining) loses its pool
        if rng_seed == seed_int(43, "decoder-pool") and not failed:
            failed.append(rng_seed)
            raise RuntimeError("synthetic sampling failure")
        return real(split, count, rng_seed)

    monkeypatch.setattr(pipeline, "sample_negatives", flaky)
    pipeline.run_ablation(graph, VariantConfig(**FAST), [42, 43], tmp_path, ds_hash)
    for label in ("wp_wb", "wp_nwb"):
        (failure,) = _failures(tmp_path / label)
        assert failure["seed"] == 43
        assert failure["type"] == "RuntimeError"
        assert failure["error"] == "synthetic sampling failure"
        assert failure["traceback"].count("in flaky") == 1
        assert not (tmp_path / label / "seed_43").exists()
        assert (tmp_path / label / "seed_42" / "manifest.json").exists()
    for label in ("nwp_wb", "nwp_nwb"):
        assert _failures(tmp_path / label) == []
        assert (tmp_path / label / "seed_43" / "manifest.json").exists()


def test_task_configs_must_share_a_pretrain(dataset):
    split = chronological_split(_load(dataset)[0])
    cfg = VariantConfig(**FAST)
    with pytest.raises(ValidationError, match="weighted_bce alone"):
        pipeline.run_seed(split, [cfg, cfg.replace(weighted_pretrain=True)], 42)


def test_pretraining_survives_a_view_that_drops_every_edge(tmp_path):
    """24 train events on one pair: at keep probability 0.8, one epoch in
    five would draw view 1 with no edge, over which the loss is undefined."""
    edges = [(0, 0, 1.0, t) for t in range(24)]
    edges += [(1, 1, 1.0, 24), (2, 2, 1.0, 25), (3, 3, 1.0, 26),
              (4, 4, 1.0, 27), (5, 5, 1.0, 28), (1, 2, 1.0, 29)]
    graph = make_graph(6, 6, edges)
    split = chronological_split(graph)
    train = split.train.edges
    assert len(train) == 24 and set(zip(train.u.tolist(), train.v.tolist())) == {(0, 0)}
    cfg = VariantConfig(**{**FAST, "pretrain_epochs": 50})
    _, trace = training.pretrain(split, cfg, 42)
    assert len(trace) == 50 and all(np.isfinite(e["total"]) for e in trace)
    report = pipeline.run_dataset(graph, cfg, [42], tmp_path, "in-memory")
    assert report["seeds"] == [42]


def _perfbench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_light_tracer_finds_every_pretraining_epoch(dataset, tmp_path):
    """The benchmark's untraced runs time pretraining epochs from the spans
    of `pipeline.pretrain` and of its `model.ema_update` calls, one per
    epoch; a refactor that stops calling them through those names leaves
    its `pretrain_epoch_ms` empty."""
    spans = _perfbench_spans()
    tracer = spans.Tracer(spans.LIGHT).install()
    tracer.spans_dir = tmp_path / "spans"
    tracer.spans_dir.mkdir()
    try:
        code = main(["ablate", "--edges", str(dataset["edges"]),
                     "--u-features", str(dataset["u_features"]),
                     "--v-features", str(dataset["v_features"]), "--seeds", "42,43",
                     "--workers", "1", "--out-dir", str(tmp_path / "out"),
                     "--pretrain-epochs", "3", "--decoder-epochs", "2",
                     "--input-dim", "12", "--hidden-dim", "12", "--output-dim", "8",
                     "--decoder-hidden-dims", "12,6"])
    finally:
        tracer.uninstall()
        tracer.flush()
    assert code == EXIT_OK
    tree = spans.SpanTree(spans.load_spans(tracer.spans_dir))
    pretrains = tree.named("training.pretrain")
    assert sorted(tuple(s["tag"]) for s in pretrains) == [
        (False, 42), (False, 43), (True, 42), (True, 43)]
    for span in pretrains:
        assert len(tree.kids(span, "model.ema_update")) == 3
        assert len(spans.epoch_seconds(tree, span)) == 3


def test_failed_pretrain_recorded_under_every_variant_sharing_it(
        dataset, tmp_path, monkeypatch):
    graph, ds_hash = _load(dataset)
    real, calls = pipeline.pretrain, []

    def flaky(split, cfg_, seed):
        calls.append((cfg_.weighted_pretrain, seed))
        if seed == 43 and cfg_.weighted_pretrain:
            raise RuntimeError("synthetic pretrain failure")
        return real(split, cfg_, seed)

    monkeypatch.setattr(pipeline, "pretrain", flaky)
    pipeline.run_ablation(graph, VariantConfig(**FAST), [42, 43], tmp_path, ds_hash)
    assert len(calls) == 4  # 2 seeds x 2 pretraining configs
    for label in ("wp_wb", "wp_nwb"):
        (failure,) = _failures(tmp_path / label)
        assert failure["seed"] == 43
        assert failure["type"] == "RuntimeError"
        assert failure["error"] == "synthetic pretrain failure"
        assert failure["traceback"].count("in flaky") == 1
        assert not (tmp_path / label / "seed_43").exists()
    for label in ("nwp_wb", "nwp_nwb"):
        assert _failures(tmp_path / label) == []
        assert (tmp_path / label / "seed_43" / "manifest.json").exists()


def test_failed_decoder_recorded_under_its_own_variant(dataset, tmp_path, monkeypatch):
    graph, ds_hash = _load(dataset)
    real = pipeline.train_decoder
    decoder_seed_43 = seed_int(43, "decoder")

    def flaky(emb, positives, weights, negatives, cfg_, seed):
        if cfg_.variant_label == "wp_wb" and seed == decoder_seed_43:
            raise ValueError("synthetic decoder failure")
        return real(emb, positives, weights, negatives, cfg_, seed)

    monkeypatch.setattr(pipeline, "train_decoder", flaky)
    pipeline.run_ablation(graph, VariantConfig(**FAST), [42, 43], tmp_path, ds_hash)
    (failure,) = _failures(tmp_path / "wp_wb")
    assert failure["seed"] == 43 and failure["type"] == "ValueError"
    assert (tmp_path / "wp_wb" / "seed_42" / "manifest.json").exists()
    for label in ("wp_nwb", "nwp_wb", "nwp_nwb"):
        assert _failures(tmp_path / label) == []


def test_failure_record_from_pool_worker(dataset, tmp_path, monkeypatch):
    graph, ds_hash = _load(dataset)
    real = pipeline.pretrain

    def flaky(split, cfg_, seed):
        if seed == 43:
            raise RuntimeError("synthetic failure for seed 43")
        return real(split, cfg_, seed)

    monkeypatch.setattr(pipeline, "pretrain", flaky)
    pipeline.run_dataset(graph, VariantConfig(**FAST), [42, 43], tmp_path, ds_hash,
                         workers=2)
    (failure,) = _failures(tmp_path)
    assert failure["seed"] == 43
    assert failure["type"] == "RuntimeError"
    assert "synthetic failure for seed 43" in failure["traceback"]
    assert "in flaky" in failure["traceback"]


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        from concurrent.futures import Future

        fut = Future()
        fut.set_result(fn(*args))
        return fut


def test_one_pool_per_call_capped_at_task_count(dataset, tmp_path, monkeypatch):
    graph, ds_hash = _load(dataset)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _InlinePool)
    _InlinePool.created = []
    # ablate: one task per (seed, weighted_pretrain), so 2 seeds make 4 tasks
    pipeline.run_ablation(graph, VariantConfig(**FAST), [42, 43], tmp_path / "a",
                          ds_hash, workers=10_000)
    assert _InlinePool.created == [4]
    _InlinePool.created = []
    pipeline.run_dataset(graph, VariantConfig(**FAST), [42, 43], tmp_path / "r",
                         ds_hash, workers=10_000)
    assert _InlinePool.created == [2]


def test_phase_2_runs_without_the_online_gradient_buffer(dataset, tmp_path, monkeypatch):
    graph, ds_hash = _load(dataset)
    real, states = pipeline.pretrain, []

    def keeping(split, cfg_, seed):
        state, trace = real(split, cfg_, seed)
        states.append(state)
        return state, trace

    monkeypatch.setattr(pipeline, "pretrain", keeping)
    pipeline.run_dataset(graph, VariantConfig(**FAST), [42], tmp_path, ds_hash)
    (state,) = states
    assert state.online.grad is None
    assert all(p.grad is None for p in state.online.values())


def test_task_runs_on_one_blas_thread_and_restores_count(dataset, tmp_path,
                                                         monkeypatch):
    fns = pipeline._openblas()
    if fns is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, set_ = fns
    graph, ds_hash = _load(dataset)
    real, seen = pipeline.pretrain, []

    def recording(split, cfg_, seed):
        seen.append(get())
        return real(split, cfg_, seed)

    monkeypatch.setattr(pipeline, "pretrain", recording)
    before = get()
    set_(2)
    try:
        pipeline.run_dataset(graph, VariantConfig(**FAST), [42], tmp_path, ds_hash)
        after = get()
    finally:
        set_(before)
    assert seen == [1]
    assert after == 2
    timing = json.loads((tmp_path / "seed_42" / "manifest.json").read_text())["timing"]
    assert timing["blas_threads"] == 1


def test_blas_threads_recorded_null_without_openblas(dataset, tmp_path, monkeypatch):
    graph, ds_hash = _load(dataset)
    monkeypatch.setattr(pipeline, "_openblas", lambda: None)
    pipeline.run_dataset(graph, VariantConfig(**FAST), [42], tmp_path, ds_hash)
    timing = json.loads((tmp_path / "seed_42" / "manifest.json").read_text())["timing"]
    assert timing["blas_threads"] is None


def test_worker_count_does_not_change_results_at_default_widths(tmp_path):
    # Default input, hidden and output widths: products large enough that
    # OpenBLAS would split them differently at 1 and 2 threads.
    paths = write_dataset(SyntheticSpec(n_u=200, n_v=300, n_edges=4000, seed=7),
                          tmp_path / "data")
    graph, ds_hash = _load(paths)
    cfg = VariantConfig(pretrain_epochs=2, decoder_epochs=2)
    for workers in (1, 2):
        pipeline.run_dataset(graph, cfg, [42, 43], tmp_path / str(workers), ds_hash,
                             workers=workers)
    for seed in (42, 43):  # manifests hold the encoder checksums
        assert (_without_timing(tmp_path / "1" / f"seed_{seed}" / "manifest.json")
                == _without_timing(tmp_path / "2" / f"seed_{seed}" / "manifest.json"))
    assert ((tmp_path / "1" / "report.json").read_bytes()
            == (tmp_path / "2" / "report.json").read_bytes())


def test_degenerate_decoder_monitor_flagged(tmp_path):
    paths = write_dataset(SyntheticSpec(n_u=30, n_v=30, n_edges=400, weight_skew=4,
                                        seed=3), tmp_path)
    graph, _ = _load(paths)
    split = chronological_split(graph)
    cfg = VariantConfig(**{**FAST, "pretrain_epochs": 4, "decoder_epochs": 30})
    # A 200-negative pool. A 10% slice (20 negatives, fewer than hits_k = 50)
    # read Hits@50 = 1.0 at every epoch and kept epoch 0; the slice now takes
    # 50 negatives, and with no more than hits_k of them it monitors ROC-AUC.
    (result,) = pipeline.run_seed(split, [cfg], 42)
    assert result["decoder"]["monitor_metric"] == "roc_auc"
    assert len(set(result["decoder"]["monitor_history"])) > 1
    assert result["decoder"]["best_epoch"] > 0
    assert result["decoder"]["stopped_at_early_best"] is False
    (healthy,) = pipeline.run_seed(split, [cfg.replace(hits_k=2)], 42)
    assert healthy["decoder"]["monitor_metric"] == "hits_at_k"


def _held_arrays(obj, path="record"):
    """Paths of every ndarray, ParamStore or ModelState inside `obj`."""
    if isinstance(obj, (np.ndarray, ParamStore, ModelState)):
        return [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _held_arrays(v, f"{path}[{k!r}]")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in _held_arrays(v, f"{path}[{i}]")]
    return []


@pytest.mark.parametrize("workers", [1, 2])
def test_task_records_hold_no_arrays(dataset, tmp_path, workers):
    graph, _ = _load(dataset)
    cfgs = [VariantConfig(**FAST).replace(**flags) for flags in VARIANTS]
    rows = pipeline._run_grid(graph, [cfgs[:2], cfgs[2:]], [42, 43], workers)
    rows += pipeline._run_grid(graph, [[cfgs[0]]], [42, 43], workers, tmp_path)
    assert [len(row) for row in rows] == [4, 4, 1, 1]
    assert all("error" not in outcome for row in rows for outcome in row)
    assert [outcome["variant"] for outcome in rows[0]] == [
        "wp_wb", "wp_nwb", "nwp_wb", "nwp_nwb"]
    assert _held_arrays(rows) == []
    # the tasks wrote every checkpoint themselves
    for seed in (42, 43):
        assert (tmp_path / f"seed_{seed}" / "model.npz").exists()
        assert (tmp_path / f"seed_{seed}" / "decoder.npz").exists()


def test_only_run_writes_checkpoints(dataset, tmp_path):
    """`ablate` writes one manifest per (variant, seed) and no checkpoint;
    `run` writes a manifest, the model and the decoder per seed."""
    graph, ds_hash = _load(dataset)
    cfg = VariantConfig(**FAST)
    pipeline.run_ablation(graph, cfg, [42, 43], tmp_path / "ablate", ds_hash)
    pipeline.run_dataset(graph, cfg, [42, 43], tmp_path / "run", ds_hash)

    def files(seed_dir):
        return sorted(path.name for path in seed_dir.iterdir())

    for flags in VARIANTS:
        label = cfg.replace(**flags).variant_label
        for seed in (42, 43):
            assert files(tmp_path / "ablate" / label / f"seed_{seed}") == ["manifest.json"]
    for seed in (42, 43):
        assert files(tmp_path / "run" / f"seed_{seed}") == [
            "decoder.npz", "manifest.json", "model.npz"]


@pytest.mark.parametrize("workers", [1, 2])
def test_manifest_records_process_peak_rss(dataset, tmp_path, workers):
    graph, ds_hash = _load(dataset)
    pipeline.run_dataset(graph, VariantConfig(**FAST), [42, 43], tmp_path, ds_hash,
                         workers=workers)
    for seed in (42, 43):
        timing = json.loads((tmp_path / f"seed_{seed}" / "manifest.json")
                            .read_text())["timing"]
        peak = timing["process_peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_checkpoint_write_recorded_others_proceed(dataset, tmp_path,
                                                         monkeypatch, workers):
    graph, ds_hash = _load(dataset)
    real = pipeline.ckpt.save_decoder

    def flaky(path, dec, meta):
        if meta["seed"] == 43:
            raise OSError("synthetic write failure")
        return real(path, dec, meta)

    monkeypatch.setattr(pipeline.ckpt, "save_decoder", flaky)
    report = pipeline.run_dataset(graph, VariantConfig(**FAST), [42, 43], tmp_path,
                                  ds_hash, workers=workers)
    assert report["seeds"] == [42]
    (failure,) = _failures(tmp_path)
    assert failure["seed"] == 43 and failure["type"] == "OSError"
    assert (tmp_path / "seed_42" / "decoder.npz").exists()
    assert not (tmp_path / "seed_43" / "manifest.json").exists()
