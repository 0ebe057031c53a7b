"""End-to-end runs: split, pretrain, freeze, decode, evaluate, report.

A run directory is self-describing: dataset hash, full config and seed are
recorded in the manifest, and rerunning the same spec reproduces the metric
report byte-for-byte (wall-clock timings live in a separate manifest field).
Every file is written atomically (a temporary file, then `os.replace`), so an
interrupted write leaves the previous file intact.
"""

import contextlib
import csv
import ctypes
import dataclasses
import functools
import hashlib
import json
import resource
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import metrics as mt
from .errors import ValidationError
from .graph import (BipartiteGraph, aggregate_pairs, chronological_split,
                    complement_size, load_graph, sample_negatives)
from .model import state_checksum
from .rng import seed_int
from .training import (ALL_VARIANTS, VariantConfig, eval_negative_count,
                       evaluate_final, extract_embeddings, pretrain, train_decoder)

DEFAULT_SEEDS = (42, 43, 44, 45, 46)


def dataset_hash(paths: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(paths):
        h.update(key.encode())
        h.update(Path(paths[key]).read_bytes())
    return h.hexdigest()


def _pretrain_key(cfg: VariantConfig, seed: int) -> tuple:
    """What phase 1 reads: the seed and the config less `weighted_bce`."""
    return seed, dataclasses.astuple(cfg.replace(weighted_bce=False))


def _decoder_pool_size(split, cfg: VariantConfig) -> int:
    """Phase 2's negative pool size, after checking every phase-2 count (2+
    validation-era pairs and pool negatives, `eval_negative_count`), so that
    a split too small for phase 2 can fail before pretraining."""
    n_pos = len(aggregate_pairs(split.val_edges, split.train.n_v, use_weights=False)[0])
    if n_pos < 2:
        raise ValidationError(
            f"decoder training needs >= 2 validation-era pairs, got {n_pos}")
    pool_target = int(np.ceil(cfg.decoder_negative_pool_factor * n_pos))
    pool_size = min(pool_target, complement_size(split))
    if pool_size < 2:
        raise ValidationError("complement too small to sample a negative pool")
    eval_negative_count(split, cfg)
    return pool_size


def run_seed(split, cfg: VariantConfig, seed: int, pretrained=None) -> dict:
    """One full two-phase run for a single seed. Returns a manifest dict.

    `pretrained` is the (state, trace) of `pretrain(split, cfg, seed)`, shared
    by the variants that differ only in `weighted_bce`; with None, phase 1
    runs here. The encoder is frozen after phase 1, so sharing it changes no
    output. The trained model and decoder come back under `_state` and
    `_decoder`.
    """
    t0 = time.monotonic()
    state, trace = pretrain(split, cfg, seed) if pretrained is None else pretrained
    checksum_before = state_checksum(state)

    emb = extract_embeddings(state, split.train, cfg)
    vu, vv, vw = aggregate_pairs(split.val_edges, split.train.n_v, use_weights=True)
    positives = np.stack([vu, vv], axis=1)
    negatives = sample_negatives(split, _decoder_pool_size(split, cfg),
                                 seed_int(seed, "decoder-pool"))

    dec, record = train_decoder(emb, positives, vw, negatives, cfg,
                                seed_int(seed, "decoder"))
    checksum_after = state_checksum(state)
    metrics, info = evaluate_final(state, split, dec, cfg, seed)

    return {
        "seed": seed,
        "variant": cfg.variant_label,
        "config": dataclasses.asdict(cfg),
        "pretrain_trace": trace,
        "decoder": {
            "best_epoch": record.best_epoch,
            "best_monitor_score": record.best_score,
            "epochs_run": record.epochs_run,
            "monitor_metric": record.monitor_metric,
            "monitor_history": record.monitor_history,
            "stopped_at_early_best": record.stopped_at_early_best,
        },
        "encoder_checksum_before_decoder": checksum_before,
        "encoder_checksum_after_decoder": checksum_after,
        "metrics": metrics,
        "eval_info": info,
        "_state": state,
        "_decoder": dec,
        "_timing": {"elapsed_seconds": time.monotonic() - t0},
    }


def _failure(seed: int, exc: BaseException) -> dict:
    return {"seed": seed, "error": str(exc), "type": type(exc).__name__,
            "traceback": "".join(traceback.format_exception(exc))}


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None
    when numpy uses another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS to one thread, then put the count back.

    Yields the count the body runs with, or None (nothing pinned) when the
    library is not found. Two training processes on two cores would
    otherwise bring two thread pools whose idle threads spin. OpenBLAS also
    splits large-K products differently at 1 and 2 threads, so every task
    pins, serial or pooled: results then depend on neither `workers` nor the
    host's core count.
    """
    fns = _openblas()
    if fns is None:
        yield None
        return
    get, set_ = fns
    before = get()
    set_(1)
    try:
        yield get()
    finally:
        set_(before)


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def _run_seed_variants(split, cfgs, seed, checkpoint_dirs=None):
    """Variants of one seed that share one pretrain, one after another, on
    one BLAS thread. Returns one manifest dict or failure record per variant,
    in order. It pins here, in the task, so that the pin holds under any
    start method of the pool.

    With `checkpoint_dirs` (one per variant), each variant's model and
    decoder are written to `<dir>/seed_<seed>/` as soon as it finishes. The
    records hold no arrays either way, so a pool sends back only manifests
    and the caller's memory does not grow with the seed count.
    """
    with _one_blas_thread() as threads:
        t0 = time.monotonic()
        try:
            pretrained = pretrain(split, cfgs[0], seed)
        except Exception as exc:
            return [_failure(seed, exc)] * len(cfgs)
        timing = {"pretrain_seconds": time.monotonic() - t0, "blas_threads": threads}
        outcomes = []
        for i, cfg in enumerate(cfgs):
            try:
                result = run_seed(split, cfg, seed, pretrained)
                state, dec = result.pop("_state"), result.pop("_decoder")
                if checkpoint_dirs is not None:
                    seed_dir = checkpoint_dirs[i] / f"seed_{seed}"
                    seed_dir.mkdir(parents=True, exist_ok=True)
                    meta = {"config": result["config"], "seed": seed}
                    ckpt.save_model_state(seed_dir / "model.npz", state, meta)
                    ckpt.save_decoder(seed_dir / "decoder.npz", dec, meta)
            except Exception as exc:
                outcomes.append(_failure(seed, exc))
            else:
                result["_timing"].update(timing, pretrain_reused=i > 0)
                outcomes.append(result)
    peak = _peak_rss_mb()
    for outcome in outcomes:
        if "_timing" in outcome:
            outcome["_timing"]["process_peak_rss_mb"] = peak
    return outcomes


def _run_grid(graph: BipartiteGraph, cfgs, seeds, workers: int,
              checkpoint_dirs=None):
    """Outcomes of every (seed, variant), one row per seed in seed order.

    One task per (seed, pretraining config): the variants that share a
    pretrain run one after another in one task, and with `workers > 1` the
    tasks share one pool of at most `workers` forked processes. With
    `checkpoint_dirs` (one per variant), the tasks write their checkpoints.
    Seeds, workers and each config's phase-2 sizes are checked first.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    seeds = list(seeds)
    if not seeds:
        raise ValidationError("seed list is empty")
    if len(set(seeds)) < len(seeds):
        raise ValidationError(f"seed list repeats a seed: {seeds}")
    split = chronological_split(graph)
    for cfg in cfgs:
        _decoder_pool_size(split, cfg)
    tasks = []  # (row, indices of the variants sharing one pretrain)
    for row, seed in enumerate(seeds):
        groups = {}
        for i, cfg in enumerate(cfgs):
            groups.setdefault(_pretrain_key(cfg, seed), []).append(i)
        tasks += [(row, idx) for idx in groups.values()]
    jobs = [(split, [cfgs[i] for i in idx], seeds[row],
             None if checkpoint_dirs is None else [checkpoint_dirs[i] for i in idx])
            for row, idx in tasks]
    if workers == 1:
        results = [_run_seed_variants(*job) for job in jobs]
    else:
        results = []
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            futures = [pool.submit(_run_seed_variants, *job) for job in jobs]
            for (row, idx), fut in zip(tasks, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:  # the task never returned, e.g. a lost worker
                    results.append([_failure(seeds[row], exc)] * len(idx))
    rows = [[None] * len(cfgs) for _ in seeds]
    for (row, idx), outcomes in zip(tasks, results):
        for i, outcome in zip(idx, outcomes):
            rows[row][i] = outcome
    return rows


def _manifest_json(result: dict, ds_hash: str) -> dict:
    out = {k: v for k, v in result.items() if not k.startswith("_")}
    out["dataset_hash"] = ds_hash
    out["timing"] = result["_timing"]
    return out


def _write_json(path, payload) -> None:
    with ckpt.atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_variant(out_dir: Path, cfg: VariantConfig, outcomes,
                   ds_hash: str) -> mt.EvalReport:
    """Per-seed manifests plus the report of one variant."""
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [o for o in outcomes if "error" not in o]
    failures = [o for o in outcomes if "error" in o]
    for result in results:
        seed_dir = out_dir / f"seed_{result['seed']}"
        seed_dir.mkdir(exist_ok=True)
        _write_json(seed_dir / "manifest.json", _manifest_json(result, ds_hash))

    per_seed = [r["metrics"] for r in results]
    ok_seeds = [r["seed"] for r in results]
    if len(results) >= 2:
        report = mt.aggregate(ok_seeds, per_seed)
    else:
        report = mt.EvalReport(seeds=ok_seeds, per_seed=per_seed, aggregate={})

    payload = report.to_dict()
    payload["variant"] = cfg.variant_label
    payload["dataset_hash"] = ds_hash
    if failures:
        payload["failures"] = failures
    _write_json(out_dir / "report.json", payload)
    write_report_csv(out_dir / "report.csv", {cfg.variant_label: report})
    if failures and not results:
        raise ValidationError(
            f"all seeds failed: {[(f['seed'], f['error']) for f in failures]}")
    return report


def run_dataset(graph: BipartiteGraph, cfg: VariantConfig, seeds,
                out_dir, ds_hash: str, workers: int = 1) -> mt.EvalReport:
    """Run every seed, write per-seed manifests/checkpoints and the
    aggregate report. Per-seed failures are recorded; other seeds proceed."""
    out_dir = Path(out_dir)
    rows = _run_grid(graph, [cfg], seeds, workers, [out_dir])
    return _write_variant(out_dir, cfg, [row[0] for row in rows], ds_hash)


def write_report_csv(path, reports: dict) -> None:
    """One row per variant, six metric columns formatted 'mean ± std'."""
    with ckpt.atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant"] + list(mt.METRIC_NAMES))
        for label, report in reports.items():
            row = [label]
            for name in mt.METRIC_NAMES:
                if report.aggregate:
                    cell = (f"{report.aggregate[name]['mean']:.4f} ± "
                            f"{report.aggregate[name]['std']:.4f}")
                elif report.per_seed:
                    cell = f"{report.per_seed[0][name]:.4f}"
                else:
                    cell = "n/a"
                row.append(cell)
            writer.writerow(row)


def run_ablation(graph: BipartiteGraph, base_cfg: VariantConfig, seeds,
                 out_dir, ds_hash: str, workers: int = 1) -> dict:
    """All four weighting variants over the seed list.

    Pretraining never reads `weighted_bce`, so each seed pretrains twice, not
    four times. Emits a four-row comparison CSV plus a JSON summary flagging
    the maximum pairwise gap in mean ROC-AUC across variants.
    """
    seeds = list(seeds)
    out_dir = Path(out_dir)
    cfgs = [base_cfg.replace(**flags) for flags in ALL_VARIANTS]
    rows = _run_grid(graph, cfgs, seeds, workers)
    reports, errors = {}, []
    for i, cfg in enumerate(cfgs):  # every variant's directory, then any error
        try:
            reports[cfg.variant_label] = _write_variant(
                out_dir / cfg.variant_label, cfg, [row[i] for row in rows], ds_hash)
        except ValidationError as exc:
            errors.append(exc)
    if errors:
        raise errors[0]

    def mean_auc(report):
        if report.aggregate:
            return report.aggregate["roc_auc"]["mean"]
        return report.per_seed[0]["roc_auc"]

    aucs = {label: mean_auc(rep) for label, rep in reports.items()}
    gap = max(aucs.values()) - min(aucs.values())
    summary = {
        "dataset_hash": ds_hash,
        "seeds": seeds,
        "mean_roc_auc": aucs,
        "max_pairwise_roc_auc_gap": gap,
        "variants": {label: rep.to_dict() for label, rep in reports.items()},
    }
    _write_json(out_dir / "ablation.json", summary)
    write_report_csv(out_dir / "ablation.csv", reports)
    return summary


def load_dataset(edges, u_features, v_features):
    paths = {"edges": edges, "u_features": u_features, "v_features": v_features}
    return load_graph(edges, u_features, v_features), dataset_hash(paths)
