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
from .errors import ValidationError, make_dir
from .graph import (BipartiteGraph, aggregate_pairs, check_summed_weights,
                    chronological_split, load_graph, sample_negatives)
from .model import state_checksum
from .rng import check_seed, seed_int
from .training import (VariantConfig, eval_inputs, extract_embeddings, phase2_sizes,
                       pretrain, score_eval, train_decoder)

DEFAULT_SEEDS = (42, 43, 44, 45, 46)


# Bytes `dataset_hash` reads at a time, so that it holds no whole file.
HASH_CHUNK = 1 << 20


def dataset_hash(paths: dict) -> str:
    """sha256 of each file's key and bytes, in key order."""
    h = hashlib.sha256()
    for key in sorted(paths):
        h.update(key.encode())
        with open(paths[key], "rb") as fh:
            for chunk in iter(functools.partial(fh.read, HASH_CHUNK), b""):
                h.update(chunk)
    return h.hexdigest()


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


def run_seed(split, cfgs, seed: int, checkpoint_dir=None) -> list:
    """One task: the configs of one seed that share a pretrain (they differ
    in `weighted_bce` alone), on one BLAS thread, pinned here so that the pin
    holds under any start method of the pool. Returns one manifest dict or
    failure record per config, in order.

    It pretrains once and builds once what every decoder reads from the
    frozen encoder: the train and train+val embeddings, the validation
    positives, the negative pool and the test pairs. Then it trains and
    scores one decoder per config. A failure before the decoders fails every
    config; a decoder's failure fails its own.

    A one-config task with `checkpoint_dir` writes its model and decoder to
    `<checkpoint_dir>/seed_<seed>/` as soon as the decoder finishes. The
    records hold no arrays either way, so a pool sends back only manifests
    and the caller's memory does not grow with the seed count.
    """
    first = cfgs[0].replace(weighted_bce=False)
    if any(cfg.replace(weighted_bce=False) != first for cfg in cfgs):
        raise ValidationError("a task's configs must differ in weighted_bce alone")
    with _one_blas_thread() as threads:
        t0 = time.monotonic()
        try:
            state, trace = pretrain(split, cfgs[0], seed)
            t1 = time.monotonic()
            # Phase 2 reads no online gradient: free the buffer and its views.
            state.online.grad = None
            for param in state.online.values():
                param.grad = None
            checksum_before = state_checksum(state)
            emb = extract_embeddings(state, split.train, cfgs[0])
            vu, vv, vw = aggregate_pairs(split.val_edges, split.train.n_v,
                                         use_weights=True)
            positives = np.stack([vu, vv], axis=1)
            negatives = sample_negatives(split, phase2_sizes(split)[0],
                                         seed_int(seed, "decoder-pool"))
            test = eval_inputs(state, split, cfgs[0], seed)
        except Exception as exc:
            return [_failure(seed, exc)] * len(cfgs)
        shared_seconds = time.monotonic() - t1
        outcomes = []
        for i, cfg in enumerate(cfgs):
            t2 = time.monotonic()
            try:
                dec, record = train_decoder(emb, positives, vw, negatives, cfg,
                                            seed_int(seed, "decoder"))
                checksum_after = state_checksum(state)
                metrics, info = score_eval(dec, test, cfg)
                result = {
                    "seed": seed,
                    "variant": cfg.variant_label,
                    "config": dataclasses.asdict(cfg),
                    "pretrain_trace": trace,
                    "decoder": dataclasses.asdict(record),
                    "encoder_checksum_before_decoder": checksum_before,
                    "encoder_checksum_after_decoder": checksum_after,
                    "metrics": metrics,
                    "eval_info": info,
                    "timing": {"pretrain_seconds": t1 - t0, "pretrain_reused": i > 0,
                               "elapsed_seconds": shared_seconds + time.monotonic() - t2,
                               "blas_threads": threads},
                }
                if checkpoint_dir is not None:
                    seed_dir = checkpoint_dir / f"seed_{seed}"
                    seed_dir.mkdir(parents=True, exist_ok=True)
                    meta = {"config": result["config"], "seed": seed}
                    ckpt.save_model_state(seed_dir / "model.npz", state, meta)
                    ckpt.save_decoder(seed_dir / "decoder.npz", dec, meta)
            except Exception as exc:
                outcomes.append(_failure(seed, exc))
            else:
                outcomes.append(result)
    peak = _peak_rss_mb()
    for outcome in outcomes:
        if "timing" in outcome:
            outcome["timing"]["process_peak_rss_mb"] = peak
    return outcomes


def _run_grid(graph: BipartiteGraph, groups, seeds, workers: int,
              checkpoint_dir=None, out_dirs=()):
    """Outcomes of every (seed, config), one row per seed in seed order and
    the configs in `groups` order.

    `groups` lists config lists whose configs share a pretrain: one task per
    (seed, group) runs `run_seed`, passing `checkpoint_dir` on. The tasks
    share one pool of `min(workers, tasks)` forked processes, or run in this
    process when that is 1.
    Seeds, workers, the phase-2 sizes and, when any config is weighted, the
    summed pair weights before the test era are checked first, then the
    caller's `out_dirs` are made: a bad input or output fails before any task.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    seeds = list(seeds)
    if not seeds:
        raise ValidationError("seed list is empty")
    if len(set(seeds)) < len(seeds):
        raise ValidationError(f"seed list repeats a seed: {seeds}")
    for seed in seeds:
        check_seed(seed, "seed list: seed")
    split = chronological_split(graph)
    phase2_sizes(split)
    if any(cfg.weighted_pretrain or cfg.weighted_bce for group in groups for cfg in group):
        check_summed_weights(split)
    for path in out_dirs:
        make_dir(path)
    jobs = [(split, group, seed, checkpoint_dir) for seed in seeds for group in groups]
    n_procs = min(workers, len(jobs))
    if n_procs == 1:
        results = [run_seed(*job) for job in jobs]
    else:
        results = []
        with ProcessPoolExecutor(max_workers=n_procs) as pool:
            futures = [pool.submit(run_seed, *job) for job in jobs]
            for (_, group, seed, _), fut in zip(jobs, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:  # the task never returned, e.g. a lost worker
                    results.append([_failure(seed, exc)] * len(group))
    return [sum(results[i:i + len(groups)], []) for i in range(0, len(results), len(groups))]


def _write_json(path, payload) -> None:
    with ckpt.atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_variant(out_dir: Path, cfg: VariantConfig, outcomes, ds_hash: str) -> dict:
    """Per-seed manifests plus the report of one variant; returns its
    `metrics.aggregate` record."""
    results = [o for o in outcomes if "error" not in o]
    failures = [o for o in outcomes if "error" in o]
    for result in results:
        seed_dir = out_dir / f"seed_{result['seed']}"
        seed_dir.mkdir(exist_ok=True)
        _write_json(seed_dir / "manifest.json", {**result, "dataset_hash": ds_hash})

    report = mt.aggregate([r["seed"] for r in results], [r["metrics"] for r in results])
    payload = {**report, "variant": cfg.variant_label, "dataset_hash": ds_hash}
    if failures:
        payload["failures"] = failures
    _write_json(out_dir / "report.json", payload)
    write_report_csv(out_dir / "report.csv", {cfg.variant_label: report})
    if failures and not results:
        raise ValidationError(
            f"all seeds failed: {[(f['seed'], f['error']) for f in failures]}")
    return report


def run_dataset(graph: BipartiteGraph, cfg: VariantConfig, seeds,
                out_dir, ds_hash: str, workers: int = 1) -> dict:
    """Run every seed, write per-seed manifests/checkpoints and the
    aggregate report. Per-seed failures are recorded; other seeds proceed."""
    out_dir = Path(out_dir)
    rows = _run_grid(graph, [[cfg]], seeds, workers, out_dir, [out_dir])
    return _write_variant(out_dir, cfg, [row[0] for row in rows], ds_hash)


def write_report_csv(path, reports: dict) -> None:
    """One row per variant, six metric columns formatted 'mean ± std'."""
    with ckpt.atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant"] + list(mt.METRIC_NAMES))
        for label, report in reports.items():
            row = [label]
            for name in mt.METRIC_NAMES:
                if report["aggregate"]:
                    cell = (f"{report['aggregate'][name]['mean']:.4f} ± "
                            f"{report['aggregate'][name]['std']:.4f}")
                elif report["per_seed"]:
                    cell = f"{report['per_seed'][0][name]:.4f}"
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
    cfgs = [base_cfg.replace(weighted_pretrain=wp, weighted_bce=wb)
            for wp in (True, False) for wb in (True, False)]
    rows = _run_grid(graph, [cfgs[:2], cfgs[2:]], seeds, workers,  # by weighted_pretrain
                     out_dirs=[out_dir / cfg.variant_label for cfg in cfgs])
    reports, errors = {}, []
    for i, cfg in enumerate(cfgs):  # every variant's directory, then any error
        try:
            reports[cfg.variant_label] = _write_variant(
                out_dir / cfg.variant_label, cfg, [row[i] for row in rows], ds_hash)
        except ValidationError as exc:
            errors.append(exc)
    if errors:
        raise errors[0]
    aucs = {label: float(np.mean([m["roc_auc"] for m in rep["per_seed"]]))
            for label, rep in reports.items()}
    gap = max(aucs.values()) - min(aucs.values())
    summary = {
        "dataset_hash": ds_hash,
        "seeds": seeds,
        "mean_roc_auc": aucs,
        "max_pairwise_roc_auc_gap": gap,
        "variants": reports,
    }
    _write_json(out_dir / "ablation.json", summary)
    write_report_csv(out_dir / "ablation.csv", reports)
    return summary


def load_dataset(edges, u_features, v_features):
    paths = {"edges": edges, "u_features": u_features, "v_features": v_features}
    return load_graph(edges, u_features, v_features), dataset_hash(paths)
