"""End-to-end runs: split, pretrain, freeze, decode, evaluate, report.

A run directory is self-describing: dataset hash, full config and seed are
recorded in the manifest, and rerunning the same spec reproduces the metric
report byte-for-byte (wall-clock timings live in a separate manifest field).
Every file is written atomically (a temporary file, then `os.replace`), so an
interrupted write leaves the previous file intact.
"""

import dataclasses
import hashlib
import json
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
from .rng import child_seed
from .training import (ALL_VARIANTS, VariantConfig, evaluate_final,
                       extract_embeddings, pretrain, train_decoder)

DEFAULT_SEEDS = (42, 43, 44, 45, 46)


def dataset_hash(paths: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(paths):
        h.update(key.encode())
        h.update(Path(paths[key]).read_bytes())
    return h.hexdigest()


def _seed_int(root, *tags) -> int:
    return int(child_seed(root, *tags).generate_state(1)[0])


def _pretrain_key(cfg: VariantConfig, seed: int) -> tuple:
    """What phase 1 reads: the seed and the config less `weighted_bce`."""
    return seed, dataclasses.astuple(cfg.replace(weighted_bce=False))


def run_seed(split, cfg: VariantConfig, seed: int, pretrained: dict | None = None) -> dict:
    """One full two-phase run for a single seed. Returns a manifest dict.

    `pretrained` is an optional dict shared by runs of one seed. Phase 1 then
    runs once per distinct pretraining config, and later runs reuse its
    (state, trace), or re-raise its error. The encoder is frozen after phase
    1, so reusing it changes no output.
    """
    t0 = time.monotonic()
    cache = {} if pretrained is None else pretrained
    key = _pretrain_key(cfg, seed)
    reused = key in cache
    if not reused:
        try:
            cache[key] = pretrain(split, cfg, seed)
        except Exception as exc:
            cache[key] = exc, exc.__traceback__
            raise
    first, second = cache[key]
    if isinstance(first, Exception):
        raise first.with_traceback(second)  # each re-raise shows one pretrain
    state, trace = first, second
    checksum_before = state_checksum(state)

    emb = extract_embeddings(state, split.train, cfg, provenance="train")
    vu, vv, vw = aggregate_pairs(split.val_edges, split.train.n_v, use_weights=True)
    if len(vu) == 0:
        raise ValidationError("validation era has no pairs; cannot train decoder")
    positives = np.stack([vu, vv], axis=1)

    pool_target = int(np.ceil(cfg.decoder_negative_pool_factor * len(positives)))
    pool_size = min(pool_target, complement_size(split))
    if pool_size < 2:
        raise ValidationError("complement too small to sample a negative pool")
    negatives = sample_negatives(split, pool_size, _seed_int(seed, "decoder-pool"))

    dec, record = train_decoder(emb, positives, vw, negatives, cfg,
                                _seed_int(seed, "decoder"))
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
        },
        "encoder_checksum_before_decoder": checksum_before,
        "encoder_checksum_after_decoder": checksum_after,
        "metrics": metrics,
        "eval_info": info,
        "_state": state,
        "_decoder": dec,
        "_timing": {"elapsed_seconds": time.monotonic() - t0,
                    "pretrain_reused": reused},
    }


def _failure(seed: int, exc: BaseException) -> dict:
    return {"seed": seed, "error": str(exc), "type": type(exc).__name__,
            "traceback": "".join(traceback.format_exception(exc))}


def _run_seed_variants(split, cfgs, seed):
    """Every variant of one seed, one after another, sharing phase 1. Returns
    one manifest dict or failure record per variant, in order."""
    pretrained, outcomes = {}, []
    for cfg in cfgs:
        try:
            outcomes.append(run_seed(split, cfg, seed, pretrained))
        except Exception as exc:
            outcomes.append(_failure(seed, exc))
    return outcomes


def _run_grid(graph: BipartiteGraph, cfgs, seeds, workers: int):
    """Outcomes of every (seed, variant), one row per seed in seed order.

    One task per seed, so a seed's pretrains run one after another in one
    process; with `workers > 1` the tasks share one pool of forked workers.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    seeds = list(seeds)
    split = chronological_split(graph)
    if workers == 1:
        return [_run_seed_variants(split, cfgs, seed) for seed in seeds]
    rows = []
    with ProcessPoolExecutor(max_workers=max(1, min(workers, len(seeds)))) as pool:
        futures = [pool.submit(_run_seed_variants, split, cfgs, seed) for seed in seeds]
        for seed, fut in zip(seeds, futures):
            try:
                rows.append(fut.result())
            except Exception as exc:  # the task never returned, e.g. a lost worker
                rows.append([_failure(seed, exc)] * len(cfgs))
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


def _write_variant(out_dir: Path, cfg: VariantConfig, outcomes, ds_hash: str,
                   save_checkpoints: bool) -> mt.EvalReport:
    """Per-seed manifests (and checkpoints) plus the report of one variant."""
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [o for o in outcomes if "error" not in o]
    failures = [o for o in outcomes if "error" in o]
    for result in results:
        seed_dir = out_dir / f"seed_{result['seed']}"
        seed_dir.mkdir(exist_ok=True)
        _write_json(seed_dir / "manifest.json", _manifest_json(result, ds_hash))
        if save_checkpoints:
            meta = {"config": result["config"], "seed": result["seed"]}
            ckpt.save_model_state(seed_dir / "model.npz", result["_state"], meta)
            ckpt.save_decoder(seed_dir / "decoder.npz", result["_decoder"], meta)

    if failures and not results:
        raise ValidationError(
            f"all seeds failed: {[(f['seed'], f['error']) for f in failures]}")

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
    return report


def run_dataset(graph: BipartiteGraph, cfg: VariantConfig, seeds,
                out_dir, ds_hash: str, workers: int = 1,
                save_checkpoints: bool = True) -> mt.EvalReport:
    """Run every seed, write per-seed manifests/checkpoints and the
    aggregate report. Per-seed failures are recorded; other seeds proceed."""
    rows = _run_grid(graph, [cfg], seeds, workers)
    return _write_variant(Path(out_dir), cfg, [row[0] for row in rows], ds_hash,
                          save_checkpoints)


def write_report_csv(path, reports: dict) -> None:
    """One row per variant, six metric columns formatted 'mean ± std'."""
    import csv as _csv

    with ckpt.atomic_write(path, newline="") as fh:
        writer = _csv.writer(fh)
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
    reports = {}
    for i, cfg in enumerate(cfgs):
        reports[cfg.variant_label] = _write_variant(
            out_dir / cfg.variant_label, cfg, [row[i] for row in rows], ds_hash,
            save_checkpoints=False)

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
