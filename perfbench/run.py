"""bilink benchmark: time-to-report, pretraining epoch latency and ablation
wall time, driven through the `bilink` command line.

    python3 perfbench/run.py --workload planted-default --seed 7 --seconds 60 --trace 0

The workload seed sets the synthetic dataset seed; the run seeds are
`seed + 35` onwards, so `--seed 7` is the acceptance configuration (dataset
seed 7, run seed 42). A run repeats the workload's `bilink run` /
`bilink ablate` call with the same arguments, one call at a time, each in a
fresh process as a user runs it (call.py), while the next call is expected
to end within `--seconds` (at least once). It sets the dataset up five times
before the first call and after every call.
Every call's outputs are checked; a failed check makes the run exit 1.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates an untraced call with a traced one (every public bilink function
wrapped, see spans.py) and reports the per-layer metrics. The last line of
standard output is one JSON object; a full record (environment, checksums,
report digests, per-call figures) goes to .perfbench_out/results/.

The benchmark sets no BLAS or OpenMP thread variable: the ablation workload
must show the thread oversubscription of two pool workers as users see it.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import SpanTree, epoch_seconds, load_spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Set-ups before the first call and after every round of calls, so that
# setup_s samples the machine across the whole run.
SETUP_REPEATS = 5
# Calls still running this long after a run starts are killed, so that a run
# ends within three minutes whatever happens.
CALL_DEADLINE_S = 160
FIRST_RUN_SEED = 35
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
VARIANTS = ("wp_wb", "wp_nwb", "nwp_wb", "nwp_nwb")
OPS = ("matmul", "sparse_dense_matmul", "take_rows", "row_cosine", "relu",
       "prelu", "add", "mul", "scale", "sum_all", "dropout_mask", "concat_rows",
       "concat_cols", "slice_rows", "replace_rows", "sigmoid", "bce_with_logits")


@dataclass(frozen=True)
class Workload:
    command: str  # "run" or "ablate"
    n_u: int
    n_v: int
    n_edges: int
    weight_skew: int
    n_seeds: int
    workers: int
    flags: tuple  # further `bilink run/ablate` flags
    variants: tuple  # variant labels the call reports
    roc_floor: float = 0.0


# Why each workload exists is recorded in README.md. planted-10x is not in
# BENCHMARK.json: its run-to-run spread on 2 vCPUs exceeds any allowed bound.
WORKLOADS = {
    "planted-default": Workload("run", 200, 300, 4000, 1, 1, 1, (), ("nwp_nwb",),
                                roc_floor=0.85),
    "planted-10x": Workload("run", 2000, 3000, 40000, 50, 1, 1,
                            ("--weighted-pretrain", "true", "--weighted-bce", "true",
                             "--pretrain-epochs", "20"), ("wp_wb",)),
    "ablate-grid": Workload("ablate", 200, 300, 4000, 50, 1, 2,
                            ("--pretrain-epochs", "50"), VARIANTS),
}


def environment():
    """What the numbers depend on, recorded as found."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_env_note": "the benchmark sets no BLAS or OpenMP thread variable",
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def adopt_orphans():
    """Become the parent of orphaned descendants (Linux), so that the pool
    workers of a call killed at its deadline are reparented here and can be
    waited for."""
    pr_set_child_subreaper = 36
    ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def quiet_cli(argv, log_path):
    from bilink import cli

    with open(log_path, "a", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        return cli.main(argv)


def set_up(wl, seed, data_dir, log_path):
    """Dataset generation, load and chronological split, timed together."""
    from bilink import cli, pipeline  # noqa: F401 (imported before timing)
    from bilink.graph import aggregate_pairs, chronological_split

    start = time.perf_counter()
    rc = quiet_cli(["gen-synth", "--n-u", str(wl.n_u), "--n-v", str(wl.n_v),
                    "--n-edges", str(wl.n_edges), "--weight-skew", str(wl.weight_skew),
                    "--seed", str(seed), "--out-dir", str(data_dir)], log_path)
    graph, _ = pipeline.load_dataset(*dataset_paths(data_dir))
    split = chronological_split(graph)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"gen-synth exited {rc}; see {log_path}")
    train_pairs = len(aggregate_pairs(split.train.edges, split.train.n_v, False)[0])
    return elapsed, train_pairs


def dataset_paths(data_dir):
    return [str(Path(data_dir) / name)
            for name in ("edges.csv", "u_features.csv", "v_features.csv")]


def run_call(wl, seeds, data_dir, call_dir, traced, deadline):
    """One `bilink run/ablate` invocation in a fresh process (call.py), killed
    with its pool workers if it is still running at `deadline`. Returns the
    exit code, the time to report (less in-call set-up), the peak RSS and the
    spans."""
    edges, u_feat, v_feat = dataset_paths(data_dir)
    argv = [wl.command, "--edges", edges, "--u-features", u_feat,
            "--v-features", v_feat, "--seeds", ",".join(map(str, seeds)),
            "--workers", str(wl.workers), "--out-dir", str(call_dir / "out"),
            *wl.flags]
    call_dir.mkdir(parents=True)
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("call.py")),
                             str(call_dir), str(int(traced)), *argv],
                            cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        # Pool workers of a killed call are orphaned to this process (see
        # adopt_orphans); wait for them too.
        with contextlib.suppress(ChildProcessError):
            while True:
                os.waitpid(-1, 0)
    result_path = call_dir / "call.json"
    if not result_path.exists():
        return proc.returncode or -1, math.nan, math.nan, SpanTree([])
    result = json.loads(result_path.read_text(encoding="utf-8"))
    tree = SpanTree(load_spans(call_dir / "spans"))
    own = f"{result['pid']}:"
    in_call_setup = sum(s["dur"] for s in tree.spans if s["id"].startswith(own)
                        and s["name"] in ("pipeline.load_dataset",
                                          "graph.chronological_split"))
    return (result["exit_code"], result["seconds"] - in_call_setup,
            result["peak_rss_mb"], tree)


def collect_tasks(wl, seeds, out_dir, rc):
    """One record per (variant, seed) task, with its checks applied."""
    from bilink.metrics import METRIC_NAMES

    tasks = []
    for variant in wl.variants:
        run_dir = out_dir / variant if wl.command == "ablate" else out_dir
        report = run_dir / "report.json"
        failures = (json.loads(report.read_text(encoding="utf-8")).get("failures", [])
                    if report.exists() else [])
        for seed in seeds:
            task = {"variant": variant, "seed": seed, "problems": []}
            tasks.append(task)
            manifest = run_dir / f"seed_{seed}" / "manifest.json"
            if rc != 0 or not manifest.exists():
                errors = [f["error"] for f in failures if f["seed"] == seed]
                task["problems"].append(f"no manifest (exit code {rc}): {errors}")
                continue
            m = json.loads(manifest.read_text(encoding="utf-8"))
            task["metrics"] = m["metrics"]
            task["checksum"] = m["encoder_checksum_before_decoder"]
            if m["encoder_checksum_after_decoder"] != task["checksum"]:
                task["problems"].append("encoder changed while the decoder trained")
            for name in METRIC_NAMES:
                value = m["metrics"].get(name)
                if value is None or not math.isfinite(value) or not 0.0 <= value <= 1.0:
                    task["problems"].append(f"{name} = {value} outside [0, 1]")
            if m["metrics"].get("roc_auc", 0.0) < wl.roc_floor:
                task["problems"].append(
                    f"roc_auc {m['metrics'].get('roc_auc')} below {wl.roc_floor}")
    reports = {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out_dir.rglob("*.json")) if p.name != "manifest.json"}
    if wl.command == "ablate":
        # Pretraining never reads weighted_bce: same (weighted_pretrain, seed),
        # same encoder.
        by_key = {}
        for task in tasks:
            if "checksum" in task:
                key = (task["variant"].split("_")[0], task["seed"])
                by_key.setdefault(key, set()).add(task["checksum"])
        for task in tasks:
            key = (task["variant"].split("_")[0], task["seed"])
            if len(by_key.get(key, ())) > 1:
                task["problems"].append("variants sharing a pretraining config "
                                        "ended with different encoders")
    return tasks, reports


def end_to_end(calls, setups, train_pairs):
    """The BENCHMARK.json end-to-end metrics of untraced calls, plus notes."""
    walls, epochs_ms, edge_epochs, pretrain_s = [], [], 0, 0.0
    for call in calls:
        walls.append(call["wall_s"])
        for span in call["tree"].named("training.pretrain"):
            epochs = epoch_seconds(call["tree"], span)
            epochs_ms.extend(1000.0 * epochs)
            edge_epochs += train_pairs * len(epochs)
            pretrain_s += span["dur"]
    ok = [t for call in calls for t in call["tasks"] if not t["problems"]]

    def percentile(q):  # NaN when no call got through pretraining
        return float(np.percentile(epochs_ms, q)) if epochs_ms else math.nan

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "pretrain_epoch_ms.p50": percentile(50),
        "pretrain_epoch_ms.p90": percentile(90),
        "pretrain_edges_per_s": edge_epochs / pretrain_s if pretrain_s else math.nan,
        "peak_rss_mb": statistics.median(call["peak_rss_mb"] for call in calls),
        "roc_auc": statistics.fmean(t["metrics"]["roc_auc"] for t in ok) if ok else 0.0,
        "hits_at_50": statistics.fmean(t["metrics"]["hits_at_k"] for t in ok) if ok else 0.0,
    }
    notes = {"pretrain_epoch_samples": len(epochs_ms),
             "pretrain_epoch_p90_tail_samples": int(sum(
                 ms > metrics["pretrain_epoch_ms.p90"] for ms in epochs_ms)),
             "peak_rss_note": "median over calls of the call process's peak plus "
                              "its largest pool worker's peak"}
    return metrics, notes


def per_layer(trees, workers, traced_wall, untraced_wall):
    """The BENCHMARK.json per-layer metrics, summed over the traced calls."""
    spans = [s for tree in trees for s in tree.spans]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, key="self"):
        return sum(s[key] for s in named(name))

    out = {}
    for op in OPS:
        out[f"autodiff.{op}.fwd_s"] = total(f"autodiff.{op}", "dur")
        out[f"autodiff.{op}.calls"] = len(named(f"autodiff.{op}"))
    shapes = [s["tag"] for s in named("autodiff.matmul")]
    out["autodiff.matmul.gflop"] = sum(2 * m * k * n for m, k, n in shapes) / 1e9
    out["autodiff.matmul.bytes"] = sum(8 * (m * k + k * n + m * n) for m, k, n in shapes)
    out["autodiff.sparse_dense_matmul.nnz_cols"] = sum(
        nnz * cols for nnz, cols in (s["tag"] for s in named("autodiff.sparse_dense_matmul")))

    phases = {"training.pretrain": "pretrain", "training.train_decoder": "decoder"}
    split = {"autodiff.backward": {"pretrain": 0.0, "decoder": 0.0},
             "model.encode": {"target": 0.0, "online": 0.0, "extract": 0.0}}
    for tree in trees:
        for s in tree.named("autodiff.backward"):
            phase = phases.get(tree.ancestor(s, phases))
            if phase is not None:
                split["autodiff.backward"][phase] += s["self"]
        for s in tree.named("model.encode"):
            role = ("extract" if tree.ancestor(s, ("training.extract_embeddings",))
                    else s["tag"])
            split["model.encode"][role] += s["self"]
    for name, parts in split.items():
        out[f"{name}.self_s"] = total(name)
        for part, seconds in parts.items():
            out[f"{name}.{part}.self_s"] = seconds
    out["autodiff.backward.calls"] = len(named("autodiff.backward"))

    for name in ("model.mlp_forward", "graph.normalized_adjacency", "optim.adam_step",
                 "model.ema_update", "training.pretrain", "training.train_decoder",
                 "model.decode_logits", "metrics.hits_at_k", "graph.sample_negatives",
                 "graph.complement_size", "training.evaluate_final",
                 "model.state_checksum", "pipeline.run_dataset"):
        out[f"{name}.self_s"] = total(name)
    for name in ("augment.augmented_view", "augment.corrupt_view",
                 "losses.attractive_loss", "losses.repulsive_loss",
                 "training.pretrain", "training.train_decoder",
                 "training.extract_embeddings", "training.evaluate_final",
                 "metrics.compute_all", "checkpoint.save_model_state",
                 "checkpoint.save_decoder"):
        out[f"{name}.s"] = total(name, "dur")
    for name in ("graph.normalized_adjacency", "augment.augmented_view",
                 "augment.corrupt_view", "optim.adam_step"):
        out[f"{name}.calls"] = len(named(name))
    pretrain_s = out["training.pretrain.s"]
    out["training.pretrain.uncovered_share"] = (
        out["training.pretrain.self_s"] / pretrain_s if pretrain_s else 0.0)

    pretrains = named("training.pretrain")
    tasks = [s["dur"] for s in named("pipeline.run_seed")]
    out["pipeline.pretrain_calls"] = len(pretrains)
    out["pipeline.distinct_pretrain_ratio"] = (
        len({tuple(s["tag"]) for s in pretrains}) / len(pretrains) if pretrains else 0.0)
    out["pipeline.pools_created"] = len(named("pipeline.pool_created"))
    out["pipeline.task_s.p50"] = statistics.median(tasks) if tasks else 0.0
    out["pipeline.pool_busy_share"] = sum(tasks) / (workers * sum(traced_wall))
    out["trace.overhead_share"] = (statistics.median(traced_wall)
                                   / statistics.median(untraced_wall) - 1.0)
    out["trace.spans"] = len(spans)
    return out


def measure(name, seed, seconds, trace, work):
    """Everything one benchmark run does. Returns the metrics, the attempted
    and failed task counts, the record and the traced calls' span trees."""
    wl = WORKLOADS[name]
    seeds = [FIRST_RUN_SEED + seed + i for i in range(wl.n_seeds)]
    data_dir, log_path = work / "data", work / "bilink.log"
    deadline = time.perf_counter() + CALL_DEADLINE_S
    setups = []

    def set_up_batch():
        for _ in range(SETUP_REPEATS):
            elapsed, pairs = set_up(wl, seed, data_dir, log_path)
            setups.append(elapsed)
        return pairs

    train_pairs = set_up_batch()

    calls, rounds = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            call_dir = work / f"call-{len(calls)}"
            rc, wall, rss, tree = run_call(wl, seeds, data_dir, call_dir, traced, deadline)
            tasks, reports = collect_tasks(wl, seeds, call_dir / "out", rc)
            calls.append({"traced": traced, "rc": rc, "wall_s": wall, "peak_rss_mb": rss,
                          "tree": tree, "tasks": tasks, "reports": reports})
        rounds.append(time.perf_counter() - round_start)
        set_up_batch()
        # Start another round only if it should end within `seconds`.
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break

    # Every call repeats the same dataset, config and seeds, traced or not,
    # so report bytes and encoder checksums must repeat exactly.
    first = calls[0]
    for call in calls[1:]:
        same = call["reports"] == first["reports"] and all(
            a.get("checksum") == b.get("checksum")
            for a, b in zip(call["tasks"], first["tasks"]))
        if not same:
            for task in call["tasks"]:
                task["problems"].append("reports or checksums differ from the first call")

    tasks = [t for call in calls for t in call["tasks"]]
    failed = sum(1 for t in tasks if t["problems"])
    untraced = [c for c in calls if not c["traced"]]
    if trace:
        traced = [c for c in calls if c["traced"]]
        metrics = per_layer([c["tree"] for c in traced], wl.workers,
                            [c["wall_s"] for c in traced],
                            [c["wall_s"] for c in untraced])
        notes = {}
    else:
        metrics, notes = end_to_end(untraced, setups, train_pairs)
    record = {
        "workload": name, "seed": seed, "run_seeds": seeds, "trace": trace,
        "environment": environment(),
        "setup_s": setups,
        "failed_share": failed / len(tasks),
        "notes": notes,
        "calls": [{"traced": c["traced"], "exit_code": c["rc"], "wall_s": c["wall_s"],
                   "peak_rss_mb": c["peak_rss_mb"],
                   "report_sha256": c["reports"],
                   "tasks": [{k: t.get(k) for k in ("variant", "seed", "checksum",
                                                    "metrics", "problems")}
                             for t in c["tasks"]]}
                  for c in calls],
        "metrics": metrics,
    }
    return metrics, len(tasks), failed, record, [c["tree"] for c in calls if c["traced"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not (ROOT / "src" / "bilink").is_dir():
        print(f"error: no bilink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    adopt_orphans()
    env_before = {var: os.environ.get(var) for var in THREAD_VARS}

    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, attempted, failed, record, _ = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if {var: os.environ.get(var) for var in THREAD_VARS} != env_before:
        raise RuntimeError("a thread variable changed during the run")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for call in record["calls"]:
        for task in call["tasks"]:
            for problem in task["problems"]:
                print(f"check failed: {task['variant']} seed {task['seed']}: {problem}",
                      file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"hits_at_50 = {metrics['hits_at_50']:.6g} fraction (recorded, not bounded)")
        samples = record["notes"]["pretrain_epoch_samples"]
        p90 = (f"{metrics['pretrain_epoch_ms.p90']:.6g} ms" if samples >= 100
               else "omitted, fewer than 100 epochs")
        print(f"pretrain_epoch_ms.p90 = {p90} (recorded, not bounded; "
              f"{samples} epoch samples)")
    print(f"failed_share = {record['failed_share']:.6g} share "
          f"({failed} of {attempted} seed tasks)")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name] if math.isfinite(
                                              metrics[name]) else None, "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
