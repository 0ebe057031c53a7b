"""Smoke test of the benchmark: every workload at toy size, untraced and
traced, in a few seconds each.

    python3 perfbench/smoke.py

Checks that each run passes its output checks, prints every metric that
BENCHMARK.json names with its unit, that child spans nest inside their
parents, and that named child spans cover at least 90% of pretraining.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import sys

import run
from spans import nesting_errors

TOY_FLAGS = ("--input-dim", "32", "--hidden-dim", "32", "--output-dim", "16",
             "--decoder-hidden-dims", "32,16", "--pretrain-epochs", "4",
             "--decoder-epochs", "3", "--batch-size", "128")


def toy(wl):
    return dataclasses.replace(wl, n_u=40, n_v=60, n_edges=500, roc_floor=0.0,
                               flags=wl.flags + TOY_FLAGS)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.WORKLOADS = {name: toy(wl) for name, wl in run.WORKLOADS.items()}
    run.OUT = run.OUT / "smoke"
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    trees = {}
    real_measure = run.measure

    def keep_trees(name, seed, seconds, trace, work):
        out = real_measure(name, seed, seconds, trace, work)
        trees[name, trace] = out[-1]
        return out

    run.measure = keep_trees
    for name in run.WORKLOADS:
        for trace in (0, 1):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", name, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace)])
            lines = stdout.getvalue().splitlines()
            result = json.loads(lines[-1])
            assert code == 0 and result["correct"] and result["failed"] == 0, lines
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            declared = spec["per_layer" if trace else "end_to_end"]
            assert set(result["metrics"]) == {m["name"] for m in declared}
            for m in declared:
                assert result["metrics"][m["name"]]["unit"] == m["unit"], m
                assert f"{m['name']} = " in stdout.getvalue(), m["name"]
            for tree in trees[name, trace]:
                assert not nesting_errors(tree), nesting_errors(tree)
            if trace:
                share = result["metrics"]["training.pretrain.uncovered_share"]["value"]
                assert share < 0.1, f"{name}: {share:.1%} of pretraining uncovered"
            print(f"ok {name} trace={trace}", file=sys.stderr)
    shutil.rmtree(run.OUT, ignore_errors=True)


if __name__ == "__main__":
    main()
