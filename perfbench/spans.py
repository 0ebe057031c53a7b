"""Spans around bilink's public functions, installed from outside the package.

`Tracer.install` replaces every module-level reference to a chosen bilink
function with a wrapper that records one span per call: name, start, end,
parent span and an optional tag taken from the arguments. Because bilink
modules import each other's functions by name (`from .model import
encode`), every module namespace that holds the original function object is
patched, not just the defining module.

Pool workers are forked and inherit the installed wrappers. A worker keeps
the spans that were open at fork time as parents of its own spans, and
appends its finished spans to `spans-<pid>.jsonl` each time its outermost
wrapped call returns. Workers exit without running exit handlers, so waiting
for the end of the process would lose them. The driving process writes its
own file on `flush()`.
"""

import functools
import importlib
import inspect
import json
import os
import time
from pathlib import Path

import numpy as np

MODULES = ("synthetic", "graph", "augment", "model", "losses", "autodiff",
           "optim", "training", "metrics", "checkpoint", "pipeline", "cli")

# Called once per tape op from inside the op itself; a span there would
# double the span count without naming any work.
SKIPPED = {"autodiff.active_tape"}

# The functions an untraced run wraps: enough to subtract set-up from
# time-to-report and to find pretraining epoch boundaries.
LIGHT = {"pipeline.load_dataset", "graph.chronological_split",
         "training.pretrain", "model.ema_update"}


def _encode_role(ad):
    active_tape = ad.active_tape
    return lambda args, kwargs: "target" if active_tape() is None else "online"


def _matmul_shape(args, kwargs):
    (m, k), (_, n) = args[0].shape, args[1].shape
    return (m, k, n)


def _sparse_nnz_cols(args, kwargs):
    return (int(args[0].nnz), int(args[1].shape[1]))


def _pretrain_key(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    seed = args[2] if len(args) > 2 else kwargs["seed"]
    return (bool(cfg.weighted_pretrain), int(seed))


class Tracer:
    """Records spans for one process tree; see the module docstring."""

    def __init__(self, names=None):
        self.names = names  # None: every public function of MODULES
        self.spans_dir = None
        self.run_id = None
        self.root_pid = self.pid = os.getpid()
        self.stack = []
        self.spans = []
        self.base_depth = 0
        self.counter = 0
        self.restore = []

    def install(self):
        mods = {name: importlib.import_module(f"bilink.{name}") for name in MODULES}
        namespaces = [importlib.import_module("bilink"), *mods.values()]
        taggers = {"model.encode": _encode_role(mods["autodiff"]),
                   "autodiff.matmul": _matmul_shape,
                   "autodiff.sparse_dense_matmul": _sparse_nnz_cols,
                   "training.pretrain": _pretrain_key}
        for short, mod in mods.items():
            for attr, fn in vars(mod).copy().items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in SKIPPED
                        or (self.names is not None and name not in self.names)):
                    continue
                wrapper = self._wrap(name, fn, taggers.get(name))
                for ns in namespaces:
                    for key, value in vars(ns).copy().items():
                        if value is fn:
                            self.restore.append((ns, key, fn))
                            setattr(ns, key, wrapper)
        if self.names is None:
            self._count_pools(namespaces)
        return self

    def _count_pools(self, namespaces):
        from concurrent.futures import ProcessPoolExecutor

        tracer = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                now = time.perf_counter()
                tracer._finish(tracer._open(), "pipeline.pool_created", now, now, None)
                super().__init__(*args, **kwargs)

        for ns in namespaces:
            if vars(ns).get("ProcessPoolExecutor") is ProcessPoolExecutor:
                self.restore.append((ns, "ProcessPoolExecutor", ProcessPoolExecutor))
                ns.ProcessPoolExecutor = CountingPool

    def uninstall(self):
        for ns, key, original in reversed(self.restore):
            setattr(ns, key, original)
        self.restore = []

    def _open(self):
        if os.getpid() != self.pid:  # first span in a forked worker
            self.pid = os.getpid()
            self.spans = []
            self.base_depth = len(self.stack)
        self.counter += 1
        sid = f"{self.pid}:{self.counter}"
        self.stack.append(sid)
        return sid

    def _finish(self, sid, name, start, end, tag):
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        self.spans.append((sid, parent, name, start, end, tag))
        if len(self.stack) == self.base_depth and self.pid != self.root_pid:
            self.flush()

    def _wrap(self, name, fn, tagger):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = None if tagger is None else tagger(args, kwargs)
            sid = tracer._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._finish(sid, name, start, time.perf_counter(), tag)

        return wrapper

    def flush(self):
        """Append this process's finished spans to its file and forget them."""
        if not self.spans:
            return
        path = Path(self.spans_dir) / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, start, end, tag in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "tag": tag}) + "\n")
        self.spans = []


def load_spans(spans_dir):
    spans = []
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class SpanTree:
    """Parent/child index over loaded spans with self times.

    A span's self time is its duration minus the union of its children's
    intervals, so children running in parallel workers are not counted twice.
    """

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)
        for s in spans:
            s["dur"] = s["end"] - s["start"]
            s["self"] = s["dur"] - _covered(
                (c["start"], c["end"]) for c in self.children.get(s["id"], ()))

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def kids(self, span, name=None):
        return [c for c in self.children.get(span["id"], ())
                if name is None or c["name"] == name]

    def ancestor(self, span, names):
        """Name of the nearest ancestor whose name is in `names`, or None."""
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] in names:
                return parent["name"]
            parent = self.by_id.get(parent["parent"])
        return None


def epoch_seconds(tree, pretrain_span):
    """Per-epoch durations of one pretraining call: the epoch boundaries are
    the call's start and the return of each EMA update inside it."""
    ends = sorted(s["end"] for s in tree.kids(pretrain_span, "model.ema_update"))
    return np.diff([pretrain_span["start"], *ends])


def nesting_errors(tree, slack=1e-6):
    """Spans whose children fall outside them, or whose children in any one
    process have self times adding up to more than the span's duration.
    Children in different pool workers may run at the same time."""
    errors = []
    for span in tree.spans:
        kids = tree.kids(span)
        if any(c["start"] < span["start"] - slack or c["end"] > span["end"] + slack
               for c in kids):
            errors.append(f"{span['name']} {span['id']}: a child lies outside it")
        per_pid = {}
        for c in kids:
            pid = c["id"].split(":")[0]
            per_pid[pid] = per_pid.get(pid, 0.0) + c["self"]
        if any(total > span["dur"] + slack for total in per_pid.values()):
            errors.append(f"{span['name']} {span['id']}: children's self times "
                          "exceed its duration")
    return errors
