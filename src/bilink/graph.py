"""Bipartite interaction graphs: loading, chronological splitting, negative
sampling and normalized adjacency construction.

Edges are interaction *events*: the same (u, v) pair may occur many times
with different timestamps. For modeling, events are collapsed into one
weighted edge per distinct pair (weight = summed event weight, which equals
the interaction count when every event has weight 1). Event weights must be
positive and finite. A set of pairs is a sorted array of int64 keys u*n_v+v.
"""

import csv
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError, reading

EDGE_HEADER = ["u_id", "v_id", "weight", "timestamp"]


@dataclass
class EdgeArray:
    """Parallel arrays of interaction events (u index, v index, weight, timestamp)."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.int64)
        self.v = np.asarray(self.v, dtype=np.int64)
        self.w = np.asarray(self.w, dtype=np.float64)
        self.t = np.asarray(self.t, dtype=np.int64)
        if not (len(self.u) == len(self.v) == len(self.w) == len(self.t)):
            raise ValidationError("edge arrays must have equal length")

    def __len__(self):
        return len(self.u)


def _pair_key(u, v, n_v: int) -> np.ndarray:
    """int64 key `u * n_v + v` of each (u, v) pair."""
    return np.asarray(u, dtype=np.int64) * np.int64(n_v) + np.asarray(v, dtype=np.int64)


@dataclass
class BipartiteGraph:
    """Two node partitions U and V with features and timestamped weighted events.

    Indices are dense and 0-based within each partition; edges always run
    U -> V, so intra-partition links are unrepresentable.
    """

    n_u: int
    n_v: int
    x_u: np.ndarray
    x_v: np.ndarray
    edges: EdgeArray
    u_ids: tuple = ()
    v_ids: tuple = ()

    def __post_init__(self):
        self.x_u = np.asarray(self.x_u, dtype=np.float64)
        self.x_v = np.asarray(self.x_v, dtype=np.float64)
        if self.x_u.shape[0] != self.n_u or self.x_v.shape[0] != self.n_v:
            raise ValidationError(
                f"feature row counts {self.x_u.shape[0]}/{self.x_v.shape[0]} "
                f"do not match node counts {self.n_u}/{self.n_v}"
            )
        if not np.isfinite(self.x_u).all() or not np.isfinite(self.x_v).all():
            raise ValidationError("feature matrices contain non-finite values")
        e = self.edges
        if len(e) > 0:
            if e.u.min() < 0 or e.u.max() >= self.n_u:
                raise ValidationError("u index out of range [0, n_u)")
            if e.v.min() < 0 or e.v.max() >= self.n_v:
                raise ValidationError("v index out of range [0, n_v)")
            bad = np.flatnonzero(~(np.isfinite(e.w) & (e.w > 0)))
            if len(bad):
                raise ValidationError(f"edge weight must be positive and finite, "
                                      f"got {e.w[bad[0]]} at event {bad[0]}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def with_edges(self, edges: EdgeArray) -> "BipartiteGraph":
        """Same node universe and features, different event list."""
        return BipartiteGraph(self.n_u, self.n_v, self.x_u, self.x_v, edges,
                              self.u_ids, self.v_ids)


@dataclass
class TemporalSplit:
    """Chronological train/val/test partition of one graph's events."""

    train: BipartiteGraph
    val_edges: EdgeArray
    test_edges: EdgeArray

    def pair_keys(self) -> np.ndarray:
        """Sorted unique keys of the (u, v) pairs present in any era."""
        eras = (self.train.edges, self.val_edges, self.test_edges)
        return np.unique(np.concatenate(
            [_pair_key(e.u, e.v, self.train.n_v) for e in eras]))


def _data_rows(path, header_ok, header_text):
    """Yields (line, row) for each non-blank data row of the CSV file `path`,
    whose stripped header must satisfy `header_ok`; `line` is the number of
    the row's last line. A row with another column count than the header, or
    a failure to read the file, raises a ValidationError where it is met."""
    with reading(path), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header_ok([h.strip() for h in header]):
            raise ValidationError(f"{path}: expected header {header_text}")
        width = len(header)
        for row in filter(None, reader):
            if len(row) != width:
                raise ValidationError(f"{path}:{reader.line_num}: expected {width} "
                                      f"columns, got {len(row)}")
            yield reader.line_num, row


def _read_feature_csv(path) -> tuple:
    """Returns (ids in file order, feature matrix). Header must be id,f1,...,fd.
    A duplicate id or a malformed value fails at its row, a non-finite value
    only once every row is read."""
    line_of = {}  # id -> line of its row, in file order
    values = array("d")
    for line, (raw_id, *raw_x) in _data_rows(
            path, lambda h: len(h) >= 2 and h[0] == "id", "id,f1,...,fd"):
        if raw_id in line_of:
            raise ValidationError(f"{path}:{line}: duplicate id {raw_id!r} (first at "
                                  f"line {line_of[raw_id]})")
        line_of[raw_id] = line
        try:
            values.extend(map(float, raw_x))
        except ValueError as exc:
            raise ValidationError(f"{path}:{line}: malformed feature value ({exc})")
    if not line_of:
        raise ValidationError(f"{path}: no feature rows")
    x = np.frombuffer(values).reshape(len(line_of), -1)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if len(bad):
        raise ValidationError(f"{path}:{list(line_of.values())[bad[0]]}: "
                              "non-finite feature value")
    return list(line_of), x


def load_graph(edge_file, u_feature_file, v_feature_file) -> BipartiteGraph:
    """Load a bipartite graph from an edge CSV and two feature CSVs.

    Dense indices are assigned in feature-file row order. Every node
    referenced by an edge must have a feature row; feature-file nodes with
    no edges are kept as isolated nodes. Each file is read one row at a
    time, and only the parsed values of the rows are kept. Each edge row is
    checked in full before the next is read, so the first failing row in
    file order names the error; within a row the checks run in order:
    column count, u id, v id, weight and timestamp parse (the timestamp
    within int64), weight positive and finite.
    """
    u_ids, x_u = _read_feature_csv(u_feature_file)
    v_ids, x_v = _read_feature_csv(v_feature_file)
    u_index = dict(zip(u_ids, range(len(u_ids))))
    v_index = dict(zip(v_ids, range(len(v_ids))))

    eu, ev, ew, et = array("q"), array("q"), array("d"), array("q")
    # Bound once: this loop runs once per event.
    u_of, v_of = u_index.get, v_index.get
    add_u, add_v, add_w, add_t = eu.append, ev.append, ew.append, et.append
    for line, (raw_u, raw_v, raw_w, raw_t) in _data_rows(
            edge_file, lambda h: h == EDGE_HEADER, ",".join(EDGE_HEADER)):
        u = u_of(raw_u)
        if u is None:
            raise ValidationError(f"{edge_file}:{line}: u_id {raw_u!r} has no feature row")
        v = v_of(raw_v)
        if v is None:
            raise ValidationError(f"{edge_file}:{line}: v_id {raw_v!r} has no feature row")
        try:
            w = float(raw_w)
            add_t(int(raw_t))  # an int64 array: rejects a timestamp outside int64
        except OverflowError:
            raise ValidationError(f"{edge_file}:{line}: malformed row (timestamp {raw_t} "
                                  "is outside the int64 range)")
        except ValueError as exc:
            raise ValidationError(f"{edge_file}:{line}: malformed row ({exc})")
        if not 0 < w < math.inf:
            raise ValidationError(f"{edge_file}:{line}: edge weight must be positive "
                                  f"and finite, got {raw_w}")
        add_u(u)
        add_v(v)
        add_w(w)
    if not eu:
        raise ValidationError(f"{edge_file}: no edges")

    # The typed arrays become the EdgeArray's buffers without a copy.
    edges = EdgeArray(eu, ev, ew, et)
    return BipartiteGraph(len(u_ids), len(v_ids), x_u, x_v, edges,
                          tuple(u_ids), tuple(v_ids))


def chronological_split(g: BipartiteGraph) -> TemporalSplit:
    """Sort events by timestamp (stable, ties by input order) and cut them
    80/10/10 into train, validation and test eras, each non-empty."""
    m = g.n_edges
    if m < 3:
        raise ValidationError(
            f"cannot form three non-empty splits from {m} edges")
    order = np.argsort(g.edges.t, kind="stable")
    if (g.edges.t == g.edges.t[0]).all():
        warnings.warn("all edges share one timestamp; splitting by input order")

    cut1 = int(m * 0.8)
    cut1 = min(max(cut1, 1), m - 2)
    # The validation era ends at 0.8 + 0.1, which is 0.9000000000000001 in floats.
    cut2 = int(m * (0.8 + 0.1))
    cut2 = min(max(cut2, cut1 + 1), m - 1)

    def take(idx):
        e = g.edges
        return EdgeArray(e.u[idx], e.v[idx], e.w[idx], e.t[idx])

    train_edges = take(order[:cut1])
    val_edges = take(order[cut1:cut2])
    test_edges = take(order[cut2:])
    return TemporalSplit(g.with_edges(train_edges), val_edges, test_edges)


def complement_size(split: TemporalSplit) -> int:
    """Number of cross-partition pairs absent from every era."""
    return split.train.n_u * split.train.n_v - len(split.pair_keys())


def sample_negatives(split: TemporalSplit, count: int, rng_seed: int) -> np.ndarray:
    """Sample `count` distinct pairs uniformly from the complement of all eras,
    as a (count, 2) int64 array of (u, v) rows, by rejection in batches of
    twice the draws the remaining pairs need at the current acceptance rate;
    accepted pairs keep their draw order."""
    if count < 1:
        raise ValidationError(f"count must be positive, got {count}")
    n_u, n_v = split.train.n_u, split.train.n_v
    taken = split.pair_keys()
    free = n_u * n_v - len(taken)
    if count > free:
        raise ValidationError(
            f"requested {count} negatives but the complement has only {free} pairs")

    rng = np.random.default_rng(rng_seed)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        batch = math.ceil(2 * (count - len(keys)) * n_u * n_v / (free - len(keys)))
        draws = rng.integers(0, np.tile([n_u, n_v], batch)).reshape(batch, 2)
        drawn = _pair_key(draws[:, 0], draws[:, 1], n_v)
        drawn = drawn[~np.isin(drawn, taken)]
        first = np.sort(np.unique(drawn, return_index=True)[1])
        keys = np.concatenate([keys, drawn[first]])
        taken = np.union1d(taken, drawn)
    keys = keys[:count]
    return np.stack([keys // n_v, keys % n_v], axis=1)


def aggregate_pairs(edges: EdgeArray, n_v: int, use_weights: bool) -> tuple:
    """Collapse events into distinct (u, v) pairs, ordered by (u, v).

    Returns (u, v, w) arrays. With use_weights the pair weight is the sum of
    its event weights; otherwise every distinct pair gets weight 1.
    """
    uniq, inverse = np.unique(_pair_key(edges.u, edges.v, n_v), return_inverse=True)
    w = (np.bincount(inverse, weights=edges.w, minlength=len(uniq)) if use_weights
         else np.ones(len(uniq)))
    return uniq // n_v, uniq % n_v, w


def check_summed_weights(split: TemporalSplit) -> None:
    """Raise a ValidationError naming the first pair, by its ids, whose train
    and validation event weights sum to inf, else one when all of those
    weights together do. Weights are positive, so when this passes, every
    sum that weighted pretraining and embedding form over a subset of those
    events (a pair's weight, a node's degree, a view's loss total, the mean
    keep-probability weight) is finite too."""
    g = merge_graphs(split.train, split.val_edges)
    u, v, w = aggregate_pairs(g.edges, g.n_v, use_weights=True)
    bad = np.flatnonzero(np.isinf(w))
    if len(bad):
        i = int(bad[0])
        pair = ((g.u_ids[u[i]], g.v_ids[v[i]]) if g.u_ids and g.v_ids
                else (int(u[i]), int(v[i])))
        raise ValidationError(f"the event weights of pair {pair} sum past the "
                              "largest float; weighted training cannot use them")
    with np.errstate(over="ignore"):
        total = w.sum()
    if np.isinf(total):
        raise ValidationError("the train and validation event weights together sum "
                              "past the largest float; weighted training cannot use them")


def normalized_adjacency(n_u: int, n_v: int, u: np.ndarray, v: np.ndarray,
                         w: np.ndarray) -> sp.csr_matrix:
    """Symmetrically normalized block adjacency over stacked node indexing.

    Returns D^{-1/2} (A + I) D^{-1/2} for A = [[0, W], [W^T, 0]] with
    self-loops of weight 1 and weighted degrees D. Duplicate (u, v) entries
    sum first, so each pair's value is computed once and the result is
    exactly symmetric. Isolated nodes keep degree 1 from the self-loop.
    """
    n = n_u + n_v
    key, inverse = np.unique(_pair_key(u, v, n_v), return_inverse=True)
    w = np.bincount(inverse, weights=w, minlength=len(key))
    u, v = key // n_v, key % n_v + n_u
    deg = np.bincount(np.concatenate([u, v]), weights=np.concatenate([w, w]),
                      minlength=n) + 1.0
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    vals = w * d_inv_sqrt[u] * d_inv_sqrt[v]
    loops = np.arange(n, dtype=np.int64)
    return sp.csr_matrix((np.concatenate([vals, vals, 1.0 / deg]),
                          (np.concatenate([u, v, loops]),
                           np.concatenate([v, u, loops]))), shape=(n, n))


def build_weighted_adjacency(g: BipartiteGraph, use_weights: bool) -> sp.csr_matrix:
    """Normalized adjacency of a graph's collapsed edges.

    With use_weights off, duplicate interaction events collapse to weight 1,
    so the result is identical for any reweighting of the same pair set.
    """
    u, v, w = aggregate_pairs(g.edges, g.n_v, use_weights)
    return normalized_adjacency(g.n_u, g.n_v, u, v, w)


def merge_graphs(g: BipartiteGraph, extra: EdgeArray) -> BipartiteGraph:
    """Graph over the same node universe with the union of event lists."""
    e = g.edges
    merged = EdgeArray(
        np.concatenate([e.u, extra.u]),
        np.concatenate([e.v, extra.v]),
        np.concatenate([e.w, extra.w]),
        np.concatenate([e.t, extra.t]),
    )
    return g.with_edges(merged)
