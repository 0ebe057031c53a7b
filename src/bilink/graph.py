"""Bipartite interaction graphs: loading, chronological splitting, negative
sampling and normalized adjacency construction.

Edges are interaction *events*: the same (u, v) pair may occur many times
with different timestamps. For modeling, events are collapsed into one
weighted edge per distinct pair (weight = summed event weight, which equals
the interaction count when every event has weight 1). Event weights must be
positive and finite. A set of pairs is a sorted array of int64 keys u*n_v+v.
"""

import contextlib
import csv
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError, reading

EDGE_HEADER = ["u_id", "v_id", "weight", "timestamp"]
# Timestamps are stored as int64; a parsed one outside this range is malformed.
_INT64 = range(-2 ** 63, 2 ** 63)


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


def _read_rows(path, header_ok, header_text) -> tuple:
    """Reads the non-blank data rows of a CSV file whose stripped header
    satisfies `header_ok`. Returns (width, rows, tail): the header's column
    count; the rows before the first one that has another column count or
    that the file fails to read at; and that failure as a ValidationError,
    or None. A failed check on `rows` comes first in file order, so it wins
    over `tail`."""
    tail = None
    with reading(path), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header_ok([h.strip() for h in header]):
            raise ValidationError(f"{path}: expected header {header_text}")
        width = len(header)
        rows = []
        try:
            with reading(path):
                rows.extend(filter(None, reader))
        except ValidationError as exc:
            tail = exc
    widths = np.fromiter(map(len, rows), np.int64, len(rows))
    bad = np.flatnonzero(widths != width)
    if len(bad):
        i = int(bad[0])
        tail = ValidationError(f"{path}:{_line_of(path, i)}: expected {width} "
                               f"columns, got {len(rows[i])}")
        del rows[i:]
    return width, rows, tail


def _line_of(path, index: int) -> int:
    """Line number of the last line of data row `index` (0-based, blank rows
    not counted) of the CSV file `path`, read again up to that row."""
    with reading(path), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        # Row 0 is the header, which is never blank.
        next(itertools.islice(filter(None, reader), index + 1, None))
        return reader.line_num


def _converted(kind, strings: list) -> list:
    """`kind` (float or int) applied to `strings` in order up to the first
    one it rejects: the result is shorter than `strings` just when one is
    rejected, at the result's length."""
    out = []
    with contextlib.suppress(ValueError):
        out.extend(map(kind, strings))
    return out


def _first_none(values: list) -> int:
    return values.index(None) if None in values else len(values)


def _read_feature_csv(path) -> tuple:
    """Returns (ids in file order, feature matrix). Header must be id,f1,...,fd.
    A duplicate id or a malformed value fails at its row, a non-finite value
    only once every row is read."""
    width, rows, tail = _read_rows(path, lambda h: len(h) >= 2 and h[0] == "id",
                                   "id,f1,...,fd")
    n = len(rows)
    cells = list(itertools.chain.from_iterable(rows))
    ids = cells[::width]
    del cells[::width]
    values = _converted(float, cells)
    first_row = dict(zip(reversed(ids), reversed(range(n))))
    dup = n
    if len(first_row) < n:
        rows_of_first = np.fromiter(map(first_row.get, ids), np.int64, n)
        dup = int(np.flatnonzero(rows_of_first != np.arange(n))[0])
    bad = min(dup, len(values) // (width - 1))
    if bad < n:
        where = f"{path}:{_line_of(path, bad)}"
        raw_id = ids[bad]
        if bad == dup:
            raise ValidationError(f"{where}: duplicate id {raw_id!r} (first at "
                                  f"line {_line_of(path, first_row[raw_id])})")
        try:
            list(map(float, rows[bad][1:]))
        except ValueError as exc:
            raise ValidationError(f"{where}: malformed feature value ({exc})")
    if tail is not None:
        raise tail
    if not ids:
        raise ValidationError(f"{path}: no feature rows")
    x = np.array(values, dtype=np.float64).reshape(n, width - 1)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if len(bad):
        raise ValidationError(f"{path}:{_line_of(path, int(bad[0]))}: "
                              "non-finite feature value")
    return ids, x


def load_graph(edge_file, u_feature_file, v_feature_file) -> BipartiteGraph:
    """Load a bipartite graph from an edge CSV and two feature CSVs.

    Dense indices are assigned in feature-file row order. Every node
    referenced by an edge must have a feature row; feature-file nodes with
    no edges are kept as isolated nodes. The first edge row in file order
    that fails a check names the error; within a row the checks run in
    order: column count, u id, v id, weight and timestamp parse (the
    timestamp within int64), weight positive and finite.
    """
    u_ids, x_u = _read_feature_csv(u_feature_file)
    v_ids, x_v = _read_feature_csv(v_feature_file)
    u_index = dict(zip(u_ids, range(len(u_ids))))
    v_index = dict(zip(v_ids, range(len(v_ids))))

    _, rows, tail = _read_rows(edge_file, lambda h: h == EDGE_HEADER,
                               ",".join(EDGE_HEADER))
    n = len(rows)
    cells = list(itertools.chain.from_iterable(rows))
    eu = list(map(u_index.get, cells[0::4]))
    ev = list(map(v_index.get, cells[1::4]))
    ew = _converted(float, cells[2::4])
    et = _converted(int, cells[3::4])
    if et and (min(et) not in _INT64 or max(et) not in _INT64):
        del et[[t in _INT64 for t in et].index(False):]
    w = np.array(ew, dtype=np.float64)
    bad_w = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    bad = min(_first_none(eu), _first_none(ev), len(ew), len(et),
              int(bad_w[0]) if len(bad_w) else n)
    if bad < n:
        where = f"{edge_file}:{_line_of(edge_file, bad)}"
        raw_u, raw_v, raw_w, raw_t = rows[bad]
        if eu[bad] is None:
            raise ValidationError(f"{where}: u_id {raw_u!r} has no feature row")
        if ev[bad] is None:
            raise ValidationError(f"{where}: v_id {raw_v!r} has no feature row")
        try:
            float(raw_w)
            if int(raw_t) not in _INT64:
                raise ValueError(f"timestamp {raw_t} is outside the int64 range")
        except ValueError as exc:
            raise ValidationError(f"{where}: malformed row ({exc})")
        raise ValidationError(f"{where}: edge weight must be positive and "
                              f"finite, got {raw_w}")
    if tail is not None:
        raise tail
    if not n:
        raise ValidationError(f"{edge_file}: no edges")

    edges = EdgeArray(np.array(eu), np.array(ev), w, np.array(et))
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
    if np.unique(g.edges.t).size == 1:
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
    and validation event weights sum to inf. Weights are positive, so when
    this passes, every pair weight that weighted training sums over a subset
    of those events is finite too."""
    g = merge_graphs(split.train, split.val_edges)
    u, v, w = aggregate_pairs(g.edges, g.n_v, use_weights=True)
    bad = np.flatnonzero(np.isinf(w))
    if len(bad):
        i = int(bad[0])
        pair = ((g.u_ids[u[i]], g.v_ids[v[i]]) if g.u_ids and g.v_ids
                else (int(u[i]), int(v[i])))
        raise ValidationError(f"the event weights of pair {pair} sum past the "
                              "largest float; weighted training cannot use them")


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
