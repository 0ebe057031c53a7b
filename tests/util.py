"""Shared test helpers: brute-force oracles and a finite-difference checker.

Oracles here are deliberately independent reimplementations (plain loops,
dense algebra) of the code paths they verify.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

from bilink import autodiff as ad
from bilink import checkpoint
from bilink.augment import augmented_view, corrupt_view
from bilink.errors import ValidationError, reading
from bilink.graph import (EDGE_HEADER, BipartiteGraph, EdgeArray, aggregate_pairs,
                          normalized_adjacency)
from bilink.model import encode, init_model_state, mlp_forward
from bilink.rng import child_seed, rng_for
from bilink.synthetic import _block_of, generate
from bilink.training import epoch_inputs


def make_graph(n_u, n_v, edge_tuples, d_u=3, d_v=4, rng=None):
    """Graph with random features and edges given as (u, v, w, t) tuples."""
    rng = rng or np.random.default_rng(0)
    e = np.array(edge_tuples, dtype=np.float64).reshape(-1, 4)
    edges = EdgeArray(e[:, 0].astype(np.int64), e[:, 1].astype(np.int64),
                      e[:, 2], e[:, 3].astype(np.int64))
    return BipartiteGraph(n_u, n_v, rng.normal(size=(n_u, d_u)),
                          rng.normal(size=(n_v, d_v)), edges)


# Event lists, as (n_u, n_v, (u, v, w, t) tuples, error), whose 80/10/10
# split leaves phase 2 too few complement pairs: the 2x2 graph's eras take
# every pair, so no negative pool can be drawn, and the 3x3 graph has three
# free pairs for four test-era pairs.
SHORT_COMPLEMENTS = [
    (2, 2, [(0, t % 2, 1.0, t) for t in range(18)] + [(1, 0, 1.0, 18), (1, 1, 1.0, 19)],
     "complement too small to sample a negative pool"),
    (3, 3, [(0, t % 2, 1.0, t) for t in range(36)]
     + [(u, v, 1.0, 36 + i) for i, (u, v) in enumerate([(1, 0), (1, 1), (2, 0), (2, 1)])],
     "4 test-era pairs need as many test negatives, but the complement has only 3 pairs"),
]


def sample_negatives_oracle(split, count, rng_seed):
    """Per-draw rejection loop over a set of (u, v) tuples: one scalar draw
    of u, then one of v, until `count` distinct pairs outside every era."""
    n_u, n_v = split.train.n_u, split.train.n_v
    taken = set()
    for e in (split.train.edges, split.val_edges, split.test_edges):
        taken.update(zip(e.u.tolist(), e.v.tolist()))
    rng = np.random.default_rng(rng_seed)
    pairs = []
    while len(pairs) < count:
        u = int(rng.integers(0, n_u))
        v = int(rng.integers(0, n_v))
        if (u, v) not in taken:
            taken.add((u, v))
            pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def sample_pairs_oracle(rng, spec):
    """`synthetic._sample_pairs` as a per-attempt rejection loop over a set of
    (u, v) tuples: one scalar draw of u, of the intra-community coin (with
    block structure) and of v per attempt. Its draw order fixes the bytes of
    every generated dataset."""
    n_u, n_v, n_blocks = spec.n_u, spec.n_v, spec.n_blocks
    u_block = _block_of(np.arange(n_u), n_u, n_blocks)
    v_block = _block_of(np.arange(n_v), n_v, n_blocks)
    v_by_block = [np.flatnonzero(v_block == b) for b in range(n_blocks)]

    chosen = set()
    pairs = []
    attempts = 0
    max_attempts = 200 * spec.n_edges
    while len(pairs) < spec.n_edges:
        attempts += 1
        if attempts > max_attempts:
            break
        u = int(rng.integers(0, n_u))
        if spec.block_structure and rng.random() < spec.intra_prob:
            members = v_by_block[u_block[u]]
            v = int(members[rng.integers(0, len(members))])
        else:
            v = int(rng.integers(0, n_v))
        if (u, v) in chosen:
            continue
        chosen.add((u, v))
        pairs.append((u, v))
    if len(pairs) < spec.n_edges:
        # Rejection stalled (nearly full block); fill from the unused pairs.
        free = [(u, v) for u in range(n_u) for v in range(n_v)
                if (u, v) not in chosen]
        extra = rng.choice(len(free), size=spec.n_edges - len(pairs), replace=False)
        pairs.extend(free[i] for i in extra)
    return np.array(pairs, dtype=np.int64)


# Specs for the dataset writer and loader checks: the default at three seeds,
# skewed weights, no block structure, a feature width other than the default
# and the smallest set.
DATASET_SPECS = [
    *({"seed": s} for s in (0, 1, 7)),
    {"weight_skew": 50, "seed": 7},
    {"weight_skew": 300, "seed": 7},
    {"block_structure": False, "seed": 7},
    {"n_blocks": 3, "seed": 7},
    {"n_u": 1, "n_v": 1, "n_edges": 1, "n_blocks": 1, "seed": 7},
]


def write_dataset_oracle(spec, out_dir) -> dict:
    """`synthetic.write_dataset` as a per-edge tuple list written through
    `csv.writer`, one feature value at a time. Its bytes are those of every
    generated dataset."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    x_u, x_v, pairs, weights, times = generate(spec)
    u_ids = [f"u{i}" for i in range(spec.n_u)]
    v_ids = [f"v{i}" for i in range(spec.n_v)]
    rows = [(u_ids[u], v_ids[v], int(w), int(t))
            for (u, v), w, t in zip(pairs, weights, times)]

    def write_features(path, ids, x):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id"] + [f"f{i + 1}" for i in range(x.shape[1])])
            for raw_id, row in zip(ids, x):
                writer.writerow([raw_id] + [f"{v:.10g}" for v in row])

    edge_path = out_dir / "edges.csv"
    with open(edge_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EDGE_HEADER)
        writer.writerows(rows)
    u_path = out_dir / "u_features.csv"
    v_path = out_dir / "v_features.csv"
    write_features(u_path, u_ids, x_u)
    write_features(v_path, v_ids, x_v)
    return {"edges": str(edge_path), "u_features": str(u_path),
            "v_features": str(v_path)}


def _csv_rows_oracle(path, header_ok, header_text):
    """Yields (line number of its last line, row) for each non-blank data row
    of a CSV file whose stripped header satisfies `header_ok`; every row must
    have as many columns as the header."""
    with reading(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header_ok([h.strip() for h in header]):
            raise ValidationError(f"{path}: expected header {header_text}")
        width = len(header)
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ValidationError(f"{path}:{reader.line_num}: expected {width} "
                                      f"columns, got {len(row)}")
            yield reader.line_num, row


def _read_feature_csv_oracle(path) -> tuple:
    """Returns (ids in file order, feature matrix). Header must be id,f1,...,fd."""
    ids, rows = [], []
    seen = {}
    for lineno, row in _csv_rows_oracle(path, lambda h: len(h) >= 2 and h[0] == "id",
                                        "id,f1,...,fd"):
        raw_id = row[0]
        if raw_id in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate id {raw_id!r} (first at line {seen[raw_id]})")
        seen[raw_id] = lineno
        try:
            values = [float(x) for x in row[1:]]
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: malformed feature value ({exc})")
        ids.append(raw_id)
        rows.append(values)
    if not ids:
        raise ValidationError(f"{path}: no feature rows")
    x = np.asarray(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if len(bad):
        raise ValidationError(f"{path}:{seen[ids[bad[0]]]}: non-finite feature value")
    return ids, x


def load_graph_oracle(edge_file, u_feature_file, v_feature_file) -> BipartiteGraph:
    """Independent reference for `graph.load_graph`: a plain per-row loop
    over the CSV reader that collects lists, each row checked in full
    (column count, u id, v id, weight and timestamp parse, weight
    finiteness) before the next is read. Its first failing check names the
    error."""
    u_ids, x_u = _read_feature_csv_oracle(u_feature_file)
    v_ids, x_v = _read_feature_csv_oracle(v_feature_file)
    u_index = {raw: i for i, raw in enumerate(u_ids)}
    v_index = {raw: i for i, raw in enumerate(v_ids)}

    eu, ev, ew, et = [], [], [], []
    for lineno, (raw_u, raw_v, raw_w, raw_t) in _csv_rows_oracle(
            edge_file, lambda h: h == EDGE_HEADER, ",".join(EDGE_HEADER)):
        if raw_u not in u_index:
            raise ValidationError(
                f"{edge_file}:{lineno}: u_id {raw_u!r} has no feature row")
        if raw_v not in v_index:
            raise ValidationError(
                f"{edge_file}:{lineno}: v_id {raw_v!r} has no feature row")
        try:
            w = float(raw_w)
            t = int(raw_t)
        except ValueError as exc:
            raise ValidationError(f"{edge_file}:{lineno}: malformed row ({exc})")
        if not (math.isfinite(w) and w > 0):
            raise ValidationError(
                f"{edge_file}:{lineno}: edge weight must be positive and "
                f"finite, got {raw_w}")
        eu.append(u_index[raw_u])
        ev.append(v_index[raw_v])
        ew.append(w)
        et.append(t)
    if not eu:
        raise ValidationError(f"{edge_file}: no edges")

    edges = EdgeArray(np.array(eu), np.array(ev), np.array(ew), np.array(et))
    return BipartiteGraph(len(u_ids), len(v_ids), x_u, x_v, edges,
                          tuple(u_ids), tuple(v_ids))


def encode_oracle(params, adj, x_u, x_v, dropout_p=0.0, dropout_seed=0):
    """All stacked rows of `model.encode` in explicit-projection order:
    project each side, stack, conv1, ReLU, dropout, then conv2 on every
    node. Returns (h_u, h_v) arrays."""
    def project(side, x):
        return ad.add(ad.matmul(ad.constant(x), params[f"encoder.proj_{side}.weight"]),
                      params[f"encoder.proj_{side}.bias"])

    h = ad.concat_rows(project("u", x_u), project("v", x_v))
    h = ad.relu(ad.sparse_dense_matmul(adj, ad.matmul(h, params["encoder.conv1"])))
    if dropout_p > 0.0:
        h = ad.dropout_mask(h, dropout_p, dropout_seed)
    h = ad.sparse_dense_matmul(adj, ad.matmul(h, params["encoder.conv2"])).data
    return h[:len(x_u)], h[len(x_u):]


def epoch_inputs_oracle(g, cfg, seed, epoch):
    """`training.epoch_inputs` as `pretrain` built it inline, with the
    adjacency helper and the UNK row draw it called. `unk_rows` is None
    where no row was substituted."""
    def _view_adjacency(n_u, n_v, view):
        return normalized_adjacency(n_u, n_v, view.edge_u, view.edge_v, view.edge_w)

    cu, cv, cw = aggregate_pairs(g.edges, g.n_v, use_weights=cfg.weighted_pretrain)
    view1 = augmented_view(g.x_u, g.x_v, cu, cv, cw,
                           feature_drop_p=cfg.feature_drop_p,
                           base_keep=cfg.edge_keep_prob,
                           seed=child_seed(seed, "view", epoch, 1))
    view2 = augmented_view(g.x_u, g.x_v, cu, cv, cw,
                           feature_drop_p=cfg.feature_drop_p,
                           base_keep=cfg.edge_keep_prob,
                           seed=child_seed(seed, "view", epoch, 2))
    corrupted = corrupt_view(g, max(1, view1.n_edges),
                             child_seed(seed, "corrupt", epoch))

    adj1 = _view_adjacency(g.n_u, g.n_v, view1)
    adj2 = _view_adjacency(g.n_u, g.n_v, view2)
    adjc = _view_adjacency(g.n_u, g.n_v, corrupted)
    dropout_seed = int(rng_for(seed, "dropout", epoch).integers(2 ** 31))

    idx_u = None
    rate = cfg.unk_substitution_rate
    if rate > 0:
        rng = rng_for(seed, "unk", epoch)
        n_u = g.n_u
        k_u = max(1, int(round(rate * n_u)))
        idx_u = rng.choice(n_u, size=min(k_u, n_u), replace=False)
    return view1, view2, corrupted, adj1, adj2, adjc, dropout_seed, idx_u


def resave_checkpoint(path, arrays, meta):
    """Write a checkpoint with `meta` as given, format version included
    (`save_arrays` stamps the current version), e.g. an edited version-1
    file."""
    payload = dict(arrays)
    payload[checkpoint._META_KEY] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **payload)


def dense_normalized_adjacency(n_u, n_v, weighted_pairs):
    """Brute-force D^{-1/2}(A+I)D^{-1/2} over the stacked block layout."""
    n = n_u + n_v
    a = np.zeros((n, n))
    for u, v, w in weighted_pairs:
        a[u, n_u + v] += w
        a[n_u + v, u] += w
    a += np.eye(n)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
    return d_inv_sqrt @ a @ d_inv_sqrt


def cosine_scalar(x, y):
    """Cosine of two vectors via explicit scalar loops."""
    dot = sx = sy = 0.0
    for a, b in zip(x, y):
        dot += a * b
        sx += a * a
        sy += b * b
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return dot / (math.sqrt(sx) * math.sqrt(sy))


def loss_term_oracle(pred_rows, target_rows, edges, weights, weighted, sign):
    """Scalar-loop weighted cosine average used to check both loss terms."""
    num = 0.0
    den = 0.0
    for (u, v), w in zip(edges, weights):
        w = w if weighted else 1.0
        num += w * cosine_scalar(pred_rows[u], target_rows[v])
        den += w
    return sign * num / den


def pretrain_epoch0_loss_oracle(g, cfg, seed):
    """(attractive, repulsive) of `training.pretrain`'s epoch 0 on the train
    graph `g`, rebuilt from public pieces and one weighted cosine per edge:
    the online predictions (UNK rows swapped in) at each view-1 edge's U end
    against view 2's target rows at its V end, and at each corrupted edge's
    U end against the corrupted view's target rows."""
    state = init_model_state(rng_for(seed, "init"), g.x_u.shape[1], g.x_v.shape[1],
                             cfg.input_dim, cfg.hidden_dim, cfg.output_dim)
    pairs = aggregate_pairs(g.edges, g.n_v, use_weights=cfg.weighted_pretrain)
    (view1, view2, corrupted, adj1, adj2, adjc, dropout_seed,
     unk_rows) = epoch_inputs(g, pairs, cfg, seed, 0)
    h_u = encode(state.online, adj1, view1.x_u, view1.x_v, slice(0, g.n_u),
                 dropout_p=cfg.dropout, dropout_seed=dropout_seed).data.copy()
    h_u[unk_rows] = state.online["encoder.unk_u"].data
    p_u = ad.constant(h_u)
    for head in ("heads.projector_u", "heads.predictor_u"):
        p_u = mlp_forward(state.online, head, p_u)
    p_u = p_u.data.tolist()

    def term(view, target_view, adj, sign):
        target = encode(state.target, adj, target_view.x_u, target_view.x_v,
                        slice(g.n_u, None)).data.tolist()
        return loss_term_oracle(p_u, target, zip(view.edge_u, view.edge_v),
                                view.edge_w, True, sign)

    return term(view1, view2, adj2, -1.0), term(corrupted, corrupted, adjc, +1.0)


def roc_auc_oracle(scores, labels):
    """Exhaustive positive x negative pair counting, ties worth 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def average_precision_oracle(scores, labels):
    """Rank walk in score-descending, stable order (exactly rounded sum)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    terms = []
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            terms.append(hits / rank)
    return math.fsum(terms) / sum(labels)


def hits_at_k_oracle(scores, labels, k):
    """Full sort of the negative pool, then strict comparison per positive."""
    neg = sorted((s for s, y in zip(scores, labels) if y == 0), reverse=True)
    pos = [s for s, y in zip(scores, labels) if y == 1]
    if len(neg) < k:
        return 1.0
    kth = neg[k - 1]
    return sum(1 for p in pos if p > kth) / len(pos)


def prf_oracle(scores, labels, threshold=0.5):
    """Hand-counted confusion matrix."""
    tp = fp = fn = 0
    for s, y in zip(scores, labels):
        pred = 1 if s >= threshold else 0
        if pred == 1 and y == 1:
            tp += 1
        elif pred == 1 and y == 0:
            fp += 1
        elif pred == 0 and y == 1:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def mean_std_oracle(values):
    """Two-pass mean and sample standard deviation."""
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def max_grad_error(analytic, numeric, floor=1e-6):
    """Worst-entry relative error with an absolute floor."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def finite_difference_grad(f, x, eps=1e-5):
    """Central differences of a scalar function of one array, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        f_plus = f(x)
        x[i] = orig - eps
        f_minus = f(x)
        x[i] = orig
        grad[i] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad
