"""Shared test helpers: brute-force oracles and a finite-difference checker.

Oracles here are deliberately independent reimplementations (plain loops,
dense algebra) of the code paths they verify.
"""

import json
import math

import numpy as np

from bilink import checkpoint
from bilink.graph import BipartiteGraph, EdgeArray


def make_graph(n_u, n_v, edge_tuples, d_u=3, d_v=4, rng=None):
    """Graph with random features and edges given as (u, v, w, t) tuples."""
    rng = rng or np.random.default_rng(0)
    e = np.array(edge_tuples, dtype=np.float64).reshape(-1, 4)
    edges = EdgeArray(e[:, 0].astype(np.int64), e[:, 1].astype(np.int64),
                      e[:, 2], e[:, 3].astype(np.int64))
    return BipartiteGraph(n_u, n_v, rng.normal(size=(n_u, d_u)),
                          rng.normal(size=(n_v, d_v)), edges)


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
