"""Ranking and threshold metrics for scored link candidates, plus
multi-seed aggregation.

Conventions: ROC-AUC uses the rank (Mann-Whitney) form with ties counted
half. Hits@K ranks each positive against the shared negative pool by
default; with fewer than K negatives every positive counts as a hit,
which `compute_all` flags.
Threshold metrics return 0 (flagged, never an error) on zero denominators.
Non-finite scores are an error for every metric.
"""

import math

import numpy as np

from .errors import ValidationError

METRIC_NAMES = ("roc_auc", "average_precision", "hits_at_k",
                "precision", "recall", "f1")


def _check(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(np.int64)
    if scores.shape != labels.shape:
        raise ValidationError(
            f"scores and labels differ in length: {len(scores)} vs {len(labels)}")
    if not np.isin(labels, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    if not np.isfinite(scores).all():
        raise ValidationError("scores must be finite")
    return scores, labels


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, each group of tied scores given the mean of its
    ranks. Values are half-integers, so they are exact."""
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    # the group at sorted positions [s, e) holds ranks s+1 .. e
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative,
    ties counted 1/2."""
    scores, labels = _check(scores, labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("roc_auc needs at least one positive and one negative")
    ranks = _average_ranks(scores)
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def average_precision(scores, labels) -> float:
    """Mean of precision-at-rank over positives, score-descending order.

    Ties are broken by stable input order; unlike ROC-AUC this definition
    has no tie correction, so the input order matters for tied scores.
    """
    scores, labels = _check(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValidationError("average_precision needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    hits = np.cumsum(sorted_labels)
    ranks = np.arange(1, len(scores) + 1)
    # fsum: exactly rounded, so the value is independent of summation order
    return math.fsum((hits / ranks)[sorted_labels == 1]) / n_pos


def hits_at_k(scores, labels, k: int = 50) -> float:
    """Fraction of positives ranked above the k-th best negative.

    Each positive competes against the shared negative pool; a hit means
    strictly exceeding the k-th highest negative score, and with fewer than
    k negatives every positive is a hit.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    scores, labels = _check(scores, labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(neg) == 0:
        raise ValidationError("hits_at_k needs at least one negative")
    if len(pos) == 0:
        raise ValidationError("hits_at_k needs at least one positive")
    if len(neg) < k:
        return 1.0
    threshold = np.sort(neg)[::-1][k - 1]
    return float((pos > threshold).mean())


def threshold_prf(scores, labels) -> tuple:
    """Precision/recall/F1 with prediction = score >= 0.5:
    ({"precision", "recall", "f1"}, flag list).

    Zero-denominator cases yield 0 for the affected metric and a flag
    naming it, never an error. A decoder that scores every pair positive
    is flagged `all_predicted_positive`.
    """
    scores, labels = _check(scores, labels)
    pred = scores >= 0.5
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    flags = []
    if tp + fp == 0:
        precision = 0.0
        flags.append("no_predicted_positives")
    else:
        precision = tp / (tp + fp)
        if pred.all():
            flags.append("all_predicted_positive")
    if tp + fn == 0:
        recall = 0.0
        flags.append("no_actual_positives")
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0:
        f1 = 0.0
        if "no_predicted_positives" not in flags and "no_actual_positives" not in flags:
            flags.append("zero_f1_denominator")
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return {"precision": precision, "recall": recall, "f1": f1}, flags


def compute_all(scores, labels, k: int = 50) -> tuple:
    """The full metric sextuple for one scored evaluation set, plus flags:
    (values dict, flag list).

    Flags name degenerate values: the precision/recall/F1 flags of
    `threshold_prf`, and `hits_at_k_fewer_negatives_than_k` when the pool
    has fewer than k negatives, so that every positive counts as a hit.
    """
    prf, flags = threshold_prf(scores, labels)
    out = {
        "roc_auc": roc_auc(scores, labels),
        "average_precision": average_precision(scores, labels),
        "hits_at_k": hits_at_k(scores, labels, k=k),
        **prf,
    }
    if np.count_nonzero(np.asarray(labels) == 0) < k:
        flags.append("hits_at_k_fewer_negatives_than_k")
    return out, flags


def aggregate(seeds, per_seed_metrics) -> dict:
    """The report record of one variant: {"seeds", "per_seed", "aggregate"},
    the aggregate holding each metric's mean and sample (n-1) standard
    deviation over >= 2 seeds, and empty below two."""
    if len(seeds) != len(per_seed_metrics):
        raise ValidationError("one metric dict required per seed")
    keys = set(per_seed_metrics[0]) if per_seed_metrics else set()
    if any(set(m) != keys for m in per_seed_metrics):
        raise ValidationError("per-seed metric sets do not match")
    agg = {}
    for key in sorted(keys) if len(seeds) >= 2 else ():
        values = np.array([m[key] for m in per_seed_metrics], dtype=np.float64)
        # identical runs must report exactly 0, not mean-roundoff noise
        std = 0.0 if np.all(values == values[0]) else float(values.std(ddof=1))
        agg[key] = {"mean": float(values.mean()), "std": std}
    return {"seeds": list(seeds), "per_seed": list(per_seed_metrics), "aggregate": agg}
