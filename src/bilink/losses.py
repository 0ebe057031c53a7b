"""Pretraining objective: a weighted attractive term over augmented-view
edges, a weighted repulsive term over corrupted-view edges, and their
balanced combination.

Gradients flow only into the online-side inputs; target-side matrices are
passed as plain arrays and treated as constants (stop-gradient).

Each term is a weighted mean cosine over an edge list, computed without
gathering one row per edge. With p̂ and t̂ the rows scaled to unit norm and
W the sparse (online rows x target rows) incidence matrix holding each
edge's weight (duplicate pairs sum),

    sum_e w_e * cos(p_{u_e}, t_{v_e}) = sum_u p̂_u . (W t̂)_u,

so a term is one sparse product, one row normalization and one
elementwise product. A zero-norm row on either side normalizes to zero, so
its edges contribute cosine 0 and no gradient, as in `autodiff.row_cosine`.
"""

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ValidationError


def _check_index(idx: np.ndarray, n: int):
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"row index out of range [0, {n}): {idx.min()}..{idx.max()}")


def _edge_cosine_mean(online_rows: Tensor, target_matrix, edge_from, edge_to,
                      weights, weighted: bool, sign: float) -> Tensor:
    if len(edge_from) == 0:
        raise ValidationError("loss is undefined over an empty edge set")
    target = ad.constant(target_matrix.data if isinstance(target_matrix, Tensor)
                         else target_matrix)
    w = np.asarray(weights, dtype=np.float64)
    if not weighted:
        w = np.ones_like(w)
    total = w.sum()
    if total <= 0:
        raise ValidationError("edge weights must sum to a positive value")
    edge_from = np.asarray(edge_from, dtype=np.int64)
    edge_to = np.asarray(edge_to, dtype=np.int64)
    _check_index(edge_from, online_rows.shape[0])
    _check_index(edge_to, target.shape[0])
    incidence = sp.csr_matrix((w, (edge_from, edge_to)),
                              shape=(online_rows.shape[0], target.shape[0]))
    pulled = ad.constant(incidence @ ad.row_normalize(target).data)
    weighted_sum = ad.sum_all(ad.mul(ad.row_normalize(online_rows), pulled))
    return ad.scale(weighted_sum, sign / total)


def attractive_loss(pred_online: Tensor, target_matrix, edge_u, edge_v,
                    weights, weighted: bool) -> Tensor:
    """Negative weighted mean cosine between online predictions at the edge
    sources and target embeddings at the edge destinations."""
    return _edge_cosine_mean(pred_online, target_matrix, edge_u, edge_v,
                             weights, weighted, sign=-1.0)


def repulsive_loss(pred_online: Tensor, target_matrix, edge_u, edge_v,
                   weights, weighted: bool) -> Tensor:
    """Positive weighted mean cosine against corrupted-view targets.

    Corrupted views carry weight 1 everywhere, so the weighted and
    unweighted forms coincide there by construction.
    """
    return _edge_cosine_mean(pred_online, target_matrix, edge_u, edge_v,
                             weights, weighted, sign=+1.0)


def total_pretrain_loss(attractive: Tensor, repulsive: Tensor,
                        balance: float) -> Tensor:
    """balance * repulsive + (1 - balance) * attractive."""
    if not 0.0 <= balance <= 1.0:
        raise ValidationError(f"balance must be in [0, 1], got {balance}")
    return ad.add(ad.scale(repulsive, balance),
                  ad.scale(attractive, 1.0 - balance))
