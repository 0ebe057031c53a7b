"""View generation for the bootstrapped objective.

Two augmented views (feature dropping + weight-aware edge dropping) supply
the attractive targets; one corrupted view (shuffled features + random
cross-partition edges of weight 1) supplies the repulsive targets. All
functions are pure and seed-deterministic; the source graph is never
modified.
"""

from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph
from .rng import as_seed_sequence

# Survival probability floor for weight-aware edge dropping. Normalizing by
# the mean weight (not the max) plus this clamp keeps every edge alive under
# heavily skewed weight distributions.
KEEP_PROB_FLOOR = 0.05


@dataclass
class GraphView:
    """One derived view of a graph: features plus a weighted pair list."""

    x_u: np.ndarray
    x_v: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edge_u)


def drop_features(x: np.ndarray, p: float, seed) -> np.ndarray:
    """Zero each feature entry independently with probability p."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"drop probability must be in [0, 1), got {p}")
    rng = np.random.default_rng(seed)
    mask = rng.random(x.shape) >= p
    return x * mask


def keep_probabilities(w: np.ndarray, base_keep: float) -> np.ndarray:
    """Per-edge retention probability: clamp(base_keep * w / mean(w))."""
    if not 0.0 < base_keep <= 1.0:
        raise ValueError(f"base_keep must be in (0, 1], got {base_keep}")
    if len(w) == 0:
        return np.array([], dtype=np.float64)
    return np.clip(base_keep * w / w.mean(), KEEP_PROB_FLOOR, 1.0)


def drop_edges_weight_aware(edge_u, edge_v, edge_w, base_keep: float, seed):
    """Keep each edge independently with probability proportional to its
    weight relative to the mean; retained edges keep their original weight."""
    edge_w = np.asarray(edge_w, dtype=np.float64)
    p_keep = keep_probabilities(edge_w, base_keep)
    if len(edge_w) == 0:
        return (np.array([], dtype=np.int64),) * 2 + (edge_w,)
    rng = np.random.default_rng(seed)
    keep = rng.random(len(edge_w)) < p_keep
    return (np.asarray(edge_u)[keep], np.asarray(edge_v)[keep], edge_w[keep])


def augmented_view(x_u, x_v, edge_u, edge_v, edge_w, *, feature_drop_p: float,
                   base_keep: float, seed) -> GraphView:
    """Feature dropping plus weight-aware edge dropping, with independent
    sub-streams for each randomness site. When edges go in and none
    survives, the view keeps the first heaviest one, the edge of highest
    keep probability: the objective is undefined over an empty edge set."""
    ss = as_seed_sequence(seed).spawn(3)
    xu = drop_features(x_u, feature_drop_p, ss[0])
    xv = drop_features(x_v, feature_drop_p, ss[1])
    ku, kv, kw = drop_edges_weight_aware(edge_u, edge_v, edge_w, base_keep, ss[2])
    if len(ku) == 0 and len(edge_w) > 0:
        i = int(np.argmax(edge_w))
        ku, kv = np.asarray(edge_u)[i:i + 1], np.asarray(edge_v)[i:i + 1]
        kw = np.asarray(edge_w, dtype=np.float64)[i:i + 1]
    return GraphView(xu, xv, ku, kv, kw)


def corrupt_view(g: BipartiteGraph, n_random_edges: int, seed) -> GraphView:
    """Permute each partition's feature rows and replace the edge set with
    uniform random cross-partition pairs of weight 1 (duplicates allowed)."""
    if n_random_edges < 1:
        raise ValueError(f"n_random_edges must be >= 1, got {n_random_edges}")
    ss = as_seed_sequence(seed).spawn(3)
    rng_u = np.random.default_rng(ss[0])
    rng_v = np.random.default_rng(ss[1])
    rng_e = np.random.default_rng(ss[2])
    perm_u = rng_u.permutation(g.n_u)
    perm_v = rng_v.permutation(g.n_v)
    eu = rng_e.integers(0, g.n_u, size=n_random_edges, dtype=np.int64)
    ev = rng_e.integers(0, g.n_v, size=n_random_edges, dtype=np.int64)
    return GraphView(g.x_u[perm_u], g.x_v[perm_v], eu, ev, np.ones(n_random_edges))
