"""Synthetic weighted bipartite datasets with planted community structure.

U and V are carved into matched communities; most edges land inside a
matched pair of communities, giving a learnable link signal. Node features
are noisy community indicators, weights follow a capped power law (skew 1
means unweighted) and timestamps are uniform, so the chronological split
produces genuinely inductive eras. With block structure off, edges are
uniform random pairs and the dataset carries no learnable signal.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graph import EDGE_HEADER


@dataclass
class SyntheticSpec:
    n_u: int = 200
    n_v: int = 300
    n_edges: int = 4000
    weight_skew: int = 1
    block_structure: bool = True
    n_blocks: int = 10
    intra_prob: float = 0.95
    time_span: int = 1000
    feature_noise: float = 0.1
    noise_dims: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_u < 1 or self.n_v < 1 or self.n_edges < 1:
            raise ValidationError("sizes must be positive")
        for name, ok, rule in (
                ("weight_skew", self.weight_skew >= 1, ">= 1"),
                ("n_blocks", self.n_blocks >= 1, ">= 1"),
                ("time_span", self.time_span >= 1, ">= 1"),
                ("intra_prob", 0 <= self.intra_prob <= 1, "in [0, 1]"),
                ("feature_noise", 0 <= self.feature_noise < np.inf, "finite and >= 0"),
                ("noise_dims", self.noise_dims >= 0, ">= 0"),
                ("seed", self.seed >= 0, ">= 0")):
            if not ok:
                raise ValidationError(f"{name} must be {rule}, got {getattr(self, name)}")
        if self.n_edges > self.n_u * self.n_v:
            raise ValidationError(
                f"cannot place {self.n_edges} distinct pairs in a "
                f"{self.n_u}x{self.n_v} bipartite graph")
        if self.block_structure and self.n_blocks > min(self.n_u, self.n_v):
            raise ValidationError("more blocks than nodes in a partition")


def _block_of(idx: np.ndarray, n_nodes: int, n_blocks: int) -> np.ndarray:
    return (idx * n_blocks) // n_nodes


def _features(rng, n_nodes, n_blocks, noise, noise_dims):
    blocks = _block_of(np.arange(n_nodes), n_nodes, n_blocks)
    x = np.zeros((n_nodes, n_blocks + noise_dims))
    x[np.arange(n_nodes), blocks] = 1.0
    x += noise * rng.normal(size=x.shape)
    return x


def _sample_pairs(rng, spec: SyntheticSpec) -> np.ndarray:
    """Distinct (u, v) pairs; intra-community with probability intra_prob
    when block structure is on."""
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


def _sample_weights(rng, n: int, skew: int) -> np.ndarray:
    if skew == 1:
        return np.ones(n, dtype=np.int64)
    raw = np.floor(rng.pareto(1.3, size=n)).astype(np.int64) + 1
    return np.minimum(raw, skew)


def generate(spec: SyntheticSpec):
    """Returns (u_ids, x_u, v_ids, x_v, rows) where rows are edge CSV tuples."""
    rng = np.random.default_rng(spec.seed)
    x_u = _features(rng, spec.n_u, spec.n_blocks, spec.feature_noise, spec.noise_dims)
    x_v = _features(rng, spec.n_v, spec.n_blocks, spec.feature_noise, spec.noise_dims)
    pairs = _sample_pairs(rng, spec)
    weights = _sample_weights(rng, spec.n_edges, spec.weight_skew)
    times = rng.integers(0, spec.time_span, size=spec.n_edges)
    u_ids = [f"u{i}" for i in range(spec.n_u)]
    v_ids = [f"v{i}" for i in range(spec.n_v)]
    rows = [(u_ids[u], v_ids[v], int(w), int(t))
            for (u, v), w, t in zip(pairs, weights, times)]
    return u_ids, x_u, v_ids, x_v, rows


def write_dataset(spec: SyntheticSpec, out_dir) -> dict:
    """Generate and write edges.csv / u_features.csv / v_features.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    u_ids, x_u, v_ids, x_v, rows = generate(spec)

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
