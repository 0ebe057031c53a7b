"""Synthetic weighted bipartite datasets with planted community structure.

U and V are carved into matched communities; most edges land inside a
matched pair of communities, giving a learnable link signal. Node features
are noisy community indicators, weights follow a capped power law (skew 1
means unweighted) and timestamps are uniform, so the chronological split
produces genuinely inductive eras. With block structure off, edges are
uniform random pairs and the dataset carries no learnable signal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write
from .errors import ValidationError, check_fields, make_dir, setting
from .graph import EDGE_HEADER

_LOW32 = np.uint64(0xFFFFFFFF)
# Most attempts `_sample_pairs` reads in one chunk of raw words.
_MAX_CHUNK = 1 << 20


# Std of the Gaussian noise on every feature value, and the number of
# pure-noise feature columns after the community indicators.
FEATURE_NOISE = 0.1
NOISE_DIMS = 2


@dataclass
class SyntheticSpec:
    n_u: int = setting(200, lambda n: 1 <= n < 2 ** 31, "in [1, 2**31)")
    n_v: int = setting(300, lambda n: 1 <= n < 2 ** 31, "in [1, 2**31)")
    n_edges: int = setting(4000, lambda n: 1 <= n < 2 ** 31, "in [1, 2**31)")
    weight_skew: int = setting(1, lambda n: 1 <= n < 2 ** 63, "in [1, 2**63)")
    block_structure: bool = True
    n_blocks: int = setting(10, lambda n: n >= 1, ">= 1")
    intra_prob: float = setting(0.95, lambda p: 0 <= p <= 1, "in [0, 1]")
    time_span: int = setting(1000, lambda n: 1 <= n < 2 ** 63, "in [1, 2**63)")
    seed: int = setting(0, lambda n: n >= 0, ">= 0")

    def __post_init__(self):
        """Each field's type, then its range, before any draw: the pair
        sampler does integer arithmetic on these values, and the weights and
        timestamps are int64."""
        check_fields(self)
        if self.n_edges > self.n_u * self.n_v:
            raise ValidationError(
                f"cannot place {self.n_edges} distinct pairs in a "
                f"{self.n_u}x{self.n_v} bipartite graph")
        if self.n_blocks > min(self.n_u, self.n_v):
            raise ValidationError("more blocks than nodes in a partition")


def _block_of(idx: np.ndarray, n_nodes: int, n_blocks: int) -> np.ndarray:
    return (idx * n_blocks) // n_nodes


def _features(rng, n_nodes, n_blocks):
    blocks = _block_of(np.arange(n_nodes), n_nodes, n_blocks)
    x = np.zeros((n_nodes, n_blocks + NOISE_DIMS))
    x[np.arange(n_nodes), blocks] = 1.0
    x += FEATURE_NOISE * rng.normal(size=x.shape)
    return x


def _draw_pair(rng, spec: SyntheticSpec, v_bounds: list) -> tuple:
    """One attempt of the rejection loop, drawn through `rng`: u, then with
    block structure the intra-community coin, then v from u's community
    (the run `v_bounds[b]:v_bounds[b + 1]` of V) or from all of V. This draw
    order fixes the bytes of every dataset."""
    u = int(rng.integers(0, spec.n_u))
    if spec.block_structure and rng.random() < spec.intra_prob:
        b = _block_of(u, spec.n_u, spec.n_blocks)
        return u, v_bounds[b] + int(rng.integers(0, v_bounds[b + 1] - v_bounds[b]))
    return u, int(rng.integers(0, spec.n_v))


def _bounded(x: np.ndarray, n):
    """`rng.integers(0, n)` for 2 <= n < 2**32 from the 32-bit draws `x`
    (Lemire's multiply-shift, as numpy does it): the values, and whether
    numpy keeps each draw rather than drawing again."""
    m = x * n
    return (m >> 32).astype(np.int64), (m & _LOW32) >= (1 << 32) % n


def _read_chunk(words: np.ndarray, kept: int, kept_half: int, spec: SyntheticSpec,
                v_first: np.ndarray, v_size: np.ndarray) -> tuple:
    """The attempts `_draw_pair` makes from `words`, the generator's next raw
    words, one or two per attempt, if every attempt draws u and v once and
    starts with a 32-bit half kept (`kept`, the half `kept_half`) or not,
    like the first. Returns (u, v, regular, split): the number of leading
    attempts that do so, and the words whose halves the 32-bit draws take,
    low half first; the coins take the others."""
    count = len(words) // (2 if spec.block_structure else 1)
    split = words[kept::2] if spec.block_structure else words
    halves = np.empty(2 * count + kept, dtype=np.uint64)
    halves[kept::2] = split & _LOW32
    halves[kept + 1::2] = split >> 32
    if kept:
        halves[0] = kept_half
    u, ok = _bounded(halves[0:2 * count:2], spec.n_u)
    if spec.block_structure:
        intra = (words[1 - kept::2] >> 11) * 2.0 ** -53 < spec.intra_prob
        b = _block_of(u, spec.n_u, spec.n_blocks)
        v, ok_v = _bounded(halves[1:2 * count:2],
                           np.where(intra, v_size[b], np.uint64(spec.n_v)))
        v += np.where(intra, v_first[b], 0)
    else:
        v, ok_v = _bounded(halves[1:2 * count:2], spec.n_v)
    ok &= ok_v
    return u, v, count if ok.all() else int(np.argmin(ok)), split


def _sample_pairs(rng, spec: SyntheticSpec) -> np.ndarray:
    """Distinct (u, v) pairs; intra-community with probability intra_prob
    when block structure is on.

    The pairs and the generator's final state are those of `_draw_pair`
    repeated until n_edges distinct pairs or 200 * n_edges attempts, with
    the unused pairs filling a stalled loop. The attempts are read in chunks
    of raw PCG64 words (`_read_chunk`). A 32-bit draw takes the high half of
    the word that the one before it split, while that half is kept, and
    else the low half of a fresh word; the coin takes a fresh word. So an
    attempt that draws u and v once takes two words with block structure
    and one without, and leaves a half kept if it found one. An attempt that
    numpy draws again, or that draws from a range of 1 and so not at all,
    goes through `_draw_pair`, and the next chunk starts from the exact
    state after it.
    """
    n_u, n_v, n_blocks = spec.n_u, spec.n_v, spec.n_blocks
    # V block b (`_block_of`) is the run of v >= b * n_v / n_blocks.
    v_bounds = [-(-b * n_v // n_blocks) for b in range(n_blocks + 1)]
    v_first = np.array(v_bounds[:-1])
    v_size = np.diff(v_bounds).astype(np.uint64)
    # Where a range of 1 can come up, every attempt goes through `_draw_pair`.
    chunked = n_u > 1 and n_v > 1 and not (
        spec.block_structure and spec.intra_prob > 0 and v_size.min() == 1)
    words_per = 2 if spec.block_structure else 1

    bg = rng.bit_generator
    taken, keys = set(), []
    attempts, max_attempts = 0, 200 * spec.n_edges
    irregular = not chunked
    while len(keys) < spec.n_edges and attempts < max_attempts:
        if irregular:
            u, v = _draw_pair(rng, spec, v_bounds)
            attempts += 1
            key = u * n_v + v
            if key not in taken:
                taken.add(key)
                keys.append(key)
            irregular = not chunked
            continue
        # Twice the attempts the missing pairs need at the rate so far.
        need = spec.n_edges - len(keys)
        count = min(max_attempts - attempts, _MAX_CHUNK,
                    math.ceil(2 * need * (attempts + 1) / (len(keys) + 1)))
        state = bg.state
        kept = state["has_uint32"]
        u, v, regular, split = _read_chunk(bg.random_raw(count * words_per), kept,
                                           state["uinteger"], spec, v_first, v_size)
        drawn = u[:regular] * n_v + v[:regular]
        fresh = np.flatnonzero(~np.isin(drawn, np.fromiter(taken, np.int64, len(taken))))
        first = fresh[np.sort(np.unique(drawn[fresh], return_index=True)[1])][:need]
        used = int(first[-1]) + 1 if len(first) == need else regular
        taken.update(drawn[first].tolist())
        keys.extend(drawn[first].tolist())
        attempts += used
        # Rewind to the end of the last attempt used.
        bg.state = state
        if used:
            bg.advance(used * words_per)
            bg.state = {**bg.state, "has_uint32": kept,
                        "uinteger": int(split[used - 1] >> 32)}
        irregular = used < count
    keys = np.array(keys, dtype=np.int64)
    if len(keys) < spec.n_edges:
        # Rejection stalled (nearly full block); fill from the unused pairs.
        free = np.setdiff1d(np.arange(n_u * n_v), keys)
        extra = rng.choice(len(free), size=spec.n_edges - len(keys), replace=False)
        keys = np.concatenate([keys, free[extra]])
    return np.stack([keys // n_v, keys % n_v], axis=1)


def _sample_weights(rng, n: int, skew: int) -> np.ndarray:
    if skew == 1:
        return np.ones(n, dtype=np.int64)
    raw = np.floor(rng.pareto(1.3, size=n)).astype(np.int64) + 1
    return np.minimum(raw, skew)


def generate(spec: SyntheticSpec):
    """Returns (x_u, x_v, pairs, weights, times): the feature matrices, the
    (n_edges, 2) int64 (u, v) index pairs, and each edge's integer weight
    and timestamp. Node i of U is named `u{i}` and of V `v{i}`."""
    rng = np.random.default_rng(spec.seed)
    x_u = _features(rng, spec.n_u, spec.n_blocks)
    x_v = _features(rng, spec.n_v, spec.n_blocks)
    pairs = _sample_pairs(rng, spec)
    weights = _sample_weights(rng, spec.n_edges, spec.weight_skew)
    times = rng.integers(0, spec.time_span, size=spec.n_edges)
    return x_u, x_v, pairs, weights, times


def _csv_text(header, row: str, *columns) -> str:
    """A CSV file's text as `csv.writer` writes fields that need no quoting
    (CRLF line ends): `header`, then `row` formatted with one value of each
    column per line."""
    return "".join([",".join(header) + "\r\n",
                    *map((row + "\r\n").format, *columns)])


def _feature_text(prefix: str, x: np.ndarray) -> str:
    """Feature CSV text: ids `{prefix}{i}`, each value as `{:.10g}`."""
    d = x.shape[1]
    return _csv_text(["id"] + [f"f{i + 1}" for i in range(d)],
                     prefix + "{}" + ",{:.10g}" * d,
                     range(len(x)), *x.T.tolist())


def write_dataset(spec: SyntheticSpec, out_dir) -> dict:
    """Generate and write edges.csv / u_features.csv / v_features.csv. Each
    file is replaced whole (`atomic_write`), so an interrupted run leaves
    no truncated file."""
    out_dir = make_dir(out_dir)
    x_u, x_v, pairs, weights, times = generate(spec)
    texts = {
        "edges": _csv_text(EDGE_HEADER, "u{},v{},{},{}", *pairs.T.tolist(),
                           weights.tolist(), times.tolist()),
        "u_features": _feature_text("u", x_u),
        "v_features": _feature_text("v", x_v),
    }
    paths = {}
    for name, text in texts.items():
        path = out_dir / f"{name}.csv"
        with atomic_write(path, newline="") as fh:
            fh.write(text)
        paths[name] = str(path)
    return paths
