"""Reverse-mode automatic differentiation for dense 2-D float64 tensors.

Operations record onto the thread's open Tape (opened with a `with` block).
Outside a tape they are plain forward computations, which is how
evaluation-time encoding and the stop-gradient target passes run. A thread
holds at most one open tape; independent tapes may live on separate threads.
`backward` consumes the tape's record, op by op, and closing the block drops
whatever is left of it, so `backward` runs once, inside the block.

A tape holds what backward reads and nothing more: each op's closure keeps
the arrays its gradient needs, and the record names op outputs by integer
keys rather than holding them. An activation that no closure reads is freed
as soon as the caller drops it.

`backward` returns nothing: it adds each leaf's gradient into the leaf's
`.grad`. A parameter's `.grad` is its view of its store's flat gradient
buffer, which the optimizer zeroes after each step. Any other leaf, such as a
test tensor or a tensor recorded on an earlier tape, gets its own array on
first use, and it accumulates across `backward` calls until the caller resets it.

Every op output is checked for non-finite values unless a `finite_checks(False)`
block is active on the thread; a caller that turns the checks off must check
what it consumes (a loss, gradients) and can replay with them on to name the
op.
"""

import itertools
import threading
from contextlib import contextmanager

import numpy as np

_local = threading.local()


def active_tape():
    return getattr(_local, "tape", None)


class Tensor:
    """Dense 2-D value, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_key")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._tape = None  # the tape that recorded this tensor, if any
        self._key = None  # its output key on that tape

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class Tape:
    """Ordered record of operations; creation order is already topological.

    Each entry is `(key, links, backward_fn)`: the op output's key, one link
    per parent (its key on this tape; the parent itself when it is a leaf
    that requires grad, such as a parameter or a tensor recorded on an
    earlier tape; else None) and the closure mapping the output's gradient
    to the parents'. So the record holds no op output, and an activation
    lives only as long as the caller or a closure that reads it holds it.
    `backward` pops each entry once used, and leaving the block drops the
    rest. Entering a tape while the thread's tape is open raises.
    """

    def __init__(self):
        self._entries = []
        self._keys = itertools.count()
        self.closed = False
        self.consumed = False

    def __enter__(self):
        if active_tape() is not None:
            raise RuntimeError("this thread already has an open tape")
        _local.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _local.tape = None
        self._entries = []
        self.closed = True
        return False

    def _record(self, out, parents, backward_fn):
        """Append `out`'s entry; a parent recorded on an earlier tape is a leaf."""
        out._tape = self
        out._key = next(self._keys)
        links = tuple(p._key if p._tape is self else p if p.requires_grad else None
                      for p in parents)
        self._entries.append((out._key, links, backward_fn))


def _check_finite(arr: np.ndarray, op: str):
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite value produced by {op}")


@contextmanager
def finite_checks(enabled: bool):
    """Turn the per-op output check on or off for this thread inside the
    block. `row_normalize` checks its norms either way."""
    previous = getattr(_local, "check_finite", True)
    _local.check_finite = enabled
    try:
        yield
    finally:
        _local.check_finite = previous


def _apply(op: str, out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    if getattr(_local, "check_finite", True):
        _check_finite(out_data, op)
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape._record(out, parents, backward_fn)
    return out


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through its recording tape.

    Adds the gradient of every requires_grad leaf that the loss depends on
    into that leaf's `.grad` (module docstring); a tensor recorded on an
    earlier tape counts as a leaf. Gradients of this tape's outputs are
    routed by key and kept nowhere. Each tape entry is visited exactly once
    and then dropped, so a tape serves one `backward`.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward needs a scalar (1x1) loss, got shape {loss.shape}")
    if loss._tape is None:
        raise ValueError("loss was not recorded on a tape (no gradient path)")
    tape = loss._tape
    if tape.closed:
        raise ValueError("the loss's tape is closed; call backward inside its block")
    if tape.consumed:
        raise ValueError("the loss's tape was consumed by an earlier backward; "
                         "record the loss on a new tape")
    tape.consumed = True

    # Popping each entry frees its closure, and the arrays only it reads, as
    # soon as its gradient has gone to its parents.
    entries = tape._entries
    pending = {loss._key: np.ones((1, 1))}
    while entries:
        key, links, backward_fn = entries.pop()
        g = pending.pop(key, None)
        if g is None:
            continue
        for parent, pg in zip(links, backward_fn(g)):
            if pg is None or parent is None:
                continue
            if type(parent) is int:
                pending[parent] = pending[parent] + pg if parent in pending else pg
            elif pg.shape != parent.shape:  # an in-place add would broadcast it
                raise ValueError(f"gradient shape {pg.shape} does not match "
                                 f"its leaf's shape {parent.shape}")
            elif parent.grad is None:
                parent.grad = pg.copy()
            else:
                parent.grad += pg


def _shapes(*tensors):
    return " vs ".join(str(t.shape) for t in tensors)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {_shapes(a, b)}")
    ad, bd = a.data, b.data
    # A constant operand (features, frozen embeddings) gets no product.
    grad_a, grad_b = a.requires_grad, b.requires_grad
    return _apply("matmul", ad @ bd, (a, b),
                  lambda g: (g @ bd.T if grad_a else None,
                             ad.T @ g if grad_b else None))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a (1, n) right operand broadcasts over `a`'s rows."""
    if a.shape == b.shape:
        return _apply("add", a.data + b.data, (a, b), lambda g: (g, g))
    if b.shape == (1, a.shape[1]):
        return _apply("add", a.data + b.data, (a, b),
                      lambda g: (g, g.sum(axis=0, keepdims=True)))
    raise ValueError(f"add shape mismatch: {_shapes(a, b)}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {_shapes(a, b)}")
    ad, bd = a.data, b.data
    return _apply("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _apply("scale", a.data * c, (a,), lambda g: (g * c,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _apply("relu", np.maximum(a.data, 0.0), (a,),
                  lambda g: (g * mask,))


def prelu(a: Tensor, slope: Tensor) -> Tensor:
    """Parametric ReLU with one learnable scalar slope (a 1x1 tensor)."""
    if slope.shape != (1, 1):
        raise ValueError(f"prelu slope must be 1x1, got {slope.shape}")
    # max(a, 0) + s * min(a, 0) is exactly s * a or a per entry, and
    # elementwise arithmetic runs several times faster than `np.where`.
    neg_part = np.minimum(a.data, 0.0)
    s = slope.data[0, 0]
    out = np.maximum(a.data, 0.0) + s * neg_part

    def back(g):
        neg = neg_part < 0  # where a < 0, without holding a
        ga = g * (neg * s + ~neg)
        gs = np.array([[np.sum(g * neg_part)]])
        return ga, gs

    return _apply("prelu", out, (a, slope), back)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), with exp taken only of non-positive values."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _stable_sigmoid(a.data)
    return _apply("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def dropout_mask(a: Tensor, p: float, seed: int) -> Tensor:
    """Inverted dropout: zero entries with probability p, rescale by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = np.random.default_rng(seed)
    # A boolean keep-mask and one scale: an eighth of a float mask's bytes
    # held for backward, and the same products bit for bit.
    keep = rng.random(a.shape) >= p
    c = 1.0 / (1.0 - p)

    def masked(x):
        out = x * keep
        out *= c
        return out

    return _apply("dropout", masked(a.data), (a,), lambda g: (masked(g),))


def row_cosine(a: Tensor, b: Tensor) -> Tensor:
    """Per-row cosine similarity, returned as a column (m, 1).

    Rows where either side has zero norm get similarity 0 and zero gradient,
    so fully masked feature rows cannot poison the loss with NaNs.
    """
    if a.shape != b.shape:
        raise ValueError(f"row_cosine shape mismatch: {_shapes(a, b)}")
    ad, bd = a.data, b.data
    na = np.linalg.norm(ad, axis=1, keepdims=True)
    nb = np.linalg.norm(bd, axis=1, keepdims=True)
    denom = na * nb
    ok = denom > 0
    safe = np.where(ok, denom, 1.0)
    dots = np.sum(ad * bd, axis=1, keepdims=True)
    cos = np.where(ok, dots / safe, 0.0)

    def back(g):
        g = g * ok
        ga = g * (bd / safe - cos * ad / np.where(ok, na * na, 1.0))
        gb = g * (ad / safe - cos * bd / np.where(ok, nb * nb, 1.0))
        return ga, gb

    return _apply("row_cosine", cos, (a, b), back)


def row_normalize(a: Tensor) -> Tensor:
    """Each row scaled to unit Euclidean norm.

    Zero-norm rows stay zero and get zero gradient, the same rule as
    `row_cosine`. A row whose norm overflows is rejected rather than
    silently normalized to zero.
    """
    ad = a.data
    with np.errstate(over="ignore"):  # the check below names the overflow
        norm = np.linalg.norm(ad, axis=1, keepdims=True)
    _check_finite(norm, "row_normalize")
    ok = norm > 0
    safe = np.where(ok, norm, 1.0)
    out = ad / safe

    def back(g):
        radial = np.sum(g * out, axis=1, keepdims=True)
        return ((g - radial * out) * (ok / safe),)

    return _apply("row_normalize", out, (a,), back)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _apply("sum_all", np.array([[a.data.sum()]]), (a,),
                  lambda g: (np.full(shape, g[0, 0]),))


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows by index; gradients scatter-add back."""
    idx = np.asarray(idx, dtype=np.int64)
    if len(idx) > 0 and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ValueError(
            f"row index out of range [0, {a.shape[0]}): {idx.min()}..{idx.max()}")
    shape = a.shape

    def back(g):
        ga = np.zeros(shape)
        np.add.at(ga, idx, g)
        return (ga,)

    return _apply("take_rows", a.data[idx], (a,), back)


def replace_rows(a: Tensor, idx: np.ndarray, row: Tensor) -> Tensor:
    """Overwrite the rows at `idx` with a single learnable (1, d) row.

    Gradient to `a` is zeroed at the replaced rows; the row parameter
    receives the sum of their upstream gradients.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if row.shape != (1, a.shape[1]):
        raise ValueError(f"replacement row must be (1, {a.shape[1]}), got {row.shape}")
    out = a.data.copy()
    out[idx] = row.data

    def back(g):
        ga = g.copy()
        ga[idx] = 0.0
        grow = g[idx].sum(axis=0, keepdims=True)
        return ga, grow

    return _apply("replace_rows", out, (a, row), back)


def concat_rows(*tensors: Tensor) -> Tensor:
    if any(t.shape[1] != tensors[0].shape[1] for t in tensors):
        raise ValueError(f"concat_rows width mismatch: {_shapes(*tensors)}")
    ends = np.cumsum([t.shape[0] for t in tensors])
    return _apply("concat_rows", np.vstack([t.data for t in tensors]), tensors,
                  lambda g: tuple(np.split(g, ends[:-1])))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"concat_cols height mismatch: {_shapes(a, b)}")
    na = a.shape[1]
    return _apply("concat_cols", np.hstack([a.data, b.data]), (a, b),
                  lambda g: (g[:, :na], g[:, na:]))


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    shape = a.shape

    def back(g):
        ga = np.zeros(shape)
        ga[start:stop] = g
        return (ga,)

    return _apply("slice_rows", a.data[start:stop].copy(), (a,), back)


def sparse_dense_matmul(adj, h: Tensor) -> Tensor:
    """Left-multiply by a constant scipy sparse matrix."""
    if adj.shape[1] != h.shape[0]:
        raise ValueError(f"sparse_dense_matmul shape mismatch: {adj.shape} vs {h.shape}")
    return _apply("sparse_dense_matmul", np.asarray(adj @ h.data), (h,),
                  lambda g: (np.asarray(adj.T @ g),))


def bce_with_logits(logits: Tensor, labels: np.ndarray,
                    weights: np.ndarray) -> Tensor:
    """Per-link weighted binary cross-entropy, averaged over the batch count.

    Numerically stable fused form: per element
    w * (max(s, 0) - s*y + log(1 + exp(-|s|))), summed and divided by the
    number of links. Labels and weights are constants.
    """
    y = np.asarray(labels, dtype=np.float64).reshape(logits.shape)
    w = np.asarray(weights, dtype=np.float64).reshape(logits.shape)
    s = logits.data
    m = s.shape[0] * s.shape[1]
    per = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    out = np.array([[np.sum(w * per) / m]])

    def back(g):
        return (g[0, 0] * w * (_stable_sigmoid(s) - y) / m,)

    return _apply("bce_with_logits", out, (logits,), back)
