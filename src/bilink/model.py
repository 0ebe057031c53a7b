"""Encoder, projection/prediction heads, momentum target encoder and link decoder.

The encoder is a two-layer graph convolution over the stacked (U then V)
node indexing, h1 = relu(A_norm @ z @ W1) and h2 = A_norm @ h1 @ W2, where z
holds per-partition linear projections of the raw features to a shared
width. Layer 1 is linear up to its ReLU, so it propagates the raw features
first, A_norm @ z @ W1 = (A_norm @ X) @ (P @ W1), with X the block-diagonal
[x_u | x_v | 1_U | 1_V] and P the stacked projection weights and biases.
Layer 2 computes only the rows a caller reads. A_norm carries a self-loop
on every node, so a node without edges, one unseen in training included, is
embedded from its own features. A learned U UNK row is a training-time mask
token (`training.epoch_inputs`); no embedding reads it.

Each network's parameters live in one `ParamStore`, read by name: the
online network (encoder, U UNK row, U projector and predictor), its EMA
target (the encoder alone, as in BGRL) and the decoder. Names are the
checkpoint keys less their `online.` / `target.` prefix.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class ParamStore(dict):
    """Ordered name -> Tensor map over one contiguous float64 buffer, `flat`,
    holding a copy of the ordered name -> array mapping `arrays`.

    Every tensor's `.data` is a view into `flat` (laid out in `arrays`
    order), so the optimizer, the EMA update and snapshots work on the whole
    buffer at once. A store that requires grad holds its gradients the same
    way, in `grad`, which `backward` adds into and `adam_step` zeroes. Write
    a parameter or a gradient in place (`p.data[...] = x`); rebinding leaves
    the buffer.
    """

    def __init__(self, arrays: dict, requires_grad: bool):
        super().__init__()
        arrays = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
        self.flat = np.concatenate([a.ravel() for a in arrays.values()])
        self.grad = np.zeros_like(self.flat) if requires_grad else None
        start = 0
        for name, a in arrays.items():
            end = start + a.size
            self[name] = t = Tensor(self.flat[start:end].reshape(a.shape), requires_grad)
            if requires_grad:
                t.grad = self.grad[start:end].reshape(a.shape)
            start = end


@dataclass
class ModelState:
    """The online network and its EMA target; the EMA rate is the run's
    `VariantConfig.tau`, passed to `ema_update`."""

    online: ParamStore
    target: ParamStore


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _linear_shapes(prefix, d_in, d_out) -> dict:
    return {f"{prefix}.weight": (d_in, d_out), f"{prefix}.bias": (1, d_out)}


def encoder_shapes(d_u: int, d_v: int, input_dim: int, hidden_dim: int,
                   output_dim: int) -> dict:
    """Ordered name -> shape of the graph encoder: the whole target store,
    and the first entries of the online store."""
    return {**_linear_shapes("encoder.proj_u", d_u, input_dim),
            **_linear_shapes("encoder.proj_v", d_v, input_dim),
            "encoder.conv1": (input_dim, hidden_dim),
            "encoder.conv2": (hidden_dim, output_dim)}


def model_shapes(d_u: int, d_v: int, input_dim: int, hidden_dim: int,
                 output_dim: int, sides=("u",)) -> dict:
    """Ordered name -> shape of the online store: the encoder, the U UNK
    row, then the U projector and predictor heads, each two-layer PReLU
    out = prelu(h @ W1 + b1) @ W2 + b2. `sides=("u", "v")` gives the
    checkpoint-version-1 layout, which also held a V UNK row and V heads
    that no loss trained."""
    shapes = {**encoder_shapes(d_u, d_v, input_dim, hidden_dim, output_dim),
              **{f"encoder.unk_{side}": (1, output_dim) for side in sides}}
    for head in (f"{kind}_{side}" for kind in ("projector", "predictor") for side in sides):
        shapes.update(_linear_shapes(f"heads.{head}.layer1", output_dim, hidden_dim))
        shapes.update(_linear_shapes(f"heads.{head}.layer2", hidden_dim, output_dim))
        shapes[f"heads.{head}.slope"] = (1, 1)
    return shapes


def decoder_shapes(embed_dim: int, hidden_dims) -> dict:
    """Ordered name -> shape of the MLP scoring a concatenated (u, v) pair."""
    dims = [2 * embed_dim, *hidden_dims, 1]
    shapes = {}
    for i in range(len(dims) - 1):
        shapes.update(_linear_shapes(f"decoder.layer{i + 1}", dims[i], dims[i + 1]))
    return shapes


def _init_value(rng, name: str, shape: tuple) -> np.ndarray:
    """Zero biases, 0.25 PReLU slopes, N(0, 0.01) UNK row, Glorot weights."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "bias":
        return np.zeros(shape)
    if leaf == "slope":
        return np.full(shape, 0.25)
    if leaf.startswith("unk_"):
        return rng.normal(0.0, 0.01, size=shape)
    return glorot(rng, *shape)


def init_model_state(rng, d_u: int, d_v: int, input_dim: int, hidden_dim: int,
                     output_dim: int) -> ModelState:
    """Online network and its target: a detached copy of the online encoder
    (equal values, no grads). Values are drawn over the version-1 layout in
    its order and its V entries dropped, so a seed gives each parameter its
    version-1 initial value; skipping those draws would shift later ones."""
    dims = (d_u, d_v, input_dim, hidden_dim, output_dim)
    drawn = {name: _init_value(rng, name, shape)
             for name, shape in model_shapes(*dims, sides=("u", "v")).items()}
    online, target = model_shapes(*dims), encoder_shapes(*dims)
    return ModelState(ParamStore({n: drawn[n] for n in online}, requires_grad=True),
                      ParamStore({n: drawn[n] for n in target}, requires_grad=False))


def init_decoder(rng, embed_dim: int, hidden_dims) -> ParamStore:
    shapes = decoder_shapes(embed_dim, hidden_dims)
    return ParamStore({name: _init_value(rng, name, shape)
                       for name, shape in shapes.items()}, requires_grad=True)


def named_params(state: ModelState) -> dict:
    """Every parameter under its checkpoint key: the online keys, then the
    target keys."""
    return {f"{side}.{name}": t for side, store in
            (("online", state.online), ("target", state.target))
            for name, t in store.items()}


def affine(params: ParamStore, prefix: str, x: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, params[f"{prefix}.weight"]), params[f"{prefix}.bias"])


def encode(params: ParamStore, adj, x_u: np.ndarray, x_v: np.ndarray,
           rows: slice = slice(None), *, dropout_p: float = 0.0,
           dropout_seed: int = 0) -> Tensor:
    """The final embeddings of the stacked nodes `rows` (U nodes first, then
    V), e.g. `slice(0, n_u)` for the U side; all nodes by default.

    Layer 1 is relu((A @ X) @ (P @ conv1)) with the raw features X and the
    stacked projections P (module docstring): its dense work scales with the
    raw widths d_u + d_v, not with `input_dim`. Layer 2 is linear (a
    nonnegative final embedding cripples the cosine objective) and computes
    (A[rows] @ h1) @ conv2. Dropout, when nonzero, sits between the two
    layers. The features are constants (no gradient). The adjacency carries
    the run's edge weighting: built from `aggregate_pairs` output, it holds
    unit weights when pretraining is unweighted.
    """
    n_u, d_u = x_u.shape
    d_v = x_v.shape[1]
    x = np.zeros((n_u + x_v.shape[0], d_u + d_v + 2))
    x[:n_u, :d_u] = x_u
    x[n_u:, d_u:-2] = x_v
    x[:n_u, -2] = 1.0
    x[n_u:, -1] = 1.0
    proj = ad.concat_rows(params["encoder.proj_u.weight"], params["encoder.proj_v.weight"],
                          params["encoder.proj_u.bias"], params["encoder.proj_v.bias"])
    h = ad.relu(ad.matmul(ad.sparse_dense_matmul(adj, ad.constant(x)),
                          ad.matmul(proj, params["encoder.conv1"])))
    if dropout_p > 0.0:
        h = ad.dropout_mask(h, dropout_p, dropout_seed)
    return ad.matmul(ad.sparse_dense_matmul(adj[rows], h), params["encoder.conv2"])


def mlp_forward(params: ParamStore, prefix: str, h: Tensor) -> Tensor:
    """The head `prefix`, e.g. "heads.projector_u", applied to `h`."""
    hidden = ad.prelu(affine(params, f"{prefix}.layer1", h), params[f"{prefix}.slope"])
    return affine(params, f"{prefix}.layer2", hidden)


def ema_update(state: ModelState, tau: float) -> ModelState:
    """target <- tau * target + (1 - tau) * online encoder, the prefix of the
    online buffer, with `tau` the run's `VariantConfig.tau`. Mutates the
    target buffer in place and returns the state."""
    state.target.flat *= tau
    state.target.flat += (1.0 - tau) * state.online.flat[:state.target.flat.size]
    return state


def decode_logits(dec: ParamStore, emb_u: np.ndarray, emb_v: np.ndarray,
                  pairs: np.ndarray) -> Tensor:
    """Pre-sigmoid link scores for (u, v) index pairs.

    Embedding matrices are constants here (the encoder is frozen when the
    decoder runs); only decoder parameters receive gradients.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must be (n, 2), got {pairs.shape}")
    if len(pairs) > 0:
        if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= emb_u.shape[0]:
            raise ValueError("u index out of range for embedding table")
        if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= emb_v.shape[0]:
            raise ValueError("v index out of range for embedding table")
    h = ad.concat_cols(ad.constant(emb_u[pairs[:, 0]]),
                       ad.constant(emb_v[pairs[:, 1]]))
    n_layers = len(dec) // 2
    for i in range(1, n_layers + 1):
        h = affine(dec, f"decoder.layer{i}", h)
        if i < n_layers:
            h = ad.relu(h)
    return h


def state_checksum(state: ModelState) -> str:
    """SHA-256 over all online and target parameter bytes in name order."""
    h = hashlib.sha256()
    params = named_params(state)
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()
