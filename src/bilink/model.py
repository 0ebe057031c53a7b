"""Encoder, projection/prediction heads, momentum target copy and link decoder.

The encoder is a two-layer graph convolution over the stacked (U then V)
node indexing: h' = act(A_norm @ h @ W). Per-partition linear input
projections first map the raw feature spaces into a shared width, and
learnable UNK rows stand in for nodes the encoder has never seen.

Each network's parameters live in one `ParamStore`, read by name: the
online network and its EMA target (same names and shapes) and the decoder.
Names are the checkpoint keys less their `online.` / `target.` prefix.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class ParamStore(dict):
    """Ordered name -> Tensor map over one contiguous float64 buffer, `flat`.

    Every tensor's `.data` is a view into `flat` (laid out in `shapes`
    order), so the optimizer, the EMA update and snapshots work on the whole
    buffer at once. Write a parameter in place (`p.data[...] = x`);
    rebinding `.data` leaves the buffer. Build one with `make_store`.
    """

    def __init__(self, flat: np.ndarray, shapes: dict, requires_grad: bool):
        super().__init__()
        self.flat = flat
        self.requires_grad = requires_grad
        start = 0
        for name, shape in shapes.items():
            size = int(np.prod(shape))
            self[name] = Tensor(flat[start:start + size].reshape(shape),
                                requires_grad=requires_grad)
            start += size

    def __reduce__(self):
        # Pickle (e.g. from a pool worker) sends the buffer once and
        # rebuilds the views over it.
        return ParamStore, (self.flat, {name: t.shape for name, t in self.items()},
                            self.requires_grad)


def make_store(arrays: dict, requires_grad: bool) -> ParamStore:
    """A store holding a copy of an ordered name -> array mapping."""
    arrays = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
    flat = np.concatenate([a.ravel() for a in arrays.values()])
    return ParamStore(flat, {name: a.shape for name, a in arrays.items()}, requires_grad)


@dataclass
class ModelState:
    online: ParamStore
    target: ParamStore
    tau: float


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _linear_shapes(prefix, d_in, d_out) -> dict:
    return {f"{prefix}.weight": (d_in, d_out), f"{prefix}.bias": (1, d_out)}


def model_shapes(d_u: int, d_v: int, input_dim: int, hidden_dim: int,
                 output_dim: int) -> dict:
    """Ordered name -> shape of the online (and target) store: encoder,
    then four two-layer PReLU heads out = prelu(h @ W1 + b1) @ W2 + b2."""
    shapes = {
        **_linear_shapes("encoder.proj_u", d_u, input_dim),
        **_linear_shapes("encoder.proj_v", d_v, input_dim),
        "encoder.conv1": (input_dim, hidden_dim),
        "encoder.conv2": (hidden_dim, output_dim),
        "encoder.unk_u": (1, output_dim),
        "encoder.unk_v": (1, output_dim),
    }
    for head in ("projector_u", "projector_v", "predictor_u", "predictor_v"):
        shapes.update(_linear_shapes(f"heads.{head}.layer1", output_dim, hidden_dim))
        shapes.update(_linear_shapes(f"heads.{head}.layer2", hidden_dim, output_dim))
        shapes[f"heads.{head}.slope"] = (1, 1)
    return shapes


def decoder_shapes(embed_dim: int, hidden_dims=(256, 64)) -> dict:
    """Ordered name -> shape of the MLP scoring a concatenated (u, v) pair."""
    dims = [2 * embed_dim, *hidden_dims, 1]
    shapes = {}
    for i in range(len(dims) - 1):
        shapes.update(_linear_shapes(f"decoder.layer{i + 1}", dims[i], dims[i + 1]))
    return shapes


def _init_value(rng, name: str, shape: tuple) -> np.ndarray:
    """Zero biases, 0.25 PReLU slopes, N(0, 0.01) UNK rows, Glorot weights."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "bias":
        return np.zeros(shape)
    if leaf == "slope":
        return np.full(shape, 0.25)
    if leaf.startswith("unk_"):
        return rng.normal(0.0, 0.01, size=shape)
    return glorot(rng, *shape)


def init_model_state(rng, d_u: int, d_v: int, input_dim: int, hidden_dim: int,
                     output_dim: int, tau: float) -> ModelState:
    """Online network and its detached target copy (equal values, no grads)."""
    shapes = model_shapes(d_u, d_v, input_dim, hidden_dim, output_dim)
    arrays = {name: _init_value(rng, name, shape) for name, shape in shapes.items()}
    return ModelState(make_store(arrays, requires_grad=True),
                      make_store(arrays, requires_grad=False), tau)


def init_decoder(rng, embed_dim: int, hidden_dims=(256, 64)) -> ParamStore:
    shapes = decoder_shapes(embed_dim, hidden_dims)
    return make_store({name: _init_value(rng, name, shape)
                       for name, shape in shapes.items()}, requires_grad=True)


def online_named_params(state: ModelState) -> dict:
    """Online parameters under their checkpoint keys."""
    return {f"online.{name}": t for name, t in state.online.items()}


def target_named_params(state: ModelState) -> dict:
    """Target parameters under their checkpoint keys."""
    return {f"target.{name}": t for name, t in state.target.items()}


def affine(params: ParamStore, prefix: str, x: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, params[f"{prefix}.weight"]), params[f"{prefix}.bias"])


def encode(params: ParamStore, adj, x_u, x_v, *, dropout_p: float = 0.0,
           dropout_seed: int = 0):
    """Two convolution layers over the stacked node blocks.

    The adjacency must have been built with the same weighting flag as the
    training run. ReLU follows layer 1; the final layer is linear (a
    nonnegative final embedding cripples the cosine objective). Dropout,
    when nonzero, sits between the two layers.
    """
    xu = x_u if isinstance(x_u, Tensor) else ad.constant(x_u)
    xv = x_v if isinstance(x_v, Tensor) else ad.constant(x_v)
    n_u = xu.shape[0]
    h = ad.concat_rows(affine(params, "encoder.proj_u", xu),
                       affine(params, "encoder.proj_v", xv))
    h = ad.relu(ad.sparse_dense_matmul(adj, ad.matmul(h, params["encoder.conv1"])))
    if dropout_p > 0.0:
        h = ad.dropout_mask(h, dropout_p, dropout_seed)
    h = ad.sparse_dense_matmul(adj, ad.matmul(h, params["encoder.conv2"]))
    n = h.shape[0]
    return ad.slice_rows(h, 0, n_u), ad.slice_rows(h, n_u, n)


def mlp_forward(params: ParamStore, prefix: str, h: Tensor) -> Tensor:
    """The head `prefix`, e.g. "heads.projector_u", applied to `h`."""
    hidden = ad.prelu(affine(params, f"{prefix}.layer1", h), params[f"{prefix}.slope"])
    return affine(params, f"{prefix}.layer2", hidden)


def project(params: ParamStore, h_u: Tensor, h_v: Tensor):
    return (mlp_forward(params, "heads.projector_u", h_u),
            mlp_forward(params, "heads.projector_v", h_v))


def ema_update(state: ModelState) -> ModelState:
    """target <- tau * target + (1 - tau) * online over encoder and head
    parameters. Mutates the target buffer in place and returns the state."""
    tau = state.tau
    state.target.flat *= tau
    state.target.flat += (1.0 - tau) * state.online.flat
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
    params = {**online_named_params(state), **target_named_params(state)}
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()
