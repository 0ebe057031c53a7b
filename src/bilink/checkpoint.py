"""Checkpoint files: a versioned flat key -> matrix map with shape headers.

Stored as an npz archive (binary .npy members carry dtype and shape, so
float64 values round-trip bit-exactly) plus a JSON metadata entry.
"""

import contextlib
import json
import os
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import (DecoderParams, EncoderParams, Heads, LinearParams,
                    MlpParams, ModelState, Tensor, decoder_named_params,
                    online_named_params, target_named_params)

FORMAT_VERSION = 1
_META_KEY = "__meta__"


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside `path` for writing and move it onto
    `path` with `os.replace` when the block exits cleanly. If the block
    raises, the temporary file is removed and `path` keeps its old bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    if "b" not in mode:
        open_kwargs.setdefault("encoding", "utf-8")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_arrays(path, arrays: dict, meta: dict) -> None:
    meta = dict(meta)
    meta["format_version"] = FORMAT_VERSION
    payload = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **payload)


def load_arrays(path):
    with np.load(path) as archive:
        if _META_KEY not in archive:
            raise ValidationError(f"{path}: not a checkpoint (missing metadata)")
        meta = json.loads(archive[_META_KEY].tobytes().decode("utf-8"))
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValidationError(
                f"{path}: unsupported checkpoint version {meta.get('format_version')}")
        arrays = {name: archive[name] for name in archive.files if name != _META_KEY}
    return arrays, meta


def save_model_state(path, state: ModelState, extra_meta: dict | None = None) -> None:
    arrays = {name: t.data for name, t in
              {**online_named_params(state), **target_named_params(state)}.items()}
    meta = {"kind": "model_state", "tau": state.tau}
    if extra_meta:
        meta.update(extra_meta)
    save_arrays(path, arrays, meta)


def _linear_from(arrays, prefix, requires_grad):
    return LinearParams(
        weight=Tensor(arrays[f"{prefix}.weight"], requires_grad=requires_grad),
        bias=Tensor(arrays[f"{prefix}.bias"], requires_grad=requires_grad),
    )


def _mlp_from(arrays, prefix, requires_grad):
    return MlpParams(
        layer1=_linear_from(arrays, f"{prefix}.layer1", requires_grad),
        layer2=_linear_from(arrays, f"{prefix}.layer2", requires_grad),
        slope=Tensor(arrays[f"{prefix}.slope"], requires_grad=requires_grad),
    )


def _encoder_from(arrays, prefix, requires_grad):
    return EncoderParams(
        proj_u=_linear_from(arrays, f"{prefix}.proj_u", requires_grad),
        proj_v=_linear_from(arrays, f"{prefix}.proj_v", requires_grad),
        conv1=Tensor(arrays[f"{prefix}.conv1"], requires_grad=requires_grad),
        conv2=Tensor(arrays[f"{prefix}.conv2"], requires_grad=requires_grad),
        unk_u=Tensor(arrays[f"{prefix}.unk_u"], requires_grad=requires_grad),
        unk_v=Tensor(arrays[f"{prefix}.unk_v"], requires_grad=requires_grad),
    )


def _heads_from(arrays, prefix, requires_grad):
    return Heads(
        projector_u=_mlp_from(arrays, f"{prefix}.projector_u", requires_grad),
        projector_v=_mlp_from(arrays, f"{prefix}.projector_v", requires_grad),
        predictor_u=_mlp_from(arrays, f"{prefix}.predictor_u", requires_grad),
        predictor_v=_mlp_from(arrays, f"{prefix}.predictor_v", requires_grad),
    )


def load_model_state(path):
    """Returns (ModelState, meta)."""
    arrays, meta = load_arrays(path)
    if meta.get("kind") != "model_state":
        raise ValidationError(f"{path}: checkpoint kind is {meta.get('kind')!r}, "
                              "expected 'model_state'")
    state = ModelState(
        online_encoder=_encoder_from(arrays, "online.encoder", True),
        online_heads=_heads_from(arrays, "online.heads", True),
        target_encoder=_encoder_from(arrays, "target.encoder", False),
        target_heads=_heads_from(arrays, "target.heads", False),
        tau=float(meta["tau"]),
    )
    return state, meta


def save_decoder(path, dec: DecoderParams, extra_meta: dict | None = None) -> None:
    arrays = {name: t.data for name, t in decoder_named_params(dec).items()}
    meta = {"kind": "decoder", "n_layers": len(dec.layers)}
    if extra_meta:
        meta.update(extra_meta)
    save_arrays(path, arrays, meta)


def load_decoder(path):
    arrays, meta = load_arrays(path)
    if meta.get("kind") != "decoder":
        raise ValidationError(f"{path}: checkpoint kind is {meta.get('kind')!r}, "
                              "expected 'decoder'")
    layers = [_linear_from(arrays, f"decoder.layer{i + 1}", True)
              for i in range(int(meta["n_layers"]))]
    return DecoderParams(layers=layers), meta
