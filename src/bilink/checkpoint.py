"""Checkpoint files: a versioned flat key -> matrix map with shape headers.

Stored as an npz archive (binary .npy members carry dtype and shape, so
float64 values round-trip bit-exactly) plus a JSON metadata entry.
Version 2 model files hold the online network and the target encoder.
Version 1 files still load: their target was a full copy of the online
network, which also held a V UNK row and two V heads that no loss trained;
those keys are checked and then dropped. Keys and shapes alone fix the
layout: older files' top-level `tau` and decoder `n_layers` are not read.
"""

import contextlib
import json
import os
from pathlib import Path

import numpy as np

from .errors import ValidationError, reading
from .model import (ModelState, ParamStore, decoder_shapes, encoder_shapes,
                    model_shapes, named_params)

FORMAT_VERSION = 2
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
    with reading(path):
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValidationError(f"{path}: not a checkpoint (not an npz archive)")
        with archive:
            if _META_KEY not in archive:
                raise ValidationError(f"{path}: not a checkpoint (missing metadata)")
            meta = json.loads(archive[_META_KEY].tobytes().decode("utf-8"))
            version = meta.get("format_version") if isinstance(meta, dict) else None
            if version not in (1, FORMAT_VERSION):
                raise ValidationError(f"{path}: unsupported checkpoint version {version}")
            arrays = {name: archive[name] for name in archive.files if name != _META_KEY}
    return arrays, meta


def save_model_state(path, state: ModelState, extra_meta: dict | None = None) -> None:
    arrays = {name: t.data for name, t in named_params(state).items()}
    save_arrays(path, arrays, {"kind": "model_state", **(extra_meta or {})})


def _dim(path, arrays: dict, name: str, axis: int) -> int:
    a = arrays.get(name)
    if a is None or a.ndim != 2:
        raise ValidationError(f"{path}: checkpoint key {name!r} is missing or not a matrix")
    return a.shape[axis]


def _check_layout(path, arrays: dict, expected: dict) -> None:
    """Reject a missing key, an unknown key or a shape other than `expected`."""
    missing = sorted(expected.keys() - arrays.keys())
    unknown = sorted(arrays.keys() - expected.keys())
    if missing or unknown:
        raise ValidationError(f"{path}: checkpoint keys do not match the model "
                              f"(missing {missing}, unknown {unknown})")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise ValidationError(
                f"{path}: {name} has shape {arrays[name].shape}, expected {shape}")


def _keyed(side: str, shapes: dict) -> dict:
    return {f"{side}.{name}": shape for name, shape in shapes.items()}


def load_model_state(path):
    """Returns (ModelState, meta). Every target shape must equal its online
    shape, and the layer shapes must chain."""
    arrays, meta = load_arrays(path)
    if meta.get("kind") != "model_state":
        raise ValidationError(f"{path}: checkpoint kind is {meta.get('kind')!r}, "
                              "expected 'model_state'")

    def width(name, axis):
        return _dim(path, arrays, f"online.encoder.{name}", axis)

    dims = (width("proj_u.weight", 0), width("proj_v.weight", 0),
            width("proj_u.weight", 1), width("conv1", 1), width("conv2", 1))
    online, target = model_shapes(*dims), encoder_shapes(*dims)
    expected = {**_keyed("online", online), **_keyed("target", target)}
    if meta["format_version"] == 1:
        v1 = model_shapes(*dims, sides=("u", "v"))
        _check_layout(path, arrays, {**_keyed("online", v1), **_keyed("target", v1)})
        arrays = {name: arrays[name] for name in expected}
    _check_layout(path, arrays, expected)
    return ModelState(
        online=ParamStore({name: arrays[f"online.{name}"] for name in online},
                          requires_grad=True),
        target=ParamStore({name: arrays[f"target.{name}"] for name in target},
                          requires_grad=False)), meta


def save_decoder(path, dec: ParamStore, extra_meta: dict | None = None) -> None:
    arrays = {name: t.data for name, t in dec.items()}
    save_arrays(path, arrays, {"kind": "decoder", **(extra_meta or {})})


def load_decoder(path):
    """Returns (decoder ParamStore, meta). The `decoder.layer{i}.weight`
    keys fix the depth, and the layer shapes must chain down to one output
    column."""
    arrays, meta = load_arrays(path)
    if meta.get("kind") != "decoder":
        raise ValidationError(f"{path}: checkpoint kind is {meta.get('kind')!r}, "
                              "expected 'decoder'")
    n_layers = sum(name.endswith(".weight") for name in arrays)
    hidden = [_dim(path, arrays, f"decoder.layer{i}.weight", 1) for i in range(1, n_layers)]
    shapes = decoder_shapes(_dim(path, arrays, "decoder.layer1.weight", 0) // 2, hidden)
    _check_layout(path, arrays, shapes)
    return ParamStore({name: arrays[name] for name in shapes}, requires_grad=True), meta
