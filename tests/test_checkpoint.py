import hashlib
from pathlib import Path

import numpy as np
import pytest

from bilink import checkpoint
from bilink.checkpoint import (atomic_write, load_arrays, load_decoder,
                               load_model_state, save_arrays, save_decoder,
                               save_model_state)
from bilink.errors import ValidationError
from bilink.model import init_decoder, init_model_state, state_checksum
from util import resave_checkpoint

DATA = Path(__file__).parent / "data"
# Format version 1, written by the code before parameters moved into flat
# stores (3 pretrain and 3 decoder epochs on the gen-synth set in
# test_cli.TestCheckpointFiles).
PARENT_DECODER_SHA256 = {
    "decoder.layer1.weight": ((4, 3), "fbcb60928254a4a73f4bbec1426d240446183c2eabd70c5c7c0ce3726cc200eb"),
    "decoder.layer1.bias": ((1, 3), "23699d37935498ae25bbbc3fad1f8bd28feedb90d2b40a818e1c240a8778e205"),
    "decoder.layer2.weight": ((3, 2), "c15524caa21c3c682fe55979d074154dfbba216a969e3ce3a27e5b7618474353"),
    "decoder.layer2.bias": ((1, 2), "25f79058f0814515018f0625d2abc11832fbb3fccade3f8dfd4753fd92e8666c"),
    "decoder.layer3.weight": ((2, 1), "808743ca009cd5fda66d70aa98fdfa7f4e3aadd3ed6649f2036f684388e8f239"),
    "decoder.layer3.bias": ((1, 1), "866e725e5ec085943899d9849cc19fe1eef6c9033e896caf4622aefce4c8772f"),
}


def assert_in_buffer(store):
    for name, t in store.items():
        assert np.shares_memory(t.data, store.flat), name


def test_arrays_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a.weight": rng.normal(size=(7, 3)),
        "nested.name.bias": rng.normal(size=(1, 3)) * 1e-17,
        "tiny": np.array([[np.pi]]),
    }
    path = tmp_path / "ck.npz"
    save_arrays(path, arrays, {"note": "test"})
    loaded, meta = load_arrays(path)
    assert meta["note"] == "test"
    assert meta["format_version"] == checkpoint.FORMAT_VERSION == 2
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].tobytes() == arrays[name].tobytes()


def test_model_state_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    state = init_model_state(rng, 4, 5, input_dim=6, hidden_dim=7, output_dim=4)
    path = tmp_path / "model.npz"
    save_model_state(path, state, {"seed": 42})
    loaded, meta = load_model_state(path)
    assert meta == {"kind": "model_state", "seed": 42, "format_version": 2}
    assert state_checksum(loaded) == state_checksum(state)
    assert list(loaded.online) == list(state.online)
    assert list(loaded.target) == list(state.target)
    assert all(p.requires_grad for p in loaded.online.values())
    assert not any(p.requires_grad for p in loaded.target.values())
    assert_in_buffer(loaded.online)
    assert_in_buffer(loaded.target)


def test_decoder_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    dec = init_decoder(rng, embed_dim=5, hidden_dims=(6, 3))
    path = tmp_path / "decoder.npz"
    save_decoder(path, dec)
    loaded, meta = load_decoder(path)
    assert meta == {"kind": "decoder", "format_version": 2}
    assert list(loaded) == list(dec)
    assert loaded.flat.tobytes() == dec.flat.tobytes()
    assert_in_buffer(loaded)


def _stored(state):
    return {**{f"online.{k}": t.data for k, t in state.online.items()},
            **{f"target.{k}": t.data for k, t in state.target.items()}}


def test_parent_checkpoints_load_unchanged(tmp_path):
    loaded, meta = load_model_state(DATA / "parent_model.npz")
    raw, raw_meta = load_arrays(DATA / "parent_model.npz")
    assert raw_meta["format_version"] == 1
    stored = _stored(loaded)
    for name, a in stored.items():
        assert a.shape == raw[name].shape
        assert a.tobytes() == raw[name].tobytes(), name
    # dropped: the untrained V UNK row and V heads, and every target key
    # outside the encoder
    def heads(side, names):
        return {f"{side}.heads.{head}.{leaf}" for head in names
                for leaf in ("layer1.weight", "layer1.bias", "layer2.weight",
                             "layer2.bias", "slope")}

    dead = (heads("online", ("projector_v", "predictor_v"))
            | heads("target", ("projector_u", "projector_v", "predictor_u", "predictor_v"))
            | {"online.encoder.unk_v", "target.encoder.unk_u", "target.encoder.unk_v"})
    assert len(dead) == 33
    assert raw.keys() - stored.keys() == dead
    assert meta["config"]["final_layer_relu"] is False

    path = tmp_path / "model_v2.npz"
    save_model_state(path, loaded, meta)
    again, meta2 = load_model_state(path)
    assert meta2["format_version"] == 2
    assert list(_stored(again)) == list(stored)
    for name, a in _stored(again).items():
        assert a.tobytes() == stored[name].tobytes(), name
    assert state_checksum(again) == state_checksum(loaded)

    dec, meta = load_decoder(DATA / "parent_decoder.npz")
    assert meta["n_layers"] == 3 == len(dec) // 2  # written by older code, not read
    assert list(dec) == list(PARENT_DECODER_SHA256)
    for name, (shape, digest) in PARENT_DECODER_SHA256.items():
        assert dec[name].shape == shape
        assert hashlib.sha256(dec[name].data.tobytes()).hexdigest() == digest


def _resaved(tmp_path, source, edit):
    """Copy of a checkpoint, in its own format version, with `edit(arrays)`
    applied to its arrays."""
    arrays, meta = load_arrays(source)
    edit(arrays)
    path = tmp_path / source.name
    resave_checkpoint(path, arrays, meta)
    return path


@pytest.mark.parametrize("edit,match", [
    (lambda a: a.pop("target.encoder.conv1"), "missing"),
    (lambda a: a.update({"online.encoder.conv3": np.ones((2, 2))}), "unknown"),
    (lambda a: a.update({"target.encoder.proj_v.bias": np.ones((1, 5))}),
     "target.encoder.proj_v.bias has shape"),
    (lambda a: a.update({"online.encoder.conv1": np.ones((3, 5))}),
     "online.encoder.conv2 has shape"),
    (lambda a: a.update({"online.encoder.conv2": np.ones(8)}), "not a matrix"),
])
def test_bad_model_layout_rejected(tmp_path, edit, match):
    path = _resaved(tmp_path, DATA / "parent_model.npz", edit)
    with pytest.raises(ValidationError, match=match):
        load_model_state(path)


def test_v2_file_with_a_version_1_key_rejected(tmp_path):
    """Version 1 keys are dropped only from version-1 files."""
    path = tmp_path / "model.npz"
    save_model_state(path, load_model_state(DATA / "parent_model.npz")[0])
    v1_arrays, _ = load_arrays(DATA / "parent_model.npz")
    path = _resaved(tmp_path, path, lambda a: a.update(
        {"target.heads.projector_v.slope": v1_arrays["target.heads.projector_v.slope"]}))
    with pytest.raises(ValidationError, match=r"unknown \['target.heads.projector_v.slope'\]"):
        load_model_state(path)


@pytest.mark.parametrize("edit,match", [
    (lambda a: a.pop("decoder.layer2.bias"), "missing"),
    (lambda a: a.update({"decoder.layer4.bias": np.ones((1, 1))}), "unknown"),
    (lambda a: a.update({"decoder.layer4.weight": np.ones((1, 1))}),
     r"missing \['decoder.layer4.bias'\]"),
    (lambda a: a.update({"decoder.layer2.weight": np.ones((4, 2))}),
     "decoder.layer2.weight has shape"),
    (lambda a: a.update({"decoder.layer3.weight": np.ones((2, 2)),
                         "decoder.layer3.bias": np.ones((1, 2))}),
     "decoder.layer3.weight has shape"),
    (lambda a: a.update({"decoder.layer1.weight": np.ones((5, 3))}),
     "decoder.layer1.weight has shape"),
])
def test_bad_decoder_layout_rejected(tmp_path, edit, match):
    path = _resaved(tmp_path, DATA / "parent_decoder.npz", edit)
    with pytest.raises(ValidationError, match=match):
        load_decoder(path)


@pytest.mark.parametrize("n_layers", [None, "abc", 0, 7])
def test_decoder_depth_comes_from_keys(tmp_path, n_layers):
    """The layer keys fix the depth; a decoder's metadata `n_layers`, which
    older code wrote, is not read."""
    arrays, meta = load_arrays(DATA / "parent_decoder.npz")
    meta["n_layers"] = n_layers
    if n_layers is None:
        del meta["n_layers"]
    path = tmp_path / "decoder.npz"
    resave_checkpoint(path, arrays, meta)
    dec, _ = load_decoder(path)
    assert list(dec) == list(PARENT_DECODER_SHA256)
    assert dec.flat.tobytes() == load_decoder(DATA / "parent_decoder.npz")[0].flat.tobytes()


def test_kind_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(3)
    dec = init_decoder(rng, embed_dim=3, hidden_dims=(4, 2))
    path = tmp_path / "decoder.npz"
    save_decoder(path, dec)
    with pytest.raises(ValidationError, match="kind"):
        load_model_state(path)


def test_non_checkpoint_rejected(tmp_path):
    path = tmp_path / "raw.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises(ValidationError, match="metadata"):
        load_arrays(path)


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="disk full"):
        with atomic_write(path) as fh:
            fh.write("new, half")
            raise RuntimeError("disk full")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"


def test_failed_checkpoint_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ck.npz"
    save_arrays(path, {"w": np.ones((2, 2))}, {"note": "old"})

    def savez_partway(fh, **payload):
        fh.write(b"PK\x03\x04 truncated")
        raise OSError("interrupted")

    monkeypatch.setattr(checkpoint.np, "savez", savez_partway)
    with pytest.raises(OSError, match="interrupted"):
        save_arrays(path, {"w": np.zeros((2, 2))}, {"note": "new"})
    arrays, meta = load_arrays(path)
    assert meta["note"] == "old"
    np.testing.assert_array_equal(arrays["w"], np.ones((2, 2)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz"]
