import numpy as np
import pytest

from bilink import checkpoint
from bilink.checkpoint import (atomic_write, load_arrays, load_decoder,
                               load_model_state, save_arrays, save_decoder,
                               save_model_state)
from bilink.errors import ValidationError
from bilink.model import (init_decoder, init_model_state, online_named_params,
                          state_checksum, target_named_params)


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
    assert meta["format_version"] == 1
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].tobytes() == arrays[name].tobytes()


def test_model_state_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    state = init_model_state(rng, 4, 5, input_dim=6, hidden_dim=7,
                             output_dim=4, tau=0.97)
    path = tmp_path / "model.npz"
    save_model_state(path, state, {"seed": 42})
    loaded, meta = load_model_state(path)
    assert meta["seed"] == 42
    assert loaded.tau == 0.97
    assert state_checksum(loaded) == state_checksum(state)
    assert all(p.requires_grad for p in online_named_params(loaded).values())
    assert not any(p.requires_grad for p in target_named_params(loaded).values())


def test_decoder_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    dec = init_decoder(rng, embed_dim=5, hidden_dims=(6, 3))
    path = tmp_path / "decoder.npz"
    save_decoder(path, dec)
    loaded, meta = load_decoder(path)
    assert meta["n_layers"] == 3
    for a, b in zip(dec.layers, loaded.layers):
        assert a.weight.data.tobytes() == b.weight.data.tobytes()
        assert a.bias.data.tobytes() == b.bias.data.tobytes()


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
