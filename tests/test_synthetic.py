from pathlib import Path

import numpy as np
import pytest

from bilink import checkpoint
from bilink.errors import ValidationError
from bilink.graph import load_graph
from bilink.synthetic import (NOISE_DIMS, SyntheticSpec, _block_of, _sample_pairs,
                              generate, write_dataset)
from util import DATASET_SPECS, sample_pairs_oracle, write_dataset_oracle


class TestSyntheticSpec:
    def test_infeasible_edge_count(self):
        with pytest.raises(ValidationError, match="distinct pairs"):
            SyntheticSpec(n_u=3, n_v=3, n_edges=10)

    def test_nonpositive_sizes(self):
        with pytest.raises(ValidationError, match=r"^n_u must be in \[1, 2\*\*31\), got 0$"):
            SyntheticSpec(n_u=0)

    def test_skew_below_one_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(weight_skew=0)

    @pytest.mark.parametrize("field,value", [
        ("time_span", 0), ("n_blocks", 0), ("intra_prob", -0.1),
        ("intra_prob", 1.5), ("intra_prob", float("nan")), ("seed", -1),
        ("block_structure", "false"), ("block_structure", 1), ("weight_skew", 2.5),
        ("n_edges", 10.0), ("seed", 1.5), ("intra_prob", "0.5"),
        ("n_v", 2 ** 31), ("time_span", 2 ** 63), ("weight_skew", 2 ** 63),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("time_span", 1), ("n_blocks", 1), ("intra_prob", 0.0),
        ("intra_prob", 1.0), ("time_span", 2 ** 63 - 1), ("weight_skew", 2 ** 63 - 1),
    ])
    def test_boundary_values_accepted(self, field, value):
        SyntheticSpec(**{field: value})

    def test_numpy_scalars_stored_as_python(self):
        spec = SyntheticSpec(n_u=np.int64(20), intra_prob=np.float64(0.5))
        assert type(spec.n_u) is int and type(spec.intra_prob) is float


# Specs for the reference-loop check: the default at several seeds, each
# kind of attempt that breaks the chunked reader's word pattern (a one-member
# V block, u or v from a range of 1, numpy drawing again), and a stall that
# ends in the fill. `kept` starts the sampler with a kept 32-bit half.
_ORACLE_SPECS = [
    *({"seed": s} for s in (0, 1, 7, 8, 38)),
    {"seed": 7, "kept": True},
    {"weight_skew": 50, "seed": 7},
    {"block_structure": False, "seed": 7},
    {"block_structure": False, "seed": 3, "kept": True},
    {"intra_prob": 0.0, "seed": 7},
    {"intra_prob": 1.0, "seed": 7},
    {"n_u": 50, "n_v": 50, "n_edges": 500, "n_blocks": 5, "seed": 4},
    {"n_u": 1, "n_v": 300, "n_edges": 200, "n_blocks": 1, "seed": 7},
    {"n_u": 1, "n_v": 300, "n_edges": 200, "block_structure": False, "n_blocks": 1, "seed": 7},
    {"n_u": 300, "n_v": 1, "n_edges": 200, "block_structure": False, "n_blocks": 1, "seed": 7},
    {"n_u": 40, "n_v": 15, "n_edges": 300, "n_blocks": 10, "seed": 7},
    {"n_u": 40, "n_v": 15, "n_edges": 300, "n_blocks": 10, "intra_prob": 0.0, "seed": 7},
    {"n_u": 10, "n_v": 10, "n_edges": 60, "n_blocks": 2, "intra_prob": 1.0, "seed": 7},
    {"n_u": 10, "n_v": 10, "n_edges": 60, "n_blocks": 2, "intra_prob": 1.0, "seed": 8,
     "kept": True},
    *({"n_u": 2, "n_v": 3_000_000, "n_edges": 3000, "block_structure": False,
       "n_blocks": 1, "seed": s} for s in range(5)),
    {"n_u": 2, "n_v": 3_000_000, "n_edges": 3000, "n_blocks": 1, "seed": 0, "kept": True},
    *({"n_u": 3_000_000, "n_v": 6, "n_edges": 3000, "n_blocks": 2, "seed": s}
      for s in range(3)),
]


class TestSamplePairs:
    @pytest.mark.parametrize("case", _ORACLE_SPECS,
                             ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
    def test_equals_the_reference_loop(self, case):
        """Same pairs in the same order, and the generator left in the same
        state (kept 32-bit half included), since the weights and timestamps
        draw next."""
        case = dict(case)
        kept = case.pop("kept", False)
        spec = SyntheticSpec(**case)
        got_rng, want_rng = (np.random.default_rng(spec.seed) for _ in range(2))
        if kept:
            got_rng.integers(0, 3), want_rng.integers(0, 3)
            assert got_rng.bit_generator.state["has_uint32"] == 1
        got = _sample_pairs(got_rng, spec)
        want = sample_pairs_oracle(want_rng, spec)
        assert got.dtype == want.dtype and got.shape == (spec.n_edges, 2)
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestGenerate:
    def test_skew_one_gives_unit_weights(self):
        spec = SyntheticSpec(n_u=30, n_v=30, n_edges=200, weight_skew=1, seed=1)
        _, _, _, weights, _ = generate(spec)
        assert all(w == 1 for w in weights)

    def test_requested_shape_and_weight_cap(self):
        spec = SyntheticSpec(n_u=200, n_v=300, n_edges=4000, weight_skew=50, seed=2)
        x_u, x_v, pairs, weights, times = generate(spec)
        assert len(pairs) == len(weights) == len(times) == 4000
        assert len(x_u) == 200 and len(x_v) == 300
        assert max(weights) <= 50
        assert min(weights) >= 1

    def test_pairs_are_distinct(self):
        spec = SyntheticSpec(n_u=40, n_v=40, n_edges=600, seed=3)
        _, _, pairs, _, _ = generate(spec)
        assert len({(u, v) for u, v in pairs.tolist()}) == 600

    def test_block_structure_concentrates_edges(self):
        spec = SyntheticSpec(n_u=50, n_v=50, n_edges=500, n_blocks=5,
                             intra_prob=0.9, seed=4)
        _, _, pairs, _, _ = generate(spec)
        intra = 0
        for u, v in pairs.tolist():
            if _block_of(np.array([u]), 50, 5)[0] == _block_of(np.array([v]), 50, 5)[0]:
                intra += 1
        assert intra / len(pairs) > 0.75

    def test_no_blocks_is_roughly_uniform(self):
        spec = SyntheticSpec(n_u=50, n_v=50, n_edges=500, block_structure=False,
                             seed=5)
        _, _, pairs, _, _ = generate(spec)
        intra = 0
        for u, v in pairs.tolist():
            if _block_of(np.array([u]), 50, 10)[0] == _block_of(np.array([v]), 50, 10)[0]:
                intra += 1
        assert intra / len(pairs) < 0.25

    def test_deterministic(self):
        spec = SyntheticSpec(n_u=20, n_v=20, n_edges=100, weight_skew=9, seed=6)
        for a, b in zip(generate(spec), generate(spec)):
            np.testing.assert_array_equal(a, b)


def _file_bytes(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


class TestWriteDataset:
    def test_files_load_back(self, tmp_path):
        spec = SyntheticSpec(n_u=25, n_v=35, n_edges=300, weight_skew=7, seed=7)
        paths = write_dataset(spec, tmp_path)
        g = load_graph(paths["edges"], paths["u_features"], paths["v_features"])
        assert g.n_u == 25 and g.n_v == 35
        assert g.n_edges == 300
        assert g.x_u.shape == (25, spec.n_blocks + NOISE_DIMS)
        assert g.edges.w.max() <= 7

    @pytest.mark.parametrize("case", DATASET_SPECS,
                             ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
    def test_equals_the_reference_writer(self, tmp_path, case):
        """Byte-equal files, the same paths, and nothing else in the directory."""
        spec = SyntheticSpec(**case)
        got = write_dataset(spec, tmp_path / "got")
        want = write_dataset_oracle(spec, tmp_path / "want")
        assert got == {k: v.replace(str(tmp_path / "want"), str(tmp_path / "got"))
                       for k, v in want.items()}
        assert _file_bytes(tmp_path / "got") == _file_bytes(tmp_path / "want")

    def test_failed_write_leaves_every_file_whole(self, tmp_path, monkeypatch):
        """A write that fails part way through the last file leaves that file
        with its old bytes, the files written before it whole, and no
        temporary file."""
        new_spec = SyntheticSpec(n_u=20, n_v=30, n_edges=100, seed=2)
        write_dataset(SyntheticSpec(n_u=20, n_v=30, n_edges=100, seed=1), tmp_path / "data")
        old = _file_bytes(tmp_path / "data")
        write_dataset_oracle(new_spec, tmp_path / "new")
        new = _file_bytes(tmp_path / "new")

        def failing_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if "v_features" in str(path):
                write = fh.write

                def write_half(text):
                    write(text[:len(text) // 2])
                    raise OSError(28, "No space left on device")
                fh.write = write_half
            return fh

        monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_dataset(new_spec, tmp_path / "data")
        assert _file_bytes(tmp_path / "data") == {
            "edges.csv": new["edges.csv"], "u_features.csv": new["u_features.csv"],
            "v_features.csv": old["v_features.csv"]}
