import numpy as np
import pytest

from bilink.errors import ValidationError
from bilink.graph import load_graph
from bilink.synthetic import SyntheticSpec, _block_of, generate, write_dataset


class TestSyntheticSpec:
    def test_infeasible_edge_count(self):
        with pytest.raises(ValidationError, match="distinct pairs"):
            SyntheticSpec(n_u=3, n_v=3, n_edges=10)

    def test_nonpositive_sizes(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_u=0)

    def test_skew_below_one_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(weight_skew=0)

    @pytest.mark.parametrize("field,value", [
        ("time_span", 0), ("n_blocks", 0), ("intra_prob", -0.1),
        ("intra_prob", 1.5), ("intra_prob", float("nan")),
        ("feature_noise", -1.0), ("feature_noise", float("nan")),
        ("noise_dims", -1), ("feature_noise", float("inf")), ("seed", -1),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("time_span", 1), ("n_blocks", 1), ("intra_prob", 0.0),
        ("intra_prob", 1.0), ("feature_noise", 0.0), ("noise_dims", 0),
    ])
    def test_boundary_values_accepted(self, field, value):
        SyntheticSpec(**{field: value})


class TestGenerate:
    def test_skew_one_gives_unit_weights(self):
        spec = SyntheticSpec(n_u=30, n_v=30, n_edges=200, weight_skew=1, seed=1)
        _, _, _, _, rows = generate(spec)
        assert all(r[2] == 1 for r in rows)

    def test_requested_shape_and_weight_cap(self):
        spec = SyntheticSpec(n_u=200, n_v=300, n_edges=4000, weight_skew=50, seed=2)
        u_ids, x_u, v_ids, x_v, rows = generate(spec)
        assert len(rows) == 4000
        assert len(u_ids) == 200 and len(v_ids) == 300
        assert max(r[2] for r in rows) <= 50
        assert min(r[2] for r in rows) >= 1

    def test_pairs_are_distinct(self):
        spec = SyntheticSpec(n_u=40, n_v=40, n_edges=600, seed=3)
        _, _, _, _, rows = generate(spec)
        assert len({(r[0], r[1]) for r in rows}) == 600

    def test_block_structure_concentrates_edges(self):
        spec = SyntheticSpec(n_u=50, n_v=50, n_edges=500, n_blocks=5,
                             intra_prob=0.9, seed=4)
        _, _, _, _, rows = generate(spec)
        intra = 0
        for u_id, v_id, _, _ in rows:
            u, v = int(u_id[1:]), int(v_id[1:])
            if _block_of(np.array([u]), 50, 5)[0] == _block_of(np.array([v]), 50, 5)[0]:
                intra += 1
        assert intra / len(rows) > 0.75

    def test_no_blocks_is_roughly_uniform(self):
        spec = SyntheticSpec(n_u=50, n_v=50, n_edges=500, block_structure=False,
                             seed=5)
        _, _, _, _, rows = generate(spec)
        intra = 0
        for u_id, v_id, _, _ in rows:
            u, v = int(u_id[1:]), int(v_id[1:])
            if _block_of(np.array([u]), 50, 10)[0] == _block_of(np.array([v]), 50, 10)[0]:
                intra += 1
        assert intra / len(rows) < 0.25

    def test_deterministic(self):
        spec = SyntheticSpec(n_u=20, n_v=20, n_edges=100, weight_skew=9, seed=6)
        assert generate(spec)[4] == generate(spec)[4]


class TestWriteDataset:
    def test_files_load_back(self, tmp_path):
        spec = SyntheticSpec(n_u=25, n_v=35, n_edges=300, weight_skew=7, seed=7)
        paths = write_dataset(spec, tmp_path)
        g = load_graph(paths["edges"], paths["u_features"], paths["v_features"])
        assert g.n_u == 25 and g.n_v == 35
        assert g.n_edges == 300
        assert g.x_u.shape == (25, spec.n_blocks + spec.noise_dims)
        assert g.edges.w.max() <= 7
