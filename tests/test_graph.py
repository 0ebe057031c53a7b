import numpy as np
import pytest

from bilink.errors import ValidationError
from bilink.graph import (BipartiteGraph, EdgeArray, build_weighted_adjacency,
                          chronological_split, complement_size, load_graph,
                          normalized_adjacency, sample_negatives)
from util import dense_normalized_adjacency, make_graph


def write_dataset(tmp_path, edge_rows, u_rows, v_rows, u_dim=2, v_dim=2):
    edges = tmp_path / "edges.csv"
    edges.write_text("u_id,v_id,weight,timestamp\n"
                     + "".join(f"{r}\n" for r in edge_rows))
    u = tmp_path / "u.csv"
    u.write_text("id," + ",".join(f"f{i+1}" for i in range(u_dim)) + "\n"
                 + "".join(f"{r}\n" for r in u_rows))
    v = tmp_path / "v.csv"
    v.write_text("id," + ",".join(f"f{i+1}" for i in range(v_dim)) + "\n"
                 + "".join(f"{r}\n" for r in v_rows))
    return edges, u, v


class TestLoadGraph:
    def test_three_row_readback(self, tmp_path):
        paths = write_dataset(
            tmp_path,
            ["a,x,1,10", "a,y,2,20", "b,x,1,30"],
            ["a,0.5,1.0", "b,0.0,2.0"],
            ["x,1,1", "y,2,2"],
        )
        g = load_graph(*paths)
        assert g.n_u == 2 and g.n_v == 2
        assert g.n_edges == 3
        assert g.edges.w.tolist() == [1.0, 2.0, 1.0]
        assert g.u_ids == ("a", "b") and g.v_ids == ("x", "y")
        # first-seen (feature file) order gives dense indices
        assert g.edges.u.tolist() == [0, 0, 1]
        assert g.edges.v.tolist() == [0, 1, 0]
        np.testing.assert_allclose(g.x_u, [[0.5, 1.0], [0.0, 2.0]])

    def test_isolated_feature_nodes_retained(self, tmp_path):
        paths = write_dataset(
            tmp_path,
            ["a,x,1,10"],
            ["a,0,0", "lonely,1,1"],
            ["x,0,0"],
        )
        g = load_graph(*paths)
        assert g.n_u == 2
        assert g.n_edges == 1

    def test_empty_edge_file(self, tmp_path):
        paths = write_dataset(tmp_path, [], ["a,0,0"], ["x,0,0"])
        with pytest.raises(ValidationError, match="no edges"):
            load_graph(*paths)

    def test_zero_weight_rejected(self, tmp_path):
        paths = write_dataset(tmp_path, ["a,x,0,10"], ["a,0,0"], ["x,0,0"])
        with pytest.raises(ValidationError, match="weight"):
            load_graph(*paths)

    def test_malformed_row_names_line(self, tmp_path):
        paths = write_dataset(tmp_path, ["a,x,1,10", "a,x,oops,20"],
                              ["a,0,0"], ["x,0,0"])
        with pytest.raises(ValidationError, match=":3"):
            load_graph(*paths)

    def test_unknown_edge_id_rejected(self, tmp_path):
        paths = write_dataset(tmp_path, ["ghost,x,1,10"], ["a,0,0"], ["x,0,0"])
        with pytest.raises(ValidationError, match="ghost"):
            load_graph(*paths)

    def test_duplicate_events_kept(self, tmp_path):
        paths = write_dataset(tmp_path, ["a,x,1,10", "a,x,1,10"],
                              ["a,0,0"], ["x,0,0"])
        assert load_graph(*paths).n_edges == 2


class TestChronologicalSplit:
    def test_ten_edges_eight_one_one(self):
        g = make_graph(3, 3, [(i % 3, (i + 1) % 3, 1.0, i + 1) for i in range(10)])
        split = chronological_split(g)
        assert sorted(split.train.edges.t.tolist()) == list(range(1, 9))
        assert split.val_edges.t.tolist() == [9]
        assert split.test_edges.t.tolist() == [10]

    def test_tie_uses_input_order_with_warning(self):
        g = make_graph(2, 2, [(0, 0, 1.0, 7), (0, 1, 1.0, 7), (1, 0, 1.0, 7),
                              (1, 1, 1.0, 7)])
        with pytest.warns(UserWarning, match="input order"):
            split = chronological_split(g)
        assert split.train.edges.v.tolist() == [0, 1]  # first two rows
        assert split.val_edges.u.tolist() == [1]
        assert split.test_edges.u.tolist() == [1]

    def test_thousand_edges_800_100_100(self):
        rng = np.random.default_rng(3)
        edges = [(rng.integers(0, 30), rng.integers(0, 40), 1.0, t)
                 for t in rng.permutation(1000)]
        g = make_graph(30, 40, edges)
        split = chronological_split(g)
        assert len(split.train.edges) == 800
        assert len(split.val_edges) == 100
        assert len(split.test_edges) == 100
        assert split.train.edges.t.max() <= split.val_edges.t.min()
        assert split.val_edges.t.max() <= split.test_edges.t.min()

    def test_rerun_bit_identical(self):
        rng = np.random.default_rng(4)
        edges = [(rng.integers(0, 5), rng.integers(0, 5), 1.0, rng.integers(0, 9))
                 for _ in range(60)]
        g = make_graph(5, 5, edges)
        a = chronological_split(g)
        b = chronological_split(g)
        for x, y in [(a.train.edges, b.train.edges), (a.val_edges, b.val_edges),
                     (a.test_edges, b.test_edges)]:
            np.testing.assert_array_equal(x.u, y.u)
            np.testing.assert_array_equal(x.v, y.v)
            np.testing.assert_array_equal(x.t, y.t)

    def test_too_few_edges(self):
        g = make_graph(2, 2, [(0, 0, 1.0, 1), (1, 1, 1.0, 2)])
        with pytest.raises(ValidationError, match="three non-empty"):
            chronological_split(g)


class TestSampleNegatives:
    def _full_split(self, edges, n_u, n_v):
        g = make_graph(n_u, n_v, edges)
        return chronological_split(g)

    def test_exhausted_complement(self):
        split = self._full_split([(0, 0, 1, 1), (0, 1, 1, 2), (1, 0, 1, 3),
                                  (1, 1, 1, 4)], 2, 2)
        with pytest.raises(ValidationError, match="only 0"):
            sample_negatives(split, 1, rng_seed=0)

    def test_single_missing_pair_forced(self):
        split = self._full_split([(0, 0, 1, 1), (0, 1, 1, 2), (1, 0, 1, 3)], 2, 2)
        neg = sample_negatives(split, 1, rng_seed=7)
        assert neg.pairs.tolist() == [[1, 1]]

    def test_deterministic_replay(self):
        rng = np.random.default_rng(8)
        edges = [(rng.integers(0, 50), rng.integers(0, 50), 1.0, t)
                 for t in range(100)]
        split = self._full_split(edges, 50, 50)
        a = sample_negatives(split, 100, rng_seed=42)
        b = sample_negatives(split, 100, rng_seed=42)
        np.testing.assert_array_equal(a.pairs, b.pairs)
        assert len(np.unique(a.pairs[:, 0] * 50 + a.pairs[:, 1])) == 100

    def test_never_intersects_any_era(self):
        rng = np.random.default_rng(9)
        edges = [(rng.integers(0, 12), rng.integers(0, 9), 1.0, t)
                 for t in range(70)]
        split = self._full_split(edges, 12, 9)
        neg = sample_negatives(split, complement_size(split), rng_seed=5)
        forbidden = split.all_pairs()
        for u, v in neg.pairs.tolist():
            assert (u, v) not in forbidden


class TestAdjacency:
    def test_single_edge_halves(self):
        g = make_graph(1, 1, [(0, 0, 1.0, 1)])
        adj = build_weighted_adjacency(g, use_weights=True).toarray()
        oracle = dense_normalized_adjacency(1, 1, [(0, 0, 1.0)])
        np.testing.assert_allclose(adj, oracle, atol=1e-15)
        np.testing.assert_allclose(adj, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_unweighted_flag_ignores_weights(self):
        edges_heavy = [(0, 0, 1.0, 1), (0, 1, 377.0, 2), (1, 1, 377.0, 3)]
        edges_unit = [(0, 0, 1.0, 1), (0, 1, 1.0, 2), (1, 1, 1.0, 3)]
        g_heavy = make_graph(2, 2, edges_heavy)
        g_unit = make_graph(2, 2, edges_unit)
        a = build_weighted_adjacency(g_heavy, use_weights=False)
        b = build_weighted_adjacency(g_unit, use_weights=True)
        assert (a != b).nnz == 0

    def test_duplicate_events_collapse_unweighted(self):
        g_dup = make_graph(2, 2, [(0, 0, 1.0, 1), (0, 0, 1.0, 2), (1, 1, 1.0, 3)])
        g_one = make_graph(2, 2, [(0, 0, 1.0, 1), (1, 1, 1.0, 3)])
        a = build_weighted_adjacency(g_dup, use_weights=False)
        b = build_weighted_adjacency(g_one, use_weights=False)
        assert (a != b).nnz == 0

    def test_duplicate_events_sum_weighted(self):
        g = make_graph(1, 1, [(0, 0, 2.0, 1), (0, 0, 3.0, 2)])
        adj = build_weighted_adjacency(g, use_weights=True).toarray()
        oracle = dense_normalized_adjacency(1, 1, [(0, 0, 5.0)])
        np.testing.assert_allclose(adj, oracle, atol=1e-15)

    def test_random_graphs_match_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n_u = int(rng.integers(1, 26))
            n_v = int(rng.integers(1, 25))
            m = int(rng.integers(1, 60))
            edges = [(int(rng.integers(0, n_u)), int(rng.integers(0, n_v)),
                      float(rng.uniform(0.5, 20)), int(rng.integers(0, 50)))
                     for _ in range(m)]
            g = make_graph(n_u, n_v, edges, rng=rng)
            adj = build_weighted_adjacency(g, use_weights=True).toarray()
            pair_w = {}
            for u, v, w, _ in edges:
                pair_w[(u, v)] = pair_w.get((u, v), 0.0) + w
            oracle = dense_normalized_adjacency(
                n_u, n_v, [(u, v, w) for (u, v), w in pair_w.items()])
            assert np.max(np.abs(adj - oracle)) < 1e-12
            np.testing.assert_allclose(adj, adj.T, atol=1e-15)

    def test_intra_partition_blocks_empty(self):
        rng = np.random.default_rng(12)
        g = make_graph(6, 7, [(int(rng.integers(0, 6)), int(rng.integers(0, 7)),
                               1.0, t) for t in range(20)])
        adj = build_weighted_adjacency(g, use_weights=True).toarray()
        uu = adj[:6, :6] - np.diag(np.diag(adj[:6, :6]))
        vv = adj[6:, 6:] - np.diag(np.diag(adj[6:, 6:]))
        assert np.all(uu == 0) and np.all(vv == 0)

    def test_isolated_node_keeps_unit_degree(self):
        g = make_graph(2, 1, [(0, 0, 1.0, 1)])  # u=1 is isolated
        adj = build_weighted_adjacency(g, use_weights=True).toarray()
        assert adj[1, 1] == 1.0

    def test_direct_call_sums_duplicate_entries(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n_u = int(rng.integers(1, 8))
            n_v = int(rng.integers(1, 8))
            m = int(rng.integers(1, 30))
            u = rng.integers(0, n_u, m)
            v = rng.integers(0, n_v, m)
            w = rng.uniform(0.5, 20.0, m)
            adj = normalized_adjacency(n_u, n_v, u, v, w).toarray()
            oracle = dense_normalized_adjacency(n_u, n_v, list(zip(u, v, w)))
            assert np.max(np.abs(adj - oracle)) < 1e-12
            np.testing.assert_array_equal(adj, adj.T)

    def test_direct_call_without_edges_is_identity(self):
        empty = np.array([], dtype=np.int64)
        adj = normalized_adjacency(2, 3, empty, empty, np.array([]))
        np.testing.assert_array_equal(adj.toarray(), np.eye(5))
