import numpy as np
import pytest

from bilink.augment import (augmented_view, corrupt_view, drop_edges_weight_aware,
                            drop_features, keep_probabilities)
from util import make_graph


class TestDropFeatures:
    def test_p0_identity(self):
        x = np.array([[0.0, -0.0, 1.5], [-2.5, np.inf, np.nan]])
        out = drop_features(x, 0.0, seed=1)
        assert out.tobytes() == x.tobytes()  # signed zeros and nan included
        assert out is not x

    def test_zeroed_fraction_binomial_bound(self):
        x = np.ones((500, 200))  # 1e5 entries
        out = drop_features(x, 0.1, seed=2)
        frac = 1.0 - out.mean()
        assert abs(frac - 0.1) < 0.01

    def test_same_seed_same_mask(self):
        x = np.ones((40, 40))
        np.testing.assert_array_equal(drop_features(x, 0.3, seed=5),
                                      drop_features(x, 0.3, seed=5))

    def test_source_untouched(self):
        x = np.ones((10, 10))
        drop_features(x, 0.5, seed=0)
        assert x.sum() == 100

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            drop_features(np.ones((2, 2)), 1.0, seed=0)


class TestDropEdges:
    def test_equal_weights_keep_base_rate(self):
        w = np.full(8, 3.0)
        np.testing.assert_allclose(keep_probabilities(w, 0.7), np.full(8, 0.7))

    def test_two_weight_monte_carlo(self):
        """Weights {1, 3} at base_keep 0.5 give keep probabilities
        {0.25, 0.75}; empirical rates over 1e4 trials land within 0.02."""
        u = np.array([0, 1])
        v = np.array([0, 1])
        w = np.array([1.0, 3.0])
        np.testing.assert_allclose(keep_probabilities(w, 0.5), [0.25, 0.75])
        kept = np.zeros(2)
        trials = 10_000
        for seed in range(trials):
            ku, _, _ = drop_edges_weight_aware(u, v, w, 0.5, seed)
            for node in ku:
                kept[node] += 1
        rates = kept / trials
        assert abs(rates[0] - 0.25) < 0.02
        assert abs(rates[1] - 0.75) < 0.02

    def test_base_keep_1_keeps_all_below_mean(self):
        u = np.arange(5)
        v = np.arange(5)
        w = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        ku, kv, kw = drop_edges_weight_aware(u, v, w, 1.0, seed=3)
        assert len(ku) == 5
        np.testing.assert_array_equal(kw, w)

    def test_retained_edges_keep_weights(self):
        u = np.arange(100)
        v = np.arange(100)
        w = np.linspace(1, 10, 100)
        ku, kv, kw = drop_edges_weight_aware(u, v, w, 0.5, seed=4)
        np.testing.assert_array_equal(kw, w[ku])

    def test_empty_edges(self):
        ku, kv, kw = drop_edges_weight_aware([], [], [], 0.5, seed=0)
        assert len(ku) == 0

    def test_view_keeps_the_heaviest_edge_when_none_survives(self):
        """The objective is undefined over an empty edge set, so a view that
        would lose every edge keeps the first heaviest one; a view with
        surviving edges keeps exactly the draw's."""
        u, v, w = np.array([0, 1, 2]), np.array([3, 4, 5]), np.array([1.0, 3.0, 3.0])
        x = np.ones((6, 2))
        emptied = 0
        for seed in range(100):
            view = augmented_view(x, x, u, v, w, feature_drop_p=0.0, base_keep=0.1,
                                  seed=seed)
            drawn = drop_edges_weight_aware(u, v, w, 0.1,
                                            np.random.SeedSequence(seed).spawn(3)[2])
            if len(drawn[0]) == 0:
                emptied += 1
                drawn = ([1], [4], [3.0])
            got = (view.edge_u, view.edge_v, view.edge_w)
            for a, b in zip(got, drawn):
                np.testing.assert_array_equal(a, b)
            assert view.edge_w.dtype == np.float64
        assert 0 < emptied < 100

    def test_clamp_floor_keeps_light_edges_alive(self):
        w = np.array([1.0, 377.0])
        probs = keep_probabilities(w, 0.5)
        assert probs[0] == 0.05  # clamped up from ~0.0026
        assert probs[1] == pytest.approx(0.5 * 377.0 / 189.0)
        assert keep_probabilities(np.array([1.0, 99.0]), 1.0)[1] == 1.0  # ceiling


class TestCorruptView:
    def test_permutation_preserves_row_multiset(self):
        g = make_graph(8, 6, [(0, 0, 1.0, 1)])
        view = corrupt_view(g, 5, seed=6)
        assert sorted(map(tuple, view.x_u)) == sorted(map(tuple, g.x_u))
        assert sorted(map(tuple, view.x_v)) == sorted(map(tuple, g.x_v))

    def test_edges_bipartite_unit_weight(self):
        g = make_graph(7, 9, [(0, 0, 5.0, 1)])
        view = corrupt_view(g, 40, seed=7)
        assert view.n_edges == 40
        assert view.edge_u.min() >= 0 and view.edge_u.max() < 7
        assert view.edge_v.min() >= 0 and view.edge_v.max() < 9
        np.testing.assert_array_equal(view.edge_w, np.ones(40))

    def test_overlap_with_true_edges_matches_expectation(self):
        """Uniform random corrupted pairs overlap the true edge set at rate
        ~ |E| / (n_u * n_v)."""
        rng = np.random.default_rng(8)
        n_u = n_v = 100
        pairs = set()
        while len(pairs) < 400:
            pairs.add((int(rng.integers(n_u)), int(rng.integers(n_v))))
        edges = [(u, v, 1.0, i) for i, (u, v) in enumerate(sorted(pairs))]
        g = make_graph(n_u, n_v, edges)
        expected = len(pairs) / (n_u * n_v)  # 0.04
        overlaps = []
        for seed in range(200):
            view = corrupt_view(g, len(pairs), seed=seed)
            hit = sum((u, v) in pairs for u, v in zip(view.edge_u, view.edge_v))
            overlaps.append(hit / len(pairs))
        assert abs(np.mean(overlaps) - expected) < 0.005

    def test_source_untouched(self):
        g = make_graph(5, 5, [(0, 0, 1.0, 1)])
        x_u_before = g.x_u.copy()
        corrupt_view(g, 3, seed=9)
        np.testing.assert_array_equal(g.x_u, x_u_before)

    def test_rejects_zero_edges(self):
        g = make_graph(3, 3, [(0, 0, 1.0, 1)])
        with pytest.raises(ValueError):
            corrupt_view(g, 0, seed=0)


class TestAugmentedView:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(10)
        x_u = rng.normal(size=(20, 5))
        x_v = rng.normal(size=(30, 5))
        u = rng.integers(0, 20, 50)
        v = rng.integers(0, 30, 50)
        w = rng.uniform(1, 5, 50)
        a = augmented_view(x_u, x_v, u, v, w, feature_drop_p=0.2, base_keep=0.7,
                           seed=11)
        b = augmented_view(x_u, x_v, u, v, w, feature_drop_p=0.2, base_keep=0.7,
                           seed=11)
        np.testing.assert_array_equal(a.x_u, b.x_u)
        np.testing.assert_array_equal(a.edge_u, b.edge_u)

    def test_different_seeds_differ(self):
        x = np.ones((30, 30))
        a = augmented_view(x, x, np.arange(30), np.arange(30), np.ones(30),
                           feature_drop_p=0.3, base_keep=0.5, seed=1)
        b = augmented_view(x, x, np.arange(30), np.arange(30), np.ones(30),
                           feature_drop_p=0.3, base_keep=0.5, seed=2)
        assert not np.array_equal(a.x_u, b.x_u) or not np.array_equal(a.edge_u, b.edge_u)
