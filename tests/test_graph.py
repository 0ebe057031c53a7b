import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bilink.errors import ValidationError
from bilink.graph import (BipartiteGraph, EdgeArray, build_weighted_adjacency,
                          check_summed_weights, chronological_split, complement_size,
                          load_graph, normalized_adjacency, sample_negatives)
from bilink.synthetic import SyntheticSpec
from bilink.synthetic import write_dataset as write_synthetic
from util import (DATASET_SPECS, dense_normalized_adjacency, load_graph_oracle,
                  make_graph, sample_negatives_oracle)


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

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_weight_names_line(self, tmp_path, raw):
        paths = write_dataset(tmp_path, ["a,x,1,10", f"a,x,{raw},20"],
                              ["a,0,0"], ["x,0,0"])
        with pytest.raises(ValidationError, match=":3: edge weight must be "
                                                  "positive and finite"):
            load_graph(*paths)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, raw):
        paths = write_dataset(tmp_path, ["a,x,1,10"], ["a,0,0", f"b,0,{raw}"], ["x,0,0"])
        with pytest.raises(ValidationError, match="u.csv:3: non-finite feature value"):
            load_graph(*paths)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_in_memory_weight_rejected(self, bad):
        with pytest.raises(ValidationError, match="positive and finite.*event 1"):
            make_graph(2, 2, [(0, 0, 1.0, 1), (1, 1, bad, 2)])

    @pytest.mark.parametrize("build,match", [
        (lambda: EdgeArray([0, 1], [0], [1.0, 1.0], [1, 2]), "equal length"),
        (lambda: BipartiteGraph(3, 2, np.zeros((2, 1)), np.zeros((2, 1)),
                                EdgeArray([], [], [], [])), "feature row counts 2/2"),
        (lambda: BipartiteGraph(1, 1, [[np.nan]], [[0.0]], EdgeArray([], [], [], [])),
         "non-finite"),
        (lambda: make_graph(2, 2, [(2, 0, 1.0, 1)]), "u index out of range"),
        (lambda: make_graph(2, 2, [(0, -1, 1.0, 1)]), "v index out of range"),
    ], ids=["edge-lengths", "feature-rows", "feature-value", "u-index", "v-index"])
    def test_in_memory_graph_rejected(self, build, match):
        with pytest.raises(ValidationError, match=match):
            build()

    def test_malformed_row_names_line(self, tmp_path):
        paths = write_dataset(tmp_path, ["a,x,1,10", "a,x,oops,20"],
                              ["a,0,0"], ["x,0,0"])
        with pytest.raises(ValidationError, match=":3"):
            load_graph(*paths)

    def test_timestamp_outside_int64_names_line(self, tmp_path):
        edges = ["a,x,1,-9223372036854775808", "a,x,1,9223372036854775807"]
        paths = write_dataset(tmp_path, edges, ["a,0,0"], ["x,0,0"])
        assert load_graph(*paths).edges.t.tolist() == [-2 ** 63, 2 ** 63 - 1]
        for huge in ("9223372036854775808", "-9223372036854775809",
                     "99999999999999999999999"):
            paths = write_dataset(tmp_path, [*edges, f"a,x,1,{huge}", "a,x,oops,1"],
                                  ["a,0,0"], ["x,0,0"])
            with pytest.raises(ValidationError, match=rf"edges.csv:4: malformed row "
                                                      rf"\(timestamp {huge} is outside"):
                load_graph(*paths)

    def test_earlier_fault_wins_over_timestamp_outside_int64(self, tmp_path):
        paths = write_dataset(tmp_path, ["a,x,1,10", "a,x,inf,20", "a,x,1,1e400",
                                         "a,x,1,99999999999999999999999"],
                              ["a,0,0"], ["x,0,0"])
        with pytest.raises(ValidationError, match="edges.csv:3: edge weight"):
            load_graph(*paths)
        paths = write_dataset(tmp_path, ["ghost,x,1,99999999999999999999999"],
                              ["a,0,0"], ["x,0,0"])
        with pytest.raises(ValidationError, match="edges.csv:2: u_id 'ghost'"):
            load_graph(*paths)

    def test_line_numbers_count_lines_inside_quoted_fields(self, tmp_path):
        paths = write_dataset(tmp_path, ["c,x,1,10"], ['"a\nb",0,0', "c,0,oops"],
                              ["x,0,0"])
        with pytest.raises(ValidationError, match="u.csv:4: malformed feature value"):
            load_graph(*paths)
        paths = write_dataset(tmp_path, ['"a\nb",x,1,10', "c,x,1,10", "c,x,oops,30"],
                              ['"a\nb",0,0', "c,0,0"], ["x,0,0"])
        with pytest.raises(ValidationError, match="edges.csv:5: malformed row"):
            load_graph(*paths)

    def test_unknown_edge_id_rejected(self, tmp_path):
        paths = write_dataset(tmp_path, ["ghost,x,1,10"], ["a,0,0"], ["x,0,0"])
        with pytest.raises(ValidationError, match="ghost"):
            load_graph(*paths)

    def test_duplicate_events_kept(self, tmp_path):
        paths = write_dataset(tmp_path, ["a,x,1,10", "a,x,1,10"],
                              ["a,0,0"], ["x,0,0"])
        assert load_graph(*paths).n_edges == 2


def assert_same_graph(got, want):
    assert (got.n_u, got.n_v, got.u_ids, got.v_ids) == \
        (want.n_u, want.n_v, want.u_ids, want.v_ids)
    for a, b in [(got.x_u, want.x_u), (got.x_v, want.x_v),
                 *((getattr(got.edges, f), getattr(want.edges, f)) for f in "uvwt")]:
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def _quote_ids(text):
    """Rename u0 to a quoted id that spans two lines and v0 to one with a comma."""
    text = re.sub(r"^u0,", '"u\n0",', text, flags=re.M)
    return re.sub(r"(^|,)v0,", r'\1"v,0",', text, flags=re.M)


# Edits of a written dataset that must load as before: line feeds alone,
# blank lines after the header and every row, quoted ids.
_EDITS = {
    "as-written": lambda text: text,
    "lf": lambda text: text.replace("\r\n", "\n"),
    "blank-lines": lambda text: text.replace("\r\n", "\r\n\n\r\n"),
    "quoted-ids": _quote_ids,
}


def _edit_files(paths, edit):
    for path in paths.values():
        with open(path, newline="", encoding="utf-8") as fh:
            text = edit(fh.read())
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    return paths["edges"], paths["u_features"], paths["v_features"]


def test_load_graph_peak_memory_bounded_by_returned_arrays(tmp_path):
    """Loading keeps only parsed values, not the rows' strings: the traced
    peak stays within 4x the bytes of the arrays the graph holds."""
    paths = write_synthetic(SyntheticSpec(seed=7), tmp_path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = load_graph(paths["edges"], paths["u_features"], paths["v_features"])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    e = g.edges
    assert peak <= 4 * sum(a.nbytes for a in (e.u, e.v, e.w, e.t, g.x_u, g.x_v))


class TestLoadGraphMatchesReference:
    @pytest.mark.parametrize("edit", _EDITS)
    @pytest.mark.parametrize("case", DATASET_SPECS,
                             ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
    def test_equal_arrays_and_ids(self, tmp_path, case, edit):
        args = _edit_files(write_synthetic(SyntheticSpec(**case), tmp_path), _EDITS[edit])
        assert_same_graph(load_graph(*args), load_graph_oracle(*args))

    def test_quoted_ids_are_read(self, tmp_path):
        paths = write_synthetic(SyntheticSpec(n_u=4, n_v=4, n_edges=8, n_blocks=2), tmp_path)
        g = load_graph(*_edit_files(paths, _quote_ids))
        assert g.u_ids[0] == "u\n0" and g.v_ids[0] == "v,0"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """Copies saved with a UTF-8 byte-order mark load to the same graph."""
        paths = write_synthetic(SyntheticSpec(n_u=20, n_v=30, n_edges=100), tmp_path)
        args = (paths["edges"], paths["u_features"], paths["v_features"])
        bom_args = [tmp_path / f"bom_{Path(path).name}" for path in args]
        for path, copy in zip(args, bom_args):
            copy.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        assert_same_graph(load_graph(*bom_args), load_graph(*args))


# Faulty datasets as (edge rows, u feature rows, v feature rows) below the
# headers, one row per line from line 2; a row may be a string that holds a
# quoted multi-line field. Each loads to the reference loop's exact error.
_HUGE = "x" * 200_000  # past the csv module's field size limit
_FAULTS = {
    "unknown-v-then-width": (["a,x,1,10", "a,ghost,1,20", "a,x,1,30", "a,x,1"],
                             ["a,0,0"], ["x,0,0"]),
    "width-then-unknown-v": (["a,x,1,10", "a,x,1", "a,x,1,30", "a,ghost,1,40"],
                             ["a,0,0"], ["x,0,0"]),
    "malformed-then-non-finite": (["a,x,1,10", "a,x,oops,20", "a,x,1,30", "a,x,inf,40"],
                                  ["a,0,0"], ["x,0,0"]),
    "non-finite-then-malformed": (["a,x,1,10", "a,x,nan,20", "a,x,1,30", "a,x,oops,40"],
                                  ["a,0,0"], ["x,0,0"]),
    "unknown-u-and-v-in-one-row": (["ghost,ghoul,1,10"], ["a,0,0"], ["x,0,0"]),
    "unknown-v-and-malformed-in-one-row": (["a,ghoul,oops,10"], ["a,0,0"], ["x,0,0"]),
    "bad-timestamp-after-good-weight": (["a,x,1,10", "a,x,2,1.5"], ["a,0,0"], ["x,0,0"]),
    "bad-weight-and-timestamp": (["a,x,w,t"], ["a,0,0"], ["x,0,0"]),
    "non-positive-weight": (["a,x,1,10", "a,x,-2,20"], ["a,0,0"], ["x,0,0"]),
    "duplicate-feature-id-after-non-finite": (["a,x,1,10"],
                                              ["a,0,0", "b,0,nan", "c,0,0", "a,1,1"],
                                              ["x,0,0"]),
    "malformed-feature-after-non-finite": (["a,x,1,10"], ["a,0,0", "b,0,inf", "c,0,x"],
                                           ["x,0,0"]),
    "duplicate-feature-id-and-malformed-in-one-row": (["a,x,1,10"], ["a,0,0", "a,0,x"],
                                                      ["x,0,0"]),
    "feature-width-after-non-finite": (["a,x,1,10"], ["a,0,0", "b,0,nan", "c,0"],
                                       ["x,0,0"]),
    "v-feature-fault-after-clean-u": (["a,x,1,10"], ["a,0,0"], ["x,0,0", "y,0"]),
    "faults-after-blank-lines": (["a,x,1,10", "", "", "a,x,oops,50"],
                                 ["", "a,0,0", "", "b,0,inf"], ["x,0,0"]),
    "edge-fault-after-blank-lines": (["", "a,x,1,10", "", "a,x,oops,50"],
                                     ["a,0,0"], ["x,0,0"]),
    "edge-fault-after-quoted-field": (['"a\nb",x,1,10', '"a\nb",x,1,20', "c,x,1"],
                                      ['"a\nb",0,0', "c,0,0"], ["x,0,0"]),
    "feature-fault-after-quoted-field": (["c,x,1,10"], ['"a\nb",0,0', "c,0,nan"],
                                         ["x,0,0"]),
    "tokenizer-error-after-bad-row": (["a,x,1,10", "a,ghost,1,20", "a,x,1,30",
                                       f"a,x,1,{_HUGE}"], ["a,0,0"], ["x,0,0"]),
    "bad-row-after-tokenizer-error": ([f"a,x,1,{_HUGE}", "a,ghost,1,20"],
                                      ["a,0,0"], ["x,0,0"]),
    "tokenizer-error-after-non-finite-feature": (["a,x,1,10"],
                                                 ["a,0,nan", f"b,0,{_HUGE}"], ["x,0,0"]),
    "tokenizer-error-and-no-edges": ([f"{_HUGE},x,1,10"], ["a,0,0"], ["x,0,0"]),
    "header-only-edge-file": ([], ["a,0,0"], ["x,0,0"]),
    "header-only-feature-file": (["a,x,1,10"], [], ["x,0,0"]),
}


class TestLoadGraphErrors:
    @pytest.mark.parametrize("case", _FAULTS)
    def test_same_error_as_reference(self, tmp_path, case):
        paths = write_dataset(tmp_path, *_FAULTS[case])
        with pytest.raises(ValidationError) as want:
            load_graph_oracle(*paths)
        with pytest.raises(ValidationError) as got:
            load_graph(*paths)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_empty_file_gives_reference_error(self, tmp_path, empty):
        paths = write_dataset(tmp_path, ["a,x,1,10"], ["a,0,0"], ["x,0,0"])
        paths[empty].write_bytes(b"")
        with pytest.raises(ValidationError, match="expected header") as want:
            load_graph_oracle(*paths)
        with pytest.raises(ValidationError) as got:
            load_graph(*paths)
        assert str(got.value) == str(want.value)


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

    def test_count_must_be_positive(self):
        split = self._full_split([(0, 0, 1, 1), (0, 1, 1, 2), (1, 0, 1, 3)], 2, 2)
        with pytest.raises(ValidationError, match="count must be positive, got 0"):
            sample_negatives(split, 0, rng_seed=0)

    def test_single_missing_pair_forced(self):
        split = self._full_split([(0, 0, 1, 1), (0, 1, 1, 2), (1, 0, 1, 3)], 2, 2)
        neg = sample_negatives(split, 1, rng_seed=7)
        assert neg.tolist() == [[1, 1]]

    def test_deterministic_replay(self):
        rng = np.random.default_rng(8)
        edges = [(rng.integers(0, 50), rng.integers(0, 50), 1.0, t)
                 for t in range(100)]
        split = self._full_split(edges, 50, 50)
        a = sample_negatives(split, 100, rng_seed=42)
        b = sample_negatives(split, 100, rng_seed=42)
        np.testing.assert_array_equal(a, b)
        assert len(np.unique(a[:, 0] * 50 + a[:, 1])) == 100

    def test_never_intersects_any_era(self):
        rng = np.random.default_rng(9)
        edges = [(rng.integers(0, 12), rng.integers(0, 9), 1.0, t)
                 for t in range(70)]
        split = self._full_split(edges, 12, 9)
        neg = sample_negatives(split, complement_size(split), rng_seed=5)
        keys = neg[:, 0] * 9 + neg[:, 1]
        assert not np.isin(keys, split.pair_keys()).any()

    def test_pair_keys_sorted_unique_over_eras(self):
        split = self._full_split([(0, 2, 1, 1), (1, 0, 1, 2), (0, 2, 1, 3),
                                  (2, 1, 1, 4), (1, 0, 1, 5)], 3, 4)
        assert split.pair_keys().tolist() == [2, 4, 9]
        assert split.pair_keys().dtype == np.int64
        assert complement_size(split) == 9

    @staticmethod
    def _random_split(seed):
        rng = np.random.default_rng(seed)
        n_u, n_v = rng.integers(3, 40, size=2)
        m = int(rng.integers(3, n_u * n_v // 2 + 4))
        edges = [(rng.integers(0, n_u), rng.integers(0, n_v), 1.0, t)
                 for t in range(m)]
        return chronological_split(make_graph(int(n_u), int(n_v), edges))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_loop_up_to_half_the_complement(self, seed):
        split = self._random_split(seed)
        free = complement_size(split)
        for count in sorted({1, 2, free // 4, free // 3, free // 2} - {0}):
            for rng_seed in (0, 13):
                got = sample_negatives(split, count, rng_seed)
                want = sample_negatives_oracle(split, count, rng_seed)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_distinct_in_range_and_outside_eras_up_to_full(self, seed):
        split = self._random_split(seed)
        n_u, n_v = split.train.n_u, split.train.n_v
        free = complement_size(split)
        for count in (free // 2 + 1, (3 * free) // 4, free):
            pairs = sample_negatives(split, count, rng_seed=seed)
            assert pairs.shape == (count, 2)
            assert (pairs >= 0).all()
            assert (pairs[:, 0] < n_u).all() and (pairs[:, 1] < n_v).all()
            keys = pairs[:, 0] * n_v + pairs[:, 1]
            assert len(np.unique(keys)) == count
            assert not np.isin(keys, split.pair_keys()).any()

    def test_dense_regime_is_uniform(self):
        # 4x4 grid with 4 pairs taken leaves 12 free pairs; drawing 9 of them
        # (above half the complement) should include each free pair with
        # probability 9/12.
        split = self._full_split([(0, 0, 1, 1), (1, 1, 1, 2), (2, 2, 1, 3),
                                  (3, 3, 1, 4)], 4, 4)
        free_keys = np.setdiff1d(np.arange(16), split.pair_keys())
        trials = 2000
        hits = np.zeros(16)
        for seed in range(trials):
            pairs = sample_negatives(split, 9, rng_seed=seed)
            hits[pairs[:, 0] * 4 + pairs[:, 1]] += 1
        assert hits[split.pair_keys()].sum() == 0
        rate = hits[free_keys] / trials
        # binomial sd at p = 0.75 over 2000 trials is about 0.0097
        np.testing.assert_allclose(rate, 0.75, atol=0.04)


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


def test_summed_weights_checked_before_the_test_era_only():
    """Events at t 0-7 train, 8 validates, 9 tests; an in-memory graph has
    no ids, so the pair is named by its indices."""
    events = [(0, 0, 1.0, t) for t in range(6)] + [(1, 2, 1e308, 6), (0, 1, 1.0, 7)]
    split = chronological_split(make_graph(2, 3, [*events, (1, 2, 1e308, 8),
                                                  (1, 2, 1e308, 9)]))
    with pytest.raises(ValidationError, match=r"pair \(1, 2\) sum past"):
        check_summed_weights(split)
    split = chronological_split(make_graph(2, 3, [*events, (0, 1, 1.0, 8),
                                                  (1, 2, 1e308, 9)]))
    check_summed_weights(split)


def test_total_weight_checked_before_the_test_era_only():
    """Each pair of weight 1e308 is finite alone; two before the test era
    sum past the largest float, one before it and one in it do not."""
    events = [(0, 0, 1.0, t) for t in range(6)] + [(1, 2, 1e308, 6), (0, 1, 1.0, 7)]
    split = chronological_split(make_graph(2, 3, [*events, (1, 1, 1e308, 8),
                                                  (1, 0, 1e308, 9)]))
    with pytest.raises(ValidationError, match="together sum past the largest float"):
        check_summed_weights(split)
    split = chronological_split(make_graph(2, 3, [*events, (0, 1, 1.0, 8),
                                                  (1, 1, 1e308, 9)]))
    check_summed_weights(split)
