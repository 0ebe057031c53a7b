import dataclasses
import json
import math

import numpy as np
import pytest

from bilink import autodiff as ad
from bilink import metrics as mt
from bilink import training
from bilink.autodiff import Tensor
from bilink.checkpoint import load_decoder, load_model_state
from bilink.errors import ValidationError
from bilink.graph import (EdgeArray, TemporalSplit, aggregate_pairs, chronological_split,
                          load_graph, merge_graphs, normalized_adjacency,
                          sample_negatives)
from bilink.model import ModelState, state_checksum
from bilink.pipeline import run_seed
from bilink.synthetic import SyntheticSpec, write_dataset
from bilink.training import (VariantConfig, decoder_bce_examples, eval_inputs,
                             extract_embeddings, pretrain, score_eval, train_decoder)
from util import SHORT_COMPLEMENTS, epoch_inputs_oracle, make_graph

SMALL = dict(input_dim=12, hidden_dim=12, output_dim=8,
             decoder_hidden_dims=(16, 8))


def small_split(seed=0, n_u=10, n_v=10, m=80, weights=None):
    rng = np.random.default_rng(seed)
    edges = []
    for t in range(m):
        w = weights if weights is not None else float(rng.integers(1, 5))
        edges.append((int(rng.integers(0, n_u)), int(rng.integers(0, n_v)), w, t))
    return chronological_split(make_graph(n_u, n_v, edges, d_u=5, d_v=6))


class TestVariantConfig:
    def test_shared_defaults_pinned(self):
        cfg = VariantConfig()
        assert cfg.loss_balance == 0.5
        assert cfg.tau == 0.99
        assert cfg.hidden_dim == 256
        assert cfg.output_dim == 128
        assert cfg.dropout == 0.2
        assert cfg.lr == 0.001
        assert cfg.weight_decay == 1e-5
        assert cfg.batch_size == 512
        assert cfg.pretrain_epochs == 200
        assert cfg.decoder_epochs == 100
        assert cfg.patience == 10
        assert cfg.feature_drop_p == 0.1
        assert cfg.weighted_pretrain is False and cfg.weighted_bce is False

    def test_all_four_variants_valid_and_labelled(self):
        labels = {VariantConfig(weighted_pretrain=wp, weighted_bce=wb).variant_label
                  for wp in (False, True) for wb in (False, True)}
        assert labels == {"wp_wb", "wp_nwb", "nwp_wb", "nwp_nwb"}

    def test_invalid_balance_rejected(self):
        with pytest.raises(ValidationError):
            VariantConfig(loss_balance=-0.1)

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("dropout", 1.0), ("dropout", -0.1), ("hits_k", 0),
        ("edge_keep_prob", 0.0), ("edge_keep_prob", 1.5), ("lr", 0.0),
        ("lr", -1.0), ("lr", float("nan")), ("tau", 2.0), ("tau", -0.1),
        ("feature_drop_p", 1.0), ("weight_decay", -1e-5),
        ("pretrain_epochs", -1), ("decoder_epochs", 0), ("patience", -1),
        ("hidden_dim", 0), ("output_dim", 0), ("input_dim", 0),
        ("decoder_hidden_dims", (16, 0)), ("unk_substitution_rate", 1.5),
        ("weighted_pretrain", "false"),
        ("lr", math.inf), ("weight_decay", math.inf), ("decoder_hidden_dims", ()),
        ("lr", True), ("hidden_dim", 2.5), ("decoder_hidden_dims", (8.5,)),
        ("tau", "0.99"), ("weighted_bce", 1), ("hits_k", np.float64(5.0)),
        ("decoder_hidden_dims", [8, True]), ("decoder_hidden_dims", "8,4"),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            VariantConfig(**{field: value})

    def test_boundary_values_accepted(self):
        VariantConfig(pretrain_epochs=0, tau=0.0, dropout=0.0, edge_keep_prob=1.0,
                      unk_substitution_rate=0.0, patience=0, weight_decay=0.0,
                      batch_size=1, hits_k=1)

    def test_numpy_and_list_values_are_stored_as_python_values(self):
        """An int is also a float, numpy integers included, and a list of
        widths is a tuple; the config a manifest records stays JSON."""
        cfg = VariantConfig(tau=1, lr=np.int64(1), dropout=np.float32(0.5),
                            hidden_dim=np.int32(8), decoder_hidden_dims=[np.int64(4), 2])
        values = (cfg.tau, cfg.lr, cfg.dropout, cfg.hidden_dim, cfg.decoder_hidden_dims)
        assert values == (1, 1, 0.5, 8, (4, 2))
        assert [type(v) for v in values] == [int, int, float, int, tuple]
        json.dumps(dataclasses.asdict(cfg))


class TestEpochInputs:
    @pytest.mark.parametrize("skew,overrides", [
        (1, {}), (50, {"weighted_pretrain": True}), (1, {"unk_substitution_rate": 0.0}),
    ], ids=["default", "skew-50-weighted", "unk-rate-0"])
    def test_equal_to_parent_inline_block(self, tmp_path, skew, overrides):
        paths = write_dataset(SyntheticSpec(seed=7, weight_skew=skew), tmp_path)
        g = chronological_split(load_graph(paths["edges"], paths["u_features"],
                                           paths["v_features"])).train
        cfg = VariantConfig(**overrides)
        pairs = aggregate_pairs(g.edges, g.n_v, use_weights=cfg.weighted_pretrain)
        for epoch in range(3):
            *views_adjs, dropout_seed, unk_rows = training.epoch_inputs(
                g, pairs, cfg, 42, epoch)
            *want_views_adjs, want_seed, want_rows = epoch_inputs_oracle(g, cfg, 42, epoch)
            for view, want in zip(views_adjs[:3], want_views_adjs[:3]):
                for name in ("x_u", "x_v", "edge_u", "edge_v", "edge_w"):
                    np.testing.assert_array_equal(getattr(view, name), getattr(want, name))
            for adj, want in zip(views_adjs[3:], want_views_adjs[3:]):
                assert adj.shape == want.shape
                for name in ("data", "indices", "indptr"):
                    np.testing.assert_array_equal(getattr(adj, name), getattr(want, name))
            assert dropout_seed == want_seed
            if want_rows is None:
                assert unk_rows.size == 0
            else:
                np.testing.assert_array_equal(unk_rows, want_rows)
        assert (want_rows is None) == (cfg.unk_substitution_rate == 0)


class TestPretrain:
    def test_two_epoch_traces_replay_identically(self):
        split = small_split()
        cfg = VariantConfig(pretrain_epochs=2, **SMALL)
        _, trace_a = pretrain(split, cfg, seed=42)
        _, trace_b = pretrain(split, cfg, seed=42)
        assert trace_a == trace_b

    def test_different_seeds_differ(self):
        split = small_split()
        cfg = VariantConfig(pretrain_epochs=2, **SMALL)
        _, a = pretrain(split, cfg, seed=1)
        _, b = pretrain(split, cfg, seed=2)
        assert a != b

    def test_empty_train_graph_rejected(self):
        split = small_split()
        split = TemporalSplit(split.train.with_edges(EdgeArray([], [], [], [])),
                              split.val_edges, split.test_edges)
        with pytest.raises(ValidationError, match="empty train graph"):
            pretrain(split, VariantConfig(pretrain_epochs=1, **SMALL), seed=1)

    def test_collapse_run_drives_loss_to_minus_one(self):
        """With identical views (no masking, keep-all), tau=0 and the
        attractive term alone, alignment collapses and the loss approaches
        its -1 lower bound."""
        split = small_split(seed=3, m=60)
        cfg = VariantConfig(loss_balance=0.0, tau=0.0, feature_drop_p=0.0,
                            edge_keep_prob=1.0, dropout=0.0,
                            unk_substitution_rate=0.0, pretrain_epochs=200,
                            lr=0.01, **SMALL)
        _, trace = pretrain(split, cfg, seed=1)
        values = [t["total"] for t in trace]
        assert values[0] > -0.5
        assert min(values) < -0.95
        assert values[-1] < -0.9

    def test_weight_flag_irrelevant_on_unit_weights(self):
        # distinct pairs, so collapsed weights are all exactly 1
        rng = np.random.default_rng(4)
        pairs = set()
        while len(pairs) < 60:
            pairs.add((int(rng.integers(0, 10)), int(rng.integers(0, 10))))
        edges = [(u, v, 1.0, i) for i, (u, v) in enumerate(sorted(pairs))]
        split = chronological_split(make_graph(10, 10, edges, d_u=5, d_v=6))
        base = dict(pretrain_epochs=3, **SMALL)
        _, on = pretrain(split, VariantConfig(weighted_pretrain=True, **base), seed=5)
        _, off = pretrain(split, VariantConfig(weighted_pretrain=False, **base), seed=5)
        assert on == off

    def test_unweighted_pretraining_ignores_edge_weights(self):
        # aggregate_pairs is the one site that drops weights, so the skewed
        # graph and its unit-weight copy must train the same encoder
        rng = np.random.default_rng(6)
        events = [(int(rng.integers(0, 10)), int(rng.integers(0, 10)),
                   float(rng.choice([1.0, 50.0])), t) for t in range(80)]
        skewed, unit = (chronological_split(make_graph(
            10, 10, [(u, v, w if keep else 1.0, t) for u, v, w, t in events],
            d_u=5, d_v=6)) for keep in (True, False))
        assert len(set(skewed.train.edges.w)) == 2
        cfg = VariantConfig(pretrain_epochs=3, **SMALL)
        state_s, trace_s = pretrain(skewed, cfg, seed=5)
        state_u, trace_u = pretrain(unit, cfg, seed=5)
        assert state_checksum(state_s) == state_checksum(state_u)
        assert trace_s == trace_u
        _, weighted = pretrain(skewed, cfg.replace(weighted_pretrain=True), seed=5)
        assert weighted != trace_s

    def test_unk_substitution_trains_the_loss_facing_row(self):
        """With weight decay off, any UNK movement is loss-driven: the U row,
        which feeds the one-directional objective, trains."""
        split = small_split(seed=6)
        cfg = VariantConfig(pretrain_epochs=5, unk_substitution_rate=0.2,
                            weight_decay=0.0, **SMALL)
        init = pretrain(split, cfg.replace(pretrain_epochs=0), seed=7)[0]
        state, _ = pretrain(split, cfg, seed=7)
        assert not np.allclose(state.online["encoder.unk_u"].data,
                               init.online["encoder.unk_u"].data)

    def test_every_online_parameter_receives_gradient(self, monkeypatch):
        split = small_split(seed=6)
        cfg = VariantConfig(pretrain_epochs=1, unk_substitution_rate=0.2, **SMALL)
        grad_maps = []
        real_adam_step = training.adam_step

        def recording_adam_step(params, *args):
            grad_maps.append({name: p.grad.copy() for name, p in params.items()})
            return real_adam_step(params, *args)

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        state, _ = pretrain(split, cfg, seed=7)
        (grad_map,) = grad_maps
        for name, p in state.online.items():
            assert name in grad_map and np.any(grad_map[name] != 0), name

    def test_target_holds_what_target_rows_reads(self):
        class ReadLog(dict):
            def __getitem__(self, name):
                self.read.add(name)
                return super().__getitem__(name)

        split = small_split(seed=6)
        cfg = VariantConfig(pretrain_epochs=1, **SMALL)
        state, _ = pretrain(split, cfg, seed=7)
        target = ReadLog(state.target)
        target.read = set()
        g = split.train
        adj = normalized_adjacency(g.n_u, g.n_v, g.edges.u, g.edges.v, g.edges.w)
        rows = training._target_rows(ModelState(state.online, target),
                                     adj, g.x_u, g.x_v)
        assert rows.shape == (g.n_v, cfg.output_dim)
        assert target.read == set(state.target)
        assert list(state.target) == [name for name in state.online
                                      if name.startswith("encoder.") and "unk" not in name]

    def test_nonfinite_loss_aborts_with_epoch(self):
        split = small_split(seed=8)
        cfg = VariantConfig(pretrain_epochs=2, lr=1e30, **SMALL)
        with np.errstate(all="ignore"):
            with pytest.raises(Exception, match="epoch|non-finite"):
                pretrain(split, cfg, seed=9)

    def test_nan_in_one_op_is_named_through_the_replay(self, monkeypatch):
        """A NaN put into each PReLU output of epoch 2 passes the unchecked
        forward, trips a later check, and the checked replay of the epoch
        names the op; epoch 2 makes no EMA update and builds its inputs
        once."""
        split = small_split(seed=6)
        cfg = VariantConfig(pretrain_epochs=4, **SMALL)
        epochs_done, injected, inputs_built = [], [], []
        real_ema, real_apply, real_inputs = (training.ema_update, ad._apply,
                                             training.epoch_inputs)

        def counting_ema(state, tau):
            epochs_done.append(len(epochs_done))
            return real_ema(state, tau)

        def injecting_apply(op, out, parents, backward_fn):
            if op == "prelu" and len(epochs_done) == 2:
                out = out.copy()
                out[0, 0] = np.nan
                injected.append(getattr(ad._local, "check_finite", True))
            return real_apply(op, out, parents, backward_fn)

        def counting_inputs(g, pairs, cfg, seed, epoch):
            inputs_built.append(epoch)
            return real_inputs(g, pairs, cfg, seed, epoch)

        monkeypatch.setattr(training, "ema_update", counting_ema)
        monkeypatch.setattr(training, "epoch_inputs", counting_inputs)
        monkeypatch.setattr(ad, "_apply", injecting_apply)
        with pytest.raises(FloatingPointError, match=r"prelu \(pretraining epoch 2\)"):
            pretrain(split, cfg, seed=7)
        assert epochs_done == [0, 1]
        assert inputs_built == [0, 1, 2]  # the replay reuses epoch 2's inputs
        assert injected[0] is False and injected[-1] is True

    def test_default_epoch_products_have_reordered_shapes(self, monkeypatch, tmp_path):
        """One default-shape epoch: conv1 meets only the stacked projections
        (d_u + d_v + 2 rows), no product of all nodes has inner dimension
        input_dim, and the last layer computes n_u rows online and n_v rows
        for each target forward."""
        paths = write_dataset(SyntheticSpec(seed=7), tmp_path)
        split = chronological_split(load_graph(paths["edges"], paths["u_features"],
                                               paths["v_features"]))
        cfg = VariantConfig(pretrain_epochs=1)
        g = split.train
        n_u, n_v, n = g.n_u, g.n_v, g.n_u + g.n_v
        width = g.x_u.shape[1] + g.x_v.shape[1] + 2
        states, dense, sparse = [], [], []
        real_init, real_matmul, real_sparse = (training.init_model_state, ad.matmul,
                                               ad.sparse_dense_matmul)

        def recording_init(*args):
            states.append(real_init(*args))
            return states[-1]

        def recording_matmul(a, b):
            dense.append((a.shape, b))
            return real_matmul(a, b)

        def recording_sparse(adj, h):
            sparse.append((adj.shape, h.shape))
            return real_sparse(adj, h)

        monkeypatch.setattr(training, "init_model_state", recording_init)
        monkeypatch.setattr(ad, "matmul", recording_matmul)
        monkeypatch.setattr(ad, "sparse_dense_matmul", recording_sparse)
        pretrain(split, cfg, seed=42)
        (state,) = states

        def left_shapes(right):
            return [a for a, b in dense if b is right]

        assert not any(a == (n, cfg.input_dim) for a, _ in dense)
        assert (left_shapes(state.online["encoder.conv1"])
                + left_shapes(state.target["encoder.conv1"])) == [(width, cfg.input_dim)] * 3
        assert left_shapes(state.online["encoder.conv2"]) == [(n_u, cfg.hidden_dim)]
        assert left_shapes(state.target["encoder.conv2"]) == [(n_v, cfg.hidden_dim)] * 2
        assert sorted(sparse) == sorted([((n, n), (n, width))] * 3
                                        + [((n_u, n), (n, cfg.hidden_dim))]
                                        + [((n_v, n), (n, cfg.hidden_dim))] * 2)


class TestExtractEmbeddings:
    def _trained(self, split, cfg):
        return pretrain(split, cfg, seed=11)[0]

    @staticmethod
    def _own_feature_rows(state, graph):
        """Every node's embedding when it has no edge, by hand from the
        store: relu([x_u | x_v | 1_U | 1_V] @ P @ conv1) @ conv2 per row,
        with P the stacked projection weights and biases."""
        p = {name: t.data for name, t in state.online.items()}
        proj = np.vstack([p["encoder.proj_u.weight"], p["encoder.proj_v.weight"],
                          p["encoder.proj_u.bias"], p["encoder.proj_v.bias"]])
        rows = [np.concatenate([x, np.zeros(graph.x_v.shape[1]), [1.0, 0.0]])
                for x in graph.x_u]
        rows += [np.concatenate([np.zeros(graph.x_u.shape[1]), x, [0.0, 1.0]])
                 for x in graph.x_v]
        h = np.maximum(np.array(rows) @ proj @ p["encoder.conv1"], 0.0) @ p["encoder.conv2"]
        return h[:graph.n_u], h[graph.n_u:]

    def test_nodes_without_train_edges_embed_from_own_features(self):
        # nodes u=9 and v=9 never appear in the train era
        edges = [(i % 8, i % 9, 1.0, i) for i in range(40)]
        edges.append((9, 9, 1.0, 1000))  # only in the test era
        split = chronological_split(make_graph(10, 10, edges, d_u=5, d_v=6))
        assert 9 not in split.train.edges.u and 9 not in split.train.edges.v
        cfg = VariantConfig(pretrain_epochs=2, **SMALL)
        state = self._trained(split, cfg)
        emb_u, emb_v = extract_embeddings(state, split.train, cfg)
        own_u, own_v = self._own_feature_rows(state, split.train)
        np.testing.assert_allclose(emb_u[9], own_u[9], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(emb_v[9], own_v[9], rtol=1e-12, atol=1e-12)
        assert not np.allclose(emb_u[0], own_u[0])  # u=0 has edges

    def test_graph_without_edges_embeds_every_node_from_own_features(self):
        split = small_split(seed=10)
        cfg = VariantConfig(pretrain_epochs=1, **SMALL)
        state = self._trained(split, cfg)
        empty = split.train.with_edges(EdgeArray([], [], [], []))
        emb_u, emb_v = extract_embeddings(state, empty, cfg)
        own_u, own_v = self._own_feature_rows(state, empty)
        np.testing.assert_allclose(emb_u, own_u, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(emb_v, own_v, rtol=1e-12, atol=1e-12)

    def test_repeated_extraction_bit_identical(self):
        split = small_split(seed=12)
        cfg = VariantConfig(pretrain_epochs=2, **SMALL)
        state = self._trained(split, cfg)
        a_u, a_v = extract_embeddings(state, split.train, cfg)
        b_u, b_v = extract_embeddings(state, split.train, cfg)
        np.testing.assert_array_equal(a_u, b_u)
        np.testing.assert_array_equal(a_v, b_v)

    def test_train_vs_full_history_differ_for_nodes_gaining_edges(self):
        from bilink.graph import merge_graphs

        split = small_split(seed=13, m=60)
        cfg = VariantConfig(pretrain_epochs=2, **SMALL)
        state = self._trained(split, cfg)
        train_u, _ = extract_embeddings(state, split.train, cfg)
        graph_tv = merge_graphs(split.train, split.val_edges)
        tv_u, _ = extract_embeddings(state, graph_tv, cfg)
        gained = np.unique(split.val_edges.u)
        assert any(not np.allclose(train_u[u], tv_u[u]) for u in gained)

    def test_arrays_are_read_only(self):
        split = small_split(seed=14)
        cfg = VariantConfig(pretrain_epochs=1, **SMALL)
        emb_u, emb_v = extract_embeddings(self._trained(split, cfg), split.train, cfg)
        assert emb_u.base is emb_v.base  # views of one array
        for rows in (emb_u, emb_v):
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0


class TestDecoderLoss:
    def test_unit_weight_logit_zero_is_ln2(self):
        loss = ad.bce_with_logits(Tensor([[0.0]]), np.array([[1.0]]),
                                  np.array([[1.0]]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_weight_two_doubles_the_loss(self):
        loss = ad.bce_with_logits(Tensor([[0.0]]), np.array([[1.0]]),
                                  np.array([[2.0]]))
        assert loss.item() == pytest.approx(2 * math.log(2.0), abs=1e-12)
        assert loss.item() == pytest.approx(1.3863, abs=1e-4)

    def test_weighted_flag_vanishes_on_unit_weights(self):
        pos = np.array([[0, 0], [1, 1]])
        neg = np.array([[0, 1], [1, 0]])
        w = np.ones(2)
        a = decoder_bce_examples(pos, w, neg, weighted_bce=True)
        b = decoder_bce_examples(pos, w, neg, weighted_bce=False)
        np.testing.assert_array_equal(a[2], b[2])

    def test_negatives_always_weight_one(self):
        pos = np.array([[0, 0]])
        neg = np.array([[0, 1], [1, 0]])
        _, labels, weights = decoder_bce_examples(pos, np.array([7.0]), neg, True)
        np.testing.assert_array_equal(weights, [7.0, 1.0, 1.0])
        np.testing.assert_array_equal(labels, [1.0, 0.0, 0.0])


class TestTrainDecoder:
    def _setup(self, seed=20, cfg=None):
        split = small_split(seed=seed, n_u=15, n_v=15, m=150)
        cfg = cfg or VariantConfig(pretrain_epochs=3, decoder_epochs=40, **SMALL)
        state, _ = pretrain(split, cfg, seed=1)
        emb = extract_embeddings(state, split.train, cfg)
        from bilink.graph import aggregate_pairs

        vu, vv, vw = aggregate_pairs(split.val_edges, split.train.n_v, True)
        positives = np.stack([vu, vv], axis=1)
        negatives = sample_negatives(split, 5 * len(positives), rng_seed=3)
        return split, cfg, state, emb, positives, vw, negatives

    def test_early_stopping_within_patience_of_best(self):
        split, cfg, state, emb, pos, w, neg = self._setup()
        dec, record = train_decoder(emb, pos, w, neg, cfg, seed=2)
        assert set(record) == {"best_epoch", "best_monitor_score", "epochs_run",
                               "monitor_metric", "monitor_history",
                               "stopped_at_early_best"}
        assert record["epochs_run"] - 1 - record["best_epoch"] <= cfg.patience
        assert record["best_monitor_score"] == max(record["monitor_history"])
        assert (record["monitor_history"][record["best_epoch"]]
                == record["best_monitor_score"])

    def test_best_checkpoint_restored(self):
        split, cfg, state, emb, pos, w, neg = self._setup(seed=21)
        dec, record = train_decoder(emb, pos, w, neg, cfg, seed=4)
        # replay: training again with the same seed returns identical params
        dec2, record2 = train_decoder(emb, pos, w, neg, cfg, seed=4)
        np.testing.assert_array_equal(dec.flat, dec2.flat)
        assert record == record2

    def test_returns_best_monitor_epoch_not_last(self, monkeypatch):
        split, cfg, state, emb, pos, w, neg = self._setup(seed=24)
        scripted = iter([0.2, 0.9, 0.5] + [0.4] * 20)
        seen = []

        def scores(dec, emb_, pairs):
            seen.append(dec.flat.copy())
            return real_scores(dec, emb_, pairs)

        real_scores = training._decoder_scores
        monkeypatch.setattr(training, "_decoder_scores", scores)
        for metric in ("hits_at_k", "roc_auc"):  # whichever the slice size picks
            monkeypatch.setattr(training.mt, metric, lambda *a, **k: next(scripted))
        dec, record = train_decoder(emb, pos, w, neg, cfg.replace(patience=3), seed=7)
        assert record["best_epoch"] == 1 and record["epochs_run"] == 5
        np.testing.assert_array_equal(dec.flat, seen[1])
        assert not np.array_equal(dec.flat, seen[-1])
        for name, p in dec.items():
            assert np.shares_memory(p.data, dec.flat), name

    @pytest.mark.parametrize("script, flagged", [
        ([0.2, 0.9] + [0.4] * 20, True),        # best epoch 1, patience ran out
        ([0.2, 0.3, 0.9] + [0.4] * 20, False),  # best epoch 2
        ([0.1 * i for i in range(1, 30)], False),  # still improving at the last epoch
    ])
    def test_stop_after_early_best_flagged(self, monkeypatch, script, flagged):
        split, cfg, state, emb, pos, w, neg = self._setup(seed=24)
        scripted = iter(script)
        for metric in ("hits_at_k", "roc_auc"):  # whichever the slice size picks
            monkeypatch.setattr(training.mt, metric, lambda *a, **k: next(scripted))
        cfg = cfg.replace(patience=3, decoder_epochs=8)
        _, record = train_decoder(emb, pos, w, neg, cfg, seed=7)
        assert record["stopped_at_early_best"] is flagged

    def test_encoder_untouched_by_decoder_training(self):
        split, cfg, state, emb, pos, w, neg = self._setup(seed=22)
        before = state_checksum(state)
        train_decoder(emb, pos, w, neg, cfg, seed=5)
        assert state_checksum(state) == before

    def test_degenerate_split_rejected(self):
        split, cfg, state, emb, pos, w, neg = self._setup(seed=23)
        with pytest.raises(ValidationError, match="decoder training needs"):
            train_decoder(emb, pos[:1], w[:1], neg, cfg, seed=6)


@pytest.mark.slow
def test_held_out_nodes_score_through_the_encoder(tmp_path):
    """Inductive case: 20 U and 20 V test-era nodes with no train or val
    event. Their rows come from the encoder, so the decoder ranks the test
    pairs that touch them, against complement pairs that also touch them,
    well above chance, and well above the old constant rows (the learned
    UNK row for every unseen U node, the mean known V row for every unseen
    V node) put into the same decoder."""
    paths = write_dataset(SyntheticSpec(seed=7), tmp_path)
    split = chronological_split(load_graph(paths["edges"], paths["u_features"],
                                           paths["v_features"]))
    test = split.test_edges
    rng = np.random.default_rng(0)
    held_u = rng.choice(np.unique(test.u), size=20, replace=False)
    held_v = rng.choice(np.unique(test.v), size=20, replace=False)

    def without_held_out(e):
        keep = ~np.isin(e.u, held_u) & ~np.isin(e.v, held_v)
        return EdgeArray(e.u[keep], e.v[keep], e.w[keep], e.t[keep])

    split = TemporalSplit(split.train.with_edges(without_held_out(split.train.edges)),
                          without_held_out(split.val_edges), test)
    cfg = VariantConfig()
    (result,) = run_seed(split, [cfg], 42, tmp_path / "run")
    state, _ = load_model_state(tmp_path / "run" / "seed_42" / "model.npz")
    dec, _ = load_decoder(tmp_path / "run" / "seed_42" / "decoder.npz")
    n_u, n_v = split.train.n_u, split.train.n_v

    tu, tv, _ = aggregate_pairs(test, n_v, use_weights=False)
    assert result["eval_info"]["n_test_positives_new_u"] == np.isin(tu, held_u).sum() > 0
    assert result["eval_info"]["n_test_positives_new_v"] == np.isin(tv, held_v).sum() > 0

    touches = np.isin(tu, held_u) | np.isin(tv, held_v)
    positives = np.stack([tu[touches], tv[touches]], axis=1)
    grid_u, grid_v = np.divmod(np.arange(n_u * n_v), n_v)
    free = ((np.isin(grid_u, held_u) | np.isin(grid_v, held_v))
            & ~np.isin(grid_u * n_v + grid_v, tu * n_v + tv))
    pick = rng.choice(np.flatnonzero(free), size=3 * len(positives), replace=False)
    pairs = np.vstack([positives, np.stack([grid_u[pick], grid_v[pick]], axis=1)])
    labels = np.concatenate([np.ones(len(positives)), np.zeros(len(pick))])

    graph_tv = merge_graphs(split.train, split.val_edges)
    emb = extract_embeddings(state, graph_tv, cfg)
    known_u = np.isin(np.arange(n_u), graph_tv.edges.u)
    known_v = np.isin(np.arange(n_v), graph_tv.edges.v)
    assert not known_u[held_u].any() and known_u.sum() == n_u - len(held_u)
    assert not known_v[held_v].any() and known_v.sum() == n_v - len(held_v)
    emb_u, emb_v = emb
    constant_rows = (np.where(known_u[:, None], emb_u, state.online["encoder.unk_u"].data),
                     np.where(known_v[:, None], emb_v, emb_v[known_v].mean(axis=0)))

    scores = training._decoder_scores(dec, emb, pairs)
    assert np.isfinite(scores).all() and ((scores > 0) & (scores < 1)).all()
    auc = mt.roc_auc(scores, labels)
    auc_constant = mt.roc_auc(training._decoder_scores(dec, constant_rows, pairs), labels)
    print(f"held-out pairs: roc_auc {auc:.4f}, with constant rows {auc_constant:.4f}")
    assert auc >= 0.65 and auc >= auc_constant + 0.1
    assert result["metrics"]["roc_auc"] > 0.55


class TestFullRunInvariants:
    def test_run_seed_deterministic(self):
        split = small_split(seed=30, n_u=15, n_v=15, m=150)
        cfg = VariantConfig(pretrain_epochs=3, decoder_epochs=10, **SMALL)
        (a,) = run_seed(split, [cfg], 42)
        (b,) = run_seed(split, [cfg], 42)
        assert a["metrics"] == b["metrics"]
        assert a["pretrain_trace"] == b["pretrain_trace"]
        assert a["decoder"]["monitor_history"] == b["decoder"]["monitor_history"]

    def test_variant_collapse_on_unit_weights(self):
        """All four weighting variants are bit-identical when every
        collapsed edge weight is 1."""
        rng = np.random.default_rng(31)
        pairs = set()
        while len(pairs) < 120:
            pairs.add((int(rng.integers(0, 15)), int(rng.integers(0, 15))))
        edges = [(u, v, 1.0, i) for i, (u, v) in enumerate(sorted(pairs))]
        split = chronological_split(make_graph(15, 15, edges, d_u=5, d_v=6))
        base = dict(pretrain_epochs=3, decoder_epochs=10, **SMALL)
        results = []
        for wp in (False, True):
            for wb in (False, True):
                cfg = VariantConfig(weighted_pretrain=wp, weighted_bce=wb, **base)
                results += run_seed(split, [cfg], 42)
        first = results[0]
        for other in results[1:]:
            assert other["metrics"] == first["metrics"]
            assert other["pretrain_trace"] == first["pretrain_trace"]

    def test_checksums_recorded_and_equal(self):
        split = small_split(seed=32, n_u=15, n_v=15, m=150)
        cfg = VariantConfig(pretrain_epochs=2, decoder_epochs=5, **SMALL)
        (result,) = run_seed(split, [cfg], 42)
        assert (result["encoder_checksum_before_decoder"]
                == result["encoder_checksum_after_decoder"])

    def test_phase2_sizes_follow_the_split(self):
        """Five pool negatives per distinct validation-era pair, capped by
        the complement, and one test negative per distinct test-era pair,
        the count the run's evaluation samples."""
        split = small_split(seed=34, n_u=15, n_v=15, m=150)
        n_val, n_test = (len(aggregate_pairs(e, 15, False)[0])
                         for e in (split.val_edges, split.test_edges))
        free = 15 * 15 - len(split.pair_keys())
        assert training.phase2_sizes(split) == (min(5 * n_val, free), n_test)
        cfg = VariantConfig(pretrain_epochs=1, decoder_epochs=2, **SMALL)
        (result,) = run_seed(split, [cfg], 42)
        assert result["eval_info"]["n_test_negatives"] == n_test

    @pytest.mark.parametrize("n_u,n_v,events,error", SHORT_COMPLEMENTS,
                             ids=["no-pool", "too-few-test-negatives"])
    def test_phase2_sizes_reject_a_short_complement(self, n_u, n_v, events, error):
        split = chronological_split(make_graph(n_u, n_v, events))
        with pytest.raises(ValidationError, match=error):
            training.phase2_sizes(split)

    def test_score_eval_counts_and_flags(self):
        split = small_split(seed=33, n_u=15, n_v=15, m=150)
        cfg = VariantConfig(pretrain_epochs=2, decoder_epochs=5, **SMALL)
        state, _ = pretrain(split, cfg, seed=1)
        emb = extract_embeddings(state, split.train, cfg)
        from bilink.graph import aggregate_pairs

        vu, vv, vw = aggregate_pairs(split.val_edges, split.train.n_v, True)
        neg = sample_negatives(split, 40, rng_seed=9)
        dec, _ = train_decoder(emb, np.stack([vu, vv], axis=1), vw, neg, cfg, seed=2)
        metrics, info = score_eval(dec, eval_inputs(state, split, cfg, seed=42), cfg)
        assert info["n_test_negatives"] == info["n_test_positives"]
        assert set(metrics) == {"roc_auc", "average_precision", "hits_at_k",
                                "precision", "recall", "f1"}

    def test_eval_inputs_count_pairs_of_new_nodes(self):
        # u=9 and v=9 have events only in the test era
        edges = [(i % 8, i % 9, 1.0, i) for i in range(60)]
        edges += [(9, 0, 1.0, 100), (9, 9, 1.0, 101), (1, 9, 1.0, 102)]
        split = chronological_split(make_graph(10, 10, edges, d_u=5, d_v=6))
        cfg = VariantConfig(pretrain_epochs=1, **SMALL)
        state, _ = pretrain(split, cfg, seed=1)
        *_, info = eval_inputs(state, split, cfg, seed=42)
        seen_u = set(split.train.edges.u.tolist()) | set(split.val_edges.u.tolist())
        seen_v = set(split.train.edges.v.tolist()) | set(split.val_edges.v.tolist())
        test_pairs = set(zip(split.test_edges.u.tolist(), split.test_edges.v.tolist()))
        assert info["n_test_positives"] == len(test_pairs)
        assert info["n_test_positives_new_u"] == sum(u not in seen_u for u, _ in test_pairs) == 2
        assert info["n_test_positives_new_v"] == sum(v not in seen_v for _, v in test_pairs) == 2
