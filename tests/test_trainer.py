import math

import numpy as np
import pytest

from bilink import autodiff as ad
from bilink import training
from bilink.autodiff import Tensor
from bilink.errors import ValidationError
from bilink.graph import (EdgeArray, TemporalSplit, chronological_split, load_graph,
                          merge_graphs, normalized_adjacency, sample_negatives)
from bilink.model import ModelState, state_checksum
from bilink.pipeline import run_seed
from bilink.synthetic import SyntheticSpec, write_dataset
from bilink.training import (VariantConfig, decoder_bce_examples, evaluate_final,
                             extract_embeddings, pretrain, train_decoder)
from util import make_graph

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
        ("eval_negative_ratio", 0.0), ("decoder_monitor_fraction", 1.0),
        ("decoder_negative_pool_factor", 0.0),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            VariantConfig(**{field: value})

    def test_boundary_values_accepted(self):
        VariantConfig(pretrain_epochs=0, tau=0.0, dropout=0.0, edge_keep_prob=1.0,
                      unk_substitution_rate=0.0, patience=0, weight_decay=0.0,
                      batch_size=1, hits_k=1)


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

        def recording_adam_step(params, grad_map, *args):
            grad_maps.append(grad_map)
            return real_adam_step(params, grad_map, *args)

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        state, _ = pretrain(split, cfg, seed=7)
        (grad_map,) = grad_maps
        for name, p in state.online.items():
            assert p in grad_map and np.any(grad_map[p] != 0), name

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
        rows = training._target_rows(ModelState(state.online, target, state.tau),
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


class TestExtractEmbeddings:
    def _trained(self, split, cfg):
        return pretrain(split, cfg, seed=11)[0]

    def test_nodes_without_train_edges_get_unk_row(self):
        # node u=9 never appears in the train era
        edges = [(i % 8, i % 9, 1.0, i) for i in range(40)]
        edges.append((9, 9, 1.0, 1000))  # only in the test era
        split = chronological_split(make_graph(10, 10, edges, d_u=5, d_v=6))
        assert 9 not in split.train.edges.u
        cfg = VariantConfig(pretrain_epochs=2, **SMALL)
        state = self._trained(split, cfg)
        emb = extract_embeddings(state, split.train, cfg, "train")
        assert not emb.known_u[9]
        np.testing.assert_array_equal(emb.emb_u[9],
                                      state.online["encoder.unk_u"].data[0])

    def test_graph_without_edges_rejected(self):
        # every V row would take the mean of no known rows
        split = small_split(seed=10)
        cfg = VariantConfig(pretrain_epochs=1, **SMALL)
        state = self._trained(split, cfg)
        empty = split.train.with_edges(EdgeArray([], [], [], []))
        with pytest.raises(ValidationError, match="no edges"):
            extract_embeddings(state, empty, cfg, "empty")

    def test_repeated_extraction_bit_identical(self):
        split = small_split(seed=12)
        cfg = VariantConfig(pretrain_epochs=2, **SMALL)
        state = self._trained(split, cfg)
        a = extract_embeddings(state, split.train, cfg, "train")
        b = extract_embeddings(state, split.train, cfg, "train")
        np.testing.assert_array_equal(a.emb_u, b.emb_u)
        np.testing.assert_array_equal(a.emb_v, b.emb_v)

    def test_train_vs_full_history_differ_for_nodes_gaining_edges(self):
        from bilink.graph import merge_graphs

        split = small_split(seed=13, m=60)
        cfg = VariantConfig(pretrain_epochs=2, **SMALL)
        state = self._trained(split, cfg)
        emb_train = extract_embeddings(state, split.train, cfg, "train")
        graph_tv = merge_graphs(split.train, split.val_edges)
        emb_tv = extract_embeddings(state, graph_tv, cfg, "train+val")
        gained = np.unique(split.val_edges.u)
        assert any(not np.allclose(emb_train.emb_u[u], emb_tv.emb_u[u])
                   for u in gained)
        assert emb_train.provenance == "train"
        assert emb_tv.provenance == "train+val"

    def test_arrays_are_read_only(self):
        split = small_split(seed=14)
        cfg = VariantConfig(pretrain_epochs=1, **SMALL)
        emb = extract_embeddings(self._trained(split, cfg), split.train, cfg, "train")
        with pytest.raises(ValueError):
            emb.emb_u[0, 0] = 1.0


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
        emb = extract_embeddings(state, split.train, cfg, "train")
        from bilink.graph import aggregate_pairs

        vu, vv, vw = aggregate_pairs(split.val_edges, split.train.n_v, True)
        positives = np.stack([vu, vv], axis=1)
        negatives = sample_negatives(split, 5 * len(positives), rng_seed=3)
        return split, cfg, state, emb, positives, vw, negatives

    def test_early_stopping_within_patience_of_best(self):
        split, cfg, state, emb, pos, w, neg = self._setup()
        dec, record = train_decoder(emb, pos, w, neg, cfg, seed=2)
        assert record.epochs_run - 1 - record.best_epoch <= cfg.patience
        assert record.best_score == max(record.monitor_history)
        assert record.monitor_history[record.best_epoch] == record.best_score

    def test_best_checkpoint_restored(self):
        split, cfg, state, emb, pos, w, neg = self._setup(seed=21)
        dec, record = train_decoder(emb, pos, w, neg, cfg, seed=4)
        # replay: training again with the same seed returns identical params
        dec2, record2 = train_decoder(emb, pos, w, neg, cfg, seed=4)
        np.testing.assert_array_equal(dec.flat, dec2.flat)
        assert record.best_epoch == record2.best_epoch

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
        assert record.best_epoch == 1 and record.epochs_run == 5
        np.testing.assert_array_equal(dec.flat, seen[1])
        assert not np.array_equal(dec.flat, seen[-1])
        for name, p in dec.items():
            assert np.shares_memory(p.data, dec.flat), name

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
def test_held_out_nodes_score_through_fallback_rows(tmp_path):
    """Inductive case: U and V nodes with no train or val event. Held-out V
    rows are the mean of the known V rows, held-out U rows the learned UNK
    row, and the run still scores above the no-signal control band."""
    paths = write_dataset(SyntheticSpec(seed=7), tmp_path)
    split = chronological_split(load_graph(paths["edges"], paths["u_features"],
                                           paths["v_features"]))
    test = split.test_edges
    rng = np.random.default_rng(0)
    held_u = rng.choice(np.unique(test.u), size=5, replace=False)
    held_v = rng.choice(np.unique(test.v), size=5, replace=False)

    def without_held_out(e):
        keep = ~np.isin(e.u, held_u) & ~np.isin(e.v, held_v)
        return EdgeArray(e.u[keep], e.v[keep], e.w[keep], e.t[keep])

    split = TemporalSplit(split.train.with_edges(without_held_out(split.train.edges)),
                          without_held_out(split.val_edges), test)
    cfg = VariantConfig()
    result = run_seed(split, cfg, 42)
    state, dec = result["_state"], result["_decoder"]

    emb = extract_embeddings(state, merge_graphs(split.train, split.val_edges), cfg,
                             "train+val")
    assert not emb.known_u[held_u].any() and not emb.known_v[held_v].any()
    assert emb.known_u.sum() == split.train.n_u - len(held_u)
    assert emb.known_v.sum() == split.train.n_v - len(held_v)
    unk_u = state.online["encoder.unk_u"].data[0]
    for u in held_u:
        np.testing.assert_array_equal(emb.emb_u[u], unk_u)
    mean_v = emb.emb_v[emb.known_v].mean(axis=0)
    for v in held_v:
        np.testing.assert_array_equal(emb.emb_v[v], mean_v)

    touching = np.isin(test.u, held_u) | np.isin(test.v, held_v)
    pairs = np.stack([test.u[touching], test.v[touching]], axis=1)
    assert np.isin(held_u, pairs[:, 0]).all() and np.isin(held_v, pairs[:, 1]).all()
    scores = training._decoder_scores(dec, emb, pairs)
    assert np.isfinite(scores).all() and ((scores > 0) & (scores < 1)).all()
    assert result["metrics"]["roc_auc"] > 0.55


class TestFullRunInvariants:
    def test_run_seed_deterministic(self):
        split = small_split(seed=30, n_u=15, n_v=15, m=150)
        cfg = VariantConfig(pretrain_epochs=3, decoder_epochs=10, **SMALL)
        a = run_seed(split, cfg, 42)
        b = run_seed(split, cfg, 42)
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
                results.append(run_seed(split, cfg, 42))
        first = results[0]
        for other in results[1:]:
            assert other["metrics"] == first["metrics"]
            assert other["pretrain_trace"] == first["pretrain_trace"]

    def test_checksums_recorded_and_equal(self):
        split = small_split(seed=32, n_u=15, n_v=15, m=150)
        cfg = VariantConfig(pretrain_epochs=2, decoder_epochs=5, **SMALL)
        result = run_seed(split, cfg, 42)
        assert (result["encoder_checksum_before_decoder"]
                == result["encoder_checksum_after_decoder"])

    def test_evaluate_final_counts_and_flags(self):
        split = small_split(seed=33, n_u=15, n_v=15, m=150)
        cfg = VariantConfig(pretrain_epochs=2, decoder_epochs=5, **SMALL)
        state, _ = pretrain(split, cfg, seed=1)
        emb = extract_embeddings(state, split.train, cfg, "train")
        from bilink.graph import aggregate_pairs

        vu, vv, vw = aggregate_pairs(split.val_edges, split.train.n_v, True)
        neg = sample_negatives(split, 40, rng_seed=9)
        dec, _ = train_decoder(emb, np.stack([vu, vv], axis=1), vw, neg, cfg, seed=2)
        metrics, info = evaluate_final(state, split, dec, cfg, seed=42)
        assert info["n_test_negatives"] == info["n_test_positives"]
        assert set(metrics) == {"roc_auc", "average_precision", "hits_at_k",
                                "precision", "recall", "f1"}
        _, info2 = evaluate_final(state, split, dec,
                                  cfg.replace(eval_negative_ratio=2.0), seed=42)
        assert info2["n_test_negatives"] == 2 * info2["n_test_positives"]
