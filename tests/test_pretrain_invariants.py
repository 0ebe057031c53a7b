"""What `pretrain` wires into its loss, checked against a per-edge oracle, and
metamorphic properties of the encoder: edge-row order within a timestamp,
event splitting and node relabeling. All on the skew-50 planted set (dataset
seed 7, 200 x 300 nodes, 4000 events) at the default widths."""

from pathlib import Path

import numpy as np
import pytest

from bilink.graph import (BipartiteGraph, EdgeArray, TemporalSplit,
                          chronological_split, load_graph)
from bilink.model import init_model_state, state_checksum
from bilink.rng import rng_for
from bilink.synthetic import SyntheticSpec, write_dataset
from bilink.training import VariantConfig, extract_embeddings, pretrain
from util import pretrain_epoch0_loss_oracle


@pytest.fixture(scope="module")
def skew50_paths(tmp_path_factory):
    return write_dataset(SyntheticSpec(weight_skew=50, seed=7),
                         tmp_path_factory.mktemp("skew50"))


@pytest.fixture(scope="module")
def skew50(skew50_paths):
    return chronological_split(load_graph(skew50_paths["edges"], skew50_paths["u_features"],
                                          skew50_paths["v_features"]))


def _checksum(split, cfg):
    return state_checksum(pretrain(split, cfg, 42)[0])


@pytest.mark.parametrize("weighted", [True, False])
def test_epoch_0_loss_terms_match_the_per_edge_oracle(skew50, weighted):
    cfg = VariantConfig(weighted_pretrain=weighted, pretrain_epochs=1)
    assert cfg.unk_substitution_rate > 0  # UNK rows are swapped in
    _, trace = pretrain(skew50, cfg, 42)
    attractive, repulsive = pretrain_epoch0_loss_oracle(skew50.train, cfg, 42)
    assert trace[0]["attractive"] == pytest.approx(attractive, rel=1e-12)
    assert trace[0]["repulsive"] == pytest.approx(repulsive, rel=1e-12)
    assert trace[0]["total"] == pytest.approx(
        cfg.loss_balance * repulsive + (1 - cfg.loss_balance) * attractive, rel=1e-12)


def test_edge_rows_reordered_within_timestamps_train_the_same_encoder(
        skew50_paths, skew50, tmp_path):
    lines = Path(skew50_paths["edges"]).read_text(encoding="utf-8").splitlines(keepends=True)
    header, rows = lines[0], lines[1:]
    times = np.array([int(row.rsplit(",", 1)[1]) for row in rows])
    order = np.random.default_rng(0).permutation(len(rows))
    for t in np.unique(times):  # each timestamp's rows keep their order
        at = np.flatnonzero(times[order] == t)
        order[at] = np.sort(order[at])
    assert (order != np.arange(len(rows))).any()
    edges = tmp_path / "edges.csv"
    edges.write_text(header + "".join(rows[i] for i in order), encoding="utf-8")
    shuffled = chronological_split(load_graph(edges, skew50_paths["u_features"],
                                              skew50_paths["v_features"]))
    for weighted in (False, True):
        cfg = VariantConfig(weighted_pretrain=weighted, pretrain_epochs=20)
        assert _checksum(shuffled, cfg) == _checksum(skew50, cfg)


def test_integer_weights_split_into_events_train_the_same_encoder(skew50):
    """Each train event of weight w >= 2 becomes events of weight 1 and w - 1
    at its timestamp."""
    e = skew50.train.edges
    assert (e.w == np.round(e.w)).all()
    parts = 1 + (e.w >= 2)
    idx = np.repeat(np.arange(len(e.w)), parts)
    w = e.w[idx]
    first = np.cumsum(parts) - parts
    heavy = np.flatnonzero(parts == 2)
    w[first[heavy]] = 1.0
    w[first[heavy] + 1] = e.w[heavy] - 1.0
    assert len(heavy) > 0
    split = TemporalSplit(skew50.train.with_edges(EdgeArray(e.u[idx], e.v[idx], w, e.t[idx])),
                          skew50.val_edges, skew50.test_edges)
    cfg = VariantConfig(weighted_pretrain=True, pretrain_epochs=5)
    assert _checksum(split, cfg) == _checksum(skew50, cfg)


def test_relabeled_nodes_permute_the_embedding_rows(skew50):
    g = skew50.train
    rng = np.random.default_rng(1)
    new_u, new_v = rng.permutation(g.n_u), rng.permutation(g.n_v)  # old -> new label
    x_u, x_v = np.empty_like(g.x_u), np.empty_like(g.x_v)
    x_u[new_u], x_v[new_v] = g.x_u, g.x_v
    relabeled = BipartiteGraph(g.n_u, g.n_v, x_u, x_v,
                               EdgeArray(new_u[g.edges.u], new_v[g.edges.v],
                                         g.edges.w, g.edges.t))
    for weighted in (False, True):
        cfg = VariantConfig(weighted_pretrain=weighted)
        state = init_model_state(rng_for(42, "init"), g.x_u.shape[1], g.x_v.shape[1],
                                 cfg.input_dim, cfg.hidden_dim, cfg.output_dim)
        emb_u, emb_v = extract_embeddings(state, g, cfg)
        moved_u, moved_v = extract_embeddings(state, relabeled, cfg)
        assert np.abs(moved_u[new_u] - emb_u).max() <= 1e-12
        assert np.abs(moved_v[new_v] - emb_v).max() <= 1e-12
