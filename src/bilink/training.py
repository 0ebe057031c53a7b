"""Two-phase training: self-supervised pretraining of the encoder, then
frozen-encoder decoder training with early stopping on a monitor slice,
and the final inductive evaluation on the test era.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import metrics as mt
from .augment import augmented_view, corrupt_view
from .autodiff import Tape, backward
from .errors import TrainingError, ValidationError
from .graph import (BipartiteGraph, TemporalSplit, aggregate_pairs,
                    build_weighted_adjacency, complement_size, merge_graphs,
                    normalized_adjacency, sample_negatives)
from .losses import attractive_loss, repulsive_loss, total_pretrain_loss
from .model import (ModelState, ParamStore, decode_logits, ema_update, encode,
                    init_decoder, init_model_state, mlp_forward)
from .optim import adam_step, init_adam_state
from .rng import child_seed, rng_for, seed_int


# Range of every numeric VariantConfig field, checked before any training
# so that a bad value fails fast instead of mid-run or silently.
_FIELD_RULES = {
    "loss_balance": (lambda x: 0.0 <= x <= 1.0, "in [0, 1]"),
    "tau": (lambda x: 0.0 <= x <= 1.0, "in [0, 1]"),
    "dropout": (lambda x: 0.0 <= x < 1.0, "in [0, 1)"),
    "feature_drop_p": (lambda x: 0.0 <= x < 1.0, "in [0, 1)"),
    "edge_keep_prob": (lambda x: 0.0 < x <= 1.0, "in (0, 1]"),
    "unk_substitution_rate": (lambda x: 0.0 <= x <= 1.0, "in [0, 1]"),
    "decoder_monitor_fraction": (lambda x: 0.0 < x < 1.0, "in (0, 1)"),
    "lr": (lambda x: 0 < x < math.inf, "finite and > 0"),
    "weight_decay": (lambda x: 0 <= x < math.inf, "finite and >= 0"),
    "eval_negative_ratio": (lambda x: 0 < x < math.inf, "finite and > 0"),
    "decoder_negative_pool_factor": (lambda x: 0 < x < math.inf, "finite and > 0"),
    "pretrain_epochs": (lambda x: x >= 0, ">= 0"),
    "patience": (lambda x: x >= 0, ">= 0"),
    "decoder_epochs": (lambda x: x >= 1, ">= 1"),
    "batch_size": (lambda x: x >= 1, ">= 1"),
    "hits_k": (lambda x: x >= 1, ">= 1"),
    "input_dim": (lambda x: x >= 1, ">= 1"),
    "hidden_dim": (lambda x: x >= 1, ">= 1"),
    "output_dim": (lambda x: x >= 1, ">= 1"),
}


@dataclass
class VariantConfig:
    """One cell of the weighting ablation grid plus shared hyperparameters.

    `weighted_pretrain` gates edge weights everywhere in phase 1 (message
    passing, edge dropping, loss) at one site: `aggregate_pairs` gives every
    collapsed pair weight 1 when it is off. `weighted_bce` gates the per-link
    weights of the decoder loss in phase 2. With a graph whose collapsed
    weights are all 1, the four combinations are computationally identical.
    """

    weighted_pretrain: bool = False
    weighted_bce: bool = False
    loss_balance: float = 0.5
    tau: float = 0.99
    hidden_dim: int = 256
    output_dim: int = 128
    dropout: float = 0.2
    lr: float = 0.001
    weight_decay: float = 1e-5
    batch_size: int = 512
    pretrain_epochs: int = 200
    decoder_epochs: int = 100
    patience: int = 10
    feature_drop_p: float = 0.1
    # Secondary knobs (not part of the shared grid defaults above).
    edge_keep_prob: float = 0.8
    input_dim: int = 256
    decoder_hidden_dims: tuple = (256, 64)
    unk_substitution_rate: float = 0.01
    hits_k: int = 50
    eval_negative_ratio: float = 1.0
    decoder_monitor_fraction: float = 0.1
    decoder_negative_pool_factor: float = 5.0

    def __post_init__(self):
        if isinstance(self.decoder_hidden_dims, list):
            self.decoder_hidden_dims = tuple(self.decoder_hidden_dims)
        for name, (ok, rule) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValidationError(f"{name} must be {rule}, got {value!r}")
        if not self.decoder_hidden_dims or not all(d >= 1 for d in self.decoder_hidden_dims):
            raise ValidationError("decoder_hidden_dims must be one or more widths >= 1, "
                                  f"got {self.decoder_hidden_dims}")

    @property
    def variant_label(self) -> str:
        wp = "wp" if self.weighted_pretrain else "nwp"
        wb = "wb" if self.weighted_bce else "nwb"
        return f"{wp}_{wb}"

    def replace(self, **kwargs) -> "VariantConfig":
        return dataclasses.replace(self, **kwargs)


ALL_VARIANTS = (
    {"weighted_pretrain": True, "weighted_bce": True},
    {"weighted_pretrain": True, "weighted_bce": False},
    {"weighted_pretrain": False, "weighted_bce": True},
    {"weighted_pretrain": False, "weighted_bce": False},
)


@dataclass
class FrozenEmbeddings:
    """Online-encoder outputs for a stated graph, one row per node.

    A node with no incident edge in the source graph (`known_*` False)
    holds the fallback row: the learned UNK row for U, the mean of the known
    V rows for V. Arrays are read-only.
    """

    emb_u: np.ndarray
    emb_v: np.ndarray
    known_u: np.ndarray
    known_v: np.ndarray


def _target_rows(state: ModelState, adj, x_u, x_v) -> np.ndarray:
    """Target-side V rows the objective consumes: the target encoder's h_v,
    with no head (constants: computed outside any tape)."""
    return encode(state.target, adj, x_u, x_v, slice(len(x_u), None)).data


def _view_adjacency(n_u, n_v, view):
    return normalized_adjacency(n_u, n_v, view.edge_u, view.edge_v, view.edge_w)


def pretrain(split: TemporalSplit, cfg: VariantConfig, seed: int):
    """Phase 1: train encoder, U heads and U UNK row on the train-era graph.

    Per epoch: two augmented views and one corrupted view, online forward on
    view 1, target forwards on view 2 and the corrupted view, one optimizer
    step, one EMA update. Returns (ModelState, per-epoch loss trace).

    An epoch's forwards run without the per-op finiteness checks; the loss
    and the gradients are checked instead, before any parameter changes.
    When either check fails, the epoch is replayed on the same views and
    seeds with every op checked, so that the error names the op that first
    produced a non-finite value.
    """
    g = split.train
    if g.n_edges == 0:
        raise ValidationError("cannot pretrain on an empty train graph")

    state = init_model_state(rng_for(seed, "init"), g.x_u.shape[1], g.x_v.shape[1],
                             cfg.input_dim, cfg.hidden_dim, cfg.output_dim, cfg.tau)
    opt_state = init_adam_state(state.online)

    # Collapsed modeling edges: phase 1's one edge-weighting site (weight 1
    # for every pair under unweighted pretraining).
    cu, cv, cw = aggregate_pairs(g.edges, g.n_v, use_weights=cfg.weighted_pretrain)

    # One epoch's arrays stay bound until the next epoch rebinds them, so the
    # allocator keeps their pages rather than returning them and faulting
    # them in again: with glibc on x86-64 Linux, a default-size epoch that
    # freed everything on return took about 4,400 page faults instead of 900.
    trace = []
    for epoch in range(cfg.pretrain_epochs):
        view1 = augmented_view(g.x_u, g.x_v, cu, cv, cw,
                               feature_drop_p=cfg.feature_drop_p,
                               base_keep=cfg.edge_keep_prob,
                               seed=child_seed(seed, "view", epoch, 1))
        view2 = augmented_view(g.x_u, g.x_v, cu, cv, cw,
                               feature_drop_p=cfg.feature_drop_p,
                               base_keep=cfg.edge_keep_prob,
                               seed=child_seed(seed, "view", epoch, 2))
        corrupted = corrupt_view(g, max(1, view1.n_edges),
                                 child_seed(seed, "corrupt", epoch))

        adj1 = _view_adjacency(g.n_u, g.n_v, view1)
        adj2 = _view_adjacency(g.n_u, g.n_v, view2)
        adjc = _view_adjacency(g.n_u, g.n_v, corrupted)
        dropout_seed = int(rng_for(seed, "dropout", epoch).integers(2 ** 31))

        for checked in (False, True):
            try:
                with ad.finite_checks(checked):
                    # Stable targets first, outside the tape (stop-gradient).
                    tgt2_v = _target_rows(state, adj2, view2.x_u, view2.x_v)
                    tgtc_v = _target_rows(state, adjc, corrupted.x_u, corrupted.x_v)
                    with Tape():
                        h_u = encode(state.online, adj1, view1.x_u, view1.x_v,
                                     slice(0, g.n_u), dropout_p=cfg.dropout,
                                     dropout_seed=dropout_seed)
                        h_u = _substitute_unk(state, cfg, h_u, seed, epoch)
                        p_u = mlp_forward(state.online, "heads.predictor_u",
                                          mlp_forward(state.online, "heads.projector_u", h_u))
                        attr = attractive_loss(p_u, tgt2_v, view1.edge_u, view1.edge_v,
                                               view1.edge_w)
                        rep = repulsive_loss(p_u, tgtc_v, corrupted.edge_u, corrupted.edge_v,
                                             corrupted.edge_w)
                        total = total_pretrain_loss(attr, rep, cfg.loss_balance)
                        if not np.isfinite(total.item()):
                            raise TrainingError("non-finite pretraining loss")
                        grad_map = backward(total)
                    # Checks the gradients before it writes anything.
                    adam_step(state.online, grad_map, opt_state, cfg.lr, cfg.weight_decay)
                break
            except (FloatingPointError, TrainingError) as exc:
                if checked:
                    raise type(exc)(f"{exc} (pretraining epoch {epoch})") from exc

        ema_update(state)
        trace.append({"epoch": epoch, "total": total.item(),
                      "attractive": attr.item(), "repulsive": rep.item()})
    return state, trace


def _substitute_unk(state, cfg, h_u, seed, epoch):
    """Swap a small random U subset's embeddings for the U UNK row so the
    fallback row receives training signal from the U-side objective."""
    rate = cfg.unk_substitution_rate
    if rate <= 0:
        return h_u
    rng = rng_for(seed, "unk", epoch)
    n_u = h_u.shape[0]
    k_u = max(1, int(round(rate * n_u)))
    idx_u = rng.choice(n_u, size=min(k_u, n_u), replace=False)
    return ad.replace_rows(h_u, idx_u, state.online["encoder.unk_u"])


def extract_embeddings(state: ModelState, graph: BipartiteGraph,
                       cfg: VariantConfig) -> FrozenEmbeddings:
    """Deterministic online-encoder embeddings over a stated graph.

    No dropout, no gradients. A U node without any incident edge in `graph`
    takes the learned UNK row; a V node without one takes the mean of the V
    rows that have one.
    """
    if graph.n_edges == 0:
        raise ValidationError("cannot extract embeddings from a graph with no edges")
    adj = build_weighted_adjacency(graph, cfg.weighted_pretrain)
    h = encode(state.online, adj, graph.x_u, graph.x_v).data
    h_u, h_v = h[:graph.n_u], h[graph.n_u:]
    known_u = np.zeros(graph.n_u, dtype=bool)
    known_v = np.zeros(graph.n_v, dtype=bool)
    known_u[graph.edges.u] = True
    known_v[graph.edges.v] = True

    emb_u = np.where(known_u[:, None], h_u, state.online["encoder.unk_u"].data)
    emb_v = np.where(known_v[:, None], h_v, h_v[known_v].mean(axis=0))
    emb_u.setflags(write=False)
    emb_v.setflags(write=False)
    return FrozenEmbeddings(emb_u, emb_v, known_u, known_v)


def decoder_bce_examples(positives_uv: np.ndarray, pos_weights: np.ndarray,
                         negatives_uv: np.ndarray, weighted_bce: bool):
    """Pairs, labels and per-link loss weights for one decoder pass.

    Positive links carry their aggregated edge weight when weighted BCE is
    on (1 otherwise); negative links always carry weight 1.
    """
    pairs = np.vstack([positives_uv, negatives_uv]).astype(np.int64)
    labels = np.concatenate([np.ones(len(positives_uv)), np.zeros(len(negatives_uv))])
    pw = pos_weights if weighted_bce else np.ones(len(positives_uv))
    weights = np.concatenate([pw, np.ones(len(negatives_uv))])
    return pairs, labels, weights


@dataclass
class DecoderRecord:
    """Early-stopping record. `monitor_metric` is "hits_at_k", or "roc_auc"
    when the monitor slice holds `hits_k` negatives or fewer: there a Hits@K
    hit means beating the weakest negative, or every epoch reads 1.0.
    `stopped_at_early_best` says that patience ran out after a best epoch
    of 0 or 1: the decoder likely never left its starting plateau."""

    best_epoch: int
    best_score: float
    epochs_run: int
    monitor_metric: str
    monitor_history: list = field(default_factory=list)
    stopped_at_early_best: bool = False


def _decoder_scores(dec, emb, pairs):
    logits = decode_logits(dec, emb.emb_u, emb.emb_v, pairs)
    return ad.sigmoid(logits).data.ravel()


def train_decoder(emb: FrozenEmbeddings, positives_uv: np.ndarray,
                  pos_weights: np.ndarray, negatives: np.ndarray,
                  cfg: VariantConfig, seed: int):
    """Phase 2: supervised decoder on frozen embeddings.

    A monitor slice (10% of positives plus 10% of the negative pool, but at
    least `hits_k` negatives while one stays for training) is held out; the
    rest trains in shuffled minibatches with fresh 1:1 negatives drawn from
    the pool each epoch. Early stopping restores the parameters from the
    best monitor epoch: by Hits@K if the slice holds more than `hits_k`
    negatives, else by ROC-AUC.
    """
    positives_uv = np.asarray(positives_uv, dtype=np.int64)
    pos_weights = np.asarray(pos_weights, dtype=np.float64)
    neg_pool = np.asarray(negatives, dtype=np.int64)
    n_pos, n_neg = len(positives_uv), len(neg_pool)
    if n_pos < 2 or n_neg < 2:
        raise ValidationError(
            f"decoder training needs >= 2 positives and negatives, got {n_pos}/{n_neg}")

    rng = rng_for(seed, "decoder-monitor")
    pos_perm = rng.permutation(n_pos)
    neg_perm = rng.permutation(n_neg)
    n_hold_pos = min(max(1, int(round(cfg.decoder_monitor_fraction * n_pos))), n_pos - 1)
    n_hold_neg = min(max(int(round(cfg.decoder_monitor_fraction * n_neg)), cfg.hits_k),
                     n_neg - 1)
    hold_pos = pos_perm[:n_hold_pos]
    train_pos = pos_perm[n_hold_pos:]
    hold_neg = neg_perm[:n_hold_neg]
    train_neg_pool = neg_perm[n_hold_neg:]

    monitor_pairs = np.vstack([positives_uv[hold_pos], neg_pool[hold_neg]])
    monitor_labels = np.concatenate([np.ones(n_hold_pos), np.zeros(n_hold_neg)])
    monitor_metric = "hits_at_k" if n_hold_neg > cfg.hits_k else "roc_auc"

    dec = init_decoder(rng_for(seed, "decoder-init"), cfg.output_dim,
                       cfg.decoder_hidden_dims)
    opt_state = init_adam_state(dec)

    best = (-1.0, -1, None)  # (score, epoch, parameter buffer snapshot)
    history = []
    epochs_run = 0
    for epoch in range(cfg.decoder_epochs):
        epochs_run = epoch + 1
        rng_e = rng_for(seed, "decoder-epoch", epoch)
        k = len(train_pos)
        replace = k > len(train_neg_pool)
        neg_idx = rng_e.choice(train_neg_pool, size=k, replace=replace)
        pairs, labels, weights = decoder_bce_examples(
            positives_uv[train_pos], pos_weights[train_pos],
            neg_pool[neg_idx], cfg.weighted_bce)
        order = rng_e.permutation(len(pairs))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            with Tape():
                logits = decode_logits(dec, emb.emb_u, emb.emb_v, pairs[batch])
                loss = ad.bce_with_logits(logits, labels[batch, None],
                                          weights[batch, None])
                grad_map = backward(loss)
            adam_step(dec, grad_map, opt_state, cfg.lr, cfg.weight_decay)

        scores = _decoder_scores(dec, emb, monitor_pairs)
        score = (mt.hits_at_k(scores, monitor_labels, k=cfg.hits_k)
                 if monitor_metric == "hits_at_k" else mt.roc_auc(scores, monitor_labels))
        history.append(score)
        if score > best[0]:
            best = (score, epoch, dec.flat.copy())
        if epoch - best[1] >= cfg.patience:
            break

    dec.flat[...] = best[2]
    patience_ran_out = epochs_run - 1 - best[1] >= cfg.patience
    record = DecoderRecord(best_epoch=best[1], best_score=best[0],
                           epochs_run=epochs_run, monitor_metric=monitor_metric,
                           monitor_history=history,
                           stopped_at_early_best=patience_ran_out and best[1] <= 1)
    return dec, record


def eval_negative_count(split: TemporalSplit, cfg: VariantConfig) -> int:
    """How many negatives `evaluate_final` samples: `eval_negative_ratio`
    times the distinct test-era pairs, at least 1. Raises ValidationError
    when the test era has no pairs or the complement has too few."""
    n_pos = len(aggregate_pairs(split.test_edges, split.train.n_v, use_weights=False)[0])
    if n_pos == 0:
        raise ValidationError("no test-era pairs to evaluate")
    n_neg = max(1, int(round(cfg.eval_negative_ratio * n_pos)))
    free = complement_size(split)
    if n_neg > free:
        raise ValidationError(
            f"eval_negative_ratio {cfg.eval_negative_ratio} asks for {n_neg} test "
            f"negatives, but the complement has only {free} pairs")
    return n_neg


def evaluate_final(state: ModelState, split: TemporalSplit, dec: ParamStore,
                   cfg: VariantConfig, seed: int):
    """Score test-era pairs with embeddings from the full pre-test history.

    Embeddings are recomputed on train+val with the frozen encoder; test
    positives are the distinct test-era pairs, and negatives are freshly
    sampled (seed-derived) from the complement of all eras at the
    configured ratio. Returns (metrics dict, info dict).
    """
    graph_tv = merge_graphs(split.train, split.val_edges)
    emb = extract_embeddings(state, graph_tv, cfg)

    tu, tv, _ = aggregate_pairs(split.test_edges, split.train.n_v, use_weights=False)
    pos_pairs = np.stack([tu, tv], axis=1)
    n_neg = eval_negative_count(split, cfg)
    negatives = sample_negatives(split, n_neg, seed_int(seed, "eval-negatives"))

    pairs = np.vstack([pos_pairs, negatives])
    labels = np.concatenate([np.ones(len(pos_pairs)), np.zeros(n_neg)])
    scores = _decoder_scores(dec, emb, pairs)
    values, flags = mt.compute_all(scores, labels, k=cfg.hits_k)
    info = {"n_test_positives": int(len(pos_pairs)),
            "n_test_negatives": int(n_neg),
            "flags": flags}
    return values, info
