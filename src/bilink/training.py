"""Two-phase training: self-supervised pretraining of the encoder, then
frozen-encoder decoder training with early stopping on a monitor slice,
and the final inductive evaluation on the test era.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import metrics as mt
from .augment import augmented_view, corrupt_view
from .autodiff import Tape, backward
from .errors import TrainingError, ValidationError, check_fields, setting
from .graph import (BipartiteGraph, TemporalSplit, aggregate_pairs,
                    build_weighted_adjacency, complement_size, merge_graphs,
                    normalized_adjacency, sample_negatives)
from .losses import attractive_loss, repulsive_loss, total_pretrain_loss
from .model import (ModelState, ParamStore, decode_logits, ema_update, encode,
                    init_decoder, init_model_state, mlp_forward)
from .optim import adam_step, init_adam_state
from .rng import child_seed, rng_for, seed_int


# The evaluation protocol's fixed values: the decoder's monitor slice
# (`train_decoder`) and negative pool (`phase2_sizes`). The decoders on one
# frozen encoder read the same validation positives, pool and test pairs
# (one negative per distinct test-era pair).
DECODER_MONITOR_FRACTION = 0.1
DECODER_NEGATIVE_POOL_FACTOR = 5.0

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
    loss_balance: float = setting(0.5, lambda x: 0 <= x <= 1, "in [0, 1]")
    tau: float = setting(0.99, lambda x: 0 <= x <= 1, "in [0, 1]")
    hidden_dim: int = setting(256, lambda x: x >= 1, ">= 1")
    output_dim: int = setting(128, lambda x: x >= 1, ">= 1")
    dropout: float = setting(0.2, lambda x: 0 <= x < 1, "in [0, 1)")
    lr: float = setting(0.001, lambda x: 0 < x < math.inf, "finite and > 0")
    weight_decay: float = setting(1e-5, lambda x: 0 <= x < math.inf, "finite and >= 0")
    batch_size: int = setting(512, lambda x: x >= 1, ">= 1")
    pretrain_epochs: int = setting(200, lambda x: x >= 0, ">= 0")
    decoder_epochs: int = setting(100, lambda x: x >= 1, ">= 1")
    patience: int = setting(10, lambda x: x >= 0, ">= 0")
    feature_drop_p: float = setting(0.1, lambda x: 0 <= x < 1, "in [0, 1)")
    # Secondary knobs (not part of the shared grid defaults above).
    edge_keep_prob: float = setting(0.8, lambda x: 0 < x <= 1, "in (0, 1]")
    input_dim: int = setting(256, lambda x: x >= 1, ">= 1")
    decoder_hidden_dims: tuple = setting((256, 64), lambda x: len(x) > 0 and min(x) >= 1,
                                         "one or more widths >= 1")
    unk_substitution_rate: float = setting(0.01, lambda x: 0 <= x <= 1, "in [0, 1]")
    hits_k: int = setting(50, lambda x: x >= 1, ">= 1")

    def __post_init__(self):
        """One type and range check for flags, files, checkpoints and callers,
        before any training, so that a bad value fails fast instead of mid-run
        or silently. A numpy scalar is stored as a Python one, so the config
        stays JSON."""
        check_fields(self)

    @property
    def variant_label(self) -> str:
        wp = "wp" if self.weighted_pretrain else "nwp"
        wb = "wb" if self.weighted_bce else "nwb"
        return f"{wp}_{wb}"

    def replace(self, **kwargs) -> "VariantConfig":
        return dataclasses.replace(self, **kwargs)


def _target_rows(state: ModelState, adj, x_u, x_v) -> np.ndarray:
    """Target-side V rows the objective consumes: the target encoder's h_v,
    with no head (constants: computed outside any tape)."""
    return encode(state.target, adj, x_u, x_v, slice(len(x_u), None)).data


def epoch_inputs(g: BipartiteGraph, pairs, cfg: VariantConfig, seed: int, epoch: int):
    """Everything pretraining epoch `epoch` reads besides the parameters:
    (view1, view2, corrupted, adj1, adj2, adjc, dropout_seed, unk_rows).

    `pairs` is `pretrain`'s (u, v, w) collapse of `g`. Each part is drawn
    from `seed` under its own tag: ("view", epoch, 1|2), ("corrupt", epoch),
    ("dropout", epoch), ("unk", epoch). `unk_rows`, none at
    `unk_substitution_rate` 0, are the U rows whose embeddings the step swaps
    for the learned U UNK row, a training-time mask token.
    """
    views = [augmented_view(g.x_u, g.x_v, *pairs, feature_drop_p=cfg.feature_drop_p,
                            base_keep=cfg.edge_keep_prob,
                            seed=child_seed(seed, "view", epoch, i)) for i in (1, 2)]
    views.append(corrupt_view(g, max(1, views[0].n_edges),
                              child_seed(seed, "corrupt", epoch)))
    adjs = [normalized_adjacency(g.n_u, g.n_v, v.edge_u, v.edge_v, v.edge_w)
            for v in views]
    dropout_seed = int(rng_for(seed, "dropout", epoch).integers(2 ** 31))
    unk_rows = np.empty(0, dtype=np.int64)
    if cfg.unk_substitution_rate > 0:
        k_u = max(1, int(round(cfg.unk_substitution_rate * g.n_u)))
        unk_rows = rng_for(seed, "unk", epoch).choice(g.n_u, size=min(k_u, g.n_u),
                                                      replace=False)
    return (*views, *adjs, dropout_seed, unk_rows)


def pretrain(split: TemporalSplit, cfg: VariantConfig, seed: int):
    """Phase 1: train encoder, U heads and U UNK row on the train-era graph.

    Per epoch: two augmented views and one corrupted view, online forward on
    view 1, target forwards on view 2 and the corrupted view, one optimizer
    step, one EMA update at `cfg.tau`. Returns (ModelState, per-epoch loss
    trace).

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
                             cfg.input_dim, cfg.hidden_dim, cfg.output_dim)
    opt_state = init_adam_state(state.online)

    # Collapsed modeling edges: phase 1's one edge-weighting site (weight 1
    # for every pair under unweighted pretraining).
    pairs = aggregate_pairs(g.edges, g.n_v, use_weights=cfg.weighted_pretrain)

    # An epoch's views, adjacencies and target rows stay bound until the next
    # epoch rebinds them, so the allocator keeps their pages rather than
    # returning them and faulting them in again: with glibc on x86-64 Linux,
    # a default-size epoch that freed everything on return took about 4,400
    # page faults instead of 900. The step's activations and op-output
    # gradients are freed as soon as nothing reads them (see `autodiff`): that
    # took the default-size peak RSS from about 77 to 70 MB for about 200 more
    # minor faults per epoch (mean 80-150 -> 300-380), with no measurable
    # change in epoch time. Parameter gradients go to `state.online.grad`,
    # which `adam_step` zeroes and `pipeline.run_seed` frees on return.
    trace = []
    for epoch in range(cfg.pretrain_epochs):
        (view1, view2, corrupted, adj1, adj2, adjc, dropout_seed,
         unk_rows) = epoch_inputs(g, pairs, cfg, seed, epoch)
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
                        if len(unk_rows):
                            h_u = ad.replace_rows(h_u, unk_rows, state.online["encoder.unk_u"])
                        p_u = mlp_forward(state.online, "heads.predictor_u",
                                          mlp_forward(state.online, "heads.projector_u", h_u))
                        attr = attractive_loss(p_u, tgt2_v, view1.edge_u, view1.edge_v,
                                               view1.edge_w)
                        rep = repulsive_loss(p_u, tgtc_v, corrupted.edge_u, corrupted.edge_v,
                                             corrupted.edge_w)
                        total = total_pretrain_loss(attr, rep, cfg.loss_balance)
                        if not np.isfinite(total.item()):
                            raise TrainingError("non-finite pretraining loss")
                        # Checks the gradients before it writes anything,
                        # and zeroes them either way.
                        backward(total)
                        adam_step(state.online, opt_state, cfg.lr, cfg.weight_decay)
                break
            except (FloatingPointError, TrainingError) as exc:
                if checked:
                    raise type(exc)(f"{exc} (pretraining epoch {epoch})") from exc

        ema_update(state, cfg.tau)
        trace.append({"epoch": epoch, "total": total.item(),
                      "attractive": attr.item(), "repulsive": rep.item()})
    return state, trace


def extract_embeddings(state: ModelState, graph: BipartiteGraph,
                       cfg: VariantConfig) -> tuple:
    """Deterministic online-encoder embeddings over a stated graph:
    (emb_u, emb_v), read-only views of one array with one row per node.

    No dropout, no gradients. Every node takes the encoder's own row: the
    adjacency's self-loop embeds a node without any incident edge in
    `graph`, an unseen node included, from its own features.
    """
    adj = build_weighted_adjacency(graph, cfg.weighted_pretrain)
    h = encode(state.online, adj, graph.x_u, graph.x_v).data
    h.setflags(write=False)
    return h[:graph.n_u], h[graph.n_u:]


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


def _decoder_scores(dec, emb, pairs):
    return ad.sigmoid(decode_logits(dec, *emb, pairs)).data.ravel()


def train_decoder(emb: tuple, positives_uv: np.ndarray,
                  pos_weights: np.ndarray, negatives: np.ndarray,
                  cfg: VariantConfig, seed: int):
    """Phase 2: supervised decoder on frozen embeddings, the
    `extract_embeddings` pair. Returns (decoder, record).

    A monitor slice (`DECODER_MONITOR_FRACTION`, 10%, of the positives and
    of the negative pool, but at least one positive and `hits_k` negatives
    while one of each stays for training) is held out; the rest trains in
    shuffled minibatches with fresh 1:1 negatives drawn from the pool each
    epoch. Early stopping restores the parameters from the best monitor
    epoch: by Hits@K if the slice holds more than `hits_k` negatives, else
    by ROC-AUC.

    The record is a manifest's "decoder" entry: `best_epoch`,
    `best_monitor_score`, `epochs_run`, `monitor_metric`, `monitor_history`
    and `stopped_at_early_best`. `monitor_metric` is "hits_at_k", or
    "roc_auc" when the monitor slice holds `hits_k` negatives or fewer:
    there a Hits@K hit means beating the weakest negative, or every epoch
    reads 1.0. `stopped_at_early_best` says that patience ran out after a
    best epoch of 0 or 1: the decoder likely never left its starting
    plateau.
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
    n_hold_pos = min(max(1, int(round(DECODER_MONITOR_FRACTION * n_pos))), n_pos - 1)
    n_hold_neg = min(max(int(round(DECODER_MONITOR_FRACTION * n_neg)), cfg.hits_k),
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
                logits = decode_logits(dec, *emb, pairs[batch])
                loss = ad.bce_with_logits(logits, labels[batch, None],
                                          weights[batch, None])
                backward(loss)
                adam_step(dec, opt_state, cfg.lr, cfg.weight_decay)

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
    return dec, {"best_epoch": best[1], "best_monitor_score": best[0],
                 "epochs_run": epochs_run, "monitor_metric": monitor_metric,
                 "monitor_history": history,
                 "stopped_at_early_best": patience_ran_out and best[1] <= 1}


def phase2_sizes(split: TemporalSplit) -> tuple:
    """Phase 2's two sample sizes, (decoder negative pool, test negatives).

    The pool is `DECODER_NEGATIVE_POOL_FACTOR` (5) times the distinct
    validation-era pairs, capped by the complement; the test era takes one
    negative per distinct test-era pair. Both depend on the split alone, so
    a split too small for phase 2 (fewer than 2 validation-era pairs, or a
    complement too small for either sample) raises ValidationError before
    pretraining.
    """
    n_v = split.train.n_v
    n_pos = len(aggregate_pairs(split.val_edges, n_v, use_weights=False)[0])
    if n_pos < 2:
        raise ValidationError(
            f"decoder training needs >= 2 validation-era pairs, got {n_pos}")
    free = complement_size(split)
    pool_size = min(math.ceil(DECODER_NEGATIVE_POOL_FACTOR * n_pos), free)
    if pool_size < 2:
        raise ValidationError("complement too small to sample a negative pool")
    n_test = len(aggregate_pairs(split.test_edges, n_v, use_weights=False)[0])
    if n_test > free:
        raise ValidationError(
            f"{n_test} test-era pairs need as many test negatives, but the "
            f"complement has only {free} pairs")
    return pool_size, n_test


def eval_inputs(state: ModelState, split: TemporalSplit, cfg: VariantConfig,
                seed: int) -> tuple:
    """What scoring the test era reads besides the decoder:
    (embeddings, pairs, labels, info).

    The embeddings are the `extract_embeddings` pair, recomputed on
    train+val with the frozen encoder. The
    pairs are the distinct test-era pairs, then as many negatives sampled
    from the complement of all eras under the seed tag "eval-negatives".
    The info counts the test positives and, of those, the ones whose U or V
    node has no train or val event (`n_test_positives_new_u`,
    `n_test_positives_new_v`).
    """
    graph_tv = merge_graphs(split.train, split.val_edges)
    emb = extract_embeddings(state, graph_tv, cfg)
    tu, tv, _ = aggregate_pairs(split.test_edges, split.train.n_v, use_weights=False)
    negatives = sample_negatives(split, len(tu), seed_int(seed, "eval-negatives"))
    pairs = np.vstack([np.stack([tu, tv], axis=1), negatives])
    labels = np.concatenate([np.ones(len(tu)), np.zeros(len(negatives))])
    info = {"n_test_positives": int(len(tu)),
            "n_test_positives_new_u": int((~np.isin(tu, graph_tv.edges.u)).sum()),
            "n_test_positives_new_v": int((~np.isin(tv, graph_tv.edges.v)).sum()),
            "n_test_negatives": int(len(negatives))}
    return emb, pairs, labels, info


def score_eval(dec: ParamStore, inputs: tuple, cfg: VariantConfig):
    """Metrics of one decoder on `eval_inputs`' tuple. Returns (metrics,
    info): the info is the test counts plus the metrics' degeneracy
    `flags`."""
    emb, pairs, labels, info = inputs
    values, flags = mt.compute_all(_decoder_scores(dec, emb, pairs), labels,
                                   k=cfg.hits_k)
    return values, {**info, "flags": flags}
