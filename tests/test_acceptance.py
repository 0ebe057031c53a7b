"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 5 and 6 train full pipelines (5 seeds each over three datasets) and
dominate the runtime; run with `pytest tests/test_acceptance.py -s` to watch
progress. Expect roughly ten minutes on one CPU core.
"""

import json
import time

import numpy as np
import pytest

from bilink import autodiff as ad
from bilink import metrics as mt
from bilink.augment import drop_edges_weight_aware, keep_probabilities
from bilink.autodiff import Tape, Tensor, backward
from bilink.cli import main as cli_main
from bilink.graph import (build_weighted_adjacency, chronological_split,
                          load_graph)
from bilink.losses import attractive_loss, repulsive_loss, total_pretrain_loss
from bilink.model import ema_update, encode, init_model_state, mlp_forward
from bilink.pipeline import run_seed
from bilink.synthetic import SyntheticSpec, write_dataset
from bilink.training import VariantConfig
from util import (dense_normalized_adjacency, finite_difference_grad,
                  hits_at_k_oracle, loss_term_oracle, make_graph,
                  max_grad_error, prf_oracle, roc_auc_oracle,
                  average_precision_oracle)

SEEDS = (42, 43, 44, 45, 46)


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def load_written(paths):
    return load_graph(paths["edges"], paths["u_features"], paths["v_features"])


# ---------------------------------------------------------------------------
# Heavy fixtures: full-default pipeline runs shared by criteria 5, 6 and 7.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted_runs(tmp_path_factory):
    paths = write_dataset(SyntheticSpec(seed=7),
                          tmp_path_factory.mktemp("planted"))
    split = chronological_split(load_written(paths))
    cfg = VariantConfig()  # nwp_nwb at paper defaults
    out = []
    for seed in SEEDS:
        t0 = time.monotonic()
        (result,) = run_seed(split, [cfg], seed)
        result["_elapsed"] = time.monotonic() - t0
        out.append(result)
    return out


@pytest.fixture(scope="module")
def control_runs(tmp_path_factory):
    paths = write_dataset(SyntheticSpec(seed=7, block_structure=False),
                          tmp_path_factory.mktemp("control"))
    split = chronological_split(load_written(paths))
    cfg = VariantConfig()
    return [run_seed(split, [cfg], seed)[0] for seed in SEEDS]


@pytest.fixture(scope="module")
def skew_runs(tmp_path_factory):
    paths = write_dataset(SyntheticSpec(seed=7, weight_skew=300),
                          tmp_path_factory.mktemp("skew"))
    split = chronological_split(load_written(paths))
    out = {}
    for label, flags in (("nwp_nwb", {}),
                         ("wp_wb", {"weighted_pretrain": True,
                                    "weighted_bce": True})):
        cfg = VariantConfig(**flags)
        out[label] = [run_seed(split, [cfg], seed)[0] for seed in SEEDS]
    return out


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness, 100 random instances per operation and
# for the composed pretraining objective, under one minute.
# ---------------------------------------------------------------------------

def _op_cases(rng):
    """(name, x0, f) triples: scalar-valued uses of each differentiable op."""
    away = lambda a: np.where(np.abs(a) < 0.05, a + 0.2, a)  # avoid kinks

    other = Tensor(rng.normal(size=(3, 4)))
    right = Tensor(rng.normal(size=(4, 2)))
    bias_base = Tensor(rng.normal(size=(4, 3)))
    cos_other = Tensor(rng.normal(size=(3, 4)) + 0.3)
    slope = Tensor([[0.3]])
    prelu_base = Tensor(away(rng.normal(size=(3, 3))))
    idx = rng.integers(0, 4, size=5)
    row = Tensor(rng.normal(size=(1, 3)))
    import scipy.sparse as sp

    adj = sp.random(5, 4, density=0.6, random_state=int(rng.integers(1 << 16)),
                    format="csr")
    y = (rng.random((5, 1)) > 0.5).astype(float)
    w = rng.uniform(0.5, 2.0, size=(5, 1))

    def sq(t):
        return ad.sum_all(ad.mul(t, t))

    return [
        ("matmul", rng.normal(size=(3, 4)), lambda x: sq(ad.matmul(x, right))),
        ("add", rng.normal(size=(4, 3)), lambda x: sq(ad.add(x, bias_base))),
        ("add_broadcast", rng.normal(size=(1, 3)),
         lambda x: sq(ad.add(bias_base, x))),
        ("mul", rng.normal(size=(3, 4)), lambda x: sq(ad.mul(x, other))),
        ("scale", rng.normal(size=(2, 3)), lambda x: sq(ad.scale(x, -2.5))),
        ("relu", away(rng.normal(size=(3, 3))), lambda x: sq(ad.relu(x))),
        ("prelu_input", away(rng.normal(size=(3, 3))),
         lambda x: sq(ad.prelu(x, slope))),
        ("prelu_slope", np.array([[0.4]]),
         lambda s: sq(ad.prelu(prelu_base, s))),
        ("sigmoid", rng.normal(size=(3, 3)), lambda x: sq(ad.sigmoid(x))),
        ("dropout", rng.normal(size=(3, 3)),
         lambda x: sq(ad.dropout_mask(x, 0.3, seed=11))),
        ("row_cosine", rng.normal(size=(3, 4)) + 0.4,
         lambda x: ad.sum_all(ad.row_cosine(x, cos_other))),
        ("sum_all", rng.normal(size=(3, 3)), lambda x: sq(ad.scale(ad.sum_all(x), 1.0))),
        ("take_rows", rng.normal(size=(4, 3)), lambda x: sq(ad.take_rows(x, idx))),
        ("replace_rows", rng.normal(size=(4, 3)),
         lambda x: sq(ad.replace_rows(x, np.array([1, 2]), row))),
        ("concat_rows", rng.normal(size=(2, 3)),
         lambda x: sq(ad.concat_rows(x, bias_base))),
        ("concat_cols", rng.normal(size=(3, 2)),
         lambda x: sq(ad.concat_cols(x, prelu_base))),
        ("slice_rows", rng.normal(size=(4, 3)),
         lambda x: sq(ad.slice_rows(x, 1, 3))),
        ("sparse_dense_matmul", rng.normal(size=(4, 3)),
         lambda x: sq(ad.sparse_dense_matmul(adj, x))),
        ("bce_with_logits", rng.normal(size=(5, 1)),
         lambda x: ad.bce_with_logits(x, y, w)),
    ]


def _gradcheck(x0, f):
    with Tape():
        x = Tensor(x0.copy(), requires_grad=True)
        backward(f(x))
    numeric = finite_difference_grad(lambda a: f(Tensor(a)).item(), x0.copy())
    return max_grad_error(x.grad, numeric)


def _composed_loss_instance(seed):
    """Tiny end-to-end pretraining objective as a function of all params."""
    rng = np.random.default_rng(seed)
    n_u, n_v, d = 3, 4, 2
    g = make_graph(n_u, n_v,
                   [(int(rng.integers(n_u)), int(rng.integers(n_v)),
                     float(rng.integers(1, 6)), t) for t in range(5)],
                   d_u=d, d_v=d, rng=rng)
    adj = build_weighted_adjacency(g, use_weights=True)
    eu, ev = g.edges.u, g.edges.v
    ew = g.edges.w
    ceu = rng.integers(0, n_u, size=4)
    cev = rng.integers(0, n_v, size=4)
    tgt_v2 = rng.normal(size=(n_v, d))
    tgt_vc = rng.normal(size=(n_v, d))
    state = init_model_state(rng, d, d, input_dim=3, hidden_dim=3, output_dim=d)
    params = state.online
    # evaluate at a generic point: exact-zero biases put dead relu rows
    # exactly on the zero-norm cosine plateau, where the function jumps
    for p in params.values():
        p.data += rng.normal(scale=0.1, size=p.data.shape)

    def loss_fn():
        enc = state.online
        h_u = encode(enc, adj, g.x_u, g.x_v, slice(0, n_u), dropout_p=0.2,
                     dropout_seed=5)
        h_u = ad.replace_rows(h_u, np.array([0]), enc["encoder.unk_u"])
        z_u = mlp_forward(state.online, "heads.projector_u", h_u)
        p_u = mlp_forward(state.online, "heads.predictor_u", z_u)
        attr = attractive_loss(p_u, tgt_v2, eu, ev, ew)
        rep = repulsive_loss(p_u, tgt_vc, ceu, cev, np.ones(4))
        return total_pretrain_loss(attr, rep, 0.5)

    return params, loss_fn


def _kink_distance(loss_fn):
    """Smallest |pre-activation| over every ReLU and PReLU of one forward."""
    seen = []

    def recording(op):
        def wrapped(a, *rest):
            seen.append(float(np.abs(a.data).min()))
            return op(a, *rest)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "relu", recording(ad.relu))
        mp.setattr(ad, "prelu", recording(ad.prelu))
        loss_fn()
    return min(seen)


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    worst = {}
    for i in range(100):
        for name, x0, f in _op_cases(np.random.default_rng(1000 + i)):
            err = _gradcheck(np.asarray(x0, dtype=np.float64), f)
            worst[name] = max(worst.get(name, 0.0), err)

    # The objective is not differentiable where a ReLU or PReLU input is 0,
    # so an instance with a pre-activation within 1e-3 of a kink is skipped
    # and the next seed drawn: central differences there straddle the kink.
    worst_composed = 0.0
    evaluated = skipped = 0
    seed = 2000
    while evaluated < 100:
        params, loss_fn = _composed_loss_instance(seed)
        seed += 1
        if _kink_distance(loss_fn) < 1e-3:
            skipped += 1
            continue
        evaluated += 1
        with Tape():
            backward(loss_fn())
        analytic = {name: p.grad.copy() for name, p in params.items()}
        for name, p in params.items():
            orig = p.data.copy()

            def f(a, _p=p):
                _p.data[...] = a
                return loss_fn().item()

            numeric = finite_difference_grad(f, orig.copy())
            p.data[...] = orig
            worst_composed = max(worst_composed,
                                 max_grad_error(analytic[name], numeric))

    elapsed = time.monotonic() - t0
    worst_op = max(worst.values())
    ok = worst_op < 1e-4 and worst_composed < 1e-4 and elapsed < 60
    report(1, ok, f"max op error {worst_op:.2e}, composed objective error "
                  f"{worst_composed:.2e} over {evaluated} instances ({skipped} "
                  f"skipped within 1e-3 of a kink), {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# Criterion 2: oracle equivalence over 1000 random instances.
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_lin = 0.0
    worst_loss = 0.0
    for _ in range(1000):
        # metrics on <= 200 scored pairs, with ties likely
        n_pos = int(rng.integers(1, 101))
        n_neg = int(rng.integers(1, 101))
        scores = rng.random(n_pos + n_neg)
        if rng.random() < 0.4:
            scores = scores.round(1)
        labels = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
        perm = rng.permutation(n_pos + n_neg)
        scores, labels = scores[perm], labels[perm]

        assert mt.roc_auc(scores, labels) == roc_auc_oracle(
            scores.tolist(), labels.tolist())
        assert mt.average_precision(scores, labels) == average_precision_oracle(
            scores.tolist(), labels.tolist())
        k = int(rng.integers(1, 61))
        assert mt.hits_at_k(scores, labels, k=k) == hits_at_k_oracle(
            scores.tolist(), labels.tolist(), k)
        r, _ = mt.threshold_prf(scores, labels)
        assert (r["precision"], r["recall"], r["f1"]) == prf_oracle(
            scores.tolist(), labels.tolist())

        # EMA update vs elementwise loop
        tau = float(rng.random())
        state = init_model_state(rng, 2, 2, input_dim=2, hidden_dim=2, output_dim=2)
        expected = {k2: tau * t.data + (1 - tau) * state.online[k2].data
                    for k2, t in state.target.items()}
        ema_update(state, tau)
        for k2, t in state.target.items():
            worst_lin = max(worst_lin, float(np.max(np.abs(t.data - expected[k2]))))

        # normalized adjacency vs dense brute force (<= 50 nodes)
        n_u = int(rng.integers(1, 26))
        n_v = int(rng.integers(1, 26))
        m = int(rng.integers(1, 40))
        edges = [(int(rng.integers(n_u)), int(rng.integers(n_v)),
                  float(rng.uniform(0.5, 10)), t) for t in range(m)]
        g = make_graph(n_u, n_v, edges, rng=rng)
        pair_w = {}
        for u, v, w, _ in edges:
            pair_w[(u, v)] = pair_w.get((u, v), 0.0) + w
        adj = build_weighted_adjacency(g, use_weights=True).toarray()
        oracle = dense_normalized_adjacency(
            n_u, n_v, [(u, v, w) for (u, v), w in pair_w.items()])
        worst_lin = max(worst_lin, float(np.max(np.abs(adj - oracle))))

        # both loss terms vs the scalar-loop oracle (<= 200 pairs)
        dim = int(rng.integers(2, 9))
        rows = int(rng.integers(2, 12))
        n_e = int(rng.integers(1, 201))
        pred = rng.normal(size=(rows, dim))
        tgt = rng.normal(size=(rows, dim))
        eu = rng.integers(0, rows, n_e)
        ev = rng.integers(0, rows, n_e)
        w = rng.uniform(0.5, 20.0, n_e)
        weighted = bool(rng.random() < 0.5)
        loss_w = w if weighted else np.ones_like(w)  # as aggregate_pairs gives
        attr = attractive_loss(Tensor(pred), tgt, eu, ev, loss_w).item()
        rep = repulsive_loss(Tensor(pred), tgt, eu, ev, loss_w).item()
        pairs = list(zip(eu, ev))
        worst_loss = max(
            worst_loss,
            abs(attr - loss_term_oracle(pred, tgt, pairs, w, weighted, -1.0)),
            abs(rep - loss_term_oracle(pred, tgt, pairs, w, weighted, +1.0)))

    ok = worst_lin < 1e-12 and worst_loss < 1e-12
    report(2, ok, f"metrics exactly equal on 1000 instances; linear algebra "
                  f"max |err| {worst_lin:.2e} (< 1e-12), loss terms "
                  f"{worst_loss:.2e} (< 1e-12)")


# ---------------------------------------------------------------------------
# Criterion 3: the four variants collapse on an all-unit-weight dataset.
# ---------------------------------------------------------------------------

def test_criterion_3_variant_collapse(tmp_path):
    paths = write_dataset(
        SyntheticSpec(n_u=30, n_v=30, n_edges=400, weight_skew=1, seed=5),
        tmp_path)
    g = load_written(paths)
    assert np.all(g.edges.w == 1.0)
    split = chronological_split(g)
    base = dict(pretrain_epochs=5, decoder_epochs=8, input_dim=16,
                hidden_dim=16, output_dim=8, decoder_hidden_dims=(16, 8))
    payloads = []
    for wp in (False, True):
        for wb in (False, True):
            cfg = VariantConfig(weighted_pretrain=wp, weighted_bce=wb, **base)
            (result,) = run_seed(split, [cfg], 42)
            payloads.append(json.dumps(
                {"trace": result["pretrain_trace"],
                 "monitor": result["decoder"]["monitor_history"],
                 "metrics": result["metrics"]}, sort_keys=True))
    ok = all(p == payloads[0] for p in payloads)
    report(3, ok, "four (wp, wb) variants bit-identical on unit weights: "
                  f"{'yes' if ok else 'no'}")


# ---------------------------------------------------------------------------
# Criterion 4: weight-aware edge dropping statistics.
# ---------------------------------------------------------------------------

def test_criterion_4_drop_statistics():
    w = np.array([1.0, 3.0])
    expected = keep_probabilities(w, 0.5)
    np.testing.assert_allclose(expected, [0.25, 0.75])
    kept = np.zeros(2)
    trials = 10_000
    for seed in range(trials):
        ku, _, _ = drop_edges_weight_aware([0, 1], [0, 1], w, 0.5, seed)
        for e in ku:
            kept[e] += 1
    rates = kept / trials
    ok = abs(rates[0] - 0.25) < 0.02 and abs(rates[1] - 0.75) < 0.02
    report(4, ok, f"empirical keep rates {rates.round(4).tolist()} vs "
                  "{0.25, 0.75} within ±0.02")


# ---------------------------------------------------------------------------
# Criteria 5-7: full-pipeline behavior on the synthetic benchmark.
# ---------------------------------------------------------------------------

def test_criterion_5_learnability(planted_runs, control_runs):
    aucs = [r["metrics"]["roc_auc"] for r in planted_runs]
    hits = [r["metrics"]["hits_at_k"] for r in planted_runs]
    control_aucs = [r["metrics"]["roc_auc"] for r in control_runs]
    slowest = max(r["_elapsed"] for r in planted_runs)
    mean_auc = float(np.mean(aucs))
    mean_hits = float(np.mean(hits))
    mean_control = float(np.mean(control_aucs))
    ok = (mean_auc >= 0.85 and mean_hits >= 0.80
          and 0.45 <= mean_control <= 0.55 and slowest <= 600)
    report(5, ok,
           f"planted: roc_auc {mean_auc:.4f} (>= 0.85), hits@50 "
           f"{mean_hits:.4f} (>= 0.80); control roc_auc {mean_control:.4f} "
           f"in [0.45, 0.55]; slowest seed {slowest:.0f}s (<= 600s)")


def test_criterion_6_skew_direction(skew_runs):
    mean = {label: float(np.mean([r["metrics"]["roc_auc"] for r in runs]))
            for label, runs in skew_runs.items()}
    ok = mean["nwp_nwb"] >= mean["wp_wb"]
    report(6, ok, f"skew 300: mean roc_auc nwp_nwb {mean['nwp_nwb']:.4f} >= "
                  f"wp_wb {mean['wp_wb']:.4f}")


def test_criterion_7_frozen_encoder(planted_runs, control_runs, skew_runs):
    all_runs = (list(planted_runs) + list(control_runs)
                + [r for runs in skew_runs.values() for r in runs])
    bad = [r["seed"] for r in all_runs
           if r["encoder_checksum_before_decoder"]
           != r["encoder_checksum_after_decoder"]]
    report(7, not bad, f"encoder/head checksums unchanged by decoder training "
                       f"in {len(all_runs)} runs"
                       + (f" (violations: {bad})" if bad else ""))


# ---------------------------------------------------------------------------
# Criterion 8: end-to-end determinism of the run command.
# ---------------------------------------------------------------------------

def test_criterion_8_run_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["gen-synth", "--n-u", "40", "--n-v", "40", "--n-edges",
                     "600", "--weight-skew", "6", "--seed", "9",
                     "--out-dir", str(data)]) == 0
    args = ["run", "--edges", str(data / "edges.csv"),
            "--u-features", str(data / "u_features.csv"),
            "--v-features", str(data / "v_features.csv"),
            "--seeds", "42,43", "--pretrain-epochs", "6",
            "--decoder-epochs", "8", "--input-dim", "16", "--hidden-dim", "16",
            "--output-dim", "8", "--decoder-hidden-dims", "16,8"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out-dir", str(out_a)]) == 0
    assert cli_main(args + ["--out-dir", str(out_b)]) == 0
    same_report = ((out_a / "report.json").read_bytes()
                   == (out_b / "report.json").read_bytes())
    same_manifests = True
    for seed in (42, 43):
        ma = json.loads((out_a / f"seed_{seed}" / "manifest.json").read_text())
        mb = json.loads((out_b / f"seed_{seed}" / "manifest.json").read_text())
        ma.pop("timing"), mb.pop("timing")
        same_manifests = same_manifests and ma == mb
    ok = same_report and same_manifests
    report(8, ok, "rerun produces identical metric JSON (wall-clock excluded): "
                  f"{'yes' if ok else 'no'}")
