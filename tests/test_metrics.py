import numpy as np
import pytest

from bilink.errors import ValidationError
from bilink.metrics import (aggregate, average_precision, compute_all,
                            hits_at_k, roc_auc, threshold_prf)
from util import (average_precision_oracle, hits_at_k_oracle, mean_std_oracle,
                  prf_oracle, roc_auc_oracle)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_equal_scores_half(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_six_mixed_scores_match_pair_counting(self):
        scores = [0.3, 0.8, 0.8, 0.1, 0.55, 0.8]
        labels = [0, 1, 0, 0, 1, 1]
        assert roc_auc(scores, labels) == roc_auc_oracle(scores, labels)

    def test_single_class_error(self):
        with pytest.raises(ValidationError):
            roc_auc([0.2, 0.4], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.random(40)
        labels = (rng.random(40) > 0.6).astype(int)
        labels[0], labels[1] = 1, 0
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(3 * scores) + 7, labels) == pytest.approx(base)
        assert roc_auc(np.log(scores + 1e-9), labels) == pytest.approx(base)


class TestAveragePrecision:
    def test_all_positives_first(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 7
        scores = np.linspace(1.0, 0.1, n)
        labels = [0] * (n - 1) + [1]
        assert average_precision(scores, labels) == pytest.approx(1.0 / n)

    def test_random_case_matches_rank_walk(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            scores = rng.random(10).round(1)  # rounded to force ties
            labels = (rng.random(10) > 0.5).astype(int)
            if labels.sum() == 0:
                labels[3] = 1
            assert average_precision(scores, labels) == pytest.approx(
                average_precision_oracle(scores.tolist(), labels.tolist()),
                abs=1e-12)

    def test_zero_positives_error(self):
        with pytest.raises(ValidationError):
            average_precision([0.4, 0.2], [0, 0])

    def test_equals_one_iff_all_positives_ranked_first(self):
        """AP hits 1 exactly when every positive precedes every negative in
        the stable score-descending order; strict score separation is the
        tie-free special case."""
        rng = np.random.default_rng(5)
        seen = {True: 0, False: 0}
        for _ in range(200):
            scores = rng.integers(0, 6, size=8) / 5.0  # coarse, tie-heavy
            labels = (rng.random(8) > 0.5).astype(int)
            if labels.sum() in (0, 8):
                continue
            order = sorted(range(8), key=lambda i: (-scores[i], i))
            ranked_first = all(labels[i] >= labels[j]
                               for i, j in zip(order, order[1:]))
            strict = scores[labels == 1].min() > scores[labels == 0].max()
            if strict:
                assert ranked_first
            seen[ranked_first] += 1
            assert (average_precision(scores, labels) == 1.0) == ranked_first
        assert seen[True] > 0 and seen[False] > 0


class TestHitsAtK:
    def test_all_positives_above_all_negatives(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        assert hits_at_k(scores, labels, k=1) == 1.0

    def test_all_positives_below_negatives(self):
        scores = [0.1, 0.2, 0.8, 0.9, 0.7]
        labels = [1, 1, 0, 0, 0]
        assert hits_at_k(scores, labels, k=2) == 0.0

    def test_random_case_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            scores = rng.random(120)
            labels = np.concatenate([np.ones(20), np.zeros(100)]).astype(int)
            rng.shuffle(labels)
            got = hits_at_k(scores, labels, k=50)
            assert got == hits_at_k_oracle(scores.tolist(), labels.tolist(), 50)

    def test_fewer_negatives_than_k_all_hit(self):
        assert hits_at_k([0.0, 0.9], [1, 0], k=50) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        scores = rng.random(60)
        labels = (rng.random(60) > 0.7).astype(int)
        labels[:2] = [1, 0]
        values = [hits_at_k(scores, labels, k=k) for k in range(1, 45)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_strictness_at_tie(self):
        # positive tied with the k-th negative is not a hit
        assert hits_at_k([0.5, 0.5], [1, 0], k=1) == 0.0

    def test_zero_negatives_error(self):
        with pytest.raises(ValidationError):
            hits_at_k([0.5], [1], k=1)


class TestThresholdPrf:
    def test_perfect_predictions(self):
        r, flags = threshold_prf([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert r == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        assert flags == []

    def test_no_predicted_positives_flagged(self):
        r, flags = threshold_prf([0.1, 0.2], [1, 0])
        assert r == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert "no_predicted_positives" in flags

    def test_no_actual_positives_flagged(self):
        r, flags = threshold_prf([0.9, 0.1], [0, 0])
        assert r == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert flags == ["no_actual_positives"]

    def test_all_predicted_positive_flagged(self):
        r, flags = threshold_prf([0.5, 0.9, 0.6], [1, 0, 0])
        assert (r["precision"], r["recall"]) == (pytest.approx(1 / 3), 1.0)
        assert flags == ["all_predicted_positive"]
        assert "all_predicted_positive" in compute_all([0.5, 0.9, 0.6], [1, 0, 0], k=1)[1]
        assert threshold_prf([0.6, 0.9, 0.4], [1, 0, 0])[1] == []

    def test_mixed_case_matches_confusion_matrix(self):
        scores = [0.9, 0.4, 0.6, 0.5, 0.1, 0.7, 0.3, 0.51]
        labels = [1, 1, 0, 1, 0, 1, 0, 0]
        r, _ = threshold_prf(scores, labels)
        p, rec, f1 = prf_oracle(scores, labels)
        assert r["precision"] == pytest.approx(p)
        assert r["recall"] == pytest.approx(rec)
        assert r["f1"] == pytest.approx(f1)

    def test_threshold_is_inclusive(self):
        r, _ = threshold_prf([0.5], [1])
        assert r["recall"] == 1.0


@pytest.mark.parametrize("metric", [roc_auc, average_precision, hits_at_k,
                                    threshold_prf])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_rejected(metric, bad):
    with pytest.raises(ValidationError, match="finite"):
        metric([0.9, bad, 0.2, 0.4], [1, 0, 1, 0])


@pytest.mark.parametrize("metric,scores,labels,match", [
    (roc_auc, [0.9, 0.1, 0.5], [1, 0], "differ in length: 3 vs 2"),
    (average_precision, [0.9, 0.1], [1, 2], "labels must be 0 or 1"),
    (hits_at_k, [0.9, 0.1], [0, 0], "at least one positive"),
    (lambda s, l: hits_at_k(s, l, k=0), [0.9, 0.1], [1, 0], "k must be >= 1, got 0"),
], ids=["length", "labels", "hits-no-positive", "hits-k-zero"])
def test_malformed_input_rejected(metric, scores, labels, match):
    with pytest.raises(ValidationError, match=match):
        metric(scores, labels)


class TestAggregate:
    def test_identical_runs_zero_std(self):
        m = {"roc_auc": 0.7, "f1": 0.5}
        report = aggregate([1, 2, 3], [m, dict(m), dict(m)])
        assert report["aggregate"]["roc_auc"]["std"] == 0.0
        assert report["aggregate"]["roc_auc"]["mean"] == pytest.approx(0.7)

    def test_two_runs_closed_form(self):
        report = aggregate([42, 43], [{"roc_auc": 0.9}, {"roc_auc": 1.0}])
        assert report["aggregate"]["roc_auc"]["mean"] == pytest.approx(0.95)
        assert report["aggregate"]["roc_auc"]["std"] == pytest.approx(0.0707, abs=1e-4)

    def test_five_runs_match_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        values = rng.random(5).tolist()
        report = aggregate(list(range(5)), [{"m": v} for v in values])
        mean, std = mean_std_oracle(values)
        assert abs(report["aggregate"]["m"]["mean"] - mean) < 1e-12
        assert abs(report["aggregate"]["m"]["std"] - std) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_report_record_at_any_seed_count(self, n):
        """The record `report.json` holds; below two seeds its aggregate is
        empty, not an error."""
        seeds, per_seed = [42, 43][:n], [{"m": 0.25}, {"m": 0.75}][:n]
        want = {"m": {"mean": 0.5, "std": np.sqrt(0.125)}} if n == 2 else {}
        assert aggregate(seeds, per_seed) == {"seeds": seeds, "per_seed": per_seed,
                                              "aggregate": want}

    def test_mismatched_seed_count_error(self):
        with pytest.raises(ValidationError, match="one metric dict required per seed"):
            aggregate([42], [])

    def test_mismatched_metric_sets_error(self):
        with pytest.raises(ValidationError):
            aggregate([1, 2], [{"a": 1.0}, {"b": 1.0}])


class TestComputeAll:
    def test_sextuple_present(self):
        values, flags = compute_all([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0], k=2)
        assert set(values) == {"roc_auc", "average_precision", "hits_at_k",
                               "precision", "recall", "f1"}
        assert values["roc_auc"] == 1.0
        assert flags == []

    def test_fewer_negatives_than_k_flagged(self):
        values, flags = compute_all([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0], k=3)
        assert values["hits_at_k"] == 1.0
        assert flags == ["hits_at_k_fewer_negatives_than_k"]
