import numpy as np
import pytest

from bilink import autodiff as ad
from bilink.autodiff import Tape, Tensor, backward
from bilink.errors import ValidationError
from bilink.losses import attractive_loss, repulsive_loss, total_pretrain_loss
from util import finite_difference_grad, loss_term_oracle, max_grad_error


def tensor(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestAttractive:
    def test_matching_rows_hit_minus_one(self):
        rows = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        loss = attractive_loss(tensor(rows), rows.copy(),
                               np.array([0, 1, 2]), np.array([0, 1, 2]),
                               np.array([1.0, 2.0, 3.0]))
        assert loss.item() == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_rows_zero(self):
        pred = np.array([[1.0, 0.0], [0.0, 2.0]])
        target = np.array([[0.0, 3.0], [5.0, 0.0]])
        loss = attractive_loss(tensor(pred), target, np.array([0, 1]),
                               np.array([0, 1]), np.ones(2))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_loop_oracle_with_skewed_weights(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(6, 5))
        target = rng.normal(size=(7, 5))
        eu = np.array([0, 3, 5])
        ev = np.array([2, 6, 1])
        w = np.array([1.0, 2.0, 377.0])
        loss = attractive_loss(tensor(pred), target, eu, ev, w)
        oracle = loss_term_oracle(pred, target, list(zip(eu, ev)), w,
                                  weighted=True, sign=-1.0)
        assert abs(loss.item() - oracle) < 1e-12

    def test_empty_edges_error(self):
        with pytest.raises(ValidationError, match="empty"):
            attractive_loss(tensor(np.ones((2, 2))), np.ones((2, 2)),
                            np.array([], dtype=int), np.array([], dtype=int),
                            np.array([]))


    def test_out_of_range_edge_index_rejected(self):
        pred, target = np.ones((3, 2)), np.ones((4, 2))
        for eu, ev in (([0, 3], [0, 1]), ([0, 1], [4, 0]), ([-1, 0], [0, 1])):
            with pytest.raises(ValueError, match="out of range"):
                attractive_loss(tensor(pred), target, np.array(eu), np.array(ev),
                                np.ones(2))


class TestRepulsive:
    def test_matching_rows_hit_plus_one(self):
        rows = np.array([[1.0, 1.0], [2.0, 0.5]])
        loss = repulsive_loss(tensor(rows), rows.copy(), np.array([0, 1]),
                              np.array([0, 1]), np.ones(2))
        assert loss.item() == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_rows_hit_minus_one(self):
        rows = np.array([[1.0, 2.0], [-0.5, 3.0]])
        loss = repulsive_loss(tensor(rows), -rows, np.array([0, 1]),
                              np.array([0, 1]), np.ones(2))
        assert loss.item() == pytest.approx(-1.0, abs=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(size=(5, 4))
        target = rng.normal(size=(6, 4))
        eu = np.array([4, 0, 0, 2])
        ev = np.array([1, 5, 5, 3])
        w = np.ones(4)
        loss = repulsive_loss(tensor(pred), target, eu, ev, w)
        oracle = loss_term_oracle(pred, target, list(zip(eu, ev)), w,
                                  weighted=True, sign=+1.0)
        assert abs(loss.item() - oracle) < 1e-12


class TestTotal:
    def test_balanced_combination(self):
        attr = tensor([[-1.0]])
        rep = tensor([[-1.0]])
        assert total_pretrain_loss(attr, rep, 0.5).item() == pytest.approx(-1.0)

    def test_extremes_select_single_term(self):
        attr = tensor([[-0.7]])
        rep = tensor([[0.3]])
        assert total_pretrain_loss(attr, rep, 0.0).item() == pytest.approx(-0.7)
        assert total_pretrain_loss(attr, rep, 1.0).item() == pytest.approx(0.3)

    def test_invalid_balance(self):
        with pytest.raises(ValidationError):
            total_pretrain_loss(tensor([[0.0]]), tensor([[0.0]]), 1.5)


class TestProperties:
    def test_bounded_by_cosine(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pred = rng.normal(size=(6, 4))
            target = rng.normal(size=(6, 4))
            eu = rng.integers(0, 6, 8)
            ev = rng.integers(0, 6, 8)
            w = rng.uniform(0.1, 5.0, 8)
            attr = attractive_loss(tensor(pred), target, eu, ev, w)
            rep = repulsive_loss(tensor(pred), target, eu, ev, w)
            total = total_pretrain_loss(attr, rep, float(rng.uniform(0, 1)))
            assert -1.0 - 1e-12 <= attr.item() <= 1.0 + 1e-12
            assert -1.0 - 1e-12 <= rep.item() <= 1.0 + 1e-12
            assert -1.0 - 1e-12 <= total.item() <= 1.0 + 1e-12

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        eu = np.array([0, 1, 2, 3])
        ev = np.array([1, 0, 3, 2])
        w = rng.uniform(0.5, 2.0, 4)
        base = attractive_loss(tensor(pred), target, eu, ev, w).item()
        scaled = attractive_loss(tensor(pred * 37.5), target * 0.004,
                                 eu, ev, w).item()
        assert abs(base - scaled) < 1e-10

    def test_gradient_matches_finite_differences(self):
        """Composed objective through a small linear head."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 3))
        target2 = rng.normal(size=(6, 4))
        targetc = rng.normal(size=(6, 4))
        eu = np.array([0, 2, 4, 1])
        ev = np.array([1, 3, 5, 0])
        w = np.array([1.0, 2.0, 0.5, 4.0])
        ceu = np.array([1, 3])
        cev = np.array([2, 4])

        def objective(w0):
            pred = ad.matmul(Tensor(x), w0 if isinstance(w0, Tensor) else Tensor(w0))
            attr = attractive_loss(pred, target2, eu, ev, w)
            rep = repulsive_loss(pred, targetc, ceu, cev, np.ones(2))
            return total_pretrain_loss(attr, rep, 0.5)

        w0 = rng.normal(size=(3, 4))
        with Tape():
            param = Tensor(w0.copy(), requires_grad=True)
            backward(objective(param))
        numeric = finite_difference_grad(lambda a: objective(a).item(), w0.copy())
        assert max_grad_error(param.grad, numeric) < 1e-4

    def test_target_side_receives_no_gradient(self):
        rng = np.random.default_rng(7)
        with Tape():
            pred = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            target = Tensor(rng.normal(size=(3, 2)), requires_grad=False)
            loss = attractive_loss(pred, target, np.array([0, 1]),
                                   np.array([1, 2]), np.ones(2))
            backward(loss)
        assert pred.grad is not None
        assert target.grad is None


class TestIncidenceProduct:
    """The loss sums w_e * cos over edges as one sparse product over unit rows;
    duplicate pairs and zero-norm rows must give the per-edge result."""

    def _case(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=(6, 5))
        target = rng.normal(size=(7, 5))
        pred[4] = 0.0
        target[[2, 5]] = 0.0
        # corrupted-view style edges: (1, 3) three times, (0, 2) twice
        eu = np.array([1, 0, 1, 4, 0, 3, 1, 5])
        ev = np.array([3, 2, 3, 1, 2, 5, 3, 6])
        w = rng.uniform(0.5, 20.0, len(eu))
        return pred, target, eu, ev, w

    def test_both_terms_match_oracle_with_duplicates_and_zero_rows(self):
        for seed in range(5):
            pred, target, eu, ev, w = self._case(seed)
            pairs = list(zip(eu, ev))
            for weighted in (True, False):
                loss_w = w if weighted else np.ones_like(w)
                attr = attractive_loss(tensor(pred), target, eu, ev, loss_w)
                rep = repulsive_loss(tensor(pred), target, eu, ev, loss_w)
                assert abs(attr.item() - loss_term_oracle(
                    pred, target, pairs, w, weighted, -1.0)) < 1e-12
                assert abs(rep.item() - loss_term_oracle(
                    pred, target, pairs, w, weighted, +1.0)) < 1e-12

    def test_gradient_matches_per_edge_gather(self):
        pred, target, eu, ev, w = self._case(9)
        with Tape():
            p = tensor(pred, grad=True)
            backward(repulsive_loss(p, target, eu, ev, w))
            fast = p.grad
        with Tape():
            p = tensor(pred, grad=True)
            cos = ad.row_cosine(ad.take_rows(p, eu), ad.take_rows(Tensor(target), ev))
            gather = ad.scale(ad.sum_all(ad.mul(cos, Tensor(w.reshape(-1, 1)))),
                              1.0 / w.sum())
            backward(gather)
            slow = p.grad
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(fast[4], np.zeros(5))  # zero-norm row
