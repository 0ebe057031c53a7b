import numpy as np
import pytest
import scipy.sparse as sp

from bilink import autodiff as ad
from bilink.autodiff import Tape, Tensor, backward
from util import finite_difference_grad, max_grad_error


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def run_grad_check(build, x0, eps=1e-5, tol=1e-4):
    """Compare backward() against central differences for f(x) = build(x)."""
    with Tape():
        x = leaf(x0.copy())
        loss = build(x)
        grads = backward(loss)
    numeric = finite_difference_grad(lambda a: build(Tensor(a)).item(), x0.copy(), eps)
    assert max_grad_error(grads[x], numeric) < tol


class TestForward:
    def test_relu_values_and_grad(self):
        with Tape():
            x = leaf([[-1.0, 2.0]])
            y = ad.relu(x)
            assert y.data.tolist() == [[0.0, 2.0]]
            backward(ad.sum_all(y))
        assert x.grad.tolist() == [[0.0, 1.0]]

    def test_row_cosine_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 4)) + 0.5)
        np.testing.assert_allclose(ad.row_cosine(x, x).data, np.ones((5, 1)),
                                   atol=1e-12)

    def test_row_cosine_zero_norm_row(self):
        a = Tensor([[0.0, 0.0], [1.0, 0.0]])
        b = Tensor([[1.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(ad.row_cosine(a, b).data, [[0.0], [1.0]])

    def test_row_normalize_unit_rows_zero_row_stays_zero(self):
        x = Tensor([[3.0, 4.0], [0.0, 0.0], [-2.0, 0.0]])
        np.testing.assert_allclose(ad.row_normalize(x).data,
                                   [[0.6, 0.8], [0.0, 0.0], [-1.0, 0.0]])

    def test_row_normalize_rejects_non_finite_norm(self):
        x = Tensor([[1e200, 1e200], [1.0, 0.0]])  # finite entries, norm overflows
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match="row_normalize"):
                ad.row_normalize(x)

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)|\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_non_finite_forward_rejected(self):
        big = Tensor(np.full((1, 1), 1e308))
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match="mul"):
                ad.mul(big, big)

    def test_dropout_p0_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(ad.dropout_mask(x, 0.0, seed=1).data, x.data)

    def test_dropout_deterministic_per_seed(self):
        x = Tensor(np.ones((20, 20)))
        a = ad.dropout_mask(x, 0.3, seed=9).data
        b = ad.dropout_mask(x, 0.3, seed=9).data
        c = ad.dropout_mask(x, 0.3, seed=10).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestBackward:
    def test_sum_gradient_all_ones(self):
        with Tape():
            x = leaf(np.arange(4.0).reshape(2, 2))
            grads = backward(ad.sum_all(x))
        np.testing.assert_array_equal(grads[x], np.ones((2, 2)))

    def test_zero_scale_gives_zero_gradient(self):
        with Tape():
            x = leaf(np.ones((2, 2)))
            grads = backward(ad.sum_all(ad.scale(x, 0.0)))
        np.testing.assert_array_equal(grads[x], np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        with Tape():
            x = leaf(np.ones((2, 2)))
            y = ad.mul(x, x)
            with pytest.raises(ValueError, match="scalar"):
                backward(y)

    def test_repeated_backward_accumulates(self):
        with Tape():
            x = leaf(np.ones((2, 2)))
            loss = ad.sum_all(x)
            backward(loss)
            backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * np.ones((2, 2)))

    def test_reused_tensor_accumulates_within_pass(self):
        with Tape():
            x = leaf([[3.0]])
            loss = ad.sum_all(ad.mul(x, x))
            grads = backward(loss)
        np.testing.assert_allclose(grads[x], [[6.0]])

    def test_no_tape_means_no_gradient_path(self):
        x = leaf(np.ones((1, 1)))
        y = ad.scale(x, 2.0)
        assert y.requires_grad is False
        with pytest.raises(ValueError, match="tape"):
            backward(y)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(123)
            with Tape():
                x = leaf(rng.normal(size=(4, 3)))
                w = leaf(rng.normal(size=(3, 2)))
                h = ad.dropout_mask(ad.relu(ad.matmul(x, w)), 0.25, seed=7)
                loss = ad.sum_all(ad.mul(h, h))
                grads = backward(loss)
                return loss.item(), grads[w].copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


class TestGradCheck:
    """Central finite differences vs backward for every op (spec tolerance)."""

    def test_matmul_chain(self):
        rng = np.random.default_rng(1)
        b0 = rng.normal(size=(3, 5))
        c0 = rng.normal(size=(5, 2))
        run_grad_check(
            lambda x: ad.sum_all(ad.matmul(ad.matmul(x, Tensor(b0)), Tensor(c0))),
            rng.normal(size=(4, 3)))

    def test_add_broadcast_bias(self):
        rng = np.random.default_rng(2)
        h0 = rng.normal(size=(5, 3))
        run_grad_check(lambda b: ad.sum_all(ad.mul(ad.add(Tensor(h0), b),
                                                   ad.add(Tensor(h0), b))),
                       rng.normal(size=(1, 3)))

    def test_relu(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(4, 4))
        x0[np.abs(x0) < 0.05] = 0.1  # keep away from the kink
        run_grad_check(lambda x: ad.sum_all(ad.mul(ad.relu(x), ad.relu(x))), x0)

    def test_prelu_input_and_slope(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(3, 3))
        x0[np.abs(x0) < 0.05] = -0.2
        run_grad_check(lambda x: ad.sum_all(ad.prelu(x, Tensor([[0.25]]))), x0)
        xc = Tensor(x0)
        run_grad_check(lambda s: ad.sum_all(ad.mul(ad.prelu(xc, s),
                                                   ad.prelu(xc, s))),
                       np.array([[0.3]]))

    def test_sigmoid(self):
        rng = np.random.default_rng(5)
        run_grad_check(lambda x: ad.sum_all(ad.mul(ad.sigmoid(x), ad.sigmoid(x))),
                       rng.normal(size=(3, 4)))

    def test_scale_and_mul(self):
        rng = np.random.default_rng(6)
        other = rng.normal(size=(3, 3))
        run_grad_check(lambda x: ad.sum_all(ad.mul(ad.scale(x, -1.7), Tensor(other))),
                       rng.normal(size=(3, 3)))

    def test_dropout_fixed_mask(self):
        rng = np.random.default_rng(7)
        run_grad_check(lambda x: ad.sum_all(ad.mul(ad.dropout_mask(x, 0.4, seed=3),
                                                   ad.dropout_mask(x, 0.4, seed=3))),
                       rng.normal(size=(4, 4)))

    def test_row_cosine_both_sides(self):
        rng = np.random.default_rng(8)
        b0 = rng.normal(size=(4, 3)) + 0.3
        run_grad_check(lambda x: ad.sum_all(ad.row_cosine(x, Tensor(b0))),
                       rng.normal(size=(4, 3)) + 0.4)
        a0 = rng.normal(size=(4, 3)) + 0.2
        run_grad_check(lambda y: ad.sum_all(ad.row_cosine(Tensor(a0), y)),
                       rng.normal(size=(4, 3)) + 0.5)

    def test_row_normalize_with_zero_norm_row(self):
        rng = np.random.default_rng(15)
        weights = Tensor(rng.normal(size=(4, 3)))
        x0 = rng.normal(size=(4, 3))
        x0[2] = 0.0

        def build(x):
            return ad.sum_all(ad.mul(ad.row_normalize(x), weights))

        with Tape():
            x = leaf(x0.copy())
            grads = backward(build(x))
        numeric = finite_difference_grad(lambda a: build(Tensor(a)).item(), x0.copy())
        live = [0, 1, 3]
        assert max_grad_error(grads[x][live], numeric[live]) < 1e-4
        np.testing.assert_array_equal(grads[x][2], np.zeros(3))

    def test_take_and_replace_and_concat(self):
        rng = np.random.default_rng(9)
        idx = np.array([0, 2, 2, 1])

        def build(x):
            taken = ad.take_rows(x, idx)
            swapped = ad.replace_rows(taken, np.array([1]), Tensor([[0.5, -0.5]]))
            both = ad.concat_cols(swapped, taken)
            stacked = ad.concat_rows(both, both)
            return ad.sum_all(ad.mul(stacked, stacked))

        run_grad_check(build, rng.normal(size=(3, 2)))

    def test_replace_rows_row_param(self):
        rng = np.random.default_rng(10)
        base = Tensor(rng.normal(size=(4, 3)))
        run_grad_check(
            lambda r: ad.sum_all(ad.mul(ad.replace_rows(base, np.array([1, 3]), r),
                                        ad.replace_rows(base, np.array([1, 3]), r))),
            rng.normal(size=(1, 3)))

    def test_slice_rows(self):
        rng = np.random.default_rng(11)
        run_grad_check(lambda x: ad.sum_all(ad.mul(ad.slice_rows(x, 1, 3),
                                                   ad.slice_rows(x, 1, 3))),
                       rng.normal(size=(5, 2)))

    def test_sparse_dense_matmul(self):
        rng = np.random.default_rng(12)
        adj = sp.random(6, 5, density=0.5, random_state=3, format="csr")
        run_grad_check(lambda h: ad.sum_all(ad.mul(ad.sparse_dense_matmul(adj, h),
                                                   ad.sparse_dense_matmul(adj, h))),
                       rng.normal(size=(5, 3)))

    def test_bce_with_logits(self):
        rng = np.random.default_rng(13)
        y = (rng.random((6, 1)) > 0.5).astype(float)
        w = rng.uniform(0.5, 3.0, size=(6, 1))
        run_grad_check(lambda s: ad.bce_with_logits(s, y, w),
                       rng.normal(size=(6, 1)))

    def test_two_layer_mlp_composite(self):
        rng = np.random.default_rng(14)
        x0 = rng.normal(size=(5, 3))
        w2 = Tensor(rng.normal(size=(4, 2)))
        b1 = Tensor(rng.normal(size=(1, 4)))

        def build(w1):
            h = ad.relu(ad.add(ad.matmul(Tensor(x0), w1), b1))
            out = ad.matmul(h, w2)
            return ad.sum_all(ad.mul(out, out))

        run_grad_check(build, rng.normal(size=(3, 4)))
