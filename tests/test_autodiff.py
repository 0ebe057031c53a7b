import gc
import weakref

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
        backward(loss)
    numeric = finite_difference_grad(lambda a: build(Tensor(a)).item(), x0.copy(), eps)
    assert max_grad_error(x.grad, numeric) < tol


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

    def test_unchecked_block_passes_non_finite_but_not_row_normalize(self):
        big = Tensor(np.full((1, 2), 1e308))
        with np.errstate(over="ignore"):
            with ad.finite_checks(False):
                assert np.isinf(ad.mul(big, big).data).all()
                with pytest.raises(FloatingPointError, match="row_normalize"):
                    ad.row_normalize(big)
            with pytest.raises(FloatingPointError, match="mul"):
                ad.mul(big, big)

    def test_relu_and_prelu_propagate_nan(self):
        x = Tensor([[np.nan, -1.0, 2.0]])
        with ad.finite_checks(False):
            np.testing.assert_array_equal(ad.relu(x).data, [[np.nan, 0.0, 2.0]])
            np.testing.assert_array_equal(ad.prelu(x, Tensor([[0.25]])).data,
                                          [[np.nan, -0.25, 2.0]])

    def test_concat_rows_of_three(self):
        with Tape():
            parts = [leaf(np.full((k, 2), float(k))) for k in (1, 2, 3)]
            stacked = ad.concat_rows(*parts)
            assert stacked.shape == (6, 2)
            backward(ad.sum_all(ad.mul(stacked, stacked)))
        for k, p in zip((1, 2, 3), parts):
            np.testing.assert_array_equal(p.grad, np.full((k, 2), 2.0 * k))

    def test_dropout_p0_is_identity(self):
        x0 = np.array([[0.0, -0.0, 1.5], [-2.5, 1e300, -1e-300]])
        g0 = x0[::-1].copy()
        with Tape():
            x = leaf(x0)
            h = ad.dropout_mask(x, 0.0, seed=1)
            backward(ad.sum_all(ad.mul(h, Tensor(g0))))
        assert h.data.tobytes() == x0.tobytes()  # signed zeros included
        assert x.grad.tobytes() == g0.tobytes()

    def test_dropout_deterministic_per_seed(self):
        x = Tensor(np.ones((20, 20)))
        a = ad.dropout_mask(x, 0.3, seed=9).data
        b = ad.dropout_mask(x, 0.3, seed=9).data
        c = ad.dropout_mask(x, 0.3, seed=10).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dropout_matches_float_mask_bit_for_bit(self):
        rng = np.random.default_rng(4)
        x0, g0 = rng.normal(size=(30, 7)), rng.normal(size=(30, 7))
        mask = (np.random.default_rng(5).random(x0.shape) >= 0.3) / (1.0 - 0.3)
        with Tape():
            x = leaf(x0)
            h = ad.dropout_mask(x, 0.3, seed=5)
            backward(ad.sum_all(ad.mul(h, Tensor(g0))))
        np.testing.assert_array_equal(h.data, x0 * mask)
        np.testing.assert_array_equal(np.signbit(h.data), np.signbit(x0 * mask))
        np.testing.assert_array_equal(x.grad, g0 * mask)


class TestBackward:
    def test_sum_gradient_all_ones(self):
        with Tape():
            x = leaf(np.arange(4.0).reshape(2, 2))
            backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_zero_scale_gives_zero_gradient(self):
        with Tape():
            x = leaf(np.ones((2, 2)))
            backward(ad.sum_all(ad.scale(x, 0.0)))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        with Tape():
            x = leaf(np.ones((2, 2)))
            y = ad.mul(x, x)
            with pytest.raises(ValueError, match="scalar"):
                backward(y)

    def test_closing_tape_frees_intermediates_without_gc(self):
        gc.disable()
        try:
            with Tape():
                x = leaf(np.ones((3, 4)))
                h = ad.relu(ad.scale(x, 2.0))
                ref = weakref.ref(h.data)
                loss = ad.sum_all(h)
                del h
                backward(loss)
                assert ref() is None
        finally:
            gc.enable()
        assert loss.item() == 24.0

    def test_closing_tape_without_backward_frees_intermediates_without_gc(self):
        gc.disable()
        try:
            with Tape():
                x = leaf(np.ones((3, 4)))
                h = ad.scale(x, 2.0)
                ref = weakref.ref(h.data)
                loss = ad.sum_all(ad.mul(h, h))
                del h
                assert ref() is not None  # mul's backward reads its inputs
            assert ref() is None
        finally:
            gc.enable()
        assert loss.item() == 48.0

    @pytest.mark.parametrize("consumer", [
        ad.relu, lambda h: ad.dropout_mask(h, 0.5, seed=3)], ids=["relu", "dropout"])
    def test_activation_no_backward_reads_is_freed_while_tape_is_open(self, consumer):
        gc.disable()
        try:
            with Tape():
                x = leaf(np.ones((3, 4)))
                h = ad.scale(x, 2.0)
                ref = weakref.ref(h.data)
                out = consumer(h)
                del h
                assert ref() is None
                backward(ad.sum_all(out))
        finally:
            gc.enable()
        np.testing.assert_array_equal(x.grad, out.data)  # x is ones, out is linear in x

    def test_second_tape_on_a_thread_raises(self):
        with Tape() as outer:
            with pytest.raises(RuntimeError, match="open tape"):
                with Tape():
                    pass
            assert ad.active_tape() is outer
            x = leaf([[2.0]])
            backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [[4.0]])
        with pytest.raises(FloatingPointError):
            with Tape():
                ad.scale(leaf([[np.inf]]), 1.0)
        assert ad.active_tape() is None  # a block that raised leaves the slot free

    def test_tensor_recorded_on_closed_tape_is_a_leaf_of_next_backward(self):
        with Tape():
            x = leaf([[1.0, -2.0]])
            h = ad.scale(x, 3.0)
        with Tape():
            backward(ad.sum_all(ad.mul(h, h)))
        np.testing.assert_array_equal(h.grad, [[6.0, -12.0]])
        assert x.grad is None

    def test_op_outside_any_tape_records_nothing(self):
        x = leaf([[1.0, -2.0]])
        with Tape():
            pass
        y = ad.scale(x, 3.0)
        assert ad.active_tape() is None
        assert y._tape is None and y._key is None and not y.requires_grad

    def test_second_backward_on_consumed_tape_raises(self):
        with Tape():
            x = leaf(np.ones((2, 2)))
            loss = ad.sum_all(ad.mul(x, x))
            backward(loss)
            with pytest.raises(ValueError, match="consumed"):
                backward(loss)
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))

    def test_backward_after_block_exit_raises(self):
        with Tape():
            x = leaf(np.ones((2, 2)))
            loss = ad.sum_all(x)
        with pytest.raises(ValueError, match="closed"):
            backward(loss)

    def test_reused_tensor_accumulates_within_pass(self):
        with Tape():
            x = leaf([[3.0]])
            loss = ad.sum_all(ad.mul(x, x))
            backward(loss)
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_free_leaf_accumulates_across_backward_calls(self):
        x = leaf([[3.0]])
        for _ in range(2):
            with Tape():
                backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [[12.0]])

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
                backward(loss)
                return loss.item(), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


class TestGradCheck:
    """Central finite differences vs backward for every op (spec tolerance)."""

    def test_intermediate_consumed_by_two_ops(self):
        rng = np.random.default_rng(11)
        b0, c0 = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))

        def build(x):
            h = ad.matmul(x, Tensor(b0))  # not a leaf; read by mul and sigmoid
            return ad.add(ad.sum_all(ad.mul(h, Tensor(c0))), ad.sum_all(ad.sigmoid(h)))

        run_grad_check(build, rng.normal(size=(4, 3)))

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
            backward(build(x))
        numeric = finite_difference_grad(lambda a: build(Tensor(a)).item(), x0.copy())
        live = [0, 1, 3]
        assert max_grad_error(x.grad[live], numeric[live]) < 1e-4
        np.testing.assert_array_equal(x.grad[2], np.zeros(3))

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
