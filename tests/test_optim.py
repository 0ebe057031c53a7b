import numpy as np
import pytest

from bilink import autodiff as ad
from bilink.autodiff import Tape, Tensor, backward
from bilink.errors import TrainingError
from bilink.model import make_store
from bilink.optim import adam_step, init_adam_state


def store(**arrays):
    return make_store(arrays, requires_grad=True)


def test_zero_gradient_zero_decay_leaves_params():
    params = store(p=[[1.0, -2.0]])
    p = params["p"]
    state = init_adam_state(params)
    adam_step(params, {p: np.zeros((1, 2))}, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, [[1.0, -2.0]])


def test_first_step_moves_against_gradient_sign():
    params = store(p=[[0.0, 0.0, 0.0]])
    p = params["p"]
    state = init_adam_state(params)
    g = np.array([[3.0, -0.5, 1e-4]])
    adam_step(params, {p: g}, state, lr=0.01, weight_decay=0.0)
    assert np.all(np.sign(p.data) == -np.sign(g))


def test_missing_gradient_only_decays():
    params = store(p=[[2.0]])
    state = init_adam_state(params)
    adam_step(params, {}, state, lr=0.1, weight_decay=0.5)
    np.testing.assert_allclose(params["p"].data, [[2.0 * (1 - 0.1 * 0.5)]])


def test_non_finite_gradient_names_parameter():
    params = store(**{"layer.bias": [[1.0]], "layer.weight": [[1.0]]})
    state = init_adam_state(params)
    grads = {params["layer.bias"]: np.array([[1.0]]),
             params["layer.weight"]: np.array([[np.nan]])}
    with pytest.raises(TrainingError, match="layer.weight"):
        adam_step(params, grads, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(params.flat, [1.0, 1.0])


def test_gradient_shape_mismatch_rejected():
    params = store(w=[[1.0, 2.0]])
    state = init_adam_state(params)
    with pytest.raises(ValueError, match="does not match parameter 'w'"):
        adam_step(params, {params["w"]: np.ones((2, 1))}, state, lr=0.1,
                  weight_decay=0.0)


def test_quadratic_bowl_converges():
    """100 steps on 0.5 * ||x - target||^2: loss strictly decreases after
    warmup and ends far below where it started."""
    target = np.array([[2.0, -3.0, 0.5]])
    params = store(x=np.zeros((1, 3)))
    x = params["x"]
    state = init_adam_state(params)
    losses = []
    for _ in range(100):
        with Tape():
            diff = ad.add(x, Tensor(-target))
            loss = ad.scale(ad.sum_all(ad.mul(diff, diff)), 0.5)
            grad_map = backward(loss)
        losses.append(loss.item())
        adam_step(params, grad_map, state, lr=0.05, weight_decay=0.0)
    assert all(b < a for a, b in zip(losses[10:], losses[11:]))
    assert losses[-1] < 0.01 * losses[0]


def test_deterministic_updates():
    def run():
        params = store(p=[[1.0, 2.0]])
        state = init_adam_state(params)
        for i in range(5):
            adam_step(params, {params["p"]: np.array([[0.1 * i, -0.2]])}, state,
                      lr=0.01, weight_decay=1e-5)
        return params["p"].data.copy()

    np.testing.assert_array_equal(run(), run())
