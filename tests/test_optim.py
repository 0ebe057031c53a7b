import numpy as np
import pytest

from bilink import autodiff as ad
from bilink.autodiff import Tape, Tensor, backward
from bilink.errors import TrainingError
from bilink.model import ParamStore
from bilink.optim import (BETA1, BETA2, EPS, MAX_GRAD, _BLOCK, adam_step,
                          init_adam_state)


def store(**arrays):
    return ParamStore(arrays, requires_grad=True)


def step(params, grads: dict, state, lr, weight_decay):
    """Write `grads` ({name: array}) into the store's gradient views, then
    take one Adam step."""
    for name, g in grads.items():
        params[name].grad[...] = g
    adam_step(params, state, lr, weight_decay)


def reference_adam(values: dict, grads: dict, steps: int, lr, weight_decay):
    """Per-parameter Adam in the module's operation order, one array at a
    time; a parameter missing from `grads` gets a zero gradient."""
    values = {name: np.array(v, dtype=np.float64) for name, v in values.items()}
    m = {name: np.zeros_like(v) for name, v in values.items()}
    v2 = {name: np.zeros_like(v) for name, v in values.items()}
    for t in range(1, steps + 1):
        for name, p in values.items():
            g = grads.get(name, np.zeros_like(p))
            m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
            v2[name] = BETA2 * v2[name] + (1.0 - BETA2) * g * g
            m_hat = m[name] / (1.0 - BETA1 ** t)
            v_hat = v2[name] / (1.0 - BETA2 ** t)
            if weight_decay:
                p *= 1.0 - lr * weight_decay
            p -= lr * m_hat / (np.sqrt(v_hat) + EPS)
    return values


def test_zero_gradient_zero_decay_leaves_params():
    params = store(p=[[1.0, -2.0]])
    p = params["p"]
    state = init_adam_state(params)
    step(params, {"p": np.zeros((1, 2))}, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, [[1.0, -2.0]])


def test_first_step_moves_against_gradient_sign():
    params = store(p=[[0.0, 0.0, 0.0]])
    p = params["p"]
    state = init_adam_state(params)
    g = np.array([[3.0, -0.5, 1e-4]])
    step(params, {"p": g}, state, lr=0.01, weight_decay=0.0)
    assert np.all(np.sign(p.data) == -np.sign(g))


def test_missing_gradient_only_decays():
    params = store(p=[[2.0]])
    state = init_adam_state(params)
    adam_step(params, state, lr=0.1, weight_decay=0.5)
    np.testing.assert_allclose(params["p"].data, [[2.0 * (1 - 0.1 * 0.5)]])


def test_step_zeroes_the_gradient_buffer():
    params = store(p=[[1.0, 2.0]], q=[[3.0]])
    assert params.grad.shape == params.flat.shape and not params.grad.any()
    step(params, {"p": [[0.5, -1.0]], "q": [[2.0]]}, init_adam_state(params),
         lr=0.1, weight_decay=0.0)
    assert not params.grad.any()
    assert all(np.shares_memory(p.grad, params.grad) for p in params.values())


def test_flat_update_equals_per_parameter_reference_bit_for_bit():
    """Several blocks, a parameter straddling a block edge, and one that
    never receives a gradient and so only decays."""
    rng = np.random.default_rng(21)
    values = {"a": rng.normal(size=(300, 150)), "b": rng.normal(size=(1, 7)),
              "idle": rng.normal(size=(100, 250))}
    assert sum(v.size for v in values.values()) > 2 * _BLOCK
    grads = {"a": rng.normal(size=(300, 150)), "b": rng.normal(size=(1, 7))}
    params = store(**values)
    state = init_adam_state(params)
    for _ in range(3):
        step(params, grads, state, lr=0.01, weight_decay=1e-3)
    want = reference_adam(values, grads, 3, lr=0.01, weight_decay=1e-3)
    for name, p in params.items():
        np.testing.assert_array_equal(p.data, want[name], err_msg=name)
        np.testing.assert_array_equal(np.signbit(p.data), np.signbit(want[name]))


def test_non_finite_gradient_names_parameter():
    params = store(**{"layer.bias": [[1.0]], "layer.weight": [[1.0]]})
    state = init_adam_state(params)
    grads = {"layer.bias": np.array([[1.0]]),
             "layer.weight": np.array([[np.nan]])}
    with pytest.raises(TrainingError, match="layer.weight"):
        step(params, grads, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(params.flat, [1.0, 1.0])


def test_failed_step_changes_nothing_and_zeroes_gradients():
    """After a step fails on a non-finite gradient, the next step equals a
    fresh store's first step."""
    values = {"w": [[0.5, -1.5]], "b": [[2.0]]}
    params = store(**values)
    state = init_adam_state(params)
    with pytest.raises(TrainingError, match="'b'"):
        step(params, {"w": [[1.0, 1.0]], "b": [[np.inf]]}, state, lr=0.1,
             weight_decay=0.01)
    np.testing.assert_array_equal(params.flat, [0.5, -1.5, 2.0])
    assert not params.grad.any() and state.step == 0

    fresh = store(**values)
    good = {"w": [[0.3, -0.2]], "b": [[0.7]]}
    step(params, good, state, lr=0.1, weight_decay=0.01)
    step(fresh, good, init_adam_state(fresh), lr=0.1, weight_decay=0.01)
    np.testing.assert_array_equal(params.flat, fresh.flat)


@pytest.mark.parametrize("bad", [np.nextafter(MAX_GRAD, np.inf), -1e200])
def test_too_large_gradient_changes_nothing_and_zeroes_gradients(bad):
    """A finite gradient whose square would overflow the second moment is
    rejected like a non-finite one, after earlier steps filled the moments."""
    params = store(**{"layer.bias": [[1.0]], "layer.weight": [[1.0, -1.0]]})
    state = init_adam_state(params)
    step(params, {"layer.bias": [[0.5]], "layer.weight": [[0.2, -0.3]]}, state,
         lr=0.1, weight_decay=0.01)
    before = (params.flat.copy(), state.m.copy(), state.v.copy(), state.step)
    with pytest.raises(TrainingError, match="too large .*'layer.weight'"):
        step(params, {"layer.weight": [[0.1, bad]]}, state, lr=0.1, weight_decay=0.01)
    after = (params.flat, state.m, state.v, state.step)
    for was, now in zip(before, after):
        np.testing.assert_array_equal(now, was)
    assert not params.grad.any()


def test_largest_accepted_gradient_keeps_the_moments_finite():
    params = store(p=[[0.0, 0.0]])
    state = init_adam_state(params)
    for _ in range(5):
        step(params, {"p": [[MAX_GRAD, -MAX_GRAD]]}, state, lr=0.1, weight_decay=0.0)
    assert np.isfinite(state.v).all() and np.isfinite(params.flat).all()
    assert np.all(np.sign(params.flat) == [-1.0, 1.0])


def test_state_of_another_store_rejected():
    params = store(p=[[1.0, 2.0]])
    state = init_adam_state(store(q=[[1.0]]))
    params["p"].grad[...] = 1.0
    with pytest.raises(ValueError, match="does not match"):
        adam_step(params, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(params.flat, [1.0, 2.0])
    assert not params.grad.any()


def test_gradient_shape_mismatch_rejected():
    """`backward` checks each leaf's gradient shape before adding it, since
    an in-place add would broadcast a (1, 1) gradient over a (1, 2) one."""
    params = store(w=[[1.0, 2.0]])
    w = params["w"]
    with Tape():
        loss = ad._apply("bad", np.array([[3.0]]), (w,), lambda g: (np.ones((1, 1)),))
        with pytest.raises(ValueError, match=r"\(1, 1\) does not match .*\(1, 2\)"):
            backward(loss)
    assert not params.grad.any()


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
            backward(loss)
        losses.append(loss.item())
        adam_step(params, state, lr=0.05, weight_decay=0.0)
    assert all(b < a for a, b in zip(losses[10:], losses[11:]))
    assert losses[-1] < 0.01 * losses[0]


def test_deterministic_updates():
    def run():
        params = store(p=[[1.0, 2.0]])
        state = init_adam_state(params)
        for i in range(5):
            step(params, {"p": np.array([[0.1 * i, -0.2]])}, state,
                 lr=0.01, weight_decay=1e-5)
        return params["p"].data.copy()

    np.testing.assert_array_equal(run(), run())
