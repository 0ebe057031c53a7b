"""Adam with decoupled weight decay over one parameter store's flat buffers:
`backward` adds into `grad`, and each step reads it beside `flat` and zeroes it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import TrainingError

# Elements per pass of the update, so one block's temporaries stay in cache.
# On a 2-vCPU x86 host, whole-buffer temporaries made a step over the
# default-size network (about 370k values) 2.4x slower than per-parameter
# updates; 32k-element blocks made it about 20% faster than them.
_BLOCK = 1 << 15

# Moment decay rates and the denominator's epsilon (Kingma and Ba's defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam_state(params) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(params, state: AdamState, lr: float, weight_decay: float) -> None:
    """One in-place update of every parameter of a `ParamStore` from its
    `grad` buffer, which is zeroed on return, whether the step ran or not.

    Weight decay is applied directly to the parameter (decoupled from the
    moment estimates), so a parameter that received no gradient still
    decays. A non-finite gradient raises TrainingError, naming the first
    parameter that holds one, before anything is written.
    """
    g = params.grad
    try:
        if state.m.shape != params.flat.shape:
            raise ValueError("optimizer state does not match parameter set")
        if not np.isfinite(g).all():
            name = next(n for n, p in params.items() if not np.isfinite(p.grad).all())
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        state.step += 1
        t = state.step
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for lo in range(0, g.size, _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            gb, m, v, p = g[blk], state.m[blk], state.v[blk], params.flat[blk]
            m *= BETA1
            m += (1.0 - BETA1) * gb
            v *= BETA2
            v += (1.0 - BETA2) * gb * gb
            m_hat = m / bc1
            v_hat = v / bc2
            if weight_decay:
                p *= 1.0 - lr * weight_decay
            p -= lr * m_hat / (np.sqrt(v_hat) + EPS)
    finally:
        g.fill(0.0)
