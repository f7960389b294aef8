"""The batched rollout against the per-instance reference loop.

``rollout`` stacks the instances and runs every package algorithm over all of
them at once; ``reference_rollout`` runs ``init_state``/``step``/``loss`` one
instance at a time.  The two must agree to 1e-12 relative, including which
entries read inf after an iterate turns non-finite.
"""

import warnings

import numpy as np
import pytest

from optcert.algorithms import (
    AlgoState,
    FistaAlgo,
    HbfAlgo,
    HbfParams,
    LassoLearnedAlgo,
    LearnedLassoArch,
    LearnedQuadArch,
    QuadLearnedAlgo,
    hbf_params,
    reference_rollout,
    rollout,
)
from optcert.problems import LassoClassContext, gen_lasso, gen_quadratics
from optcert.sublevel import (
    SublevelSpec,
    estimate_probability,
    estimate_sublevel_probability,
    sublevel_indicator,
)

QUADS = gen_quadratics(50, 20, (1.0, 2.0), (5.0, 10.0), 3)
CTX, LASSOS = gen_lasso(50, 40, 25, (0.1, 1.0), 4)
HBF = hbf_params(1.0, 10.0)


def _learned_quad(scale):
    algo = QuadLearnedAlgo(LearnedQuadArch.init(np.random.default_rng(5)))
    algo.set_flat(algo.get_flat() * scale)
    return algo


def _learned_lasso(scale):
    algo = LassoLearnedAlgo(LearnedLassoArch.init(np.random.default_rng(6), 1.0 / CTX.lipschitz), CTX)
    algo.set_flat(algo.get_flat() * scale)
    return algo


# name -> (algorithm for a parameter scale, instances, dimension, steps).  The
# scale multiplies the learned weights, the heavy-ball step size, or the FISTA
# step 1/L.  LASSO runs 10 steps, as the LASSO configs do: over 50 steps an
# untrained LASSO rule amplifies the last-bit differences between batched
# and single-row matrix products to about 1e-9.
CASES = {
    "quad_learned": (_learned_quad, QUADS, 20, 50),
    "hbf": (lambda s: HbfAlgo(HbfParams(tau=HBF.tau * s, beta=HBF.beta)), QUADS, 20, 50),
    "lasso_learned": (_learned_lasso, LASSOS, 40, 10),
    "fista": (lambda s: FistaAlgo(LassoClassContext(CTX.design, CTX.lipschitz / s)), LASSOS, 40, 50),
}


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("batch", [1, 50])
@pytest.mark.parametrize("start", ["zero", "random"])
def test_batched_equals_reference(name, batch, start):
    # from x0 = 0 the first LASSO sign channel is a zero row as well as the
    # momentum (which is zero at step 1 from any start)
    make, instances, n, k = CASES[name]
    algo = make(1.0)
    x0 = np.zeros(n) if start == "zero" else np.random.default_rng(7).normal(size=n)
    got = rollout(algo, instances[:batch], x0, k)
    want = reference_rollout(algo, instances[:batch], x0, k)
    assert got.shape == (batch, k + 1)
    assert np.all(np.isfinite(want))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _first_nonfinite_step(algo, instances, x0, k):
    """Per instance, the first step whose iterate is non-finite (k + 1 when none is)."""
    firsts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for inst in instances:
            state, first = algo.init_state(x0), k + 1
            for j in range(1, k + 1):
                state = algo.step(state, inst)
                if not np.all(np.isfinite(state.x_curr)):
                    first = j
                    break
            firsts.append(first)
    return np.array(firsts)


@pytest.mark.parametrize("name", CASES)
def test_diverging_rows_read_inf(name):
    make, instances, n, k = CASES[name]
    instances = instances[:20]
    x0 = np.zeros(n)
    # bisect the log10 scale until some but not all iterates turn non-finite
    lo, hi = 0.0, 40.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        firsts = _first_nonfinite_step(make(10.0**mid), instances, x0, k)
        diverged = int(np.sum(firsts <= k))
        if 0 < diverged < len(instances):
            break
        lo, hi = (mid, hi) if diverged == 0 else (lo, mid)
    else:
        pytest.fail("no scale splits the rows into diverging and finite ones")
    algo = make(10.0**mid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rollout(algo, instances, x0, k)
    for row, first in zip(got, firsts):
        assert np.all(np.isinf(row[first:]))
    np.testing.assert_allclose(got, reference_rollout(algo, instances, x0, k), rtol=1e-12, atol=0.0)


def test_estimate_matches_per_draw_indicator_stream():
    algo = _learned_quad(1.0)
    x0, k = np.zeros(20), 50
    # threshold at the median contraction, so the outcomes are mixed
    losses = rollout(algo, QUADS, x0, k)
    spec = SublevelSpec(g_scale=float(np.median(losses[:, -1] / losses[:, 0])), width_tol=0.2)
    rng_batched, rng_draws = np.random.default_rng(11), np.random.default_rng(11)

    def per_draw():
        while True:
            inst = QUADS[rng_draws.integers(len(QUADS))]
            yield int(sublevel_indicator(algo, inst, x0, k, spec))

    got = estimate_sublevel_probability(algo, QUADS, x0, k, spec, rng_batched)
    want = estimate_probability(per_draw(), spec)
    assert got == want
    assert 0 < got.posterior.count_a - 1 < got.draws_used
    assert rng_batched.bit_generator.state == rng_draws.bit_generator.state


def test_duck_typed_algorithm_uses_reference_loop():
    class Halving:
        """x <- x / 2 with loss inst * |x|^2; it has no batched rollout."""

        def init_state(self, x0):
            return AlgoState(x_curr=x0, x_prev=x0)

        def step(self, state, inst):
            return AlgoState(x_curr=0.5 * state.x_curr, x_prev=state.x_curr)

        def loss(self, x, inst):
            return float(inst * (x @ x))

    got = rollout(Halving(), [1.0, 2.0], np.array([2.0]), 2)
    np.testing.assert_array_equal(got, [[4.0, 1.0, 0.25], [8.0, 2.0, 0.5]])


def test_step_seconds_are_added_per_step():
    seconds = np.zeros(5)
    rollout(_learned_quad(1.0), QUADS[:3], np.zeros(20), 5, step_seconds=seconds)
    assert np.all(seconds > 0.0)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        rollout(_learned_quad(1.0), QUADS[:1], np.zeros(20), -1)


@pytest.mark.parametrize("name", ["quad_learned", "lasso_learned"])
def test_rollout_after_set_flat_uses_the_new_weights(name):
    # the contiguous weight copies of one rollout must not survive into the next
    make, instances, n, k = CASES[name]
    algo, x0 = make(1.0), np.zeros(n)
    first = rollout(algo, instances, x0, k)
    snapshot = first.copy()
    algo.set_flat(make(0.5).get_flat())
    second = rollout(algo, instances, x0, k)
    assert second.tobytes() == rollout(make(0.5), instances, x0, k).tobytes()
    assert second.tobytes() != first.tobytes()
    assert first.tobytes() == snapshot.tobytes()
    assert all(net.weights_t is None for net in algo.arch.nets)
