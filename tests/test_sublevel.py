import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optcert
from optcert.algorithms import AlgoState, HbfAlgo, hbf_params, rollout
from optcert.problems import QuadraticInstance
from optcert.sublevel import (
    MAX_DRAWS,
    BetaPosterior,
    EstimateResult,
    SublevelSpec,
    beta_ppf,
    beta_quantile,
    estimate_probability,
    estimate_sublevel_probability,
    interval_narrower,
    sublevel_indicator,
    sublevel_threshold,
)


class TestSpecValidation:
    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            SublevelSpec(p_l=0.9, p_u=0.8)

    def test_rejects_bad_quantiles(self):
        with pytest.raises(ValueError):
            SublevelSpec(q_l=0.9, q_u=0.1)

    def test_defaults(self):
        s = SublevelSpec()
        assert (s.p_l, s.p_u, s.q_l, s.q_u) == (0.95, 1.0, 0.01, 0.99)
        assert s.width_tol == 0.075


class TestAdmits:
    """A result is feasible when it is conclusive and its estimate lies in the closed band."""

    spec = SublevelSpec(p_l=0.9, p_u=0.95)

    @staticmethod
    def result(point, conclusive=True):
        return EstimateResult(point_estimate=point, posterior=BetaPosterior(),
                              draws_used=58, conclusive=conclusive)

    @pytest.mark.parametrize("point", [0.9, 0.925, 0.95])
    def test_inside_and_on_either_edge(self, point):
        assert self.spec.admits(self.result(point))

    @pytest.mark.parametrize("point", [np.nextafter(0.9, 0.0), np.nextafter(0.95, 1.0), 0.0, 1.0])
    def test_outside(self, point):
        assert not self.spec.admits(self.result(point))

    def test_inconclusive_inside_the_band(self):
        assert not self.spec.admits(self.result(0.925, conclusive=False))


class TestThreshold:
    def test_constant_exponent(self):
        assert sublevel_threshold(SublevelSpec(g_scale=2.0, g_exponent=0.0), 17.0) == 2.0

    def test_square_root(self):
        assert sublevel_threshold(SublevelSpec(g_scale=1.0, g_exponent=0.5), 4.0) == 2.0


class _ScalarAlgo:
    """1-D test algorithm multiplying the iterate by a fixed factor."""

    def __init__(self, factor):
        self.factor = factor

    def init_state(self, x0):
        return AlgoState(x_curr=np.asarray(x0, float), x_prev=np.asarray(x0, float))

    def step(self, state, inst):
        x = self.factor * state.x_curr
        return AlgoState(x_curr=x, x_prev=state.x_curr)

    def loss(self, x, inst):
        return float(x @ x)


class TestIndicator:
    def test_identity_inside(self):
        spec = SublevelSpec(g_scale=1.0, g_exponent=1.0)
        assert sublevel_indicator(_ScalarAlgo(1.0), None, np.array([2.0]), 10, spec)

    def test_doubling_diverges(self):
        spec = SublevelSpec(g_scale=1.0, g_exponent=1.0)
        assert not sublevel_indicator(_ScalarAlgo(2.0), None, np.array([1.0]), 5, spec)

    def test_overflow_is_failure_not_warning(self):
        spec = SublevelSpec()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sublevel_indicator(_ScalarAlgo(10.0), None, np.array([1.0]), 400, spec)
        assert out is False

    def test_matches_direct_trajectory(self):
        inst = QuadraticInstance(diag=np.array([1.0, 4.0]), rhs=np.array([1.0, 0.0]))
        algo = HbfAlgo(hbf_params(1.0, 4.0))
        spec = SublevelSpec(g_scale=1.0, g_exponent=1.0)
        x0 = np.array([3.0, -2.0])
        st = algo.init_state(x0)
        for _ in range(20):
            st = algo.step(st, inst)
        expected = algo.loss(st.x_curr, inst) <= algo.loss(x0, inst)
        assert sublevel_indicator(algo, inst, x0, 20, spec) == expected


class TestBetaQuantile:
    def test_uniform(self):
        post = BetaPosterior()
        for q in (0.1, 0.5, 0.9):
            assert beta_quantile(post, q) == pytest.approx(q, abs=1e-12)

    def test_beta_2_1(self):
        # CDF of Beta(2,1) is x^2, so the 0.25 quantile is 0.5
        assert beta_quantile(BetaPosterior(2.0, 1.0), 0.25) == pytest.approx(0.5, abs=1e-9)

    def test_beta_1_2(self):
        # CDF of Beta(1,2) is 1-(1-x)^2, so the 0.75 quantile is 0.5
        assert beta_quantile(BetaPosterior(1.0, 2.0), 0.75) == pytest.approx(0.5, abs=1e-9)

    def test_power_closed_forms(self):
        # CDF of Beta(a, 1) is x^a and that of Beta(1, b) is 1 - (1 - x)^b
        for q in (1e-6, 0.01, 0.3, 0.99, 1 - 1e-6):
            assert beta_ppf(3.0, 1.0, q) == pytest.approx(q ** (1 / 3), rel=1e-13)
            assert beta_ppf(1.0, 4.0, q) == pytest.approx(-np.expm1(np.log1p(-q) / 4), rel=1e-13)

    @pytest.mark.parametrize("bad", [(0.0, 1.0, 0.5), (1.0, -1.0, 0.5), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0),
                                     (0.5, 1.0, 0.5), (1.0, 0.99, 0.5)])
    def test_rejects_invalid_arguments(self, bad):
        with pytest.raises(ValueError):
            beta_ppf.__wrapped__(*bad)

    def test_cached_equals_uncached(self):
        for a, b, q in itertools.product((1.0, 2.0, 37.0, 600.0), (1.0, 5.0, 420.0), (0.01, 0.5, 0.99)):
            first = beta_ppf(a, b, q)
            assert beta_ppf(a, b, q) == first == beta_ppf.__wrapped__(a, b, q)
            assert beta_quantile(BetaPosterior(a, b), q) == first


class TestEstimateProbability:
    def test_all_ones_stops_at_58(self):
        spec = SublevelSpec(q_l=0.01, q_u=0.99, width_tol=0.075)
        res = estimate_probability(itertools.repeat(1), spec)
        assert res.conclusive
        assert res.draws_used == 58
        assert res.posterior.count_a == 59 and res.posterior.count_b == 1
        assert res.point_estimate == pytest.approx(59.0 / 60.0)

    def test_one_opening_miss_stops_at_83(self):
        res = estimate_probability(itertools.chain([0], itertools.repeat(1)), SublevelSpec())
        assert res.conclusive
        assert res.draws_used == 83
        assert res.posterior.count_a == 83 and res.posterior.count_b == 2

    def test_counts_sum(self):
        spec = SublevelSpec(width_tol=0.2)
        rng = np.random.default_rng(0)
        res = estimate_probability((int(rng.random() < 0.7) for _ in itertools.count()), spec)
        assert res.posterior.count_a + res.posterior.count_b == res.draws_used + 2

    def test_loose_tolerance_needs_no_draws(self):
        # the prior interval [q_l, q_u] already has width 0.98 < 0.99
        spec = SublevelSpec(width_tol=0.99)
        res = estimate_probability(itertools.repeat(1), spec)
        assert res.conclusive and res.draws_used == 0
        assert res.point_estimate == pytest.approx(0.5)

    def test_max_draws_inconclusive(self):
        spec = SublevelSpec(width_tol=1e-9)
        res = estimate_probability(itertools.repeat(1), spec)
        assert not res.conclusive and res.draws_used == MAX_DRAWS == 10_000

    def test_calibration_near_true_p(self):
        spec = SublevelSpec()
        rng = np.random.default_rng(3)
        ests = [
            estimate_probability(
                (int(rng.random() < 0.8) for _ in itertools.count()), spec
            ).point_estimate
            for _ in range(50)
        ]
        assert abs(np.mean(ests) - 0.8) < 0.05
        assert all(abs(e - 0.8) < 0.15 for e in ests)


class TestIntervalNarrower:
    def test_agrees_with_the_quantile_width(self):
        # the width of the default interval falls through 0.075 between these counts
        spec = SublevelSpec()
        for a, b in itertools.product((1.0, 2.0, 5.0, 40.0, 59.0, 300.0), (1.0, 3.0, 30.0, 250.0, 700.0)):
            for tol in (0.01, 0.075, 0.3, 0.99):
                width = beta_ppf(a, b, spec.q_u) - beta_ppf(a, b, spec.q_l)
                assert interval_narrower(a, b, spec.q_l, spec.q_u, tol) == (width < tol), (a, b, tol)

    def test_lower_quantile_plus_tolerance_past_one(self):
        # x_l + tol >= 1 leaves no room for a wider interval
        assert interval_narrower(1.0, 1.0, 0.01, 0.99, 0.99)
        assert not interval_narrower(1.0, 1.0, 0.01, 0.99, 0.9)

    def test_cached_equals_uncached(self):
        args = (17.0, 4.0, 0.01, 0.99, 0.075)
        assert interval_narrower(*args) == interval_narrower.__wrapped__(*args)


class TestEstimateSublevel:
    def test_result_carries_the_rollout_matrix(self):
        algo = HbfAlgo(hbf_params(1.0, 4.0))
        insts = [QuadraticInstance(diag=np.array([1.0, 4.0]), rhs=np.array([r, 0.0])) for r in (1.0, -2.0)]
        x0 = np.array([3.0, -2.0])
        res = estimate_sublevel_probability(algo, insts, x0, 7, SublevelSpec(), np.random.default_rng(0))
        assert res.losses.tobytes() == rollout(algo, insts, x0, 7).tobytes()
        assert estimate_probability(itertools.repeat(1), SublevelSpec()).losses is None

    def test_on_mixed_pool(self):
        # half the pool converges under the indicator, half diverges; the
        # estimate should land near 0.5
        spec = SublevelSpec(g_scale=1.0, g_exponent=1.0, width_tol=0.15)

        class PoolAlgo(_ScalarAlgo):
            def step(self, state, inst):
                f = 0.5 if inst else 2.0
                return AlgoState(x_curr=f * state.x_curr, x_prev=state.x_curr)

        instances = [True] * 10 + [False] * 10
        rng = np.random.default_rng(1)
        res = estimate_sublevel_probability(PoolAlgo(1.0), instances, np.array([1.0]), 3, spec, rng)
        assert res.conclusive
        assert abs(res.point_estimate - 0.5) < 0.2

    def test_degenerate_pool(self):
        spec = SublevelSpec(width_tol=0.075)
        rng = np.random.default_rng(2)
        res = estimate_sublevel_probability(
            _ScalarAlgo(0.5), [None], np.array([1.0]), 2, spec, rng
        )
        assert res.conclusive and res.point_estimate == pytest.approx(59.0 / 60.0)

class TestBetaQuantileAgainstScipy:
    """SciPy's ``betaincinv`` is the reference; the package itself does not import SciPy."""

    @pytest.fixture(scope="class")
    def betaincinv(self):
        return pytest.importorskip("scipy.special").betaincinv

    def test_grid_relative_error(self, betaincinv):
        counts = (1.0, 1.5, 2.0, 3.0, 7.0, 30.0, 59.0, 100.0, 333.0, 1000.0, 3000.0, 10001.0)
        qs = (1e-12, 1e-6, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1 - 1e-6, 1 - 1e-12)
        errors = [
            abs(beta_ppf.__wrapped__(a, b, q) / betaincinv(a, b, q) - 1.0)
            for a, b, q in itertools.product(counts, counts, qs)
        ]
        assert max(errors) <= 1e-10
        assert np.median(errors) <= 1e-13

    def test_same_stopping_decision_for_all_counts_up_to_1302(self, betaincinv):
        # all integer posterior counts a, b >= 1 with a + b <= 1302; beyond
        # a + b ~ 970 the default interval is always narrower than width_tol
        spec = SublevelSpec()
        totals = np.arange(2, 1303)
        a = np.concatenate([np.arange(1, s) for s in totals]).astype(float)
        b = np.repeat(totals, totals - 1) - a
        width = betaincinv(a, b, spec.q_u) - betaincinv(a, b, spec.q_l)
        # A decision can only flip where the reference width lies within the
        # two implementations' error of the tolerance.  Every pair within 1e-4
        # of it (about 2.6k pairs) is recomputed, and a random sample of the
        # rest confirms that the error stays far below that margin.
        near = np.flatnonzero(np.abs(width - spec.width_tol) < 1e-4)
        far = np.random.default_rng(0).choice(len(a), 300, replace=False)
        assert len(near) > 1000
        for i in np.concatenate([near, far]):
            ours = beta_ppf.__wrapped__(a[i], b[i], spec.q_u) - beta_ppf.__wrapped__(
                a[i], b[i], spec.q_l
            )
            assert abs(ours - width[i]) <= 1e-10
            assert (ours < spec.width_tol) == (width[i] < spec.width_tol), (a[i], b[i])


    def test_narrower_decides_as_the_scipy_width(self, betaincinv):
        # the stopping decision from one quantile and one CDF value, on every
        # integer pair whose reference width lies within 1e-4 of the tolerance
        spec = SublevelSpec()
        totals = np.arange(2, 1303)
        a = np.concatenate([np.arange(1, s) for s in totals]).astype(float)
        b = np.repeat(totals, totals - 1) - a
        width = betaincinv(a, b, spec.q_u) - betaincinv(a, b, spec.q_l)
        near = np.flatnonzero(np.abs(width - spec.width_tol) < 1e-4)
        assert len(near) > 1000
        for i in near:
            narrower = interval_narrower.__wrapped__(a[i], b[i], spec.q_l, spec.q_u, spec.width_tol)
            assert narrower == (width[i] < spec.width_tol), (a[i], b[i])


def test_quantile_matches_scipy_reference():
    betaincinv = pytest.importorskip("scipy.special").betaincinv
    post = BetaPosterior(7.0, 3.0)
    assert beta_quantile(post, 0.42) == pytest.approx(float(betaincinv(7.0, 3.0, 0.42)))


def test_package_import_loads_no_scipy():
    probe = (
        "import sys, optcert, optcert.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(optcert.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
