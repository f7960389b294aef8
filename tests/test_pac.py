import numpy as np
import pytest

from optcert import pac
from optcert.algorithms import AlgoState, LearnedQuadArch, QuadLearnedAlgo
from optcert.pac import (
    CertificateMismatchError,
    DiscreteMeasure,
    PacConfig,
    SufficientStats,
    build_posterior,
    build_prior,
    build_stats,
    certify,
    empirical_sublevel_risk,
    kappa_tilde,
    kl_divergence,
    optimize_lambda,
    pac_objective,
    point_estimate,
)
from optcert.problems import gen_quadratics
from optcert.sampler import SgldConfig, constrained_sample
from optcert.sublevel import SublevelSpec


class TestDiscreteMeasure:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([1.2, -0.2]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.5, 0.4]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([]))

    def test_len(self):
        assert len(DiscreteMeasure(np.array([0.25, 0.75]))) == 2


class TestSufficientStats:
    def test_negative_t2_rejected(self):
        with pytest.raises(ValueError):
            SufficientStats(t1=np.zeros(2), t2=np.array([0.1, -0.1]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SufficientStats(t1=np.zeros(2), t2=np.zeros(3))


class TestBuildPrior:
    def test_softmax(self):
        measure, keep = build_prior(np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(measure.weights, [0.25, 0.75])
        np.testing.assert_array_equal(keep, [0, 1])

    def test_drops_minus_inf(self):
        measure, keep = build_prior(np.array([-np.inf, 1.0, -np.inf, 1.0]))
        np.testing.assert_allclose(measure.weights, [0.5, 0.5])
        np.testing.assert_array_equal(keep, [1, 3])

    def test_all_infeasible_raises(self):
        with pytest.raises(ValueError):
            build_prior(np.full(3, -np.inf))

    def test_shift_invariance(self):
        phi = np.array([-3.0, -1.0, -2.0])
        m1, _ = build_prior(phi)
        m2, _ = build_prior(phi + 1e4)
        np.testing.assert_allclose(m1.weights, m2.weights)


class TestKappaTilde:
    def test_singleton_zero_stats(self):
        prior = DiscreteMeasure(np.array([1.0]))
        stats = SufficientStats(t1=np.zeros(1), t2=np.zeros(1))
        assert kappa_tilde(2.0, prior, stats) == pytest.approx(0.0)

    def test_two_point_hand_value(self):
        prior = DiscreteMeasure(np.array([0.5, 0.5]))
        stats = SufficientStats(t1=np.zeros(2), t2=np.array([0.0, 2.0]))
        assert kappa_tilde(1.0, prior, stats) == pytest.approx(np.log(0.5 * (1 + np.e**-1)))

    def test_upper_bounded_by_max_exponent(self):
        rng = np.random.default_rng(0)
        w = rng.random(5)
        prior = DiscreteMeasure(w / w.sum())
        stats = SufficientStats(t1=rng.normal(size=5), t2=rng.random(5))
        for lam in (0.1, 1.0, 10.0):
            assert kappa_tilde(lam, prior, stats) <= lam * stats.t1.max() + 1e-12

    def test_extreme_lambda_is_finite(self):
        prior = DiscreteMeasure(np.array([0.5, 0.5]))
        stats = SufficientStats(t1=np.array([-1.0, -50.0]), t2=np.array([0.3, 0.7]))
        for lam in (1e-4, 1.0, 1e4):
            assert np.isfinite(kappa_tilde(lam, prior, stats))


class TestObjectiveAndOptimum:
    def test_zero_kappa_closed_form(self):
        prior = DiscreteMeasure(np.array([1.0]))
        stats = SufficientStats(t1=np.zeros(1), t2=np.zeros(1))
        val = pac_objective(2.0, prior, stats, 100, 0.05)
        assert val == pytest.approx(np.log(100 / 0.05) / 2.0)

    def test_singleton_closed_form_optimum(self):
        # For one point with t1 = -r, t2 = v:
        #   F(lam) = r + log(K/eps)/lam + lam*v/2, minimized at sqrt(2 log(K/eps)/v)
        r, v = 0.3, 0.8
        prior = DiscreteMeasure(np.array([1.0]))
        stats = SufficientStats(t1=np.array([-r]), t2=np.array([v]))
        cfg = PacConfig(lambda_min=1e-3, lambda_max=1e3, grid_size=4000, eps_pac=0.05)
        lam, bound = optimize_lambda(prior, stats, cfg)
        lam_star = np.sqrt(2 * np.log(cfg.grid_size / cfg.eps_pac) / v)
        # one grid cell of relative resolution
        cell = (1e3 / 1e-3) ** (1 / (4000 - 1))
        assert lam_star / cell <= lam <= lam_star * cell
        f_star = r + np.sqrt(2 * v * np.log(cfg.grid_size / cfg.eps_pac))
        assert bound == pytest.approx(f_star, rel=1e-4)

    def test_ties_take_smaller_lambda(self):
        grid = PacConfig(lambda_min=1.0, lambda_max=1.0, grid_size=3).lambda_grid()
        np.testing.assert_allclose(grid, [1.0, 1.0, 1.0])
        prior = DiscreteMeasure(np.array([1.0]))
        stats = SufficientStats(t1=np.zeros(1), t2=np.zeros(1))
        lam, _ = optimize_lambda(prior, stats, PacConfig(lambda_min=1.0, lambda_max=1.0, grid_size=3))
        assert lam == 1.0


class TestPosterior:
    def test_small_lambda_recovers_prior(self):
        prior = DiscreteMeasure(np.array([0.2, 0.3, 0.5]))
        stats = SufficientStats(t1=np.array([0.0, -1.0, -2.0]), t2=np.ones(3))
        post = build_posterior(1e-12, prior, stats)
        np.testing.assert_allclose(post.weights, prior.weights, rtol=1e-9)

    def test_large_lambda_concentrates(self):
        prior = DiscreteMeasure(np.array([0.5, 0.5]))
        stats = SufficientStats(t1=np.array([-0.1, -3.0]), t2=np.zeros(2))
        post = build_posterior(50.0, prior, stats)
        assert post.weights[0] > 0.999

    def test_gibbs_hand_value(self):
        prior = DiscreteMeasure(np.array([0.5, 0.5]))
        stats = SufficientStats(t1=np.array([0.0, np.log(3.0)]), t2=np.zeros(2))
        post = build_posterior(1.0, prior, stats)
        np.testing.assert_allclose(post.weights, [0.25, 0.75])


class TestKl:
    def test_equal_is_zero(self):
        p = DiscreteMeasure(np.array([0.3, 0.7]))
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        q = DiscreteMeasure(np.array([1.0, 0.0]))
        p = DiscreteMeasure(np.array([0.5, 0.5]))
        assert kl_divergence(q, p) == pytest.approx(np.log(2.0))

    def test_support_violation(self):
        q = DiscreteMeasure(np.array([0.5, 0.5]))
        p = DiscreteMeasure(np.array([1.0, 0.0]))
        assert kl_divergence(q, p) == np.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(DiscreteMeasure(np.array([1.0])), DiscreteMeasure(np.array([0.5, 0.5])))


class TestPointEstimate:
    def test_argmax(self):
        assert point_estimate(DiscreteMeasure(np.array([0.2, 0.5, 0.3]))) == 1

    def test_tie_takes_first(self):
        assert point_estimate(DiscreteMeasure(np.array([0.4, 0.4, 0.2]))) == 0


class TestCertify:
    def test_singleton_matches_closed_form(self):
        r, v = 1.2, 0.5
        prior = DiscreteMeasure(np.array([1.0]))
        stats = SufficientStats(t1=np.array([-r]), t2=np.array([v]))
        cfg = PacConfig(grid_size=2000, eps_pac=0.05)
        cert = certify(prior, stats, cfg)
        f_star = r + np.sqrt(2 * v * np.log(cfg.grid_size / cfg.eps_pac))
        assert cert.bound == pytest.approx(f_star, rel=1e-4)
        assert cert.kl == pytest.approx(0.0, abs=1e-12)
        assert cert.emp_risk == pytest.approx(r)
        assert cert.point_index == 0

    def test_identity_holds_on_random_sets(self):
        # certify() itself asserts the change-of-measure identity at 1e-8
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = rng.integers(2, 8)
            w = rng.random(m)
            prior = DiscreteMeasure(w / w.sum())
            stats = SufficientStats(t1=-rng.random(m) * 5, t2=rng.random(m))
            cert = certify(prior, stats, PacConfig(grid_size=500))
            assert np.isfinite(cert.bound)
            assert cert.bound >= -float(cert.posterior.weights @ stats.t1) - 1e-12

    def test_mismatch_between_bounds_below_one_is_refused(self, monkeypatch):
        # bounds of order 1e-10, as at a small sublevel threshold: with the prior in
        # place of the Gibbs posterior the change-of-measure form reads 8.4e-10 against
        # a grid objective of 4.9e-10, which a tolerance of an absolute 1e-8 accepted
        prior = DiscreteMeasure(np.array([0.5, 0.5]))
        stats = SufficientStats(t1=np.array([-1e-11, -3e-11]), t2=np.array([1e-20, 4e-20]))
        cfg = PacConfig(grid_size=2000, lambda_max=1e30)
        assert certify(prior, stats, cfg).bound < 1e-9
        monkeypatch.setattr(pac, "build_posterior", lambda lam, prior, stats: prior)
        with pytest.raises(CertificateMismatchError):
            certify(prior, stats, cfg)

    def test_nonfinite_statistic_raises_named_mismatch(self):
        # the Gibbs posterior drops the -inf point, but its 0 * -inf term
        # makes the change-of-measure form NaN while the grid objective is finite
        prior = DiscreteMeasure(np.array([0.5, 0.5]))
        stats = SufficientStats(t1=np.array([-1.0, -np.inf]), t2=np.array([0.1, 0.1]))
        with np.errstate(invalid="ignore"), pytest.raises(CertificateMismatchError):
            certify(prior, stats, PacConfig(grid_size=200))


class _FixedAlgo:
    """Jumps straight to a prescribed point after one step (for risk tests)."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        self.flat = np.zeros(1)

    @property
    def num_params(self):
        return 1

    def get_flat(self):
        return self.flat.copy()

    def set_flat(self, flat):
        self.flat = np.asarray(flat, dtype=float).copy()

    def init_state(self, x0):
        x0 = np.asarray(x0, dtype=float)
        return AlgoState(x_curr=x0, x_prev=x0)

    def step(self, state, inst):
        return AlgoState(x_curr=self.target + inst, x_prev=state.x_curr)

    def loss(self, x, inst):
        return float(x @ x)


class TestEmpiricalRisk:
    def test_hand_case(self):
        # x0 = (2,), initial loss 4, threshold g = 4 (a=1, b=1)
        # offsets 0 and 10: finals 1 and 121 -> only the first is sublevel
        spec = SublevelSpec(g_scale=1.0, g_exponent=1.0)
        algo = _FixedAlgo([1.0])
        risk, second = empirical_sublevel_risk(algo, [0.0, 10.0], np.array([2.0]), 1, spec, 0.5)
        assert risk == pytest.approx((1.0) / (0.5 * 2))
        assert second == pytest.approx((4.0 * 4.0) / (0.25 * 4))

    def test_all_divergent_gives_zero(self):
        spec = SublevelSpec()
        algo = _FixedAlgo([100.0])
        risk, second = empirical_sublevel_risk(algo, [0.0, 0.0], np.array([1.0]), 1, spec, 1.0)
        assert risk == 0.0 and second == 0.0


class TestBuildStats:
    def test_toy_support(self):
        # two support points for a contraction family x <- (1 - alpha) x:
        # alpha = 0.5 is feasible (loss shrinks), alpha = 3 diverges
        class Contract:
            def __init__(self):
                self.alpha = np.array([0.5])

            @property
            def num_params(self):
                return 1

            def get_flat(self):
                return self.alpha.copy()

            def set_flat(self, flat):
                self.alpha = np.asarray(flat, dtype=float).copy()

            def init_state(self, x0):
                x0 = np.asarray(x0, dtype=float)
                return AlgoState(x_curr=x0, x_prev=x0)

            def step(self, state, inst):
                return AlgoState(x_curr=(1 - self.alpha[0]) * state.x_curr,
                                 x_prev=state.x_curr)

            def loss(self, x, inst):
                return float(x @ x)

        algo = Contract()
        spec = SublevelSpec(p_l=0.95, p_u=1.0)
        points = [np.array([0.5]), np.array([3.0])]
        data = [None, None]
        stats, phi, p_hats = build_stats(algo, points, data, data, np.array([1.0]), 3,
                                         spec, np.random.default_rng(0))
        # feasible point: final loss (0.5^3)^2 = 2^-6 on every instance, p_hat = 59/60
        p = 59.0 / 60.0
        assert p_hats[0] == pytest.approx(p)
        assert stats.t1[0] == pytest.approx(-(2.0**-6) / p)
        assert stats.t2[0] == pytest.approx(1.0 / (p * p * 2))  # g = 1, N = 2
        assert phi[0] == pytest.approx(-(2.0**-6) / p)
        # infeasible point dropped
        assert phi[1] == -np.inf and stats.t1[1] == 0.0 and stats.t2[1] == 0.0
        # and the algo's own parameters were restored
        assert algo.get_flat()[0] == pytest.approx(0.5)


class TestBuildStatsFromSamplerMatrices:
    """``build_stats`` reading the sampler's validation matrices equals rolling out again."""

    RUN_LENGTH = 12

    @pytest.fixture(scope="class")
    def sampled(self):
        insts = gen_quadratics(30, 4, (1.0, 2.0), (5.0, 9.0), 0)
        algo = QuadLearnedAlgo(LearnedQuadArch.init(np.random.default_rng(4)))
        cfg = SgldConfig(step0=1e-4, n_samples=4, thinning=1,
                         run_length=self.RUN_LENGTH, target_len=self.RUN_LENGTH)
        samples = constrained_sample(algo, insts[:10], insts[10:20], np.zeros(4),
                                     SublevelSpec(p_l=0.0), cfg, np.random.default_rng(2))
        return algo, insts, samples

    def _build(self, sampled, k, val_losses, monkeypatch):
        algo, insts, samples = sampled
        val_data = insts[10:20]
        val_rollouts = []
        rollout = pac.rollout

        def counted(algo, instances, x0, k, step_seconds=None):
            val_rollouts.append(instances is val_data)
            return rollout(algo, instances, x0, k, step_seconds)

        monkeypatch.setattr(pac, "rollout", counted)
        rng = np.random.default_rng(5)
        stats, phi, p_hats = build_stats(algo, samples.points, insts[20:], val_data, np.zeros(4),
                                         k, SublevelSpec(p_l=0.8), rng, val_losses=val_losses)
        monkeypatch.undo()
        arrays = [a.tobytes() for a in (stats.t1, stats.t2, phi, p_hats)]
        return arrays, rng.bit_generator.state, sum(val_rollouts)

    @pytest.mark.parametrize("k", [RUN_LENGTH, RUN_LENGTH - 5, RUN_LENGTH + 3])
    def test_same_stats_and_rng_stream(self, sampled, k, monkeypatch):
        samples = sampled[2]
        held = self._build(sampled, k, samples.val_losses, monkeypatch)
        fresh = self._build(sampled, k, None, monkeypatch)
        assert held[:2] == fresh[:2]
        assert fresh[2] == len(samples.points)
        # the matrices stand in for the validation rollouts when they are long enough
        assert held[2] == (0 if k <= self.RUN_LENGTH else len(samples.points))

    def test_support_has_feasible_and_dropped_points(self, sampled, monkeypatch):
        # the equality above covers both branches of build_stats
        phi = np.frombuffer(self._build(sampled, self.RUN_LENGTH, None, monkeypatch)[0][2])
        assert np.isfinite(phi).any() and not np.isfinite(phi).all()
