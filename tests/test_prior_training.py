import dataclasses
import warnings

import numpy as np
import pytest

from optcert import prior_training

from optcert.algorithms import (
    AlgoState,
    HbfAlgo,
    LearnedQuadArch,
    QuadLearnedAlgo,
    hbf_params,
)
from optcert.prior_training import (
    LocateConfig,
    StageConfig,
    TrajectoryScheduler,
    find_initialization,
    locate_prior,
)
from optcert.problems import gen_quadratics
from optcert.sublevel import SublevelSpec, estimate_sublevel_probability


class TestScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectoryScheduler(segment_len=5, target_len=2)
        with pytest.raises(ValueError):
            TrajectoryScheduler(segment_len=0, target_len=2)

    def test_always_restarts_when_s_equals_n(self):
        sched = TrajectoryScheduler(segment_len=4, target_len=4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            state, restarted = sched.next("sentinel", rng)
            assert restarted and state is None

    def test_restart_frequency(self):
        sched = TrajectoryScheduler(segment_len=1, target_len=50)
        rng = np.random.default_rng(1)
        restarts = sum(sched.next(None, rng)[1] for _ in range(50_000))
        assert restarts / 50_000 == pytest.approx(0.02, abs=0.004)

    def test_mean_trajectory_length(self):
        # geometric number of segments means the expected trajectory length is n
        sched = TrajectoryScheduler(segment_len=5, target_len=50)
        rng = np.random.default_rng(2)
        lengths = []
        for _ in range(5_000):
            length = 0
            restarted = False
            while not restarted:
                length += sched.segment_len
                _, restarted = sched.next(None, rng)
            lengths.append(length)
        assert np.mean(lengths) == pytest.approx(50.0, rel=0.05)


def imitation_loss(algo, reference, inst, x0: np.ndarray, s: int) -> float:
    """Mean squared distance between s iterates of the learned and reference rule."""
    st_a = algo.init_state(x0)
    st_r = reference.init_state(x0)
    total = 0.0
    for _ in range(s):
        st_a = algo.step(st_a, inst)
        st_r = reference.step(st_r, inst)
        diff = st_a.x_curr - st_r.x_curr
        total += float(diff @ diff)
    return total / s


class TestImitationLoss:
    def test_identical_algorithms(self):
        algo = HbfAlgo(hbf_params(1.0, 4.0))
        inst = gen_quadratics(1, 3, (1, 2), (3, 4), 0)[0]
        assert imitation_loss(algo, algo, inst, np.ones(3), 5) == 0.0

    def test_single_step_is_squared_distance(self):
        a = HbfAlgo(hbf_params(1.0, 4.0))
        b = HbfAlgo(hbf_params(1.0, 9.0))
        inst = gen_quadratics(1, 3, (1, 2), (3, 4), 1)[0]
        x0 = np.array([1.0, -2.0, 0.5])
        sa = a.step(a.init_state(x0), inst)
        sb = b.step(b.init_state(x0), inst)
        expected = float((sa.x_curr - sb.x_curr) @ (sa.x_curr - sb.x_curr))
        assert imitation_loss(a, b, inst, x0, 1) == pytest.approx(expected)


def _quad_setup(seed=7, count=30, dim=4):
    insts = gen_quadratics(count, dim, (1.0, 2.0), (5.0, 9.0), seed)
    rng = np.random.default_rng(seed)
    algo = QuadLearnedAlgo(LearnedQuadArch.init(rng))
    return algo, insts, np.zeros(dim)


class TestFindInitialization:
    def test_trivial_target(self):
        # imitating a frozen copy of itself converges immediately
        algo, insts, x0 = _quad_setup()
        reference = QuadLearnedAlgo(algo.arch)
        cfg = StageConfig(n_init=5, eps_init=1e-6, max_iterations=10)
        res = find_initialization(algo, reference, insts, x0, cfg, np.random.default_rng(0))
        assert res.converged

    def test_deterministic(self):
        outs = []
        for _ in range(2):
            algo, insts, x0 = _quad_setup()
            ref = HbfAlgo(hbf_params(1.0, 9.0))
            cfg = StageConfig(n_init=10, eps_init=0.0, max_iterations=50)
            res = find_initialization(algo, ref, insts, x0, cfg, np.random.default_rng(5))
            outs.append(res.alpha.copy())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_returns_best_alpha_on_cap(self):
        algo, insts, x0 = _quad_setup()
        ref = HbfAlgo(hbf_params(1.0, 9.0))
        cfg = StageConfig(n_init=10, eps_init=0.0, max_iterations=30)
        res = find_initialization(algo, ref, insts, x0, cfg, np.random.default_rng(3))
        assert not res.converged
        np.testing.assert_array_equal(res.alpha, algo.get_flat())

    def test_reduces_imitation_loss(self):
        algo, insts, x0 = _quad_setup(seed=11)
        ref = HbfAlgo(hbf_params(1.0, 9.0))
        before = np.mean([imitation_loss(algo, ref, inst, x0, 1) for inst in insts])
        cfg = StageConfig(n_init=50, eps_init=0.0, max_iterations=600, lr=3e-3)
        find_initialization(algo, ref, insts, x0, cfg, np.random.default_rng(4))
        after = np.mean([imitation_loss(algo, ref, inst, x0, 1) for inst in insts])
        assert after < before

    @pytest.mark.parametrize("cap", [100, 101, 200])
    def test_partial_last_block_is_averaged_over_its_iterations(self, cap):
        # a cap of 101 ends on a one-iteration block whose loss, ~0.044, is
        # above eps_init; averaged over n_init = 100 it would read converged
        insts = gen_quadratics(10, 4, (1, 2), (5, 9), 0)
        algo = QuadLearnedAlgo(LearnedQuadArch.init(np.random.default_rng(1)))
        cfg = StageConfig(n_init=100, eps_init=0.01, max_iterations=cap)
        res = find_initialization(algo, HbfAlgo(hbf_params(1, 9)), insts, np.zeros(4), cfg,
                                  np.random.default_rng(2))
        assert not res.converged

    def test_diverging_last_iteration_stops_at_the_cap(self):
        # guard_factor 1e-300 trips the divergence guard on every iteration
        algo = _RecordingAlgo(0.8)
        cfg = StageConfig(n_init=10, eps_init=0.0, max_iterations=3, guard_factor=1e-300)
        find_initialization(algo, _ScriptedAlgo(0.3), [None], np.array([1.0]), cfg,
                            np.random.default_rng(0))
        assert len(algo.starts) == 3

    def test_lr_halves_once_per_decay_every_adam_steps(self, monkeypatch):
        # every second hypergradient is NaN and skips Adam, so the six Adam
        # steps of twelve iterations see the lr halved after steps 2 and 4
        lrs = []
        adam_step = prior_training.adam_step

        def recorded(adam, *args):
            lrs.append(adam.lr)
            return adam_step(adam, *args)

        monkeypatch.setattr(prior_training, "adam_step", recorded)
        cfg = StageConfig(n_init=10, eps_init=0.0, max_iterations=12, decay_every=2, lr=0.1)
        find_initialization(_EverySecondNanAlgo(0.8), _ScriptedAlgo(0.3), [None],
                            np.array([1.0]), cfg, np.random.default_rng(0))
        assert lrs == [0.1 * 0.5 ** (k // 2) for k in range(6)]


class _ScriptedAlgo:
    """Toy 1-parameter rule x <- (1 - alpha) x used to test the locate loop.

    The sublevel probability is 1 when 0 <= alpha <= 2 and 0 otherwise, and
    the ratio loss pushes alpha upward through the feasible boundary.
    """

    def __init__(self, alpha):
        self.params = np.array([alpha], dtype=float)  # the loops' Adam step updates it in place

    @property
    def num_params(self):
        return 1

    def get_flat(self):
        return self.params.copy()

    def set_flat(self, flat):
        self.params[...] = flat

    def init_state(self, x0):
        x0 = np.asarray(x0, dtype=float)
        return AlgoState(x_curr=x0, x_prev=x0)

    def loss(self, x, inst):
        return float(x @ x)

    def step(self, state, inst):
        x = (1.0 - self.params[0]) * state.x_curr
        return AlgoState(x_curr=x, x_prev=state.x_curr)

    def step_with_tape(self, state, inst):
        return self.step(state, inst), state

    def step_backward(self, tape, out_grad):
        return np.array([float(-tape.x_curr @ out_grad)])

    def loss_grad(self, x, inst):
        return 2.0 * x


class _RecordingAlgo(_ScriptedAlgo):
    """The toy rule, recording the iterate each training step starts from."""

    def __init__(self, alpha):
        super().__init__(alpha)
        self.starts = []

    def step_with_tape(self, state, inst):
        self.starts.append(float(state.x_curr[0]))
        return super().step_with_tape(state, inst)


class _EverySecondNanAlgo(_ScriptedAlgo):
    """The toy rule with a NaN hypergradient on every second taped step."""

    def __init__(self, alpha):
        super().__init__(alpha)
        self.taped = 0

    def step_backward(self, tape, out_grad):
        self.taped += 1
        if self.taped % 2 == 0:
            return np.array([np.nan])
        return super().step_backward(tape, out_grad)


def _guard_run(algo, x0, guard_factor, n_max):
    # lr 1e-300 moves alpha by less than its last bit, no constraint check runs,
    # and the Bernoulli restart is practically off, so only the divergence guard restarts
    cfg = LocateConfig(n_max=n_max, check_every=n_max + 1, lr=1e-300, target_len=10**12,
                       guard_factor=guard_factor)
    with np.errstate(over="ignore", invalid="ignore"):
        locate_prior(algo, [None], [None], np.array([x0]), SublevelSpec(), cfg,
                     np.random.default_rng(0))
    return algo.starts


class TestDivergenceGuard:
    def test_restarts_when_loss_exceeds_guard_factor(self):
        # x <- -2x: the loss grows 4x a step and passes 100 * (1 + 1) at the fourth
        starts = _guard_run(_RecordingAlgo(3.0), 1.0, 100.0, 12)
        assert starts == [1.0, -2.0, 4.0, -8.0] * 3

    def test_restarts_when_loss_is_not_finite(self):
        # from 1e150 the iterate stays finite, but its square overflows at the
        # 14th step; the guard bound itself is inf, so only the non-finite
        # loss can restart the trajectory
        starts = _guard_run(_RecordingAlgo(3.0), 1e150, 1e300, 28)
        one_run = [1e150 * (-2.0) ** k for k in range(14)]
        assert starts == one_run * 2



class _HugeGradAlgo(_ScriptedAlgo):
    """The toy rule with a finite hypergradient whose square overflows."""

    def step_backward(self, tape, out_grad):
        return np.array([1e200])


class TestClip:
    def test_overflowing_square_clips_to_unit_norm(self):
        grad = np.full(4, 1e200)
        sq_norm = prior_training._finite_sq_norm(grad)
        assert sq_norm == np.inf
        np.testing.assert_array_equal(prior_training._clip(grad, sq_norm), [0.5] * 4)

    def test_finite_norm_keeps_the_bits_of_linalg_norm(self):
        rng = np.random.default_rng(0)
        for grad in (rng.normal(size=257) * 1e100, rng.normal(size=257) * 1e-3):
            want = grad * (1.0 / np.linalg.norm(grad)) if np.linalg.norm(grad) > 1.0 else grad.copy()
            got = prior_training._clip(grad.copy(), prior_training._finite_sq_norm(grad))
            assert got.tobytes() == want.tobytes()

    def test_locate_takes_a_unit_step_on_an_overflowing_gradient(self):
        # Adam's first step on a unit gradient moves alpha by lr; a zero one would not move it
        algo = _HugeGradAlgo(0.5)
        cfg = LocateConfig(n_max=1, check_every=2, lr=0.1)
        locate_prior(algo, [None], [None], np.array([1.0]), SublevelSpec(), cfg, np.random.default_rng(0))
        assert algo.params[0] == pytest.approx(0.4)

    def test_overflowing_square_records_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prior_training._finite_sq_norm(np.full(4, 1e200)) == np.inf
            algo = _HugeGradAlgo(0.5)
            locate_prior(algo, [None], [None], np.array([1.0]), SublevelSpec(),
                         LocateConfig(n_max=1, check_every=2, lr=0.1), np.random.default_rng(0))


class TestLocatePrior:
    def test_unconstrained_is_pure_erm(self):
        # with p_l = 0 every point is feasible; the ratio loss drives the
        # contraction factor toward zero (alpha toward 1)
        algo = _ScriptedAlgo(0.2)
        spec = SublevelSpec(p_l=0.0, p_u=1.0, width_tol=0.99)
        cfg = LocateConfig(n_max=400, check_every=100, run_length=5, lr=0.05,
                           target_len=5, score_instances=2)
        data = [None, None]
        res = locate_prior(algo, data, data, np.array([1.0]), spec, cfg,
                           np.random.default_rng(0))
        assert res.constraint_found
        assert abs(1.0 - res.alpha[0]) < abs(1.0 - 0.2)

    def test_rollback_restores_feasible_point(self):
        # a spec feasible only for alpha in [0, 2]: ERM drives alpha past 1
        # where the factor is negative but still a contraction, then past 2
        # where the iterates diverge; the rollback has to keep the returned
        # point feasible
        algo = _ScriptedAlgo(0.5)
        spec = SublevelSpec(p_l=0.95, p_u=1.0, g_scale=1.0, g_exponent=1.0)
        cfg = LocateConfig(n_max=3000, check_every=50, run_length=20, lr=0.05,
                           target_len=5, score_instances=1)
        data = [None]
        res = locate_prior(algo, data, data, np.array([1.0]), spec, cfg,
                           np.random.default_rng(1))
        assert res.constraint_found
        assert 0.0 <= res.alpha[0] <= 2.0
        assert res.estimate is not None and res.estimate >= spec.p_l

    def test_infeasible_band_reports_not_found(self):
        algo = _ScriptedAlgo(0.5)
        # the contraction always satisfies the sublevel event, so a band
        # requiring p_hat <= 0.5 can never be hit
        spec = SublevelSpec(p_l=0.0, p_u=0.5)
        cfg = LocateConfig(n_max=200, check_every=50, run_length=5, lr=0.01,
                           target_len=5, score_instances=1)
        res = locate_prior(algo, [None], [None], np.array([1.0]), spec, cfg,
                           np.random.default_rng(2))
        assert not res.constraint_found

    def test_learned_quadratic_end_to_end(self):
        # small real run: the located point satisfies the constraint band
        algo, insts, x0 = _quad_setup(seed=9, count=20, dim=4)
        ref = HbfAlgo(hbf_params(1.0, 9.0))
        rng = np.random.default_rng(9)
        find_initialization(algo, ref, insts[:10], x0, StageConfig(
            n_init=50, eps_init=1.0, max_iterations=1000), rng)
        spec = SublevelSpec()
        cfg = LocateConfig(n_max=1500, check_every=250, run_length=20,
                           target_len=20, score_instances=5)
        res = locate_prior(algo, insts[:10], insts[10:], x0, spec, cfg, rng)
        assert res.constraint_found
        from optcert.sublevel import estimate_sublevel_probability

        recheck = estimate_sublevel_probability(algo, insts[10:], x0, 20, spec,
                                                np.random.default_rng(42))
        assert recheck.conclusive
        assert recheck.point_estimate >= spec.p_l - spec.width_tol


class TestLocateScore:
    """A feasible checkpoint's score is read off the constraint check's rollout."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")  # two middle entries of 1e308
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 51])
    def test_median_loss_has_the_bytes_of_np_median(self, n):
        losses = np.random.default_rng(n).lognormal(sigma=20.0, size=n)
        losses[3::4] = np.inf
        losses[1::5] = np.nan
        losses[2::7] = 1e308
        want = np.median(np.where(np.isfinite(losses), losses, np.inf))
        assert np.float64(prior_training._median_loss(losses)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("target_len", [20, 13])
    def test_score_from_check_matrix_equals_separate_rollout(self, target_len):
        algo, insts, x0 = _quad_setup(seed=9, count=20, dim=4)
        res = estimate_sublevel_probability(algo, insts[10:], x0, 20, SublevelSpec(),
                                            np.random.default_rng(0))
        from_check = prior_training._median_loss(res.losses[:5, target_len])
        separate = prior_training._median_final_loss(algo, insts[10:15], x0, target_len)
        assert from_check == separate

    def _locate(self, monkeypatch, shorten, target_len):
        algo, insts, x0 = _quad_setup(seed=9, count=20, dim=4)
        rng = np.random.default_rng(9)
        find_initialization(algo, HbfAlgo(hbf_params(1.0, 9.0)), insts[:10], x0,
                            StageConfig(n_init=50, eps_init=1.0, max_iterations=300), rng)
        estimate = prior_training.estimate_sublevel_probability
        score, median = prior_training._median_final_loss, prior_training._median_loss
        separate, scores = [], []

        def check(*args, **kwargs):
            # a matrix cut to target_len columns makes locate_prior roll out to score
            res = estimate(*args, **kwargs)
            return dataclasses.replace(res, losses=res.losses[:, :target_len]) if shorten else res

        def counted(*args, **kwargs):
            separate.append(1)
            return score(*args, **kwargs)

        def recorded(losses):
            scores.append(median(losses))
            return scores[-1]

        monkeypatch.setattr(prior_training, "estimate_sublevel_probability", check)
        monkeypatch.setattr(prior_training, "_median_final_loss", counted)
        monkeypatch.setattr(prior_training, "_median_loss", recorded)
        cfg = LocateConfig(n_max=600, check_every=100, run_length=20,
                           target_len=target_len, score_instances=5)
        loc = locate_prior(algo, insts[:10], insts[10:], x0, SublevelSpec(p_l=0.5), cfg, rng)
        monkeypatch.undo()
        return loc, len(separate), scores

    def test_locate_equals_scoring_by_separate_rollouts(self, monkeypatch):
        held, rollouts_held, scores_held = self._locate(monkeypatch, False, 20)
        fresh, rollouts_fresh, scores_fresh = self._locate(monkeypatch, True, 20)
        assert held.constraint_found and fresh.constraint_found
        assert len(set(scores_held)) > 1 and scores_held == scores_fresh
        assert held.alpha.tobytes() == fresh.alpha.tobytes()
        assert held.estimate == fresh.estimate
        assert rollouts_held == 0 and rollouts_fresh == len(scores_fresh)

    def test_longer_target_rolls_out_separately(self, monkeypatch):
        loc, rollouts, scores = self._locate(monkeypatch, False, 25)
        assert loc.constraint_found and rollouts == len(scores) > 0


def _pin(alpha, rng):
    """The bits of a returned parameter vector and the generator's next draw."""
    return [float.hex(float(v)) for v in alpha], int(rng.integers(2**62))


class TestPinnedLoops:
    """Bit-exact results of the training loops on the toy rule.

    Each run pins the returned parameters and the generator's next draw, so
    any change to a loop's arithmetic, or to the number or order of its rng
    calls, shows here.
    """

    @pytest.mark.parametrize("seed, alpha, draw", [
        (0, "0x1.ffffff768fa2fp-2", 2998506345660185245),
        (1, "0x1.ffffff768fa24p-2", 3318472527161851159),
    ])
    def test_locate_with_rollbacks_and_guard_restarts(self, monkeypatch, seed, alpha, draw):
        # the band admits the rule only where |1 - alpha| > 0.5, and ERM pulls
        # alpha toward 1: checks reject and roll back; below alpha = 0 the
        # iterates grow, and the guard restarts the carried trajectory
        guard, estimate = prior_training._diverged, prior_training.estimate_sublevel_probability
        seen = {"restarts": 0, "accepts": 0, "rollbacks": 0, "checks": 0}

        def diverged(*args):
            out = guard(*args)
            seen["restarts"] += out
            return out

        def check(algo, instances, x0, k, spec, rng):
            res = estimate(algo, instances, x0, k, spec, rng)
            seen["checks"] += 1
            inside = res.conclusive and spec.p_l <= res.point_estimate <= spec.p_u
            seen["rollbacks"] += seen["accepts"] > 0 and not inside
            seen["accepts"] += inside
            return res

        monkeypatch.setattr(prior_training, "_diverged", diverged)
        monkeypatch.setattr(prior_training, "estimate_sublevel_probability", check)
        spec = SublevelSpec(p_l=0.0, p_u=0.5, g_scale=0.5**40)
        cfg = LocateConfig(n_max=600, check_every=20, run_length=20, lr=0.005, segment_len=2,
                           target_len=5, score_instances=1, guard_factor=2.0, decay_every=100)
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            res = locate_prior(_ScriptedAlgo(-0.3), [None, None], [None], np.array([1.0]),
                               spec, cfg, rng)
        assert _pin(res.alpha, rng) == ([alpha], draw)
        assert res.estimate == 1.0 / 60.0
        assert min(seen.values()) > 0
        # a diverged segment skips only its Adam step: every check_every-th iteration checks
        assert seen["checks"] == cfg.n_max // cfg.check_every

    @pytest.mark.parametrize("segment_len, seed, alpha, draw", [
        (1, 0, "0x1.8c6f01c76da86p-2", 486511105804116091),
        (1, 1, "0x1.b1c599fabe32ep-2", 3712660118082235302),
        (2, 0, "0x1.7f79b6f44ce5dp-2", 4589072640179700698),
        (2, 1, "0x1.5608427a02689p-2", 2718598417547118606),
    ])
    def test_find_initialization(self, segment_len, seed, alpha, draw):
        cfg = StageConfig(segment_len=segment_len, target_len=4, n_init=10, eps_init=0.0,
                          max_iterations=60, decay_every=7, lr=0.05)
        rng = np.random.default_rng(seed)
        res = find_initialization(_ScriptedAlgo(0.8), _ScriptedAlgo(0.3), [None, None],
                                  np.array([1.0]), cfg, rng)
        assert not res.converged
        assert _pin(res.alpha, rng) == ([alpha], draw)
