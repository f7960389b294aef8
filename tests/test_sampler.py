import numpy as np
import pytest

from optcert import sampler
from optcert.algorithms import AlgoState, rollout
from optcert.sampler import (
    NoFeasiblePointError,
    SgldConfig,
    constrained_sample,
    sgld_step,
)
from optcert.sublevel import SublevelSpec, estimate_sublevel_probability


class TestSgldStep:
    def test_zero_grad_zero_step(self):
        a = np.array([1.0, -2.0])
        out = sgld_step(a, np.zeros(2), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, a)

    def test_seeded_reproducibility(self):
        a, g = np.ones(3), np.array([1.0, 0.0, -1.0])
        o1 = sgld_step(a, g, 1e-2, np.random.default_rng(7))
        o2 = sgld_step(a, g, 1e-2, np.random.default_rng(7))
        np.testing.assert_array_equal(o1, o2)

    def test_mean_drift(self):
        # averaged over many draws, the step is -(step/2) * grad
        rng = np.random.default_rng(1)
        a, g, step = np.zeros(2), np.array([2.0, -4.0]), 1e-2
        moves = np.mean([sgld_step(a, g, step, rng) for _ in range(200_000)], axis=0)
        np.testing.assert_allclose(moves, -0.5 * step * g, atol=4 * np.sqrt(step / 200_000) * 5)

    def test_noise_scale(self):
        rng = np.random.default_rng(2)
        step = 4e-2
        draws = np.array([sgld_step(np.zeros(1), np.zeros(1), step, rng)[0] for _ in range(100_000)])
        assert np.std(draws) == pytest.approx(np.sqrt(step), rel=0.02)


class _BandAlgo:
    """x <- (1 - alpha) x; the sublevel event holds iff alpha stays in [0, 2]."""

    def __init__(self, alpha):
        self.alpha = np.array([alpha], dtype=float)

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

    def loss(self, x, inst):
        return float(x @ x)

    def step(self, state, inst):
        return AlgoState(x_curr=(1.0 - self.alpha[0]) * state.x_curr, x_prev=state.x_curr)

    def step_with_tape(self, state, inst):
        self.taped_state = state  # all that the backward pass reads
        return self.step(state, inst)

    def step_backward(self, out_grad):
        return np.array([float(-self.taped_state.x_curr @ out_grad)])

    def loss_grad(self, x, inst):
        return 2.0 * x


class TestConstrainedSample:
    def setup_method(self):
        self.spec = SublevelSpec(p_l=0.95, p_u=1.0)
        self.x0 = np.array([1.0])
        self.data = [None]

    def test_collects_requested_count(self):
        algo = _BandAlgo(0.5)
        cfg = SgldConfig(step0=1e-3, n_samples=5, thinning=2, run_length=10, target_len=10)
        out = constrained_sample(algo, self.data, self.data, self.x0, self.spec, cfg,
                                 np.random.default_rng(0))
        assert len(out.points) == 5
        assert len(out.estimates) == 5

    def test_collected_points_reverify_feasible(self):
        algo = _BandAlgo(0.5)
        cfg = SgldConfig(step0=1e-2, n_samples=6, thinning=1, run_length=10, target_len=10)
        out = constrained_sample(algo, self.data, self.data, self.x0, self.spec, cfg,
                                 np.random.default_rng(1))
        for point in out.points:
            algo.set_flat(point)
            res = estimate_sublevel_probability(algo, self.data, self.x0, 10, self.spec,
                                                np.random.default_rng(3))
            assert res.conclusive and self.spec.p_l <= res.point_estimate <= self.spec.p_u

    def test_first_point_is_start(self):
        algo = _BandAlgo(0.7)
        cfg = SgldConfig(step0=1e-4, n_samples=2, thinning=3, run_length=10, target_len=10)
        out = constrained_sample(algo, self.data, self.data, self.x0, self.spec, cfg,
                                 np.random.default_rng(2))
        np.testing.assert_array_equal(out.points[0], [0.7])

    def test_thinning_counts_acceptances(self):
        # with huge steps every proposal leaves the band, so only the start
        # point can ever be collected and the PATIENCE-th rejection aborts the run
        algo = _BandAlgo(0.5)
        cfg = SgldConfig(step0=1e6, n_samples=3, thinning=1, run_length=10, target_len=10)
        with pytest.raises(NoFeasiblePointError, match=f"in {sampler.PATIENCE} attempts"):
            constrained_sample(algo, self.data, self.data, self.x0, self.spec, cfg,
                               np.random.default_rng(4))

    def test_rejection_restores_current(self):
        algo = _BandAlgo(0.5)
        cfg = SgldConfig(step0=1e6, n_samples=3, thinning=1, run_length=10, target_len=10)
        with pytest.raises(NoFeasiblePointError):
            constrained_sample(algo, self.data, self.data, self.x0, self.spec, cfg,
                               np.random.default_rng(5))
        # the algorithm is left at the last accepted (here: initial) point
        assert algo.get_flat()[0] == pytest.approx(0.5)

    def test_seeded_determinism(self):
        runs = []
        for _ in range(2):
            algo = _BandAlgo(0.5)
            cfg = SgldConfig(step0=1e-3, n_samples=4, thinning=2, run_length=10, target_len=10)
            out = constrained_sample(algo, self.data, self.data, self.x0, self.spec, cfg,
                                     np.random.default_rng(6))
            runs.append(np.array(out.points))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_keeps_each_points_validation_matrix_in_memory_only(self):
        algo = _BandAlgo(0.5)
        val = [None, None, None]
        cfg = SgldConfig(step0=1e-2, n_samples=4, thinning=2, run_length=10, target_len=10)
        out = constrained_sample(algo, self.data, val, self.x0, self.spec, cfg,
                                 np.random.default_rng(7))
        assert len(out.val_losses) == len(out.points)
        for point, losses in zip(out.points, out.val_losses):
            algo.set_flat(point)
            assert losses.tobytes() == rollout(algo, val, self.x0, 10).tobytes()


class _FlakyBandAlgo(_BandAlgo):
    """The band rule with a NaN hypergradient on every fifth taped step."""

    def __init__(self, alpha):
        super().__init__(alpha)
        self.taped = 0

    def step_backward(self, out_grad):
        self.taped += 1
        if self.taped % 5 == 0:
            return np.array([np.nan])
        return super().step_backward(out_grad)


class TestPinnedSampling:
    """Bit-exact points and the generator's next draw of one toy sampling run."""

    @pytest.mark.parametrize("seed, points, draw", [
        (1, ["0x1.0000000000000p-1", "0x1.4425f1f1eecccp+0", "0x1.84cf0f61e7cb3p+0",
             "0x1.d1c31c95d6de5p+0"], 2237548433053531933),
        (2, ["0x1.0000000000000p-1", "0x1.6507dc94f3ad5p-1", "0x1.e19542c2788b1p-1",
             "0x1.53bcbf2543979p+0"], 4109977973284749626),
    ])
    def test_rejections_and_non_finite_restarts(self, monkeypatch, seed, points, draw):
        # steps of 1.0 leave the band now and then; every fifth hypergradient
        # is NaN and restarts the trajectory
        estimate = sampler.estimate_sublevel_probability
        rejected = []

        def check(algo, instances, x0, k, spec, rng):
            res = estimate(algo, instances, x0, k, spec, rng)
            rejected.append(not (res.conclusive and spec.p_l <= res.point_estimate <= spec.p_u))
            return res

        monkeypatch.setattr(sampler, "estimate_sublevel_probability", check)
        algo = _FlakyBandAlgo(0.5)
        cfg = SgldConfig(step0=1.0, n_samples=4, thinning=2, run_length=10, segment_len=2,
                         target_len=3)
        rng = np.random.default_rng(seed)
        out = constrained_sample(algo, [None, None], [None], np.array([1.0]),
                                 SublevelSpec(p_l=0.95, p_u=1.0), cfg, rng)
        assert [float.hex(float(p[0])) for p in out.points] == points
        assert int(rng.integers(2**62)) == draw
        assert any(rejected) and algo.taped >= 5
