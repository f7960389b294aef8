import numpy as np
import pytest

from optcert.algorithms import (
    AlgoState,
    FistaAlgo,
    FistaState,
    HbfAlgo,
    IstaAlgo,
    LassoLearnedAlgo,
    LearnedLassoArch,
    LearnedQuadArch,
    QuadLearnedAlgo,
    ZeroLossError,
    grad_train_loss_onestep,
    hbf_params,
    _preprocess_into,
    _sigmoid,
    preprocess,
    ratio_step,
    rollout,
    soft_threshold,
)
from optcert.problems import (
    LassoBatch,
    LassoClassContext,
    LassoInstance,
    QuadraticBatch,
    QuadraticInstance,
    gen_lasso,
    gen_quadratics,
)

from gradcheck import finite_diff


def quad(diag, rhs):
    return QuadraticInstance(diag=np.asarray(diag, float), rhs=np.asarray(rhs, float))


class TestPreprocess:
    def test_unit_and_lognorm(self):
        d, n = preprocess(np.array([3.0, 4.0]))
        np.testing.assert_allclose(d, [0.6, 0.8])
        assert n == pytest.approx(np.log(6.0))

    def test_zero_vector(self):
        d, n = preprocess(np.zeros(3))
        np.testing.assert_array_equal(d, np.zeros(3))
        assert n == 0.0

    def test_norm_zero_or_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d, _ = preprocess(rng.normal(size=4) * rng.choice([0.0, 1.0]))
            assert np.linalg.norm(d) == pytest.approx(0.0) or np.linalg.norm(d) == pytest.approx(1.0)

    def test_one_row_into_buffers_has_the_bits_of_preprocess(self):
        # the scalar-norm path of a one-row step, including a row whose squares underflow to 0
        rng = np.random.default_rng(1)
        rows = [np.zeros(20), np.full(20, 1e-170)]
        rows += [rng.normal(size=20) * 10.0 ** rng.integers(-8, 8) for _ in range(200)]
        units, log_norms = np.full((1, 20, 2), np.nan), np.full((1, 2), np.nan)
        for v in rows:
            _preprocess_into(v[None, :], units[..., 1], log_norms[:, 1])
            d, n = preprocess(v)
            assert units[0, :, 1].tobytes() == d.tobytes()
            assert log_norms[0, 1].tobytes() == np.float64(n).tobytes()

    @pytest.mark.parametrize("rows", [2, 1000, 2000])
    def test_rows_into_buffers_have_the_bits_of_preprocess(self, rows):
        # channel-major units and a strided norm column, as in the step buffers;
        # zero, underflowing and diverged rows among the drawn ones
        rng = np.random.default_rng(rows)
        v = rng.normal(size=(rows, 20)) * 10.0 ** rng.integers(-8, 8, size=(rows, 1))
        v[rng.choice(rows, size=max(1, rows // 50), replace=False)] = 0.0
        if rows > 2:
            v[1], v[2, 3], v[3, 0] = 1e-170, np.inf, np.nan
        channels, norms = np.full((3, rows, 20), np.nan), np.full((rows, 2), np.nan)
        with np.errstate(invalid="ignore"):
            _preprocess_into(v, channels[1], norms[:, 1])
            d, n = preprocess(v)
        assert channels[1].tobytes() == d.tobytes()
        assert norms[:, 1].tobytes() == n.tobytes()


class TestSoftThreshold:
    def test_values(self):
        assert soft_threshold(np.array([2.0]), 0.5)[0] == 1.5
        assert soft_threshold(np.array([-0.3]), 0.5)[0] == 0.0

    def test_zero_threshold_identity(self):
        v = np.array([1.0, -2.0, 0.3])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


class TestHbf:
    def test_params_closed_form(self):
        p = hbf_params(1.0, 100.0)
        assert p.tau == pytest.approx(4.0 / 121.0)
        assert p.beta == pytest.approx(81.0 / 121.0)

    def test_condition_one(self):
        p = hbf_params(4.0, 4.0)
        assert p.beta == 0.0
        assert p.tau == pytest.approx(0.25)

    def test_fixed_point(self):
        inst = quad([1.0, 2.0], [1.0, 4.0])
        x_star = inst.rhs / inst.diag
        st = AlgoState(x_curr=x_star, x_prev=x_star)
        nxt = HbfAlgo(hbf_params(1.0, 4.0)).step(st, inst)
        np.testing.assert_allclose(nxt.x_curr, x_star)

    def test_beta_zero_is_gradient_descent(self):
        from optcert.problems import grad_quadratic

        inst = quad([1.0, 2.0], [0.0, 1.0])
        x = np.array([1.0, 1.0])
        st = AlgoState(x_curr=x, x_prev=np.array([5.0, 5.0]))
        from optcert.algorithms import HbfParams

        nxt = HbfAlgo(HbfParams(tau=0.1, beta=0.0)).step(st, inst)
        np.testing.assert_allclose(nxt.x_curr, x - 0.1 * grad_quadratic(x, inst))

    def test_one_dimensional_recurrence(self):
        inst = quad([2.0], [1.0])
        p = hbf_params(1.0, 9.0)
        algo = HbfAlgo(p)
        st = AlgoState(x_curr=np.array([1.0]), x_prev=np.array([0.5]))
        x, xp = 1.0, 0.5
        for _ in range(10):
            st = algo.step(st, inst)
            x, xp = x - p.tau * 2.0 * (2.0 * x - 1.0) + p.beta * (x - xp), x
            assert st.x_curr[0] == pytest.approx(x, rel=1e-12)


class TestFista:
    def test_t_sequence(self):
        ctx = LassoClassContext(design=np.eye(1), lipschitz=1.0)
        inst = LassoInstance(rhs=np.array([0.0]), reg=0.1)
        st = FistaState(x_curr=np.zeros(1), x_prev=np.zeros(1), t_k=1.0)
        st = FistaAlgo(ctx).step(st, inst)
        assert st.t_k == pytest.approx((1 + np.sqrt(5)) / 2)

    def test_first_step_is_proximal_gradient(self):
        ctx, insts = gen_lasso(1, 5, 3, (0.1, 0.3), 3)
        inst = insts[0]
        x0 = np.ones(5)
        f = FistaAlgo(ctx).step(FistaState(x_curr=x0, x_prev=x0, t_k=1.0), inst)
        i = IstaAlgo(ctx).step(AlgoState(x_curr=x0, x_prev=x0), inst)
        np.testing.assert_allclose(f.x_curr, i.x_curr)


def make_quad_algo(seed):
    rng = np.random.default_rng(seed)
    return QuadLearnedAlgo(LearnedQuadArch.init(rng))


def make_lasso_algo(seed, ctx):
    rng = np.random.default_rng(seed)
    return LassoLearnedAlgo(LearnedLassoArch.init(rng, prox_tau=1.0 / ctx.lipschitz), ctx)


class TestLearnedQuadStep:
    def test_zero_weights_identity(self):
        algo = make_quad_algo(0)
        algo.set_flat(np.zeros(algo.num_params))
        inst = quad([1.0, 2.0], [1.0, 1.0])
        st = algo.init_state(np.array([1.0, -1.0]))
        nxt = algo.step(st, inst)
        np.testing.assert_array_equal(nxt.x_curr, st.x_curr)

    def test_shape_preserved(self):
        algo = make_quad_algo(1)
        insts = gen_quadratics(1, 7, (1, 2), (3, 4), 0)
        st = algo.init_state(np.zeros(7))
        assert algo.step(st, insts[0]).x_curr.shape == (7,)

    def test_one_coordinate_scalar_oracle(self):
        algo = make_quad_algo(2)
        inst = quad([2.0], [1.0])
        x = np.array([3.0])
        st = AlgoState(x_curr=x, x_prev=np.array([2.0]))
        # scalar-arithmetic oracle for the same update
        from optcert.problems import grad_quadratic

        g = grad_quadratic(x, inst)
        d1 = np.sign(g)
        n1 = np.log1p(abs(g[0]))
        d2 = np.array([1.0])
        n2 = np.log1p(1.0)
        dir_out = algo.arch.direction_net.forward(np.array([[d1[0], d2[0], d1[0] * d2[0]]]))[0]
        s_out = algo.arch.step_net.forward(np.array([[n1, n2]]))[0]
        expected = x + s_out[0] * dir_out
        nxt = algo.step(st, inst)
        np.testing.assert_allclose(nxt.x_curr, expected)


class TestLearnedLassoStep:
    def test_sigmoid_has_the_bytes_of_the_two_branch_formula(self):
        a = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 5e-324, -5e-324, np.nan, -np.nan, 3.0, -3.0])
        pos = a >= 0
        want = np.empty_like(a)
        with np.errstate(over="ignore", invalid="ignore"):
            want[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
            e = np.exp(a[~pos])
            want[~pos] = e / (1.0 + e)
            got = _sigmoid(a, np.empty_like(a))
        assert got.tobytes() == want.tobytes()

    def setup_method(self):
        self.ctx, self.insts = gen_lasso(3, 6, 4, (0.1, 0.5), 7)

    def test_zero_weights_keeps_x_when_inside_threshold(self):
        algo = make_lasso_algo(0, self.ctx)
        flat = np.zeros(algo.num_params)
        algo.set_flat(flat)  # prox_tau 0 as well
        st = algo.init_state(np.array([1.0, -2.0, 0.0, 0.5, 0.3, -0.1]))
        nxt = algo.step(st, self.insts[0])
        # x_tilde = x, z = sigmoid(0) = 1/2, threshold 0 -> rescaled to ||x||
        assert np.linalg.norm(nxt.x_curr) == pytest.approx(np.linalg.norm(st.x_curr))

    def test_norm_rescaling_contract(self):
        algo = make_lasso_algo(3, self.ctx)
        st = algo.init_state(np.array([1.0, -2.0, 3.0, 0.5, 0.1, -0.4]))
        nxt = algo.step_with_tape(st, self.insts[0])
        tape = algo.arch.tape
        if np.linalg.norm(tape.y) > 0:
            assert np.linalg.norm(nxt.x_curr) == pytest.approx(np.linalg.norm(tape.x_tilde))

    def test_support_of_threshold(self):
        # z=1, prox_tau=0 -> output equals x_tilde
        algo = make_lasso_algo(4, self.ctx)
        algo.arch.prox_tau = 0.0
        st = algo.init_state(np.ones(6))
        nxt = algo.step_with_tape(st, self.insts[0])
        tape = algo.arch.tape
        # with threshold 0, y = z*x_tilde rescaled back to ||x_tilde||
        assert np.linalg.norm(nxt.x_curr) == pytest.approx(np.linalg.norm(tape.x_tilde))


def _hypergrad_fd(algo, state, inst, h=1e-6):
    flat0 = algo.get_flat().copy()

    def f(flat):
        algo.set_flat(flat)
        nxt = algo.step(state, inst)
        val = algo.loss(nxt.x_curr, inst) / algo.loss(state.x_curr, inst)
        algo.set_flat(flat0)
        return val

    return finite_diff(f, flat0, h=h)


class TestHypergradient:
    def test_quad_matches_fd(self):
        insts = gen_quadratics(3, 4, (1, 2), (4, 9), 5)
        for seed in range(3):
            algo = make_quad_algo(seed + 10)
            rng = np.random.default_rng(seed)
            st = AlgoState(x_curr=rng.normal(size=4), x_prev=rng.normal(size=4))
            g = grad_train_loss_onestep(algo, st, insts[seed])
            fd = _hypergrad_fd(algo, st, insts[seed])
            np.testing.assert_allclose(g, fd, rtol=1e-3, atol=1e-7)

    def test_lasso_matches_fd_directional(self):
        ctx, insts = gen_lasso(2, 5, 3, (0.1, 0.3), 6)
        algo = make_lasso_algo(11, ctx)
        rng = np.random.default_rng(0)
        st = AlgoState(x_curr=rng.normal(size=5), x_prev=rng.normal(size=5))
        g = grad_train_loss_onestep(algo, st, insts[0])
        flat0 = algo.get_flat().copy()
        for _ in range(5):
            u = rng.normal(size=len(flat0))
            u /= np.linalg.norm(u)
            h = 1e-6

            def f(t):
                algo.set_flat(flat0 + t * u)
                nxt = algo.step(st, insts[0])
                val = algo.loss(nxt.x_curr, insts[0]) / algo.loss(st.x_curr, insts[0])
                algo.set_flat(flat0)
                return val

            fd = (f(h) - f(-h)) / (2 * h)
            assert float(g @ u) == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_zero_loss_raises(self):
        algo = make_quad_algo(1)
        inst = quad([1.0], [1.0])
        st = AlgoState(x_curr=np.array([1.0]), x_prev=np.array([1.0]))
        with pytest.raises(ZeroLossError):
            grad_train_loss_onestep(algo, st, inst)

    def test_ratio_step_zero_denominator_gives_none(self):
        algo = make_quad_algo(1)
        inst = quad([1.0], [1.0])
        st = AlgoState(x_curr=np.array([1.0]), x_prev=np.array([1.0]))
        _, g, l1 = ratio_step(algo, st, inst)
        assert g is None and l1 == algo.loss(algo.step(st, inst).x_curr, inst)

    def test_dead_rectifier_weights_have_zero_grad(self):
        # weights feeding a fully dead unit receive zero gradient
        algo = make_quad_algo(7)
        inst = gen_quadratics(1, 3, (1, 2), (3, 4), 8)[0]
        st = AlgoState(x_curr=np.ones(3), x_prev=np.zeros(3))
        # kill the step net's first hidden layer entirely
        flat = algo.get_flat()
        nd = algo.arch.direction_net.num_params
        w0 = algo.arch.step_net.weights[0]
        flat[nd: nd + w0.size] = -1.0  # inputs n1, n2 >= 0 -> all units negative -> dead
        algo.set_flat(flat)
        g = grad_train_loss_onestep(algo, st, inst)
        # gradient w.r.t. every later step-net layer is blocked by the dead layer
        later = g[nd + w0.size:]
        assert not np.any(later)


def _parent_net_backward(net, out_grad):
    """Reverse pass over the net's tape as the per-net code computed it: weight gradients as a list."""
    inputs, pre_acts = net.tape[:2]
    G = np.asarray(out_grad, dtype=float)
    G = G[None, :] if G.ndim == 1 else G
    weight_grads = [None] * len(net.weights)
    for i in range(len(net.weights) - 1, -1, -1):
        if net.activation_mask[i]:
            G = G * (pre_acts[i] > 0)
        weight_grads[i] = G.T @ inputs[i]
        G = G @ net.weights[i]
    return G, weight_grads


def _flatten(*grad_lists):
    return np.concatenate([w.ravel() for grads in grad_lists for w in grads])


def _parent_quad_backward(arch, tape, out_grad):
    out_grad = np.atleast_2d(out_grad)
    g_s = (tape.direction[:, None, :] @ out_grad[:, :, None])[:, 0, 0]
    g_d = tape.step_size[:, None] * out_grad
    _, dir_wg = _parent_net_backward(arch.direction_net, g_d.reshape(-1, 1))
    _, step_wg = _parent_net_backward(arch.step_net, g_s[:, None])
    return _flatten(dir_wg, step_wg)


def _parent_lasso_backward(arch, tape, out_grad):
    y, x_tilde, z, gated = tape.y[0], tape.x_tilde[0], tape.z[0], tape.gated[0]
    thresh, reg = tape.thresh.item(), tape.reg.item()
    ny = float(np.linalg.norm(y))
    nxt = float(np.linalg.norm(x_tilde))
    g_xt = np.zeros_like(x_tilde)
    if ny > 0:
        u = y / ny
        g_y = (nxt / ny) * (out_grad - u * float(u @ out_grad))
        if nxt > 0:
            g_xt += float(u @ out_grad) * (x_tilde / nxt)
    else:
        g_y = np.asarray(out_grad, dtype=float)
    active = np.abs(gated) > thresh
    g_gated = g_y * active
    g_prox_tau = -float((np.sign(gated) * active) @ g_y) * reg
    g_z = g_gated * x_tilde
    g_xt += g_gated * z
    g_a = g_z * z * (1.0 - z)
    g_sp_in, sparse_wg = _parent_net_backward(arch.sparsity_net, g_a[:, None])
    g_xt += g_sp_in[:, 0]
    g_s = float(tape.direction[0] @ g_xt)
    g_d = tape.step_size[0] * g_xt
    _, dir_wg = _parent_net_backward(arch.direction_net, g_d[:, None])
    _, step_wg = _parent_net_backward(arch.step_net, np.array([g_s]))
    return np.concatenate([_flatten(dir_wg, step_wg, sparse_wg), [g_prox_tau]])


def _random_states(dim, count, seed):
    rng = np.random.default_rng(seed)
    return [AlgoState(x_curr=rng.normal(size=dim), x_prev=rng.normal(size=dim)) for _ in range(count)]


def _kill_first_step_layer(algo):
    """Set the step net's first layer to -1: its inputs are log norms >= 0, so every unit is dead."""
    flat = algo.get_flat()
    nd = algo.arch.direction_net.num_params
    flat[nd: nd + algo.arch.step_net.weights[0].size] = -1.0
    algo.set_flat(flat)


class TestLeanBackward:
    """The in-place ``step_backward`` equals the per-net lists joined by ``np.concatenate``."""

    @pytest.mark.parametrize("dead", [False, True])
    def test_quad_equals_per_net_concatenation(self, dead):
        insts = gen_quadratics(4, 20, (1, 2), (5, 10), 3)
        for seed, (inst, st) in enumerate(zip(insts, _random_states(20, 4, 1))):
            algo = make_quad_algo(seed)
            if dead:
                _kill_first_step_layer(algo)
            nxt = algo.step_with_tape(st, inst)
            tape = algo.arch.tape
            out_grad = algo.loss_grad(nxt.x_curr, inst) / algo.loss(st.x_curr, inst)
            got = algo.step_backward(out_grad)
            want = _parent_quad_backward(algo.arch, tape, out_grad)
            assert got.tobytes() == want.tobytes()
            if dead:
                assert not np.any(got[algo.arch.direction_net.num_params + 16:])

    @pytest.mark.parametrize("dead", [False, True])
    def test_lasso_equals_per_net_concatenation(self, dead):
        ctx, insts = gen_lasso(4, 40, 25, (0.1, 1.0), 4)
        prox_terms = []
        for seed, (inst, st) in enumerate(zip(insts, _random_states(40, 4, 2))):
            algo = make_lasso_algo(seed, ctx)
            if dead:
                _kill_first_step_layer(algo)
            nxt = algo.step_with_tape(st, inst)
            tape = algo.arch.tape
            out_grad = algo.loss_grad(nxt.x_curr, inst) / algo.loss(st.x_curr, inst)
            got = algo.step_backward(out_grad)
            want = _parent_lasso_backward(algo.arch, tape, out_grad)
            assert got.tobytes() == want.tobytes()
            prox_terms.append(got[-1])
        # the prox_tau entry is exercised, not a constant zero
        assert any(prox_terms)

    def test_result_is_not_overwritten_by_the_next_pass(self):
        ctx, linsts = gen_lasso(2, 40, 25, (0.1, 1.0), 5)
        cases = [
            (make_quad_algo(3), gen_quadratics(2, 20, (1, 2), (5, 10), 2), 20),
            (make_lasso_algo(3, ctx), linsts, 40),
        ]
        for algo, insts, dim in cases:
            grads, snapshots = [], []
            for inst, st in zip(insts, _random_states(dim, 2, 8)):
                nxt = algo.step_with_tape(st, inst)
                grads.append(algo.step_backward(algo.loss_grad(nxt.x_curr, inst)))
                snapshots.append(grads[-1].copy())
            np.testing.assert_array_equal(grads[0], snapshots[0])
            assert np.any(grads[0] != grads[1])
            assert not np.shares_memory(grads[0], algo.arch.grads)


def _tape_arrays(arch):
    """Every array that the architecture's step tape or its nets' tapes hold."""
    found = [a for a in vars(arch.tape).values() if isinstance(a, np.ndarray)]
    for net in arch.nets:
        found += [a for part in net.tape for a in part if a is not None]
    return found


def _tape_cases():
    ctx, linsts = gen_lasso(3, 40, 25, (0.1, 1.0), 5)
    return [
        (make_quad_algo(3), gen_quadratics(3, 20, (1, 2), (5, 10), 2), 20),
        (make_lasso_algo(3, ctx), linsts, 40),
    ]


class TestStepTape:
    """One step tape per architecture: taped steps refill it, nothing else touches it."""

    def test_untaped_passes_between_forward_and_backward_change_nothing(self):
        for algo, insts, dim in _tape_cases():
            st, other = _random_states(dim, 2, 4)
            nxt = algo.step_with_tape(st, insts[0])
            tape = algo.arch.tape
            out_grad = algo.loss_grad(nxt.x_curr, insts[0])
            want = algo.step_backward(out_grad)
            again = algo.step_with_tape(st, insts[0])
            assert algo.arch.tape is tape and again.x_curr.tobytes() == nxt.x_curr.tobytes()
            algo.step(other, insts[1])
            rollout(algo, insts, other.x_curr, 3)
            assert algo.step_backward(out_grad).tobytes() == want.tobytes()
            assert algo.step(st, insts[0]).x_curr.tobytes() == nxt.x_curr.tobytes()

    def test_results_are_not_views_of_the_tape(self):
        for algo, insts, dim in _tape_cases():
            st = _random_states(dim, 1, 6)[0]
            nxt = algo.step_with_tape(st, insts[0])
            grad = algo.step_backward(algo.loss_grad(nxt.x_curr, insts[0]))
            for buf in _tape_arrays(algo.arch):
                assert not np.shares_memory(nxt.x_curr, buf)
                assert not np.shares_memory(grad, buf)

    def test_new_shape_reallocates_and_matches_a_fresh_architecture(self):
        quads, small = gen_quadratics(3, 20, (1, 2), (5, 10), 2), gen_quadratics(3, 7, (1, 2), (5, 10), 3)
        algo = make_quad_algo(3)
        algo.step_with_tape(_random_states(20, 1, 1)[0], quads[0])
        old = algo.arch.tape
        rng = np.random.default_rng(2)
        cases = [  # dimension 20 -> 7, then three rows of dimension 7
            (_random_states(7, 1, 2)[0], small[0]),
            (AlgoState(x_curr=rng.normal(size=(3, 7)), x_prev=rng.normal(size=(3, 7))), QuadraticBatch.stack(small)),
        ]
        for st, inst in cases:
            fresh = make_quad_algo(3)
            nxt = algo.step_with_tape(st, inst)
            tape = algo.arch.tape
            want_nxt = fresh.step_with_tape(st, inst)
            assert tape is not old and tape.shape == st.x_curr.reshape(-1, st.x_curr.shape[-1]).shape
            assert nxt.x_curr.tobytes() == want_nxt.x_curr.tobytes()
            out_grad = algo.loss_grad(nxt.x_curr, inst)
            assert algo.step_backward(out_grad).tobytes() == fresh.step_backward(out_grad).tobytes()
            old = tape

    def test_lasso_new_shape_reallocates_and_matches_a_fresh_architecture(self):
        big_ctx, big = gen_lasso(3, 40, 25, (0.1, 1.0), 5)
        ctx, insts = gen_lasso(3, 6, 4, (0.1, 0.5), 7)
        wide = make_lasso_algo(3, big_ctx)
        wide.step_with_tape(_random_states(40, 1, 1)[0], big[0])
        algo = LassoLearnedAlgo(wide.arch, ctx)  # the same architecture, now on dimension 6
        rng = np.random.default_rng(3)
        rows = AlgoState(x_curr=rng.normal(size=(3, 6)), x_prev=rng.normal(size=(3, 6)))
        for st, inst in [(_random_states(6, 1, 2)[0], insts[0]), (rows, LassoBatch.stack(insts)),
                         (_random_states(6, 1, 3)[0], insts[1])]:
            old = algo.arch.tape
            fresh = LassoLearnedAlgo(make_lasso_algo(3, big_ctx).arch, ctx)
            nxt = algo.step_with_tape(st, inst)
            tape = algo.arch.tape
            want_nxt = fresh.step_with_tape(st, inst)
            assert tape is not old
            assert nxt.x_curr.tobytes() == want_nxt.x_curr.tobytes()
            if st.x_curr.ndim == 1:  # the LASSO hypergradient is one-row
                out_grad = algo.loss_grad(nxt.x_curr, inst)
                assert algo.step_backward(out_grad).tobytes() == fresh.step_backward(out_grad).tobytes()

    def test_backward_before_any_taped_step_names_the_missing_step(self):
        for algo, insts, dim in _tape_cases():
            st = _random_states(dim, 1, 5)[0]
            algo.step(st, insts[0])  # an untaped step leaves no tape
            with pytest.raises(RuntimeError, match="taped step"):
                algo.step_backward(algo.loss_grad(st.x_curr, insts[0]))

    def test_reinit_shares_no_buffers(self):
        for algo, insts, dim in _tape_cases():
            st = _random_states(dim, 1, 7)[0]
            algo.step_with_tape(st, insts[0])
            old = algo.arch
            algo.reinit(np.random.default_rng(9))
            assert algo.arch.tape is None and all(net.tape is None for net in algo.arch.nets)
            algo.step_with_tape(st, insts[0])
            for buf in _tape_arrays(algo.arch):
                assert not any(np.shares_memory(buf, prev) for prev in _tape_arrays(old))


class TestFlatParameters:
    @pytest.mark.parametrize("kind", ["quad", "lasso"])
    def test_weights_are_views_of_one_vector(self, kind):
        if kind == "quad":
            algo = make_quad_algo(0)
            nets = [algo.arch.direction_net, algo.arch.step_net]
        else:
            ctx, _ = gen_lasso(1, 6, 4, (0.1, 0.5), 7)
            algo = make_lasso_algo(0, ctx)
            nets = [algo.arch.direction_net, algo.arch.step_net, algo.arch.sparsity_net]
        flat = np.arange(algo.num_params, dtype=float)
        algo.set_flat(flat)
        joined = np.concatenate([W.ravel() for net in nets for W in net.weights])
        np.testing.assert_array_equal(joined, flat[: joined.size])
        for net in nets:
            for W in net.weights:
                assert np.shares_memory(W, algo.arch.params)

    def test_prox_tau_is_the_last_entry(self):
        ctx, _ = gen_lasso(1, 6, 4, (0.1, 0.5), 7)
        algo = make_lasso_algo(0, ctx)
        assert algo.arch.prox_tau == 1.0 / ctx.lipschitz
        algo.arch.prox_tau = 0.25
        assert algo.get_flat()[-1] == 0.25
        flat = algo.get_flat()
        flat[-1] = 0.5
        algo.set_flat(flat)
        assert algo.arch.prox_tau == 0.5 and isinstance(algo.arch.prox_tau, float)

    @pytest.mark.parametrize("kind", ["quad", "lasso"])
    def test_model_never_aliases_caller_arrays(self, kind):
        if kind == "quad":
            algo = make_quad_algo(1)
        else:
            ctx, _ = gen_lasso(1, 6, 4, (0.1, 0.5), 7)
            algo = make_lasso_algo(1, ctx)
        flat = np.random.default_rng(0).normal(size=algo.num_params)
        algo.set_flat(flat)
        expected = flat.copy()
        flat += 1.0
        np.testing.assert_array_equal(algo.get_flat(), expected)
        got = algo.get_flat()
        got[:] = 0.0
        np.testing.assert_array_equal(algo.get_flat(), expected)
        with pytest.raises(ValueError):
            algo.set_flat(np.zeros(algo.num_params + 1))


class TestCarriedLoss:
    def test_passed_loss_gives_the_same_step(self):
        ctx, linsts = gen_lasso(2, 40, 25, (0.1, 1.0), 5)
        cases = [
            (make_quad_algo(3), gen_quadratics(1, 20, (1, 2), (5, 10), 2)[0], 20),
            (make_lasso_algo(3, ctx), linsts[0], 40),
        ]
        for algo, inst, dim in cases:
            state = _random_states(dim, 1, 6)[0]
            loss = None
            for _ in range(3):
                computed = ratio_step(algo, state, inst)
                passed = ratio_step(algo, state, inst, algo.loss(state.x_curr, inst) if loss is None else loss)
                assert computed[0].x_curr.tobytes() == passed[0].x_curr.tobytes()
                assert computed[1].tobytes() == passed[1].tobytes()
                assert computed[2] == passed[2] == algo.loss(computed[0].x_curr, inst)
                state, loss = passed[0], passed[2]


class TestBaselineFixtures:
    def test_fista_beats_ista_at_200(self):
        ctx, insts = gen_lasso(1, 10, 7, (0.1, 0.5), 12)
        inst = insts[0]
        fista, ista = FistaAlgo(ctx), IstaAlgo(ctx)
        x0 = np.zeros(10)
        sf, si = fista.init_state(x0), ista.init_state(x0)
        for _ in range(200):
            sf = fista.step(sf, inst)
            si = ista.step(si, inst)
        assert fista.loss(sf.x_curr, inst) <= ista.loss(si.x_curr, inst)

    def test_hbf_convergence_fixture(self):
        inst = gen_quadratics(1, 6, (1.0, 1.0), (10.0, 10.0), 13)[0]
        algo = HbfAlgo(hbf_params(1.0, 10.0))
        x0 = np.zeros(6)
        st = algo.init_state(x0)
        initial = algo.loss(x0, inst)
        for _ in range(500):
            st = algo.step(st, inst)
        assert algo.loss(st.x_curr, inst) <= 1e-8 * initial

    def test_trajectory_bitwise_reproducible(self):
        inst = gen_quadratics(1, 4, (1, 2), (5, 9), 20)[0]
        algo = HbfAlgo(hbf_params(1.0, 9.0))
        runs = []
        for _ in range(2):
            st = algo.init_state(np.zeros(4))
            xs = []
            for _ in range(50):
                st = algo.step(st, inst)
                xs.append(st.x_curr.copy())
            runs.append(np.array(xs))
        np.testing.assert_array_equal(runs[0], runs[1])
