import numpy as np
import pytest

from optcert.nets import _BLOCK_FLOATS, AdamState, DenseNet, adam_step, frozen_weights

from gradcheck import finite_diff


def make_net(weights, mask):
    return DenseNet(weights=[np.asarray(w, float) for w in weights], activation_mask=mask)


class TestForward:
    def test_zero_weights_zero_output(self):
        net = make_net([np.zeros((4, 3)), np.zeros((1, 4))], [True, False])
        out = net.forward(np.ones((1, 3)))
        np.testing.assert_array_equal(out, [[0.0]])

    def test_single_linear_layer(self):
        net = make_net([[[2.5]]], [False])
        out = net.forward(np.array([[3.0]]))
        assert out[0, 0] == 7.5

    def test_rectifier_kills_negative(self):
        net = make_net([[[2.0]], [[3.0]]], [True, False])
        out = net.forward(np.array([[-1.0]]))
        assert out[0, 0] == 0.0
        out = net.forward(np.array([[1.0]]))
        assert out[0, 0] == 6.0

    def test_vector_input_is_refused(self):
        net = make_net([[[2.0, 1.0]]], [False])
        with pytest.raises(ValueError, match=r"input shape \(2,\) is not \(rows, 2\)"):
            net.forward(np.ones(2))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(0)
        net = DenseNet.init([3, 5, 1], [True, False], rng)
        batch = rng.normal(size=(7, 3))
        out = net.forward(batch)
        for i in range(7):
            single = net.forward(batch[i: i + 1])
            np.testing.assert_allclose(out[i], single[0])

    # one row block, exact multiples of a block and remainders, at widths 64, 16 and 8
    @pytest.mark.parametrize("rows", [1, 40, 399, 400, 401, 1000, 1600, 1601, 1999, 2000, 4001])
    def test_frozen_pass_has_the_bits_of_the_transposed_chain(self, rows):
        # the learned rules' direction (quadratic, LASSO) and step nets; the
        # coordinate nets read channel-major, F-ordered inputs
        rng = np.random.default_rng(rows)
        shapes = [([3, 16, 16, 16, 16, 16, 1], [True, False] * 3), ([2, 8, 8, 8, 8, 8, 1], [True, False] * 3),
                  ([4, 64, 64, 64, 1], [True, True, True, False])]
        for dims, mask in shapes:
            net = DenseNet.init(dims, mask, rng)
            for x in (rng.normal(size=(rows, dims[0])), rng.normal(size=(dims[0], rows)).T):
                want = x
                for W, act in zip(net.weights, mask):
                    want = want @ W.T
                    if act:
                        want = np.maximum(want, 0.0)
                with frozen_weights([net]):
                    first = net.forward(x)
                    net.forward(-x)  # the output is not a buffer that the next pass refills
                    assert first.tobytes() == want.tobytes()
                    assert net.forward(x).tobytes() == want.tobytes()
                assert net.weights_t is None

    @pytest.mark.parametrize("rows, blocks", [(40, 1), (400, 1), (401, 2), (1999, 5), (2000, 5), (4001, 11)])
    def test_frozen_pass_runs_in_row_blocks_of_bounded_size(self, rows, blocks):
        net = DenseNet.init([4, 64, 64, 64, 1], [True, True, True, False], np.random.default_rng(0))
        with frozen_weights([net]):
            assert net.forward(np.ones((rows, 4))).shape == (rows, 1)
        edges = [start for start, _, _ in net.work[1]] + [rows]
        assert len(edges) == blocks + 1 and all(edge % 16 == 0 for edge in edges[:-1])
        for (start, stop, outs), end in zip(net.work[1], edges[1:]):
            assert stop == end and (stop - start) * 64 <= _BLOCK_FLOATS + 15 * 64
            assert [out.shape for out in outs] == [(stop - start, 64)] * 3

    def test_positive_homogeneity_in_active_region(self):
        rng = np.random.default_rng(3)
        net = DenseNet.init([2, 4, 1], [True, False], rng)
        x = rng.normal(size=(1, 2))
        o1 = net.forward(x)
        o2 = net.forward(2.0 * x)
        np.testing.assert_allclose(o2, 2.0 * o1, rtol=1e-12)


class TestBackward:
    def test_zero_outgrad(self):
        rng = np.random.default_rng(1)
        net = DenseNet.init([3, 4, 1], [True, False], rng)
        net.forward(rng.normal(size=(1, 3)), taped=True)
        in_g = net.backward(np.zeros((1, 1)))
        np.testing.assert_array_equal(in_g, np.zeros((1, 3)))
        for g in net.weight_grads:
            assert not np.any(g)

    def test_linear_layer_weight_grad_is_outer_product(self):
        net = make_net([np.zeros((2, 3))], [False])
        x = np.array([[1.0, 2.0, 3.0]])
        net.forward(x, taped=True)
        out_grad = np.array([[1.0, -1.0]])
        net.backward(out_grad)
        np.testing.assert_allclose(net.weight_grads[0], np.outer(out_grad, x))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = DenseNet.init([3, 6, 6, 1], [True, True, False], rng)
        x = rng.normal(size=(1, 3))
        out_grad = np.ones((1, 1))
        net.forward(x, taped=True)
        in_g = net.backward(out_grad).copy()
        flat_g = net.grads.copy()

        def f_weights(flat):
            saved = net.get_flat()
            net.set_flat(flat)
            out = net.forward(x)
            net.set_flat(saved)
            return float(out[0, 0])

        fd_w = finite_diff(f_weights, net.get_flat(), h=1e-6)
        np.testing.assert_allclose(flat_g, fd_w, rtol=1e-5, atol=1e-7)

        def f_input(xx):
            out = net.forward(xx[None, :])
            return float(out[0, 0])

        fd_x = finite_diff(f_input, x[0], h=1e-6)
        np.testing.assert_allclose(in_g[0], fd_x, rtol=1e-5, atol=1e-7)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        net = DenseNet.init([2, 3, 1], [True, False], rng)
        x = np.array([[0.4, -0.7]])
        o1 = net.forward(x, taped=True).copy()
        g1, w1 = net.backward(np.ones((1, 1))).copy(), net.grads.copy()
        o2 = net.forward(x, taped=True)
        g2 = net.backward(np.ones((1, 1)))
        np.testing.assert_array_equal(o1, o2)
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(w1, net.grads)

    def test_weight_gradients_are_views_of_grads(self):
        rng = np.random.default_rng(6)
        net = DenseNet.init([3, 5, 5, 2], [True, True, False], rng)
        net.forward(rng.normal(size=(4, 3)), taped=True)
        out_grad = rng.normal(size=(4, 2))
        in_g = net.backward(out_grad)
        assert in_g.shape == (4, 3)
        assert all(np.shares_memory(g, net.grads) for g in net.weight_grads)
        flat = net.grads.copy()
        assert net.backward(out_grad, input_grad=False) is None
        np.testing.assert_array_equal(net.grads, flat)
        np.testing.assert_array_equal(flat, np.concatenate([g.ravel() for g in net.weight_grads]))


class TestTape:
    def test_allocated_on_the_first_taped_pass_and_again_only_when_the_row_count_changes(self):
        rng = np.random.default_rng(7)
        net = DenseNet.init([3, 5, 5, 2], [True, False, True], rng)
        net.forward(rng.normal(size=(4, 3)))
        assert net.tape is None
        out = net.forward(rng.normal(size=(4, 3)), taped=True)
        tape = net.tape
        assert out is tape[0][-1] and [Z.shape for Z in tape[1]] == [(4, 5), (4, 5), (4, 2)]
        assert net.forward(rng.normal(size=(4, 3)), taped=True) is out and net.tape is tape
        net.forward(rng.normal(size=(6, 3)), taped=True)
        assert net.tape is not tape and [Z.shape for Z in net.tape[1]] == [(6, 5), (6, 5), (6, 2)]
        # a linear layer's pre-activation is the next layer's input; no other two buffers overlap
        arrays = [a for part in net.tape for a in part if a is not None]
        assert not any(np.shares_memory(a, b) for a in arrays for b in arrays if a is not b)


class TestInit:
    def test_weight_range(self):
        rng = np.random.default_rng(0)
        net = DenseNet.init([9, 4, 1], [True, False], rng)
        assert np.all(np.abs(net.weights[0]) <= 1.0 / 3.0)
        assert np.all(np.abs(net.weights[1]) <= 0.5)

    def test_flat_roundtrip(self):
        rng = np.random.default_rng(2)
        net = DenseNet.init([3, 4, 2], [True, False], rng)
        flat = net.get_flat()
        net.set_flat(np.zeros_like(flat))
        assert not np.any(net.get_flat())
        net.set_flat(flat)
        np.testing.assert_array_equal(net.get_flat(), flat)

    def test_set_flat_copies_the_argument(self):
        rng = np.random.default_rng(2)
        net = DenseNet.init([3, 4, 2], [True, False], rng)
        flat = rng.normal(size=net.num_params)
        net.set_flat(flat)
        x = rng.normal(size=(1, 3))
        before = net.forward(x)
        flat[:] = 0.0
        after = net.forward(x)
        np.testing.assert_array_equal(after, before)
        assert np.any(net.get_flat())

    def test_get_flat_returns_a_copy(self):
        rng = np.random.default_rng(3)
        net = DenseNet.init([3, 4, 2], [True, False], rng)
        expected = net.get_flat()
        got = net.get_flat()
        got += 1.0
        np.testing.assert_array_equal(net.get_flat(), expected)

    def test_wrong_length_raises(self):
        rng = np.random.default_rng(4)
        net = DenseNet.init([3, 4, 2], [True, False], rng)
        for length in (net.num_params - 1, net.num_params + 1):
            with pytest.raises(ValueError):
                net.set_flat(np.zeros(length))
        with pytest.raises(ValueError):
            net.set_flat(np.zeros((1, net.num_params)))

    def test_weights_are_views_of_params(self):
        net = make_net([np.ones((4, 3)), 2.0 * np.ones((1, 4))], [True, False])
        np.testing.assert_array_equal(net.params, [1.0] * 12 + [2.0] * 4)
        net.set_flat(np.arange(16.0))
        np.testing.assert_array_equal(net.weights[1], [[12.0, 13.0, 14.0, 15.0]])


class TestAdam:
    def test_zero_grad_zero_moments_unchanged(self):
        st = AdamState.zeros(3, lr=0.1)
        p = np.array([1.0, 2.0, 3.0])
        new = p.copy()
        adam_step(st, new, np.zeros(3))
        np.testing.assert_array_equal(new, p)

    def test_first_step_decreases_by_lr(self):
        st = AdamState.zeros(2, lr=0.05)
        p = np.zeros(2)
        adam_step(st, p, np.array([1.0, 2.0]))
        # bias-corrected ratio is 1 at t=1, so the move is about -lr
        np.testing.assert_allclose(p, [-0.05, -0.05], rtol=1e-6)

    # 400 steps pass t = 350, from where 1 - 0.9**t rounds to 1.0
    @pytest.mark.parametrize("steps", [12, 400])
    def test_in_place_update_is_bit_identical_to_textbook(self, steps):
        rng = np.random.default_rng(5)
        dim, lr = 257, 0.01
        st = AdamState.zeros(dim, lr=lr)
        params = rng.standard_normal(dim)
        ref, m, v = params.copy(), np.zeros(dim), np.zeros(dim)
        for t in range(1, steps + 1):
            g = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 3)
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g**2
            ref = ref - lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert adam_step(st, params, g) is None and st.step_count == t
            assert params.tobytes() == ref.tobytes()
            assert st.first_moment.tobytes() == m.tobytes()
            assert st.second_moment.tobytes() == v.tobytes()
            if t % (steps // 3) == 0:  # the lr decay of the training loops
                st.lr *= 0.5
                lr *= 0.5

    def test_length_mismatch(self):
        st = AdamState.zeros(2)
        with pytest.raises(ValueError):
            adam_step(st, np.zeros(3), np.zeros(3))


class TestFiniteDiff:
    def test_quadratic(self):
        fd = finite_diff(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert fd[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        fd = finite_diff(lambda x: 1.0, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(fd, [0.0, 0.0])
