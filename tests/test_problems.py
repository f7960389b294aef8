import numpy as np
import pytest

from optcert.problems import (
    DatasetSplit,
    LassoClassContext,
    LassoInstance,
    QuadraticInstance,
    context_from_json,
    context_to_json,
    gen_lasso,
    gen_quadratics,
    grad_quadratic,
    instance_from_json,
    instance_to_json,
    loss_lasso,
    loss_quadratic,
    power_iteration_gram,
    smooth_grad_lasso,
    split_dataset,
    subgrad_lasso,
)


def quad(diag, rhs):
    return QuadraticInstance(diag=np.asarray(diag, float), rhs=np.asarray(rhs, float))


class TestQuadraticLoss:
    def test_identity_matrix_unit_x(self):
        assert loss_quadratic(np.array([1.0, 1.0]), quad([1, 1], [0, 0])) == 1.0

    def test_exact_solution_is_zero(self):
        inst = quad([1, 1, 1], [2.0, -3.0, 0.5])
        assert loss_quadratic(inst.rhs.copy(), inst) == 0.0

    def test_hand_value(self):
        # ½(3·2 − 1)² with the active coordinate placed last to keep the
        # diagonal nondecreasing
        assert loss_quadratic(np.array([0.0, 2.0]), quad([1, 3], [0, 1])) == 12.5

    def test_solution_property(self):
        inst = quad([2, 5], [4.0, -10.0])
        x_star = inst.rhs / inst.diag
        assert loss_quadratic(x_star, inst) == pytest.approx(0.0, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            loss_quadratic(np.zeros(3), quad([1, 1], [0, 0]))


class TestQuadraticGrad:
    def test_zero_at_solution(self):
        inst = quad([1, 1], [3.0, 4.0])
        np.testing.assert_array_equal(grad_quadratic(inst.rhs.copy(), inst), [0.0, 0.0])

    def test_hand_value(self):
        g = grad_quadratic(np.array([0.0, 2.0]), quad([1, 3], [0, 1]))
        np.testing.assert_allclose(g, [0.0, 15.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = rng.integers(1, 6)
            inst = quad(np.sort(rng.uniform(0.5, 3.0, n)), rng.normal(size=n))
            x = rng.normal(size=n)
            g = grad_quadratic(x, inst)
            h = 1e-6
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (loss_quadratic(x + e, inst) - loss_quadratic(x - e, inst)) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-6)


class TestQuadraticInstanceValidation:
    def test_rejects_nonpositive_diag(self):
        with pytest.raises(ValueError):
            quad([0.0, 1.0], [0, 0])

    def test_rejects_decreasing_diag(self):
        with pytest.raises(ValueError):
            quad([2.0, 1.0], [0, 0])


class TestLasso:
    def ctx1d(self):
        return LassoClassContext(design=np.array([[1.0]]), lipschitz=1.0)

    def test_zero_x(self):
        ctx = LassoClassContext(design=np.eye(2), lipschitz=1.0)
        inst = LassoInstance(rhs=np.array([3.0, 4.0]), reg=1.0)
        assert loss_lasso(np.zeros(2), inst, ctx) == 12.5
        np.testing.assert_allclose(subgrad_lasso(np.zeros(2), inst, ctx), [-3.0, -4.0])

    def test_one_dimensional_values(self):
        inst = LassoInstance(rhs=np.array([0.0]), reg=1.0)
        # 0.5*(2)^2 + 1*|2| = 4; subgradient 2 + sign(2) = 3
        assert loss_lasso(np.array([2.0]), inst, self.ctx1d()) == 4.0
        np.testing.assert_allclose(subgrad_lasso(np.array([2.0]), inst, self.ctx1d()), [3.0])

    def test_sign_zero_convention(self):
        ctx = LassoClassContext(design=np.eye(2), lipschitz=1.0)
        inst = LassoInstance(rhs=np.array([1.0, -1.0]), reg=5.0)
        g = subgrad_lasso(np.zeros(2), inst, ctx)
        np.testing.assert_allclose(g, [-1.0, 1.0])  # no reg term at 0

    def test_subgrad_matches_fd_away_from_kinks(self):
        rng = np.random.default_rng(1)
        ctx, insts = gen_lasso(5, 6, 4, (0.1, 0.5), 1)
        for inst in insts:
            x = rng.normal(size=6)
            x[np.abs(x) <= 1e-3] = 0.5
            g = subgrad_lasso(x, inst, ctx)
            h = 1e-6
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                fd = (loss_lasso(x + e, inst, ctx) - loss_lasso(x - e, inst, ctx)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-5)


class TestGenerators:
    def test_quadratic_endpoints_exact(self):
        insts = gen_quadratics(10, 8, (0.5, 1.5), (5.0, 9.0), 3)
        for inst in insts:
            evals = inst.diag**2
            assert 0.5 <= evals.min() <= 1.5
            assert 5.0 <= evals.max() <= 9.0

    def test_degenerate_range_gives_identity(self):
        insts = gen_quadratics(3, 5, (1.0, 1.0), (1.0, 1.0), 0)
        for inst in insts:
            np.testing.assert_allclose(inst.diag, np.ones(5))

    def test_endpoint_convention(self):
        # min(diag^2) = m and max(diag^2) = L exactly
        insts = gen_quadratics(5, 6, (2.0, 2.0), (7.0, 7.0), 11)
        for inst in insts:
            assert inst.diag[0] ** 2 == pytest.approx(2.0)
            assert inst.diag[-1] ** 2 == pytest.approx(7.0)

    def test_determinism(self):
        a = gen_quadratics(4, 5, (1, 2), (3, 4), 42)
        b = gen_quadratics(4, 5, (1, 2), (3, 4), 42)
        for ia, ib in zip(a, b):
            np.testing.assert_array_equal(ia.diag, ib.diag)
            np.testing.assert_array_equal(ia.rhs, ib.rhs)

    def test_quadratic_invalid_range(self):
        with pytest.raises(ValueError):
            gen_quadratics(1, 4, (2.0, 1.0), (3.0, 4.0), 0)

    def test_lasso_reg_in_range(self):
        ctx, insts = gen_lasso(20, 6, 4, (0.01, 0.5), 5)
        for inst in insts:
            assert 0.01 <= inst.reg <= 0.5

    def test_lasso_determinism(self):
        ca, ia = gen_lasso(3, 6, 4, (0.1, 0.2), 9)
        cb, ib = gen_lasso(3, 6, 4, (0.1, 0.2), 9)
        np.testing.assert_array_equal(ca.design, cb.design)
        for a, b in zip(ia, ib):
            np.testing.assert_array_equal(a.rhs, b.rhs)
            assert a.reg == b.reg

    def test_lasso_invalid_dims(self):
        with pytest.raises(ValueError):
            gen_lasso(1, 4, 6, (0.1, 0.2), 0)

    def test_lipschitz_matches_dense_eigensolver(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(-10, 10, size=(5, 8))
        lam = power_iteration_gram(A)
        dense = np.linalg.eigvalsh(A.T @ A).max()
        assert lam == pytest.approx(dense, rel=1e-6)


class TestSplit:
    def test_disjoint_pairs(self):
        insts = gen_quadratics(8, 3, (1, 1), (2, 2), 0)
        sp = split_dataset(insts, (2, 2, 2, 2))
        assert [len(part) for part in (sp.prior, sp.train, sp.val, sp.test)] == [2, 2, 2, 2]
        all_parts = sp.prior + sp.train + sp.val + sp.test
        assert len(all_parts) == 8
        assert all(a is b for a, b in zip(all_parts, insts))

    def test_insufficient(self):
        insts = gen_quadratics(8, 3, (1, 1), (2, 2), 0)
        with pytest.raises(ValueError):
            split_dataset(insts, (3, 3, 3, 3))


class TestSerialization:
    def test_quadratic_roundtrip(self):
        inst = quad([1.0, 2.0], [0.5, -1.5])
        obj = instance_to_json(inst)
        assert obj["kind"] == "quadratic"
        back = instance_from_json(obj)
        np.testing.assert_array_equal(back.diag, inst.diag)
        np.testing.assert_array_equal(back.rhs, inst.rhs)

    def test_lasso_roundtrip(self):
        inst = LassoInstance(rhs=np.array([1.0, 2.0]), reg=0.3)
        obj = instance_to_json(inst)
        assert obj["kind"] == "lasso"
        back = instance_from_json(obj)
        np.testing.assert_array_equal(back.rhs, inst.rhs)
        assert back.reg == 0.3

    def test_context_roundtrip(self):
        ctx, _ = gen_lasso(1, 5, 3, (0.1, 0.2), 4)
        back = context_from_json(context_to_json(ctx))
        np.testing.assert_array_equal(back.design, ctx.design)
        assert back.lipschitz == ctx.lipschitz
