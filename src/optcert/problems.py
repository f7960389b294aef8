"""Parametric loss families, instance generators, and the four-way data split.

Two problem classes are supported:

* diagonal quadratics  ``0.5 * ||A x - b||^2``  with ``A = diag(d)``, where the
  squared diagonal entries interpolate the strong-convexity / smoothness
  constants ``m`` and ``L`` exactly, and
* LASSO  ``0.5 * ||A x - b||^2 + reg * ||x||_1``  with one dense design matrix
  shared by all instances of the class.

Generators are pure functions of (config, seed): the Gaussian used for the
right-hand sides is drawn once per call and reused for every instance.

The loss and gradient functions take either one iterate (a vector) with one
instance, or a (B, n) matrix of iterates with a ``QuadraticBatch`` or
``LassoBatch`` of B instances stacked row by row.  A batch of one gives the
same bits as the single-instance call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadraticInstance",
    "LassoInstance",
    "LassoClassContext",
    "QuadraticBatch",
    "LassoBatch",
    "DatasetSplit",
    "loss_quadratic",
    "grad_quadratic",
    "loss_lasso",
    "subgrad_lasso",
    "gen_quadratics",
    "gen_lasso",
    "split_dataset",
    "instance_to_json",
    "instance_from_json",
]


@dataclass(frozen=True)
class QuadraticInstance:
    """Diagonal quadratic ``0.5 * ||diag(d) x - b||^2``."""

    diag: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if diag.shape != rhs.shape or diag.ndim != 1:
            raise ValueError("diag and rhs must be 1-D arrays of equal length")
        if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
            raise ValueError("diagonal entries must be finite and positive")
        if np.any(np.diff(diag) < 0):
            raise ValueError("diagonal entries must be nondecreasing")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "rhs", rhs)


@dataclass(frozen=True)
class LassoInstance:
    """Right-hand side and regularization weight of one LASSO instance."""

    rhs: np.ndarray
    reg: float

    def __post_init__(self):
        rhs = np.asarray(self.rhs, dtype=float)
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs entries must be finite")
        if self.reg <= 0:
            raise ValueError("reg must be positive")
        object.__setattr__(self, "rhs", rhs)


@dataclass(frozen=True)
class LassoClassContext:
    """Design matrix shared by all LASSO instances, plus its Lipschitz constant.

    ``lipschitz`` is the largest eigenvalue of ``design.T @ design``.
    """

    design: np.ndarray
    lipschitz: float


@dataclass(frozen=True)
class QuadraticBatch:
    """Quadratic instances stacked row-wise: ``diag`` and ``rhs`` of shape (B, n)."""

    diag: np.ndarray
    rhs: np.ndarray

    @classmethod
    def stack(cls, instances) -> "QuadraticBatch":
        return cls(
            diag=np.stack([inst.diag for inst in instances]),
            rhs=np.stack([inst.rhs for inst in instances]),
        )


@dataclass(frozen=True)
class LassoBatch:
    """LASSO instances stacked row-wise: ``rhs`` (B, p) and ``reg`` (B,); the design is shared."""

    rhs: np.ndarray
    reg: np.ndarray

    @classmethod
    def stack(cls, instances) -> "LassoBatch":
        return cls(
            rhs=np.stack([inst.rhs for inst in instances]),
            reg=np.array([inst.reg for inst in instances], dtype=float),
        )


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint prior/train/val/test instance lists."""

    prior: list
    train: list
    val: list
    test: list


def row_dot(u: np.ndarray, v: np.ndarray):
    """``u @ v`` for vectors (a float), or one such dot product per row of two (B, n) matrices."""
    if u.ndim == 1:
        return float(u @ v)
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _check_quadratic(x, inst) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != inst.diag.shape[-1]:
        raise ValueError(f"dimension mismatch: x has {x.shape}, instance has {inst.diag.shape}")
    return x


def _check_lasso(x, ctx: LassoClassContext) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != ctx.design.shape[1]:
        raise ValueError("dimension mismatch between x and design matrix")
    return x


def loss_quadratic(x: np.ndarray, inst: QuadraticInstance):
    x = _check_quadratic(x, inst)
    r = inst.diag * x - inst.rhs
    return 0.5 * row_dot(r, r)


def grad_quadratic(x: np.ndarray, inst: QuadraticInstance) -> np.ndarray:
    x = _check_quadratic(x, inst)
    return inst.diag * (inst.diag * x - inst.rhs)


def loss_lasso(x: np.ndarray, inst: LassoInstance, ctx: LassoClassContext):
    x = _check_lasso(x, ctx)
    r = x @ ctx.design.T - inst.rhs
    return 0.5 * row_dot(r, r) + inst.reg * np.sum(np.abs(x), axis=-1)


def subgrad_lasso(x: np.ndarray, inst: LassoInstance, ctx: LassoClassContext) -> np.ndarray:
    """Subgradient with the backpropagation convention sign(0) = 0."""
    x = _check_lasso(x, ctx)
    return smooth_grad_lasso(x, inst, ctx) + reg_column(inst) * np.sign(x)


def smooth_grad_lasso(x: np.ndarray, inst: LassoInstance, ctx: LassoClassContext) -> np.ndarray:
    """Gradient of the smooth part only, as used by (F)ISTA."""
    return (x @ ctx.design.T - inst.rhs) @ ctx.design


def reg_column(inst) -> np.ndarray:
    """The regularization weight shaped to scale a vector, or each row of a batch."""
    return np.asarray(inst.reg, dtype=float)[..., None]


def _interp_diag(m: float, L: float, n: int) -> np.ndarray:
    # endpoints hit sqrt(m) and sqrt(L) exactly, so eig(A^T A) spans [m, L]
    if n == 1:
        return np.array([np.sqrt(m)])
    i = np.arange(n)
    return np.sqrt(m) + i * (np.sqrt(L) - np.sqrt(m)) / (n - 1)


def _is_int(value) -> bool:
    """Whether ``value`` is an integer: a Python or NumPy int, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_quadratic_ranges(m_range, L_range) -> None:
    """Refuse ranges of m and L other than ``0 < m_- <= m_+ <= L_- <= L_+``."""
    (m_lo, m_hi), (L_lo, L_hi) = m_range, L_range
    if not (0 < m_lo <= m_hi <= L_lo <= L_hi):
        raise ValueError(f"need 0 < m_- <= m_+ <= L_- <= L_+, got m_range={m_range} and L_range={L_range}")


def _check_lasso_ranges(n: int, p: int, reg_range) -> None:
    """Refuse a design with other than 1 to n rows for n variables, or a range not ``0 < reg_lo < reg_hi``."""
    reg_lo, reg_hi = reg_range
    if not (_is_int(p) and 1 <= p <= n and 0 < reg_lo < reg_hi):
        raise ValueError("need an integer 1 <= design_rows <= dim and 0 < reg_lo < reg_hi, got "
                         f"design_rows={p!r}, dim={n} and reg_range={reg_range}")


def gen_quadratics(
    count: int,
    n: int,
    m_range: tuple[float, float],
    L_range: tuple[float, float],
    seed,
) -> list[QuadraticInstance]:
    """Sample ``count`` quadratic instances.

    ``m ~ U[m_range]``, ``L ~ U[L_range]`` per instance; the rhs is drawn from
    one Gaussian ``N(mu, C^T C)`` with ``mu_i, C_ik ~ U[-5, 5]`` fixed per call.
    """
    _check_quadratic_ranges(m_range, L_range)
    (m_lo, m_hi), (L_lo, L_hi) = m_range, L_range
    rng = np.random.default_rng(seed)
    mu = rng.uniform(-5.0, 5.0, size=n)
    C = rng.uniform(-5.0, 5.0, size=(n, n))
    instances = []
    for _ in range(count):
        m = rng.uniform(m_lo, m_hi)
        L = rng.uniform(L_lo, L_hi)
        b = mu + C.T @ rng.standard_normal(n)
        instances.append(QuadraticInstance(diag=_interp_diag(m, L, n), rhs=b))
    return instances


_POWER_REL_TOL = 1e-8  # stop once an iterate moves the eigenvalue by this fraction or less
_POWER_MAX_ITER = 10_000


def power_iteration_gram(A: np.ndarray) -> float:
    """Largest eigenvalue of ``A.T @ A`` (p <= n), by power iteration on ``A @ A.T``, which shares it."""
    G = A @ A.T
    rng = np.random.default_rng(0)
    v = rng.standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = G @ v
        lam_new = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(lam_new - lam) <= _POWER_REL_TOL * abs(lam_new):
            return lam_new
        lam = lam_new
    return lam


def gen_lasso(
    count: int,
    n: int,
    p: int,
    reg_range: tuple[float, float],
    seed,
) -> tuple[LassoClassContext, list[LassoInstance]]:
    """Sample one shared (p, n) design matrix and ``count`` LASSO instances."""
    _check_lasso_ranges(n, p, reg_range)
    reg_lo, reg_hi = reg_range
    rng = np.random.default_rng(seed)
    A = rng.uniform(-10.0, 10.0, size=(p, n))
    ctx = LassoClassContext(design=A, lipschitz=power_iteration_gram(A))
    mu = rng.uniform(-5.0, 5.0, size=p)
    C = rng.uniform(-5.0, 5.0, size=(p, p))
    instances = []
    for _ in range(count):
        reg = rng.uniform(reg_lo, reg_hi)
        b = mu + C.T @ rng.standard_normal(p)
        instances.append(LassoInstance(rhs=b, reg=reg))
    return ctx, instances


def split_dataset(instances: list, sizes: tuple[int, int, int, int]) -> DatasetSplit:
    """Slice the instance list into disjoint contiguous prior/train/val/test parts."""
    total = sum(sizes)
    if total > len(instances):
        raise ValueError(f"need {total} instances, got {len(instances)}")
    bounds = np.cumsum((0,) + tuple(sizes))
    parts = [instances[bounds[i]: bounds[i + 1]] for i in range(4)]
    return DatasetSplit(prior=parts[0], train=parts[1], val=parts[2], test=parts[3])


def instance_to_json(inst) -> dict:
    if isinstance(inst, QuadraticInstance):
        return {"kind": "quadratic", "diag": inst.diag.tolist(), "rhs": inst.rhs.tolist()}
    if isinstance(inst, LassoInstance):
        return {"kind": "lasso", "rhs": inst.rhs.tolist(), "reg": inst.reg}
    raise TypeError(f"unknown instance type {type(inst)!r}")


def instance_from_json(obj: dict):
    kind = obj["kind"]
    if kind == "quadratic":
        return QuadraticInstance(diag=np.array(obj["diag"]), rhs=np.array(obj["rhs"]))
    if kind == "lasso":
        return LassoInstance(rhs=np.array(obj["rhs"]), reg=obj["reg"])
    raise ValueError(f"unknown instance kind {kind!r}")


def context_to_json(ctx: LassoClassContext) -> dict:
    return {"design": ctx.design.tolist(), "lipschitz": ctx.lipschitz}


def context_from_json(obj: dict) -> LassoClassContext:
    return LassoClassContext(design=np.array(obj["design"]), lipschitz=obj["lipschitz"])
