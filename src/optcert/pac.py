"""Discrete prior/posterior construction and the certified risk bound.

Given a finite support of hyperparameter vectors, the prior puts softmax
weights on the negated penalized empirical risk; for each temperature
lambda on a finite grid, the normalized log-moment

    kappa(lambda) = log E_P[exp(lambda * t1 - lambda^2/2 * t2)]

yields the objective

    F(lambda) = -(1/lambda) * (kappa(lambda) - log(K / eps))

whose grid minimizer gives the high-probability upper bound on the
sublevel-conditioned risk of the Gibbs posterior at that temperature.  The
certificate is verified against the equivalent change-of-measure form

    Q[-t1] + (1/lambda)(KL(Q||P) + log(K/eps) + lambda^2/2 * Q[t2]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import rollout
from .problems import _is_int
from .sublevel import SublevelSpec, estimate_from_rollout, sublevel_hits, sublevel_threshold

__all__ = [
    "CertificateMismatchError",
    "DiscreteMeasure",
    "SufficientStats",
    "PacConfig",
    "PacCertificate",
    "sublevel_risk",
    "empirical_sublevel_risk",
    "build_prior",
    "build_stats",
    "kappa_tilde",
    "pac_objective",
    "optimize_lambda",
    "build_posterior",
    "kl_divergence",
    "certify",
    "point_estimate",
]


class CertificateMismatchError(ArithmeticError):
    """The grid objective and its change-of-measure form disagree at lambda*."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability weights over an indexed finite support."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("weights must be a nonempty vector")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class SufficientStats:
    """Per-support-point statistics entering the exponential family.

    t1 is the negated empirical sublevel risk on the training split; t2 is
    the plug-in second-moment term (1 / (p_hat^2 * N)) * mean(g^2 * 1_sub).
    """

    t1: np.ndarray
    t2: np.ndarray

    def __post_init__(self):
        t1 = np.asarray(self.t1, dtype=float)
        t2 = np.asarray(self.t2, dtype=float)
        if t1.shape != t2.shape or t1.ndim != 1:
            raise ValueError("t1/t2 must be matching vectors")
        if np.any(t2 < 0):
            raise ValueError("t2 must be nonnegative")
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)


@dataclass(frozen=True)
class PacConfig:
    lambda_min: float = 1e-4
    lambda_max: float = 1e4
    grid_size: int = 2_000
    eps_pac: float = 0.05

    def __post_init__(self):
        if not (0 < self.lambda_min <= self.lambda_max < np.inf and _is_int(self.grid_size)
                and self.grid_size >= 1 and 0 < self.eps_pac < 1):
            raise ValueError(f"pac: need 0 < lambda_min <= lambda_max < inf, an integer grid_size >= 1 and "
                             f"0 < eps_pac < 1, got {self}")

    def lambda_grid(self) -> np.ndarray:
        return np.logspace(
            np.log10(self.lambda_min), np.log10(self.lambda_max), self.grid_size
        )


@dataclass(frozen=True)
class PacCertificate:
    lambda_star: float
    bound: float
    kl: float
    posterior: DiscreteMeasure
    point_index: int
    emp_risk: float  # posterior mean of the empirical sublevel risk
    emp_second: float  # posterior mean of the second-moment statistic


def sublevel_risk(losses: np.ndarray, spec: SublevelSpec, p_hat: float) -> tuple[float, float]:
    """Plug-in conditional risk and second-moment term from a (N, k+1) rollout loss matrix.

    Returns (risk, second_moment) where
      risk = (1 / p_hat) * mean(loss_k * 1_sublevel)
      second_moment = (1 / (p_hat^2 * N)) * mean(g^2 * 1_sublevel).
    """
    hits = sublevel_hits(losses, spec)
    n = len(losses)
    g = sublevel_threshold(spec, losses[hits, 0])
    risk = float(np.sum(losses[hits, -1])) / (p_hat * n)
    second = float(np.sum(g * g)) / (p_hat**2 * n * n)
    return risk, second


def empirical_sublevel_risk(
    algo, instances, x0, k: int, spec: SublevelSpec, p_hat: float
) -> tuple[float, float]:
    """``sublevel_risk`` of a k-step rollout over a data split."""
    return sublevel_risk(rollout(algo, instances, x0, k), spec, p_hat)


def build_prior(phi: np.ndarray) -> tuple[DiscreteMeasure, np.ndarray]:
    """Softmax prior over the sample set; -inf entries are dropped.

    Returns the measure over the kept points and the indices kept.
    """
    phi = np.asarray(phi, dtype=float)
    keep = np.flatnonzero(np.isfinite(phi))
    if len(keep) == 0:
        raise ValueError("no feasible support point")
    kept = phi[keep]
    shifted = kept - kept.max()
    w = np.exp(shifted)
    return DiscreteMeasure(w / w.sum()), keep


def build_stats(
    algo,
    points,
    train_data,
    val_data,
    x0,
    k: int,
    spec: SublevelSpec,
    rng: np.random.Generator,
    val_losses=None,
) -> tuple[SufficientStats, np.ndarray, np.ndarray]:
    """Evaluate t1, t2 and the penalized prior score for each support point.

    The sublevel probability is estimated on the validation split; points
    whose estimate leaves [p_l, p_u] get phi = -inf and are later dropped.
    One validation rollout per point gives both the estimate and the prior
    score; feasible points add one training rollout for t1 and t2.

    ``val_losses[j]``, when given, is a rollout matrix of ``points[j]`` over
    ``val_data`` from ``x0``, such as ``SampleSet.val_losses`` holds.  Its
    first k + 1 columns replace the validation rollout when it has that
    many; the results and the rng stream are the same either way.
    Returns (stats, phi, p_hats) over the full point list.
    """
    x0 = np.asarray(x0, dtype=float)
    m = len(points)
    t1 = np.empty(m)
    t2 = np.empty(m)
    phi = np.empty(m)
    p_hats = np.empty(m)
    saved = algo.get_flat()
    try:
        for j, alpha in enumerate(points):
            algo.set_flat(alpha)
            if val_losses is not None and val_losses[j].shape[1] > k:
                losses = val_losses[j][:, : k + 1]
            else:
                losses = rollout(algo, val_data, x0, k)
            res = estimate_from_rollout(losses, spec, rng)
            p_hats[j] = res.point_estimate
            if not spec.admits(res):
                t1[j] = 0.0
                t2[j] = 0.0
                phi[j] = -np.inf
                continue
            risk, second = empirical_sublevel_risk(
                algo, train_data, x0, k, spec, res.point_estimate
            )
            risk_prior, _ = sublevel_risk(losses, spec, res.point_estimate)
            t1[j] = -risk
            t2[j] = second
            phi[j] = -risk_prior
    finally:
        algo.set_flat(saved)
    return SufficientStats(t1=t1, t2=t2), phi, p_hats


def kappa_tilde(lam, prior: DiscreteMeasure, stats: SufficientStats):
    """log sum_j P_j exp(lam * t1_j - lam^2/2 * t2_j), computed stably.

    ``lam`` is a scalar (float result) or an array of temperatures (one
    log-sum-exp per entry, same shape as ``lam``).
    """
    lam = np.asarray(lam, dtype=float)[..., None]
    exponent = lam * stats.t1 - 0.5 * lam * lam * stats.t2
    shift = exponent.max(axis=-1, keepdims=True)
    lse = shift + np.log(np.sum(prior.weights * np.exp(exponent - shift), axis=-1, keepdims=True))
    out = lse[..., 0]
    return float(out) if out.ndim == 0 else out


def pac_objective(lam, prior: DiscreteMeasure, stats: SufficientStats, grid_size: int, eps: float):
    """F(lambda) for a scalar lambda or elementwise over an array of them."""
    return -(kappa_tilde(lam, prior, stats) - np.log(grid_size / eps)) / lam


def optimize_lambda(
    prior: DiscreteMeasure, stats: SufficientStats, cfg: PacConfig
) -> tuple[float, float]:
    """Grid argmin of the objective; ties resolve to the smaller lambda."""
    grid = cfg.lambda_grid()
    values = pac_objective(grid, prior, stats, len(grid), cfg.eps_pac)
    idx = int(np.argmin(values))  # argmin takes the first (smallest) on ties
    return float(grid[idx]), float(values[idx])


def build_posterior(
    lam: float, prior: DiscreteMeasure, stats: SufficientStats
) -> DiscreteMeasure:
    """Gibbs measure: weights proportional to P_j exp(lam t1_j - lam^2/2 t2_j)."""
    exponent = lam * stats.t1 - 0.5 * lam * lam * stats.t2 + np.log(prior.weights)
    shifted = exponent - exponent.max()
    w = np.exp(shifted)
    return DiscreteMeasure(w / w.sum())


def kl_divergence(q: DiscreteMeasure, p: DiscreteMeasure) -> float:
    if len(q) != len(p):
        raise ValueError("measures must share a support")
    mask = q.weights > 0
    if np.any(p.weights[mask] == 0):
        return np.inf
    return float(np.sum(q.weights[mask] * np.log(q.weights[mask] / p.weights[mask])))


def point_estimate(posterior: DiscreteMeasure) -> int:
    """Index of the largest posterior weight; ties resolve to the smallest index."""
    return int(np.argmax(posterior.weights))


def certify(
    prior: DiscreteMeasure, stats: SufficientStats, cfg: PacConfig
) -> PacCertificate:
    """Optimize the temperature and emit the certificate.

    The bound is cross-checked against its change-of-measure form, which
    must agree to high relative accuracy for the Gibbs posterior; a
    disagreement, including a NaN on either side, raises
    CertificateMismatchError.
    """
    lam, bound = optimize_lambda(prior, stats, cfg)
    posterior = build_posterior(lam, prior, stats)
    kl = kl_divergence(posterior, prior)
    q_t1 = float(posterior.weights @ stats.t1)
    q_t2 = float(posterior.weights @ stats.t2)
    explicit = -q_t1 + (kl + np.log(cfg.grid_size / cfg.eps_pac) + 0.5 * lam * lam * q_t2) / lam
    # relative: the bound is at least log(K/eps)/lambda > 0, so the scale is never 0
    scale = max(abs(bound), abs(explicit))
    if not abs(explicit - bound) <= 1e-8 * scale:
        raise CertificateMismatchError(
            f"certificate mismatch: grid objective {bound!r} vs explicit {explicit!r}"
        )
    return PacCertificate(
        lambda_star=lam,
        bound=bound,
        kl=kl,
        posterior=posterior,
        point_index=point_estimate(posterior),
        emp_risk=-q_t1,
        emp_second=q_t2,
    )
