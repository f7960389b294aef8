"""Sublevel-set membership and sequential Beta-Bernoulli probability estimation.

The threshold function is ``g(theta) = a * loss(x0, theta)^b``.  The
probability that a hyperparameter reaches the sublevel set is estimated
sequentially: starting from the noninformative Beta(1, 1) prior, Bernoulli
outcomes update the posterior until the (q_l, q_u) quantile interval is
narrower than ``width_tol`` or ``MAX_DRAWS`` draws are spent.

Membership is read off a rollout loss matrix (see ``algorithms.rollout``):
for a fixed hyperparameter the outcome on an instance is deterministic, so
an estimate rolls every instance out once and its draws with replacement
become index lookups.

The Beta quantiles (``beta_ppf``) and the stopping decision
(``interval_narrower``) use the standard library alone, and are memoized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .algorithms import rollout

__all__ = [
    "SublevelSpec",
    "BetaPosterior",
    "EstimateResult",
    "sublevel_threshold",
    "sublevel_hits",
    "sublevel_indicator",
    "beta_ppf",
    "beta_quantile",
    "interval_narrower",
    "estimate_probability",
    "estimate_from_rollout",
    "estimate_sublevel_probability",
]


MAX_DRAWS = 10_000  # an estimate that has not stopped after this many draws is inconclusive


@dataclass(frozen=True)
class SublevelSpec:
    """Threshold shape, constraint band, and estimation accuracy knobs."""

    g_scale: float = 1.0
    g_exponent: float = 1.0
    p_l: float = 0.95
    p_u: float = 1.0
    q_l: float = 0.01
    q_u: float = 0.99
    width_tol: float = 0.075

    def __post_init__(self):
        if not (0 <= self.p_l < self.p_u <= 1):
            raise ValueError("need 0 <= p_l < p_u <= 1")
        if not (0 < self.q_l < self.q_u < 1):
            raise ValueError("need 0 < q_l < q_u < 1")
        if self.width_tol <= 0:
            raise ValueError("width_tol must be positive")
        if self.g_scale <= 0 or self.g_exponent < 0:
            raise ValueError("need g_scale > 0 and g_exponent >= 0")

    def admits(self, res: EstimateResult) -> bool:
        """Whether an estimate is conclusive and its point estimate lies in [p_l, p_u]."""
        return res.conclusive and self.p_l <= res.point_estimate <= self.p_u


@dataclass
class BetaPosterior:
    """Beta(a, b) posterior counts, starting at the noninformative (1, 1)."""

    count_a: float = 1.0
    count_b: float = 1.0

    def update(self, outcome: int) -> None:
        self.count_a += outcome
        self.count_b += 1 - outcome

    @property
    def mean(self) -> float:
        return self.count_a / (self.count_a + self.count_b)


@dataclass(frozen=True)
class EstimateResult:
    """The outcome of one estimate; ``losses`` is the rollout matrix it drew from, if any."""

    point_estimate: float
    posterior: BetaPosterior
    draws_used: int
    conclusive: bool
    losses: np.ndarray | None = field(default=None, repr=False, compare=False)


def sublevel_threshold(spec: SublevelSpec, initial_loss):
    """Threshold g = a * loss(x0)^b for one start loss, or elementwise for an array of them."""
    return spec.g_scale * np.asarray(initial_loss, dtype=float) ** spec.g_exponent


def sublevel_hits(losses: np.ndarray, spec: SublevelSpec) -> np.ndarray:
    """Per row of a (B, k+1) rollout loss matrix: is the final loss finite and within g?"""
    final = losses[:, -1]
    return np.isfinite(final) & (final <= sublevel_threshold(spec, losses[:, 0]))


def sublevel_indicator(algo, inst, x0: np.ndarray, k: int, spec: SublevelSpec) -> bool:
    """Run k update steps and test whether the final loss is within the threshold."""
    return bool(sublevel_hits(rollout(algo, [inst], x0, k), spec)[0])


_EPS = 2.0**-52
_TINY = 1e-300
_MAX_TERMS = 10_000  # continued-fraction terms; far more than a, b <= 1e4 need
_MAX_STEPS = 200
_XTOL = 1e-8  # a Halley step this small, relative to min(x, 1 - x), lands at rounding level


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of ``I_x(a, b)`` by the modified Lentz method.

    It converges quickly for ``x < (a + 1) / (a + b + 2)``.
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS + 1):
        m2 = 2 * m
        # even term
        coef = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2))
        d = 1.0 + coef * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = 1.0 + coef / c
        if abs(c) < _TINY:
            c = _TINY
        h *= d * c
        # odd term
        coef = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))
        d = 1.0 + coef * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = 1.0 + coef / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    return h


def _cdf_residual(a: float, b: float, x: float, q: float, log_beta: float) -> float:
    """``I_x(a, b) - q`` for 0 < x < 1, where ``I_x`` is the CDF of Beta(a, b).

    Above (a + 1) / (a + b + 2) the CDF is ``1 - I_{1-x}(b, a)``; the residual
    is then formed as ``(1 - q) - I_{1-x}(b, a)``, which keeps the digits of
    an upper-tail q that ``1 - I_{1-x}(b, a) - q`` would round away.
    """
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a - q
    return (1.0 - q) - front * _beta_fraction(b, a, 1.0 - x) / b


def _initial_guess(a: float, b: float, q: float) -> float:
    """Starting point for a, b >= 1: a normal-deviate approximation."""
    # standard normal quantile, Abramowitz & Stegun 26.2.22 (error < 3e-3)
    t = math.sqrt(-2.0 * math.log(min(q, 1.0 - q)))
    z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
    if q < 0.5:
        z = -z
    # Beta quantile from the normal deviate, Abramowitz & Stegun 26.5.22
    lam = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    w = -z * math.sqrt(h + lam) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
        lam + 5.0 / 6.0 - 2.0 / (3.0 * h)
    )
    x = a / (a + b * math.exp(min(2.0 * w, 700.0)))
    return min(max(x, math.ulp(0.0)), 1.0 - 2.0**-53)  # strictly inside (0, 1)


@functools.lru_cache(maxsize=4096)
def beta_ppf(a: float, b: float, q: float) -> float:
    """Inverse CDF of Beta(a, b) at q for posterior counts a, b >= 1, memoized; ``__wrapped__`` is uncached.

    Halley steps (Newton's step corrected by the curvature of the CDF) on
    ``I_x(a, b) = q`` from an approximate start; a step that would leave the
    bracket known to hold the root is replaced by bisection.
    """
    if not (a >= 1.0 and b >= 1.0 and 0.0 < q < 1.0):
        raise ValueError(f"need a, b >= 1 and 0 < q < 1, got a={a}, b={b}, q={q}")
    log_beta = _log_beta(a, b)
    lo, hi = 0.0, 1.0
    x = _initial_guess(a, b, q)
    for _ in range(_MAX_STEPS):
        f = _cdf_residual(a, b, x, q, log_beta)
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        log_pdf = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_beta
        step = f * math.exp(min(-log_pdf, 700.0))  # f / pdf, without overflow
        # Halley's correction from the log-derivative of the pdf
        bend = 0.5 * step * ((a - 1.0) / x - (b - 1.0) / (1.0 - x))
        if bend < 1.0:
            step /= 1.0 - max(bend, -1.0)
        if abs(step) <= _XTOL * min(x, 1.0 - x):
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # no float left between the bracket ends
                return x
    return x


def beta_quantile(post: BetaPosterior, q: float) -> float:
    """Inverse CDF of Beta(count_a, count_b)."""
    return beta_ppf(post.count_a, post.count_b, q)


@functools.lru_cache(maxsize=4096)
def interval_narrower(a: float, b: float, q_l: float, q_u: float, tol: float) -> bool:
    """Whether the (q_l, q_u) quantile interval of Beta(a, b) is narrower than ``tol``; memoized.

    The CDF ``I_x(a, b)`` increases strictly, so ``x_u - x_l < tol`` holds
    exactly when ``I_{x_l + tol}(a, b) > q_u``: one quantile and one CDF
    evaluation decide it, where the width itself takes two quantiles.
    """
    x = beta_ppf(a, b, q_l) + tol
    return x >= 1.0 or _cdf_residual(a, b, x, q_u, _log_beta(a, b)) > 0.0


def estimate_probability(bernoulli_stream, spec: SublevelSpec) -> EstimateResult:
    """Sequentially estimate a Bernoulli parameter from the stream.

    Draws while the posterior quantile interval has width >= ``width_tol``;
    the point estimate is the posterior mean. If ``MAX_DRAWS`` outcomes do
    not suffice, the result is flagged inconclusive.
    """
    post = BetaPosterior()
    stream = iter(bernoulli_stream)
    draws = 0
    while not interval_narrower(post.count_a, post.count_b, spec.q_l, spec.q_u, spec.width_tol):
        if draws >= MAX_DRAWS:
            return EstimateResult(post.mean, post, draws, conclusive=False)
        post.update(int(next(stream)))
        draws += 1
    return EstimateResult(post.mean, post, draws, conclusive=True)


def estimate_from_rollout(
    losses: np.ndarray, spec: SublevelSpec, rng: np.random.Generator
) -> EstimateResult:
    """Estimate p(alpha) from the rollout loss matrix of a set of instances.

    Each draw picks a row with replacement, one ``rng.integers`` call per
    draw, and reads its sublevel outcome.  The result carries ``losses``,
    so a caller can reduce the same matrix again instead of rolling out.
    """
    hits = sublevel_hits(losses, spec)

    def stream():
        while True:
            yield int(hits[rng.integers(len(hits))])

    return replace(estimate_probability(stream(), spec), losses=losses)


def estimate_sublevel_probability(
    algo, instances, x0: np.ndarray, k: int, spec: SublevelSpec, rng: np.random.Generator
) -> EstimateResult:
    """Estimate p(alpha) from instances drawn with replacement from ``instances``.

    Every instance is rolled out once; the draws and the rng stream are the
    same as with one rollout per draw.
    """
    return estimate_from_rollout(rollout(algo, instances, x0, k), spec, rng)
