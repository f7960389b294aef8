"""Sublevel-set membership and sequential Beta-Bernoulli probability estimation.

The threshold function is ``g(theta) = a * loss(x0, theta)^b``.  The
probability that a hyperparameter reaches the sublevel set is estimated
sequentially: starting from the noninformative Beta(1, 1) prior, Bernoulli
outcomes update the posterior until the (q_l, q_u) quantile interval is
narrower than ``width_tol`` or the draw budget is exhausted.

Membership is read off a rollout loss matrix (see ``algorithms.rollout``):
for a fixed hyperparameter the outcome on an instance is deterministic, so
an estimate rolls every instance out once and its draws with replacement
become index lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .algorithms import rollout

__all__ = [
    "SublevelSpec",
    "BetaPosterior",
    "EstimateResult",
    "sublevel_threshold",
    "sublevel_hits",
    "sublevel_indicator",
    "beta_quantile",
    "estimate_probability",
    "estimate_from_rollout",
    "estimate_sublevel_probability",
]


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
    max_draws: int = 10_000

    def __post_init__(self):
        if not (0 <= self.p_l < self.p_u <= 1):
            raise ValueError("need 0 <= p_l < p_u <= 1")
        if not (0 < self.q_l < self.q_u < 1):
            raise ValueError("need 0 < q_l < q_u < 1")
        if self.width_tol <= 0:
            raise ValueError("width_tol must be positive")
        if self.g_scale <= 0 or self.g_exponent < 0:
            raise ValueError("need g_scale > 0 and g_exponent >= 0")


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
    point_estimate: float
    posterior: BetaPosterior
    draws_used: int
    conclusive: bool


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


def beta_quantile(post: BetaPosterior, q: float) -> float:
    """Inverse CDF of Beta(count_a, count_b)."""
    return float(betaincinv(post.count_a, post.count_b, q))


def _interval_width(post: BetaPosterior, spec: SublevelSpec) -> float:
    return beta_quantile(post, spec.q_u) - beta_quantile(post, spec.q_l)


def estimate_probability(bernoulli_stream, spec: SublevelSpec) -> EstimateResult:
    """Sequentially estimate a Bernoulli parameter from the stream.

    Draws while the posterior quantile interval has width >= ``width_tol``;
    the point estimate is the posterior mean. If ``max_draws`` outcomes do
    not suffice, the result is flagged inconclusive.
    """
    post = BetaPosterior()
    stream = iter(bernoulli_stream)
    draws = 0
    while _interval_width(post, spec) >= spec.width_tol:
        if draws >= spec.max_draws:
            return EstimateResult(post.mean, post, draws, conclusive=False)
        post.update(int(next(stream)))
        draws += 1
    return EstimateResult(post.mean, post, draws, conclusive=True)


def estimate_from_rollout(
    losses: np.ndarray, spec: SublevelSpec, rng: np.random.Generator
) -> EstimateResult:
    """Estimate p(alpha) from the rollout loss matrix of a set of instances.

    Each draw picks a row with replacement, one ``rng.integers`` call per
    draw, and reads its sublevel outcome.
    """
    hits = sublevel_hits(losses, spec)

    def stream():
        while True:
            yield int(hits[rng.integers(len(hits))])

    return estimate_probability(stream(), spec)


def estimate_sublevel_probability(
    algo, instances, x0: np.ndarray, k: int, spec: SublevelSpec, rng: np.random.Generator
) -> EstimateResult:
    """Estimate p(alpha) from instances drawn with replacement from ``instances``.

    Every instance is rolled out once; the draws and the rng stream are the
    same as with one rollout per draw.
    """
    return estimate_from_rollout(rollout(algo, instances, x0, k), spec, rng)
