"""Constrained Langevin sampling of the discrete prior support.

Proposals follow stochastic gradient Langevin dynamics on the loss-ratio
objective; a proposal is kept only when the estimated sublevel probability
lies inside the feasible band.  Every ``thinning``-th accepted point is
collected, and the prior puts softmax weights on the collected points
according to their (negated) penalized risk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .prior_training import _check_counts, _check_segment_len, _finite_sq_norm, _segment_updates, _Trajectory
from .sublevel import SublevelSpec, estimate_sublevel_probability

__all__ = [
    "SgldConfig",
    "SampleSet",
    "ConstraintNotFoundError",
    "NoFeasiblePointError",
    "sgld_step",
    "constrained_sample",
]


@dataclass
class SgldConfig:
    step0: float = 1e-6
    n_samples: int = 20
    thinning: int = 10
    segment_len: int = 1
    target_len: int = 50
    run_length: int = 50
    patience: int = 200  # abort if no acceptance over this many proposals

    def __post_init__(self):
        _check_segment_len("sgld", self.segment_len, self.target_len)
        _check_counts("sgld", n_samples=self.n_samples, thinning=self.thinning, run_length=self.run_length)


@dataclass(frozen=True)
class SampleSet:
    """Collected hyperparameter vectors with their estimated probabilities.

    ``val_losses`` holds, per point, the validation rollout matrix its
    estimate was drawn from.  It lives in memory only: ``to_dict`` leaves it
    out, and a set read back with ``from_dict`` has None there.
    """

    points: list  # list of 1-d arrays
    estimates: list  # matching sublevel probability estimates
    val_losses: list | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict:
        return {
            "points": [p.tolist() for p in self.points],
            "estimates": list(map(float, self.estimates)),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SampleSet":
        return cls(
            points=[np.asarray(p, dtype=float) for p in obj["points"]],
            estimates=list(obj["estimates"]),
        )


def sgld_step(alpha: np.ndarray, grad: np.ndarray, step: float, rng: np.random.Generator) -> np.ndarray:
    """alpha - (step/2) * grad + N(0, step * I)."""
    noise = rng.standard_normal(alpha.shape) * np.sqrt(step)
    return alpha - 0.5 * step * grad + noise


class ConstraintNotFoundError(RuntimeError):
    """No feasible hyperparameter region was located."""


class NoFeasiblePointError(ConstraintNotFoundError):
    """No proposal satisfied the constraint within the patience window."""


def constrained_sample(
    algo,
    prior_data,
    val_data,
    x0,
    spec: SublevelSpec,
    cfg: SgldConfig,
    rng: np.random.Generator,
) -> SampleSet:
    """Sample the prior support by constraint-filtered Langevin proposals.

    The starting hyperparameters of ``algo`` are assumed feasible and form
    the first collected point.  Each point keeps the ``run_length``-step
    validation rollout of its estimate in ``SampleSet.val_losses``.
    """
    x0 = np.asarray(x0, dtype=float)
    first = estimate_sublevel_probability(algo, val_data, x0, cfg.run_length, spec, rng)
    points = [algo.get_flat()]
    estimates = [first.point_estimate]
    val_losses = [first.losses]
    current = algo.get_flat()
    traj = _Trajectory(algo, prior_data, x0, cfg, rng)
    accepted_since_collect = 0
    rejected_streak = 0
    while len(points) < cfg.n_samples:
        state, grad, loss = _segment_updates(traj, cfg.segment_len)
        if _finite_sq_norm(grad) is None or not np.all(np.isfinite(state.x_curr)):
            traj.restart()
            continue
        proposal = sgld_step(current, grad, cfg.step0, rng)
        algo.set_flat(proposal)
        res = estimate_sublevel_probability(algo, val_data, x0, cfg.run_length, spec, rng)
        if spec.admits(res):
            current = proposal
            rejected_streak = 0
            accepted_since_collect += 1
            if accepted_since_collect >= cfg.thinning:
                points.append(proposal)
                estimates.append(res.point_estimate)
                val_losses.append(res.losses)
                accepted_since_collect = 0
        else:
            algo.set_flat(current)
            rejected_streak += 1
            if rejected_streak >= cfg.patience:
                raise NoFeasiblePointError(
                    f"no accepted proposal in {cfg.patience} attempts"
                )
        traj.advance(state, loss)
    algo.set_flat(current)
    return SampleSet(points=points, estimates=estimates, val_losses=val_losses)
