"""Stage 1 and 2 of the learning procedure.

Stage 1 trains the update rule to imitate a reference algorithm (mean
squared error between iterates) until the running-mean loss falls below a
tolerance; this only has to prevent divergence, not achieve real imitation.

Stage 2 performs stochastic empirical risk minimization of the loss-ratio
objective under the sublevel-probability constraint: proposals come from
Adam on the one-step hypergradient, the constraint is re-estimated
periodically, and leaving the feasible set triggers a rollback to the last
feasible hyperparameters.  Trajectory lengths are randomized by a
Bernoulli(s/n) restart so the expected length is n.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .algorithms import ratio_step, rollout
from .nets import AdamState, adam_step
from .sublevel import SublevelSpec, estimate_sublevel_probability

__all__ = [
    "TrajectoryScheduler",
    "PriorLocation",
    "InitResult",
    "StageConfig",
    "LocateConfig",
    "find_initialization",
    "locate_prior",
]


@dataclass
class TrajectoryScheduler:
    """Bernoulli(s/n) restart schedule over training segments."""

    segment_len: int
    target_len: int

    def __post_init__(self):
        if not (1 <= self.segment_len <= self.target_len):
            raise ValueError("need 1 <= s <= n")

    @property
    def restart_prob(self) -> float:
        return self.segment_len / self.target_len

    def next(self, final_state, rng: np.random.Generator) -> tuple[object, bool]:
        """Returns (state to continue from, whether a restart happened)."""
        if rng.random() < self.restart_prob:
            return None, True
        return final_state, False


@dataclass(frozen=True)
class PriorLocation:
    alpha: np.ndarray
    constraint_found: bool
    estimate: float | None


@dataclass(frozen=True)
class InitResult:
    alpha: np.ndarray
    converged: bool


@dataclass
class StageConfig:
    """Shared knobs of the two training stages."""

    segment_len: int = 1
    target_len: int = 50
    lr: float = 1e-3
    decay_every: int = 200
    n_init: int = 100
    eps_init: float = 10.0
    max_iterations: int = 5_000
    clip_norm: float = 1.0
    guard_factor: float = 1e6  # restart trajectory when loss grows this much


def _clip(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """Scales ``grad`` in place to norm ``max_norm`` when it is longer (and ``max_norm`` > 0); returns it."""
    norm = math.sqrt(grad @ grad)
    if max_norm > 0 and norm > max_norm:
        grad *= max_norm / norm
    return grad


def _diverged(loss: float, base_loss: float, factor: float) -> bool:
    """Whether a trajectory's current ``loss`` is non-finite or above ``factor * (base_loss + 1)``."""
    return not np.isfinite(loss) or loss > factor * (base_loss + 1.0)


def _new_trajectory(algo, prior_data, x0, rng):
    """A fresh trajectory: the state at ``x0``, a random prior instance, and the loss there."""
    inst = prior_data[rng.integers(len(prior_data))]
    return algo.init_state(x0), inst, algo.loss(x0, inst)


def _segment_updates(algo, state, inst, loss: float, s: int):
    """Run s learned steps from ``state``, whose loss is ``loss``.

    Returns the final state, the summed ratio, the summed hypergradient and
    the loss at the final state.  Iterates are treated independently: each
    one-step gradient ignores the dependence of earlier iterates on the
    hyperparameters.
    """
    grad = None
    total = 0.0
    for _ in range(s):
        state, ratio, g, loss = ratio_step(algo, state, inst, loss)
        if ratio is not None:
            total += ratio
            grad = g if grad is None else grad + g
    if grad is None:
        grad = np.zeros(algo.num_params)
    return state, total, grad, loss


def find_initialization(algo, reference, prior_data, x0, cfg: StageConfig, rng) -> InitResult:
    """Imitation training until the running-mean loss is below ``eps_init``.

    Returns the best hyperparameters seen if the iteration cap is reached.
    """
    x0 = np.asarray(x0, dtype=float)
    sched = TrajectoryScheduler(cfg.segment_len, cfg.target_len)
    adam = AdamState.zeros(algo.num_params, lr=cfg.lr)
    state, inst, base_loss = _new_trajectory(algo, prior_data, x0, rng)
    best_alpha = algo.get_flat()
    best_mean = np.inf
    iterations = 0
    while iterations < cfg.max_iterations:
        running = 0.0
        for _ in range(cfg.n_init):
            iterations += 1
            start = state.x_curr
            # one taped pass gives the imitation loss, the mean squared distance
            # between the s iterates of the learned and the reference rule, and
            # its gradient 2/s * sum_k (x_k - y_k)^T dx_k/dalpha, iterates independent
            st_a = algo.init_state(start)
            st_r = reference.init_state(start)
            grad = np.zeros(algo.num_params)
            total = 0.0
            for _ in range(cfg.segment_len):
                next_a, tape = algo.step_with_tape(st_a, inst)
                st_r = reference.step(st_r, inst)
                diff = next_a.x_curr - st_r.x_curr
                total += float(diff @ diff)
                grad += algo.step_backward(tape, 2.0 * diff / cfg.segment_len)
                st_a = next_a
            running += total / cfg.segment_len
            if np.all(np.isfinite(grad)):
                new_flat, adam = adam_step(adam, algo.get_flat(), _clip(grad, cfg.clip_norm))
                algo.set_flat(new_flat)
            if adam.step_count and adam.step_count % cfg.decay_every == 0:
                adam.lr *= 0.5
            state = algo.init_state(start)
            for _ in range(cfg.segment_len):
                state = algo.step(state, inst)
            with np.errstate(over="ignore", invalid="ignore"):
                loss = algo.loss(state.x_curr, inst)
            if _diverged(loss, base_loss, cfg.guard_factor):
                state, inst, base_loss = _new_trajectory(algo, prior_data, x0, rng)
                continue
            carried, restarted = sched.next(state, rng)
            if restarted:
                state, inst, base_loss = _new_trajectory(algo, prior_data, x0, rng)
            else:
                state = carried
            if iterations >= cfg.max_iterations:
                break
        mean = running / cfg.n_init
        if mean < best_mean:
            best_mean = mean
            best_alpha = algo.get_flat()
        if mean < cfg.eps_init:
            return InitResult(alpha=algo.get_flat(), converged=True)
    algo.set_flat(best_alpha)
    return InitResult(alpha=best_alpha, converged=False)


@dataclass
class LocateConfig:
    segment_len: int = 1
    target_len: int = 50
    lr: float = 3e-4
    decay_every: int = 10_000
    n_max: int = 20_000
    check_every: int = 500
    run_length: int = 50  # iterations per constraint-indicator run
    clip_norm: float = 1.0
    guard_factor: float = 1e6
    score_instances: int = 20  # validation instances used to rank feasible points
    log_path: str | None = None  # optional CSV progress log (step, ratio_loss, accepted)


def _median_loss(losses: np.ndarray) -> float:
    """Median of a loss vector with non-finite entries read as inf."""
    return float(np.median(np.where(np.isfinite(losses), losses, np.inf)))


def _median_final_loss(algo, instances, x0, k: int) -> float:
    return _median_loss(rollout(algo, instances, x0, k)[:, -1])


def locate_prior(
    algo,
    prior_data,
    val_data,
    x0,
    spec: SublevelSpec,
    cfg: LocateConfig,
    rng: np.random.Generator,
) -> PriorLocation:
    """Constrained stochastic empirical risk minimization of the ratio loss.

    Feasible checkpoints are ranked by their median loss after
    ``target_len`` iterations on the first ``score_instances`` validation
    instances; the best one is returned.  The score is read off the
    constraint check's rollout when that ran at least ``target_len`` steps.
    """
    x0 = np.asarray(x0, dtype=float)
    sched = TrajectoryScheduler(cfg.segment_len, cfg.target_len)
    adam = AdamState.zeros(algo.num_params, lr=cfg.lr)
    # ``loss`` is the loss at ``state``, carried from the step that reached it
    state, inst, base_loss = _new_trajectory(algo, prior_data, x0, rng)
    loss = base_loss
    found = False
    checkpoint = algo.get_flat()
    best_score = np.inf
    estimate = None
    log_rows = []
    for i in range(1, cfg.n_max + 1):
        final_state, ratio_total, grad, final_loss = _segment_updates(
            algo, state, inst, loss, cfg.segment_len
        )
        if np.all(np.isfinite(grad)) and not _diverged(final_loss, base_loss, cfg.guard_factor):
            proposal, adam = adam_step(adam, algo.get_flat(), _clip(grad, cfg.clip_norm))
            algo.set_flat(proposal)
        else:
            # diverged segment: restart the trajectory, keep the parameters
            state, inst, base_loss = _new_trajectory(algo, prior_data, x0, rng)
            loss = base_loss
            continue
        if i % cfg.check_every == 0:
            res = estimate_sublevel_probability(algo, val_data, x0, cfg.run_length, spec, rng)
            inside = res.conclusive and spec.p_l <= res.point_estimate <= spec.p_u
            if cfg.log_path is not None:
                log_rows.append((i, ratio_total, int(inside)))
            if inside:
                found = True
                if res.losses.shape[1] > cfg.target_len:
                    score = _median_loss(res.losses[: cfg.score_instances, cfg.target_len])
                else:
                    score = _median_final_loss(
                        algo, val_data[: cfg.score_instances], x0, cfg.target_len
                    )
                if score <= best_score:
                    best_score = score
                    checkpoint = algo.get_flat()
                    estimate = res.point_estimate
            elif found:
                # reject: restore the feasible hyperparameters, reset iterates
                algo.set_flat(checkpoint)
                state, inst, base_loss = _new_trajectory(algo, prior_data, x0, rng)
                loss = base_loss
                if i % cfg.decay_every == 0:
                    adam.lr *= 0.5
                continue
        carried, restarted = sched.next(final_state, rng)
        if restarted:
            state, inst, base_loss = _new_trajectory(algo, prior_data, x0, rng)
            loss = base_loss
        else:
            state, loss = carried, final_loss
        if i % cfg.decay_every == 0:
            adam.lr *= 0.5
    if cfg.log_path is not None:
        with open(cfg.log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "ratio_loss", "accepted"])
            writer.writerows(log_rows)
    if found:
        algo.set_flat(checkpoint)
        return PriorLocation(alpha=checkpoint, constraint_found=True, estimate=estimate)
    return PriorLocation(alpha=algo.get_flat(), constraint_found=False, estimate=estimate)
