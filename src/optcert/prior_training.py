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

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import ratio_step, rollout
from .nets import AdamState, adam_step
from .problems import _is_int
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
        _check_segment_len("trajectory", self.segment_len, self.target_len)

    def next(self, final_state, rng: np.random.Generator) -> tuple[object, bool]:
        """Returns (state to continue from, whether a restart happened)."""
        if rng.random() < self.segment_len / self.target_len:
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


def _check_segment_len(section: str, segment_len: int, target_len: int) -> None:
    """Refuse a non-integer length or a segment length outside 1..``target_len``, naming ``section``."""
    if not (_is_int(segment_len) and _is_int(target_len) and 1 <= segment_len <= target_len):
        raise ValueError(f"{section}: need 1 <= segment_len <= target_len, got segment_len={segment_len}"
                         f" and target_len={target_len}")


def _check_counts(section: str, **counts: int) -> None:
    """Refuse a count that is not an integer >= 1, naming the config ``section`` and every such count."""
    bad = [f"{name}={value!r}" for name, value in counts.items() if not (_is_int(value) and value >= 1)]
    if bad:
        raise ValueError(f"{section}: need integers {', '.join(counts)} >= 1, got {' and '.join(bad)}")


def _check_positive(section: str, **values: float) -> None:
    """Refuse a value that is not a finite number > 0, naming the config ``section`` and every such value."""
    bad = [f"{name}={value!r}" for name, value in values.items() if not 0 < value < math.inf]
    if bad:
        raise ValueError(f"{section}: need finite {', '.join(values)} > 0, got {' and '.join(bad)}")


@dataclass
class StageConfig:
    """Knobs of the imitation initialization (stage 1)."""

    segment_len: int = 1
    target_len: int = 50
    lr: float = 1e-3
    decay_every: int = 200
    n_init: int = 100
    eps_init: float = 10.0
    max_iterations: int = 5_000
    guard_factor: float = 1e6  # restart trajectory when loss grows this much

    def __post_init__(self):
        _check_segment_len("init", self.segment_len, self.target_len)
        _check_counts("init", decay_every=self.decay_every, n_init=self.n_init,
                      max_iterations=self.max_iterations)
        _check_positive("init", lr=self.lr, guard_factor=self.guard_factor)


@np.errstate(over="ignore")
def _finite_sq_norm(grad: np.ndarray) -> float | None:
    """``grad @ grad``, or None when ``grad`` has a non-finite entry.

    A finite sum of squares means every entry is finite, so the entries are
    scanned only when the sum is not (an overflow, or a non-finite entry).
    An overflow gives inf without a warning; ``_clip`` takes it.
    """
    sq = float(grad @ grad)
    if math.isfinite(sq) or np.all(np.isfinite(grad)):
        return sq
    return None


def _clip(grad: np.ndarray, sq_norm: float) -> np.ndarray:
    """Scales ``grad`` in place to unit norm when it is longer; returns it.

    ``sq_norm`` is ``grad @ grad``, from ``_finite_sq_norm``.  When that
    overflowed, ``grad`` is first divided by its largest magnitude, so the
    squares stay finite; a finite ``sq_norm`` takes the bits of
    ``np.linalg.norm``.
    """
    if sq_norm == math.inf:
        grad /= np.max(np.abs(grad))
        sq_norm = float(grad @ grad)
    norm = math.sqrt(sq_norm)
    if norm > 1.0:
        grad *= 1.0 / norm
    return grad


def _diverged(loss: float, base_loss: float, factor: float) -> bool:
    """Whether a trajectory's current ``loss`` is non-finite or above ``factor * (base_loss + 1)``."""
    return not np.isfinite(loss) or loss > factor * (base_loss + 1.0)


class _Trajectory:
    """The training trajectory of one loop: its state on a random prior instance.

    ``loss`` is the loss at ``state``, carried from the step that reached it;
    ``base_loss`` is the loss at ``x0``, the divergence guard's reference.
    ``cfg`` gives the segment length s and the target length n of the
    Bernoulli(s/n) restart.
    """

    def __init__(self, algo, prior_data, x0, cfg, rng: np.random.Generator):
        self.algo = algo
        self.prior_data = prior_data
        self.x0 = x0
        self.sched = TrajectoryScheduler(cfg.segment_len, cfg.target_len)
        self.rng = rng
        self.restart()

    def restart(self) -> None:
        """A fresh trajectory: a random prior instance, the state at ``x0``, and the loss there."""
        self.inst = self.prior_data[self.rng.integers(len(self.prior_data))]
        self.state = self.algo.init_state(self.x0)
        self.base_loss = self.algo.loss(self.x0, self.inst)
        self.loss = self.base_loss

    def advance(self, state, loss: float) -> None:
        """After a segment: restart with probability s/n, else carry ``state`` and its ``loss`` on."""
        carried, restarted = self.sched.next(state, self.rng)
        if restarted:
            self.restart()
        else:
            self.state, self.loss = carried, loss


def _segment_updates(traj: _Trajectory, s: int):
    """Run s learned steps of ``traj.algo`` from the trajectory's state.

    Returns the final state, the summed hypergradient and the loss at the
    final state.  Iterates are treated independently: each one-step
    gradient ignores the dependence of earlier iterates on the
    hyperparameters.
    """
    state = traj.state
    loss = traj.loss
    grad = None
    for _ in range(s):
        state, g, loss = ratio_step(traj.algo, state, traj.inst, loss)
        if g is not None:
            grad = g if grad is None else grad + g
    if grad is None:
        grad = np.zeros(traj.algo.num_params)
    return state, grad, loss


def find_initialization(algo, reference, prior_data, x0, cfg: StageConfig, rng) -> InitResult:
    """Imitation training until the running-mean loss is below ``eps_init``.

    The mean runs over blocks of ``n_init`` iterations; a last block cut
    short by ``max_iterations`` is averaged over the iterations it holds.
    Returns the best hyperparameters seen if the iteration cap is reached.
    """
    x0 = np.asarray(x0, dtype=float)
    adam = AdamState.zeros(algo.num_params, lr=cfg.lr)
    traj = _Trajectory(algo, prior_data, x0, cfg, rng)
    best_alpha = algo.get_flat()
    best_mean = np.inf
    running = 0.0
    held = 0  # iterations in the current block
    for iteration in range(1, cfg.max_iterations + 1):
        start = traj.state.x_curr
        inst = traj.inst
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
        held += 1
        sq_norm = _finite_sq_norm(grad)
        if sq_norm is not None:
            adam_step(adam, algo.params, _clip(grad, sq_norm))
            if adam.step_count % cfg.decay_every == 0:
                adam.lr *= 0.5
        state = algo.init_state(start)
        for _ in range(cfg.segment_len):
            state = algo.step(state, inst)
        with np.errstate(over="ignore", invalid="ignore"):
            loss = algo.loss(state.x_curr, inst)
        if _diverged(loss, traj.base_loss, cfg.guard_factor):
            traj.restart()
        else:
            traj.advance(state, loss)
        if held == cfg.n_init or iteration == cfg.max_iterations:
            mean = running / held
            if mean < best_mean:
                best_mean = mean
                best_alpha = algo.get_flat()
            if mean < cfg.eps_init:
                return InitResult(alpha=algo.get_flat(), converged=True)
            running = 0.0
            held = 0
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
    guard_factor: float = 1e6
    score_instances: int = 20  # validation instances used to rank feasible points

    def __post_init__(self):
        _check_segment_len("locate", self.segment_len, self.target_len)
        _check_counts("locate", n_max=self.n_max, check_every=self.check_every, decay_every=self.decay_every,
                      run_length=self.run_length, score_instances=self.score_instances)
        _check_positive("locate", lr=self.lr, guard_factor=self.guard_factor)


def _median_loss(losses: np.ndarray) -> float:
    """Median of a loss vector with non-finite entries read as inf.

    The bytes of ``np.median``, which would import ``numpy.ma`` (1.3 MB) for
    a check that a plain array does not need: the middle entry, or the mean
    of the middle two.
    """
    n = len(losses)
    mid = np.partition(np.where(np.isfinite(losses), losses, np.inf), [(n - 1) // 2, n // 2])
    return float(mid[n // 2] if n % 2 else (mid[n // 2 - 1] + mid[n // 2]) / 2)


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
    adam = AdamState.zeros(algo.num_params, lr=cfg.lr)
    traj = _Trajectory(algo, prior_data, x0, cfg, rng)
    found = False
    checkpoint = algo.get_flat()
    best_score = np.inf
    estimate = None
    for i in range(1, cfg.n_max + 1):
        final_state, grad, final_loss = _segment_updates(traj, cfg.segment_len)
        sq_norm = _finite_sq_norm(grad)
        # a diverged segment restarts the trajectory and keeps the parameters
        restart = sq_norm is None or _diverged(final_loss, traj.base_loss, cfg.guard_factor)
        if not restart:
            adam_step(adam, algo.params, _clip(grad, sq_norm))
        if i % cfg.check_every == 0:
            res = estimate_sublevel_probability(algo, val_data, x0, cfg.run_length, spec, rng)
            if spec.admits(res):
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
                restart = True
        if i % cfg.decay_every == 0:
            adam.lr *= 0.5
        if restart:
            traj.restart()
        else:
            traj.advance(final_state, final_loss)
    if found:
        algo.set_flat(checkpoint)
        return PriorLocation(alpha=checkpoint, constraint_found=True, estimate=estimate)
    return PriorLocation(alpha=algo.get_flat(), constraint_found=False, estimate=estimate)
