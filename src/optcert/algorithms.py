"""Update rules: learned parametric steppers, baselines, and hypergradients.

The learned steppers follow the two-block (quadratics) and three-block
(LASSO) designs: a per-coordinate direction net over unit-vector channels,
a scalar step-size net over log-transformed norms, and, for LASSO, a
sparsity net whose output gates the iterate before soft-thresholding with
a learned prox parameter. Hypergradients through one update step are exact
reverse-mode; the preprocessed inputs are treated as constants since they
depend only on the previous iterates.  A taped step (``step_with_tape``)
refills the architecture's step tape and each net's own tape and returns
only the next state; ``step_backward(out_grad)`` reads those tapes back.

Every update is written once, over rows: a step takes vector iterates with
one instance, or (B, n) iterates with B instances stacked by
``QuadraticBatch``/``LassoBatch``, and the single-instance step is the
B = 1 case with the same bits.  ``rollout`` runs k steps over a list of
instances and returns the (B, k+1) loss matrix that the estimators, risks,
scores and reports reduce over.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .nets import DenseNet, FlatParams, frozen_weights, pack_params
from .problems import (
    LassoBatch,
    LassoClassContext,
    QuadraticBatch,
    grad_quadratic,
    loss_lasso,
    loss_quadratic,
    reg_column,
    row_dot,
    smooth_grad_lasso,
    subgrad_lasso,
)

__all__ = [
    "AlgoState",
    "FistaState",
    "HbfParams",
    "LearnedQuadArch",
    "LearnedLassoArch",
    "ZeroLossError",
    "preprocess",
    "soft_threshold",
    "hbf_params",
    "rollout",
    "reference_rollout",
    "QuadLearnedAlgo",
    "LassoLearnedAlgo",
    "HbfAlgo",
    "FistaAlgo",
    "IstaAlgo",
    "ratio_step",
    "grad_train_loss_onestep",
]


class ZeroLossError(ValueError):
    """Raised when a loss ratio would divide by a zero loss."""


@dataclass(frozen=True)
class AlgoState:
    """Current and previous iterate (vectors, or (B, n) rows); momentum is their difference."""

    x_curr: np.ndarray
    x_prev: np.ndarray


@dataclass(frozen=True)
class FistaState(AlgoState):
    t_k: float = 1.0


@dataclass(frozen=True)
class HbfParams:
    tau: float
    beta: float


def preprocess(v: np.ndarray):
    """Split a vector, or each row of a (B, n) matrix, into unit direction and log1p(norm).

    A zero vector or row maps to (0, 0).  A vector gives a scalar norm term,
    a matrix a (B,) array.
    """
    v = np.asarray(v, dtype=float)
    norms = np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0])
    units = np.divide(v, norms, out=np.zeros_like(v), where=norms != 0.0)
    return units, np.log1p(norms[..., 0])


def _preprocess_into(v: np.ndarray, units: np.ndarray, log_norms: np.ndarray) -> None:
    """``preprocess`` of each row of the (B, n) matrix ``v``, written into ``units`` and ``log_norms``.

    One row, as in every taped step, takes a scalar norm and no temporaries;
    more rows take only the (B, 1) norms.  The bits are those of
    ``preprocess``.
    """
    if len(v) == 1:
        norm = math.sqrt(v[0] @ v[0])
        if norm != 0.0:
            np.divide(v[0], norm, out=units[0])
        else:
            units[0] = 0.0
        log_norms[0] = np.log1p(norm)
    else:
        norms = (v[:, None, :] @ v[:, :, None])[:, 0]
        np.sqrt(norms, out=norms)
        nonzero = norms != 0.0
        np.divide(v, norms, out=units, where=nonzero)
        if not nonzero.all():
            units[~nonzero[:, 0]] = 0.0
        np.log1p(norms[:, 0], out=log_norms)


def soft_threshold(v: np.ndarray, t: float, out: np.ndarray | None = None) -> np.ndarray:
    """Coordinate-wise shrinkage sign(v) * max(|v| - t, 0), into ``out`` when given."""
    v = np.asarray(v, dtype=float)
    return np.multiply(np.sign(v), np.maximum(np.abs(v) - t, 0.0), out=out)


class _StepBuffers:
    """The buffers of one learned step over (rows, n) iterates.

    ``channels`` is channel-major, (c, rows, n), so every channel is
    contiguous; the direction net reads its (rows * n, c) view ``dir_in``,
    and the step net the (rows, c - 1) log norms ``norms``.  Each step sets
    ``direction`` (rows, n) and ``step_size`` (rows,) from the nets'
    outputs; taped, those are views of the nets' own tapes.
    """

    def __init__(self, rows: int, n: int, channels: int = 3):
        self.shape = (rows, n)
        self.channels = np.empty((channels, rows, n))
        self.dir_in = self.channels.reshape(channels, rows * n).T
        self.norms = np.empty((rows, channels - 1))
        self.direction = self.step_size = None  # set by each step


class _LearnedArch:
    """The nets of a learned rule, packed into one parameter and one gradient vector, and its step buffers.

    ``params`` and ``grads`` hold the weights of ``nets`` in order, then
    ``extra`` trailing entries.  ``tape`` is the step tape that every taped
    step refills, beside the tapes of the nets, ``work`` the buffers that
    every untaped step reuses.
    """

    buffer_type = _StepBuffers  # the class of the step buffers

    def __init__(self, nets: list, extra: int = 0):
        self.nets = nets
        self.params, self.grads = pack_params(nets, extra)
        self.tape = self.work = None

    def last_tape(self):
        """The step tape of the last taped step; a RuntimeError when no taped step has run."""
        if self.tape is None:
            raise RuntimeError("step_backward needs a taped step first: no step_with_tape has run")
        return self.tape

    def buffers(self, rows: int, n: int, taped: bool):
        """The step buffers for (rows, n) iterates, reallocated only when that shape changes.

        Taped steps refill ``tape`` and the nets' tapes, so a tape is valid
        until the next taped step; untaped steps reuse ``work`` and never
        touch a tape.
        """
        buffers = self.tape if taped else self.work
        if buffers is None or buffers.shape != (rows, n):
            buffers = self.buffer_type(rows, n)
            if taped:
                self.tape = buffers
            else:
                self.work = buffers
        return buffers


def _direction_and_step(arch: _LearnedArch, t: _StepBuffers, grad, x: np.ndarray, x_prev: np.ndarray,
                        taped: bool) -> None:
    """The front half of a learned step: channels 0-2 of ``t``, then the direction and step nets.

    Channel 0 holds the unit rows of ``grad``, channel 1 those of the
    momentum ``x - x_prev`` and channel 2 their product; their log norms are
    the step net's first two inputs.  Any further channel must be filled
    before.  Sets ``t.direction`` (rows, n) and ``t.step_size`` (rows,);
    ``taped`` passes fill the nets' tapes.
    """
    channels = t.channels
    _preprocess_into(grad, channels[0], t.norms[:, 0])
    _preprocess_into(x - x_prev, channels[1], t.norms[:, 1])
    np.multiply(channels[0], channels[1], out=channels[2])
    t.direction = arch.direction_net.forward(t.dir_in, taped).reshape(x.shape)
    t.step_size = arch.step_net.forward(t.norms, taped)[:, 0]


# ---------------------------------------------------------------------------
# learned architecture for quadratics
# ---------------------------------------------------------------------------

_QUAD_DIR_DIMS = [3, 16, 16, 16, 16, 16, 1]
_QUAD_STEP_DIMS = [2, 8, 8, 8, 8, 8, 1]
# rectifiers after layers 1, 3, 5 keep the paired linear layers intact
_QUAD_MASK = [True, False, True, False, True, False]


class LearnedQuadArch(_LearnedArch):
    """Direction and step nets; ``params`` and ``grads`` hold the weights of both, in that order."""

    def __init__(self, direction_net: DenseNet, step_net: DenseNet):
        self.direction_net = direction_net
        self.step_net = step_net
        super().__init__([direction_net, step_net])

    @classmethod
    def init(cls, rng: np.random.Generator) -> "LearnedQuadArch":
        return cls(
            direction_net=DenseNet.init(_QUAD_DIR_DIMS, _QUAD_MASK, rng),
            step_net=DenseNet.init(_QUAD_STEP_DIMS, _QUAD_MASK, rng),
        )


# ---------------------------------------------------------------------------
# learned architecture for LASSO
# ---------------------------------------------------------------------------

_LASSO_DIR_DIMS = [4, 64, 64, 64, 1]
_LASSO_STEP_DIMS = [3, 64, 64, 64, 1]
_LASSO_SPARSE_DIMS = [3, 64, 64, 64, 1]
_LASSO_MASK = [True, True, True, False]


def _sigmoid(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The logistic function into ``out``: 1 / (1 + e^-a) for a >= 0, e^a / (1 + e^a) below."""
    # min(a, -a) is -|a| but keeps a NaN's sign and payload, as the two
    # branches did when they were computed on masked subsets
    e = np.exp(np.minimum(a, -a))
    return np.divide(np.where(a >= 0, 1.0, e), 1.0 + e, out=out)


class _LassoStepBuffers(_StepBuffers):
    """The buffers of one learned LASSO step: four channels, and the sparsity net's.

    ``sp_in`` (3, rows, n) is channel-major like ``channels``; the sparsity
    net reads its (rows * n, 3) view ``sparse_in``, and ``x_tilde`` is its
    first channel.  ``gated`` is ``z * x_tilde``, the input of the soft
    threshold ``thresh`` (prox_tau * reg, one per row), and ``y`` its output.
    """

    def __init__(self, rows: int, n: int):
        super().__init__(rows, n, channels=4)
        self.sp_in = np.empty((3, rows, n))
        self.sparse_in = self.sp_in.reshape(3, rows * n).T
        self.x_tilde = self.sp_in[0]
        self.z, self.gated, self.y = (np.empty((rows, n)) for _ in range(3))
        self.thresh = self.reg = None  # set by each step


class LearnedLassoArch(_LearnedArch):
    """Direction, step and sparsity nets and the prox parameter.

    ``params`` holds the three nets' weights in that order, then
    ``prox_tau`` as its last entry; ``grads`` has the same layout.
    """

    buffer_type = _LassoStepBuffers

    def __init__(self, direction_net: DenseNet, step_net: DenseNet, sparsity_net: DenseNet, prox_tau: float):
        self.direction_net = direction_net
        self.step_net = step_net
        self.sparsity_net = sparsity_net
        super().__init__([direction_net, step_net, sparsity_net], extra=1)
        self.prox_tau = prox_tau

    @classmethod
    def init(cls, rng: np.random.Generator, prox_tau: float) -> "LearnedLassoArch":
        return cls(
            direction_net=DenseNet.init(_LASSO_DIR_DIMS, _LASSO_MASK, rng),
            step_net=DenseNet.init(_LASSO_STEP_DIMS, _LASSO_MASK, rng),
            sparsity_net=DenseNet.init(_LASSO_SPARSE_DIMS, _LASSO_MASK, rng),
            prox_tau=prox_tau,
        )

    @property
    def prox_tau(self) -> float:
        return float(self.params[-1])

    @prox_tau.setter
    def prox_tau(self, value: float) -> None:
        self.params[-1] = value


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def hbf_params(m_minus: float, L_plus: float) -> HbfParams:
    """Worst-case optimal heavy-ball step size and momentum for [m, L]."""
    sm, sL = np.sqrt(m_minus), np.sqrt(L_plus)
    return HbfParams(tau=(2.0 / (sL + sm)) ** 2, beta=((sL - sm) / (sL + sm)) ** 2)


def reference_rollout(algo, instances, x0, k: int, step_seconds=None) -> np.ndarray:
    """The per-instance loop behind ``rollout``: ``init_state``, then k ``step`` and ``loss`` calls.

    Serves algorithms without a batched ``rollout`` method (any object with
    ``init_state``, ``step`` and ``loss``).
    """
    x0 = np.asarray(x0, dtype=float)
    losses = np.full((len(instances), k + 1), np.inf)
    clock = time.perf_counter
    with np.errstate(over="ignore", invalid="ignore"):
        for i, inst in enumerate(instances):
            state = algo.init_state(x0)
            losses[i, 0] = algo.loss(state.x_curr, inst)
            for j in range(k):
                t0 = clock()
                state = algo.step(state, inst)
                if step_seconds is not None:
                    step_seconds[j] += clock() - t0
                if not np.all(np.isfinite(state.x_curr)):
                    break
                losses[i, j + 1] = algo.loss(state.x_curr, inst)
    return losses


def rollout(algo, instances, x0, k: int, step_seconds=None) -> np.ndarray:
    """Losses of k steps from ``x0`` on each instance: a (B, k+1) matrix.

    Column 0 holds the losses at ``x0``.  Once a row's iterate turns
    non-finite, that row reads inf from there on.  When ``step_seconds`` (a
    length-k array) is given, the wall time of step j, over all instances, is
    added to its entry j.  Uses the algorithm's own batched ``rollout`` when
    it has one, else ``reference_rollout``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    batched = getattr(algo, "rollout", None)
    if batched is not None:
        return batched(instances, x0, k, step_seconds)
    return reference_rollout(algo, instances, x0, k, step_seconds)


# ---------------------------------------------------------------------------
# uniform algorithm interface used by the training / certification pipeline
# ---------------------------------------------------------------------------


class _RowBatched:
    """Shared parts of the package algorithms, whose ``step`` and ``loss`` work on rows.

    ``stack`` turns a list of instances into a batch; ``rollout`` then runs
    all of them at once.  It keeps no tape and no trajectory, only the
    (B, k+1) losses.
    """

    stack = None  # instances -> batch, set per problem class

    def init_state(self, x0: np.ndarray) -> AlgoState:
        return AlgoState(x_curr=np.asarray(x0, dtype=float), x_prev=np.asarray(x0, dtype=float))

    def rollout(self, instances, x0, k: int, step_seconds=None) -> np.ndarray:
        batch = self.stack(instances)
        x = np.tile(np.asarray(x0, dtype=float), (len(instances), 1))
        state = self.init_state(x)
        losses = np.empty((len(instances), k + 1))
        finite = np.ones(len(instances), dtype=bool)
        clock = time.perf_counter
        with np.errstate(over="ignore", invalid="ignore"):
            losses[:, 0] = self.loss(x, batch)
            for j in range(k):
                t0 = clock()
                state = self.step(state, batch)
                if step_seconds is not None:
                    step_seconds[j] += clock() - t0
                finite &= np.isfinite(state.x_curr).all(axis=1)
                losses[:, j + 1] = np.where(finite, self.loss(state.x_curr, batch), np.inf)
        return losses


class _Quadratic(_RowBatched):
    """The quadratic problem class: its batch and its loss."""

    stack = staticmethod(QuadraticBatch.stack)

    def loss(self, x: np.ndarray, inst):
        return loss_quadratic(x, inst)


class _Lasso(_RowBatched):
    """The LASSO class, bound to its shared design matrix: its batch, loss and proximal-gradient step."""

    stack = staticmethod(LassoBatch.stack)

    def __init__(self, ctx: LassoClassContext):
        self.ctx = ctx

    def loss(self, x: np.ndarray, inst):
        return loss_lasso(x, inst, self.ctx)

    def prox_grad(self, z: np.ndarray, inst) -> np.ndarray:
        """The step 1/L from ``z`` on the smooth part, then the soft threshold at reg / L."""
        tau = 1.0 / self.ctx.lipschitz
        return soft_threshold(z - tau * smooth_grad_lasso(z, inst, self.ctx), tau * reg_column(inst))


class _Learned(FlatParams):
    """The flat-parameter interface of a learned rule, over the parameter vector of ``self.arch``.

    Its rollout runs with the nets' weights frozen into contiguous copies,
    which the parameters cannot outlive: they do not change during a
    rollout, and the copies are dropped when it ends.  Each rule defines
    ``step``, ``step_with_tape`` and ``step_backward`` in its own class,
    where the benchmark's tracer wraps them.
    """

    def rollout(self, instances, x0, k: int, step_seconds=None) -> np.ndarray:
        with frozen_weights(self.arch.nets):
            return super().rollout(instances, x0, k, step_seconds)

    @property
    def params(self) -> np.ndarray:
        return self.arch.params


class QuadLearnedAlgo(_Learned, _Quadratic):
    """Learned update rule bound to the quadratic problem class."""

    def __init__(self, arch: LearnedQuadArch):
        self.arch = arch

    def reinit(self, rng: np.random.Generator) -> None:
        self.arch = LearnedQuadArch.init(rng)

    def _step(self, state: AlgoState, inst, taped: bool):
        """One learned step on one instance, or on the rows of a ``QuadraticBatch``.

        The direction net sees (B*n, 3) coordinate rows and the step net (B, 2)
        norm rows.  Returns the next state; ``taped`` refills the
        architecture's step tape and the nets' tapes.
        """
        arch = self.arch
        n = state.x_curr.shape[-1]
        x, x_prev = state.x_curr.reshape(-1, n), state.x_prev.reshape(-1, n)
        t = arch.buffers(len(x), n, taped)
        _direction_and_step(arch, t, grad_quadratic(x, inst), x, x_prev, taped)
        x_next = (x + t.step_size[:, None] * t.direction).reshape(state.x_curr.shape)
        return AlgoState(x_curr=x_next, x_prev=state.x_curr)

    def step(self, state: AlgoState, inst) -> AlgoState:
        return self._step(state, inst, False)

    def step_with_tape(self, state: AlgoState, inst) -> AlgoState:
        return self._step(state, inst, True)

    def step_backward(self, out_grad: np.ndarray) -> np.ndarray:
        """Gradient of <out_grad, x_next> w.r.t. the flat hyperparameters (summed over rows).

        ``x_next`` is the last taped step's.  Each net runs back over its own
        tape of that step and writes its weight gradients into its slice of
        ``arch.grads``; the result is a copy of that vector.
        """
        arch = self.arch
        tape = arch.last_tape()
        out_grad = out_grad.reshape(tape.direction.shape)
        g_s = row_dot(tape.direction, out_grad)
        g_d = tape.step_size[:, None] * out_grad
        arch.direction_net.backward(g_d.reshape(-1, 1), input_grad=False)
        arch.step_net.backward(g_s[:, None], input_grad=False)
        return arch.grads.copy()

    def loss_grad(self, x: np.ndarray, inst) -> np.ndarray:
        return grad_quadratic(x, inst)


class LassoLearnedAlgo(_Learned, _Lasso):
    """Learned update rule bound to the LASSO class (shared design matrix)."""

    def __init__(self, arch: LearnedLassoArch, ctx: LassoClassContext):
        super().__init__(ctx)
        self.arch = arch

    def reinit(self, rng: np.random.Generator) -> None:
        self.arch = LearnedLassoArch.init(rng, prox_tau=1.0 / self.ctx.lipschitz)

    def _step(self, state: AlgoState, inst, taped: bool):
        """One learned step on one instance, or on the rows of a ``LassoBatch``.

        The direction and sparsity nets see (B*n, c) coordinate rows and the
        step net (B, 3) norm rows.  Returns the next state; ``taped`` refills
        the architecture's step tape and the nets' tapes.
        """
        arch = self.arch
        n = state.x_curr.shape[-1]
        x, x_prev = state.x_curr.reshape(-1, n), state.x_prev.reshape(-1, n)
        t = arch.buffers(len(x), n, taped)
        t.reg = reg = reg_column(inst)
        _preprocess_into(reg * np.sign(x), t.channels[3], t.norms[:, 2])
        _direction_and_step(arch, t, subgrad_lasso(x, inst, self.ctx), x, x_prev, taped)
        x_tilde = np.multiply(t.step_size[:, None], t.direction, out=t.x_tilde)
        np.add(x, x_tilde, out=x_tilde)
        t.sp_in[1] = x
        t.sp_in[2] = t.channels[3]
        z = _sigmoid(arch.sparsity_net.forward(t.sparse_in, taped).reshape(x.shape), out=t.z)
        np.multiply(z, x_tilde, out=t.gated)
        t.thresh = arch.prox_tau * reg
        y = soft_threshold(t.gated, t.thresh, out=t.y)
        ny = np.sqrt(row_dot(y, y))
        # rescale so the prox does not change the norm; a zero row stays put
        scale = np.divide(np.sqrt(row_dot(x_tilde, x_tilde)), ny, out=np.ones_like(ny), where=ny > 0)
        x_next = (y * scale[:, None]).reshape(state.x_curr.shape)
        return AlgoState(x_curr=x_next, x_prev=state.x_curr)

    def step(self, state: AlgoState, inst) -> AlgoState:
        return self._step(state, inst, False)

    def step_with_tape(self, state: AlgoState, inst) -> AlgoState:
        return self._step(state, inst, True)

    def step_backward(self, out_grad: np.ndarray) -> np.ndarray:
        """Gradient of <out_grad, x_next> w.r.t. the flat hyperparameters, for a one-row taped step.

        ``x_next`` is the last taped step's.  Each net runs back over its own
        tape of that step and writes its weight gradients into its slice of
        ``arch.grads``, whose last entry takes the ``prox_tau`` term; the
        result is a copy of that vector.
        """
        arch = self.arch
        tape = arch.last_tape()
        y, x_tilde, z, gated = tape.y[0], tape.x_tilde[0], tape.z[0], tape.gated[0]
        thresh, reg = tape.thresh.item(), tape.reg.item()
        ny = math.sqrt(y @ y)
        nxt = math.sqrt(x_tilde @ x_tilde)
        g_norm = None  # the gradient through the rescaling's numerator ||x_tilde||
        if ny > 0:
            u = y / ny
            uo = float(u @ out_grad)
            g_y = (nxt / ny) * (out_grad - u * uo)
            if nxt > 0:
                g_norm = uo * (x_tilde / nxt)
        else:
            g_y = np.asarray(out_grad, dtype=float)
        active = np.abs(gated) > thresh
        g_gated = g_y * active
        g_prox_tau = -float((np.sign(gated) * active) @ g_y) * reg
        g_z = g_gated * x_tilde
        g_a = g_z * z * (1.0 - z)
        g_sp_in = arch.sparsity_net.backward(g_a[:, None])
        g_xt = g_gated * z if g_norm is None else g_norm + g_gated * z
        g_xt = g_xt + g_sp_in[:, 0]
        g_s = float(tape.direction[0] @ g_xt)
        g_d = tape.step_size[0] * g_xt
        arch.direction_net.backward(g_d[:, None], input_grad=False)
        arch.step_net.backward(np.array([[g_s]]), input_grad=False)
        arch.grads[-1] = g_prox_tau
        return arch.grads.copy()

    def loss_grad(self, x: np.ndarray, inst) -> np.ndarray:
        return subgrad_lasso(x, inst, self.ctx)


class HbfAlgo(_Quadratic):
    def __init__(self, params: HbfParams):
        self.params = params

    def step(self, state: AlgoState, inst) -> AlgoState:
        x = state.x_curr
        x_next = x - self.params.tau * grad_quadratic(x, inst) + self.params.beta * (x - state.x_prev)
        return AlgoState(x_curr=x_next, x_prev=x)


class FistaAlgo(_Lasso):
    def init_state(self, x0: np.ndarray) -> FistaState:
        return FistaState(x_curr=np.asarray(x0, dtype=float), x_prev=np.asarray(x0, dtype=float))

    def step(self, state: FistaState, inst) -> FistaState:
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * state.t_k**2)) / 2.0
        beta = (state.t_k - 1.0) / t_next
        y = state.x_curr + beta * (state.x_curr - state.x_prev)
        return FistaState(x_curr=self.prox_grad(y, inst), x_prev=state.x_curr, t_k=t_next)


class IstaAlgo(_Lasso):
    def step(self, state: AlgoState, inst) -> AlgoState:
        return AlgoState(x_curr=self.prox_grad(state.x_curr, inst), x_prev=state.x_curr)


def ratio_step(algo, state, inst, l0=None):
    """One training step's pieces: next state, hypergradient of the loss ratio, next loss.

    ``l0`` is the loss at ``state`` when the caller already has it (it is
    computed otherwise); the returned loss at the next state is the ``l0``
    of the step after it.  The hypergradient is None when the denominator
    ``l0`` is zero (term dropped).

    ``algo`` needs ``loss``, ``loss_grad`` and the taped pair that the
    training loops use: ``step_with_tape(state, inst) -> state``, which
    keeps what its backward pass needs inside the rule, and
    ``step_backward(out_grad) -> grad``, the gradient of
    <out_grad, next x> over the flat parameters for the last taped step.
    """
    if l0 is None:
        l0 = algo.loss(state.x_curr, inst)
    next_state = algo.step_with_tape(state, inst)
    l1 = algo.loss(next_state.x_curr, inst)
    if l0 <= 0.0:
        return next_state, None, l1
    return next_state, algo.step_backward(algo.loss_grad(next_state.x_curr, inst) / l0), l1


def grad_train_loss_onestep(algo, state, inst) -> np.ndarray:
    """Exact hypergradient of loss(x_next) / loss(x_curr) w.r.t. the flat weights.

    Raises ZeroLossError on a zero denominator; callers skip the term, matching
    the indicator in the ratio training loss.
    """
    _, grad, _ = ratio_step(algo, state, inst)
    if grad is None:
        raise ZeroLossError("loss at the current iterate is zero")
    return grad
