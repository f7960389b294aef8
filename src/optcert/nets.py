"""Minimal dense linear algebra for the learned update rules.

Bias-free feed-forward nets with rectified-linear activations, exact
reverse-mode gradients over a tape of preallocated buffers that each net
owns and refills on every taped pass, and an Adam optimizer written in
plain NumPy.

Nets are applied to batches: an input of shape (batch, in_dim) is mapped
through ``H @ W.T`` per layer, so a per-coordinate 1x1-convolution block is
just a batch over coordinates (see ``frozen_weights`` for the untaped
passes over contiguous weight copies).

A model's parameters live in one contiguous vector, ``params``, and each
weight matrix is a reshaped view into it; the gradients of the last
backward pass live in a vector ``grads`` of the same layout, and
``pack_params`` lays several nets out in one pair of vectors.  ``get_flat``
returns a copy of the parameters and ``set_flat`` copies into them, so the
model never aliases a caller's array; ``adam_step`` updates the vector it is
given in place, so the training loops hand it ``params`` itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FlatParams",
    "DenseNet",
    "AdamState",
    "pack_params",
    "frozen_weights",
    "adam_step",
]

_BLOCK_FLOATS = 25_600  # floats per hidden-layer buffer of an untaped pass: 400 rows at width 64


class FlatParams:
    """The flat-vector interface of a model whose parameters are the vector ``self.params``."""

    @property
    def num_params(self) -> int:
        return self.params.size

    def get_flat(self) -> np.ndarray:
        return self.params.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != self.params.shape:
            raise ValueError("flat vector length does not match architecture")
        self.params[...] = flat


@dataclass(eq=False)
class DenseNet(FlatParams):
    """Bias-free fully-connected net; ``activation_mask[i]`` rectifies layer i's output.

    ``weights[i]`` is an (out, in) view into ``params``, and
    ``weight_grads[i]`` the view of its gradient in ``grads``.  Inside a
    ``frozen_weights`` block ``weights_t[i]`` is a C-contiguous copy of
    ``weights[i].T``, else None.  ``work`` is (rows, blocks): for the last
    row count, each row block's (start, stop, outputs), the buffers of its
    hidden-layer outputs in the untaped passes over those copies.

    ``tape`` is (inputs, pre_acts, masks, grads), the buffers of the last
    taped pass, which every taped pass refills: ``inputs[i]`` is layer i's
    input and ``inputs[-1]`` the output, where a linear layer's
    pre-activation is the next layer's input, the same array, and
    ``inputs[0]`` is the caller's array, not a copy.  ``masks`` (float
    rectifier masks, None for a linear layer) and ``grads`` (``grads[i]``
    has layer i's input shape, ``grads[-1]`` the output shape) are the work
    buffers of ``backward``.
    """

    weights: list
    activation_mask: list
    params: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)
    weight_grads: list = field(init=False, repr=False)
    weights_t: list | None = field(default=None, init=False, repr=False)
    work: tuple | None = field(default=None, init=False, repr=False)
    tape: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if len(self.weights) != len(self.activation_mask):
            raise ValueError("one activation flag per layer required")
        for a, b in zip(self.weights[:-1], self.weights[1:]):
            if a.shape[0] != b.shape[1]:
                raise ValueError("layer dimensions do not chain")
        size = sum(np.size(W) for W in self.weights)
        self.bind(np.empty(size), np.empty(size))

    @classmethod
    def init(cls, dims: list[int], activation_mask: list[bool], rng: np.random.Generator) -> "DenseNet":
        """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
        weights = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        return cls(weights=weights, activation_mask=list(activation_mask))

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Copy the weights into ``params`` and make them, and their gradients in ``grads``, views."""
        old, off = self.weights, 0
        self.weights, self.weight_grads = [], []
        for W in old:
            view = params[off: off + np.size(W)].reshape(np.shape(W))
            view[...] = W
            self.weights.append(view)
            self.weight_grads.append(grads[off: off + view.size].reshape(view.shape))
            off += view.size
        self.params, self.grads = params, grads

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    def forward(self, x: np.ndarray, taped: bool = False) -> np.ndarray:
        """Forward pass of a (rows, in_dim) matrix.

        Untaped, no layer inputs are kept and the rectifiers work in place;
        the output is a fresh array.  Taped, every layer writes into
        ``tape``, allocated on the first taped pass and again only when the
        row count changes, and the output returned is a view of the tape,
        valid until the next taped pass.
        """
        H = np.asarray(x, dtype=float)
        if H.ndim != 2 or H.shape[1] != self.in_dim:
            raise ValueError(f"input shape {H.shape} is not (rows, {self.in_dim})")
        if not taped:
            # one row keeps W.T: numpy takes the gemv path there, where a
            # contiguous operand changes the bits
            if self.weights_t is not None and len(H) > 1:
                return self._forward_frozen(H)
            for W, act in zip(self.weights, self.activation_mask):
                H = H @ W.T
                if act:
                    np.maximum(H, 0.0, out=H)
        else:
            rows = len(H)
            if self.tape is None or len(self.tape[1][0]) != rows:
                pre_acts = [np.empty((rows, W.shape[0])) for W in self.weights]
                self.tape = (
                    [None] + [np.empty_like(Z) if act else Z for Z, act in zip(pre_acts, self.activation_mask)],
                    pre_acts,
                    [np.empty_like(Z) if act else None for Z, act in zip(pre_acts, self.activation_mask)],
                    [np.empty((rows, W.shape[1])) for W in self.weights] + [np.empty_like(pre_acts[-1])],
                )
            inputs, pre_acts = self.tape[:2]
            inputs[0] = H
            for W, act, Z, H_next in zip(self.weights, self.activation_mask, pre_acts, inputs[1:]):
                np.dot(H, W.T, out=Z)
                if act:
                    np.maximum(Z, 0.0, out=H_next)
                H = H_next
        return H

    def _forward_frozen(self, H: np.ndarray) -> np.ndarray:
        """Untaped pass of the (rows, in_dim) ``H`` over ``weights_t``, in row blocks; the output is a fresh array.

        The rows are split into near-equal blocks, each of about
        ``_BLOCK_FLOATS`` floats or fewer in the widest hidden layer, so the
        buffers do not grow with the row count.  The block edges fall on
        multiples of 16 rows, where each block's products keep the bits of the
        product over all rows: the BLAS kernels work on groups of rows.
        """
        rows = len(H)
        if self.work is None or self.work[0] != rows:
            # the hidden layers alternate between two flat buffers, longest block x widest layer each
            width = max((W.shape[0] for W in self.weights[:-1]), default=1)
            blocks = -(-rows * width // _BLOCK_FLOATS)
            edges = [rows * b // blocks // 16 * 16 for b in range(blocks)] + [rows]
            pair = np.empty((2, max(stop - start for start, stop in zip(edges, edges[1:])) * width))
            plan = [(start, stop, [pair[i % 2, : (stop - start) * W.shape[0]].reshape(stop - start, -1)
                                   for i, W in enumerate(self.weights[:-1])])
                    for start, stop in zip(edges[:-1], edges[1:])]
            self.work = (rows, plan)
        out = np.empty((rows, self.weights[-1].shape[0]))
        for start, stop, bufs in self.work[1]:
            B = H[start:stop]
            for WT, act, buf in zip(self.weights_t, self.activation_mask, bufs + [out[start:stop]]):
                B = np.matmul(B, WT, out=buf)
                if act:
                    np.maximum(B, 0.0, out=B)
        return out

    def backward(self, out_grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Exact reverse-mode pass over the last taped ``forward``; rectifier subgradient at 0 is 0.

        ``out_grad`` has the shape of the taped output.  Writes the weight
        gradients into ``grads`` and returns the input gradient, a view of
        the tape; the next pass overwrites both.  With ``input_grad=False``
        the first layer's input-gradient product is skipped and None is
        returned.  Before any taped pass it raises a RuntimeError.
        """
        if self.tape is None:
            raise RuntimeError("DenseNet.backward needs a taped forward pass first: no forward(x, taped=True) has run")
        inputs, pre_acts, masks, grads = self.tape
        G = np.asarray(out_grad, dtype=float)
        for i in range(len(self.weights) - 1, -1, -1):
            if self.activation_mask[i]:
                # a float mask: float x bool would cast the mask inside the ufunc
                np.greater(pre_acts[i], 0.0, out=masks[i])
                G = np.multiply(G, masks[i], out=grads[i + 1])
            np.dot(G.T, inputs[i], out=self.weight_grads[i])
            if i or input_grad:
                G = np.dot(G, self.weights[i], out=grads[i])
        return G if input_grad else None


@contextmanager
def frozen_weights(nets: list):
    """Inside the block, the untaped passes of ``nets`` over two or more rows use contiguous weight copies.

    Each net gets one C-contiguous copy of every ``W.T`` on entry and drops
    it on exit, so the weights must not change inside the block.  At the
    learned rules' shapes the bits are those of the ``H @ W.T`` chain (the
    tests check 40 to 4001 rows, across row-block edges; below 19 rows a
    64-wide layer can differ in the last bits); the two hidden-layer buffers
    of a net, about ``_BLOCK_FLOATS`` floats each at most, outlive the block
    and are reallocated only when the row count changes.
    """
    for net in nets:
        net.weights_t = [np.ascontiguousarray(W.T) for W in net.weights]
    try:
        yield
    finally:
        for net in nets:
            net.weights_t = None


def pack_params(nets: list, extra: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """One parameter and one gradient vector for ``nets`` in order, plus ``extra`` trailing entries.

    Each net is bound to its slices, so its weights and weight gradients
    become views of the returned vectors; the trailing entries are left
    uninitialized.
    """
    size = sum(net.num_params for net in nets) + extra
    params, grads = np.empty(size), np.empty(size)
    off = 0
    for net in nets:
        net.bind(params[off: off + net.num_params], grads[off: off + net.num_params])
        off += net.num_params
    return params, grads


BETA1, BETA2, EPS_HAT = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator epsilon


@dataclass
class AdamState:
    """Moment estimates and counters of the standard bias-corrected update.

    ``adam_step`` updates the moments in place and keeps one scratch
    buffer here, so a step allocates no arrays.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    lr: float = 1e-3
    scratch: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def zeros(cls, dim: int, lr: float = 1e-3) -> "AdamState":
        return cls(first_moment=np.zeros(dim), second_moment=np.zeros(dim), lr=lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One Adam update of the float vector ``params``, in place; the moments in ``state`` too.

    The training loops pass a model's own ``params``.  The operations are
    those of the textbook update, in the same order, so the result is
    bit-identical to ``params - lr * m_hat / (sqrt(v_hat) + eps)``.
    ``grads`` is overwritten: once the moments are updated it is the second
    scratch buffer.
    """
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ValueError("params/grads/state length mismatch")
    if state.scratch is None:
        state.scratch = np.empty_like(params)
    s1, s2 = state.scratch, grads
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    # m = beta1 * m + (1 - beta1) * g
    np.multiply(m, BETA1, out=m)
    np.multiply(grads, 1 - BETA1, out=s1)
    np.add(m, s1, out=m)
    # v = beta2 * v + (1 - beta2) * g**2
    np.multiply(v, BETA2, out=v)
    np.square(grads, out=s1)
    np.multiply(s1, 1 - BETA2, out=s1)
    np.add(v, s1, out=v)
    # params -= lr * m_hat / (sqrt(v_hat) + eps); once the bias correction
    # 1 - beta1**t rounds to 1.0 (t >= 350), m_hat is m
    correction = 1 - BETA1**t
    if correction == 1.0:
        np.multiply(m, state.lr, out=s1)
    else:
        np.divide(m, correction, out=s1)
        np.multiply(s1, state.lr, out=s1)
    np.divide(v, 1 - BETA2**t, out=s2)
    np.sqrt(s2, out=s2)
    np.add(s2, EPS_HAT, out=s2)
    np.divide(s1, s2, out=s1)
    np.subtract(params, s1, out=params)
