"""Recurrent cells, flat parameter vectors, and deterministic forward evaluation.

Three cell kinds share one interface:

* ``linear``: h_t = W_hh h_{t-1} + W_xh x_t, y_t = W_hy h_t (no biases,
  identity activation by construction).
* ``elman``: h_t = phi(W_hh h_{t-1} + W_xh x_t + b_h), y_t = W_hy h_t + b_y.
* ``lstm``: standard gated cell; the internal state is the concatenation
  [cell_state, hidden_activation] of length 2*d_h, and the output layer reads
  the hidden-activation half. The i, f and o gates are logistic, computed as
  sigma(z) = tanh(z/2)/2 + 1/2, so one tanh covers all four gates.

All learnable weights live in one flat float64 vector ``theta`` with a named
block layout, so optimizers and serialization never special-case the cell.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .linalg import DimensionError
from .rng import SplitMix64

CELL_KINDS = ("linear", "elman", "lstm")
ACTIVATIONS = ("tanh", "relu", "identity")

# LSTM gate row blocks, in fixed order: input, forget, cell candidate, output.
LSTM_GATES = ("i", "f", "g", "o")


class NonFiniteError(FloatingPointError):
    """A forward or backward pass produced NaN/Inf; names the first bad step
    and, for a stacked call, the starts (rows of the leading model axis)
    that went non-finite."""

    def __init__(self, where: str, time_index: int, starts: tuple[int, ...] | None = None):
        message = f"non-finite value in {where} at time index {time_index}"
        if starts is not None:
            message += f" in starts {list(starts)}"
        super().__init__(message)
        self.where = where
        self.time_index = time_index
        self.starts = starts


def check_finite(where: str, *arrays: np.ndarray) -> None:
    """Raise ``NonFiniteError`` unless every value is finite.

    Each array is (..., B, T', k) with the same leading start shape. The
    error names the first step with a non-finite value in any of them and,
    when the arrays are stacked (R, B, T', k), every start that has one.
    """
    if all(np.isfinite(a).all() for a in arrays):
        return
    bad = ~np.logical_and.reduce([np.isfinite(a).all(axis=(-3, -1)) for a in arrays])
    time_index = int(np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0))[0]) + 1
    starts = tuple(np.flatnonzero(bad.any(axis=-1)).tolist()) if bad.ndim > 1 else None
    raise NonFiniteError(where, time_index, starts)


def time_major(a: np.ndarray) -> np.ndarray:
    """A view of a (..., B, T, k) array with the time axis first, so that
    step t is one integer index, with or without a leading start axis.

    On a buffer from ``empty_time_major`` the view is its C-contiguous
    storage: step t, ``time_major(a)[t]``, is one contiguous (..., B, k)
    block, and an unstacked ``time_major(a).reshape(-1, k)`` is a view."""
    nd = a.ndim
    return a.transpose((nd - 2, *range(nd - 2), nd - 1))


def empty_time_major(lead: tuple[int, ...], B: int, T: int, k: int) -> np.ndarray:
    """An uninitialised float64 (*lead, B, T, k) array stored as
    (T, *lead, B, k): the batch-major shape every caller indexes, over
    time-major memory, so step t of a recurrence reads and writes one
    contiguous block that holds the (B, k) rows of every start."""
    return _batch_major(np.empty((T, *lead, B, k), dtype=np.float64))


def _batch_major(a: np.ndarray) -> np.ndarray:
    """The inverse of ``time_major``: a (T, ..., B, k) array viewed as
    (..., B, T, k), by one transpose."""
    nd = a.ndim
    return a.transpose((*range(1, nd - 1), 0, nd - 1))


def take_steps(a: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Windows of one sequence, gathered into a new time-major buffer.

    ``a`` is a (..., 1, L, k) array of one batch row and ``steps`` a (B, n)
    array of its step indices. Row b, step t of the (..., B, n, k) result
    is ``a[..., 0, steps[b, t], :]``, for every start of a leading start
    axis. The windows may overlap and their offsets need not be even: one
    gather of k-wide rows serves every plan, read in place from a buffer of
    ``empty_time_major``.
    """
    lead, k = a.shape[:-3], a.shape[-1]
    n_starts = math.prod(lead)
    # row (s, r) of the time-major memory is step s of start r
    rows = steps.T[:, None, :] * n_starts + np.arange(n_starts)[:, None]
    gathered = np.take(time_major(a).reshape(-1, k), rows, axis=0)  # (n, R, B, k)
    return _batch_major(gathered.reshape(steps.shape[1], *lead, steps.shape[0], k))


def start_indices(lead: tuple[int, ...]):
    """The index of each start on a leading start shape: ``()`` alone, the
    whole array, for an unstacked call."""
    return range(lead[0]) if lead else ((),)


def per_start(lead: tuple[int, ...], product) -> np.ndarray:
    """``product(r)`` for every index r of the leading start shape, stacked
    on it. Work that keeps its unstacked form this way gives each start the
    bits of its unstacked call."""
    parts = [product(r) for r in start_indices(lead)]
    return np.stack(parts) if lead else parts[0]


@dataclass(frozen=True)
class CellSpec:
    """Architecture choice: cell kind plus input/hidden/output widths."""

    kind: str
    d_x: int
    d_h: int
    d_y: int
    activation: str = "tanh"
    use_biases: bool = True

    def __post_init__(self):
        if self.kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}, expected one of {CELL_KINDS}")
        if min(self.d_x, self.d_h, self.d_y) < 1:
            raise ValueError("d_x, d_h, d_y must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.kind == "linear":
            # linear cells are bias-free with identity activation by definition
            if self.activation != "identity" or self.use_biases:
                raise ValueError("linear cells require activation='identity' and use_biases=False")
        if self.kind == "lstm" and self.activation != "tanh":
            raise ValueError("lstm cells use tanh internally; set activation='tanh'")

    @property
    def state_dim(self) -> int:
        return 2 * self.d_h if self.kind == "lstm" else self.d_h


Layout = Mapping[str, tuple[int, int, tuple[int, ...]]]


@functools.cache
def build_layout(spec: CellSpec) -> Layout:
    """Named blocks -> (start, stop, shape), partitioning [0, n) in order;
    built once per spec, read-only."""
    gate = 4 if spec.kind == "lstm" else 1
    blocks: list[tuple[str, tuple[int, ...]]] = [
        ("W_hh", (gate * spec.d_h, spec.d_h)),
        ("W_xh", (gate * spec.d_h, spec.d_x)),
    ]
    if spec.use_biases:
        blocks.append(("b_h", (gate * spec.d_h,)))
    blocks.append(("W_hy", (spec.d_y, spec.d_h)))
    if spec.use_biases:
        blocks.append(("b_y", (spec.d_y,)))

    layout = {}
    offset = 0
    for name, shape in blocks:
        size = math.prod(shape)
        layout[name] = (offset, offset + size, shape)
        offset += size
    return MappingProxyType(layout)


def num_params(spec: CellSpec) -> int:
    return max(stop for _, stop, _ in build_layout(spec).values())


@dataclass
class Params:
    """Flat parameter vector of a cell spec, read through the spec's named
    block layout.

    ``theta`` is (n,) for one model or (R, n) for R models stacked on a
    leading start axis, which every block then carries first. The block
    views are built once, with one layout lookup, when the vector is made,
    so the forward and backward pass of a step share them; ``theta`` is
    therefore never rebound (``with_block`` and every update make a new
    ``Params``).
    """

    theta: np.ndarray
    spec: CellSpec

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        layout = build_layout(self.spec)
        n = max(stop for _, stop, _ in layout.values())
        if self.theta.ndim not in (1, 2) or self.theta.shape[-1] != n:
            raise DimensionError(f"theta has shape {self.theta.shape}, expected ({n},) or (R, {n})")
        lead = self.theta.shape[:-1]
        self._blocks = MappingProxyType({
            name: self.theta[..., start:stop].reshape(lead + shape)
            for name, (start, stop, shape) in layout.items()
        })

    @property
    def layout(self) -> Layout:
        return build_layout(self.spec)

    def block(self, name: str) -> np.ndarray:
        """One named block, reshaped: a view of ``theta``, read-only by
        convention (``with_block`` builds an updated copy)."""
        return self._blocks[name]

    def unpack(self) -> Mapping[str, np.ndarray]:
        """Every named block as a read-only view of ``theta``, in layout
        order: the views built with the vector, not new ones per call, in a
        read-only mapping."""
        return self._blocks

    def with_block(self, name: str, value: np.ndarray) -> "Params":
        """A copy with one named block replaced; a stacked ``theta`` takes a
        value with its leading start axis, one block per start."""
        start, stop, shape = self.layout[name]
        lead = self.theta.shape[:-1]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != lead + shape:
            raise DimensionError(f"block {name} has shape {lead + shape}, got {value.shape}")
        theta = self.theta.copy()
        theta[..., start:stop] = value.reshape(lead + (-1,))
        return Params(theta, self.spec)


def init_params(spec: CellSpec, seed: int) -> Params:
    """Seeded init: weights uniform on [-1/sqrt(d_h), 1/sqrt(d_h)], biases zero,
    LSTM forget-gate bias 1.0."""
    rng = SplitMix64(seed)
    scale = 1.0 / np.sqrt(spec.d_h)
    layout = build_layout(spec)
    theta = np.zeros(num_params(spec), dtype=np.float64)
    for name, (start, stop, _) in layout.items():
        if name.startswith("W_"):
            theta[start:stop] = rng.uniforms(stop - start, -scale, scale)
    if spec.kind == "lstm" and spec.use_biases:
        start, _, _ = layout["b_h"]
        theta[start + spec.d_h : start + 2 * spec.d_h] = 1.0
    return Params(theta, spec)


@dataclass
class Trajectory:
    """Forward-pass record: hidden[t] is the state after t inputs (hidden[0] = h0)."""

    hidden: np.ndarray  # (T'+1, state_dim)
    outputs: np.ndarray  # (T', d_y)


def batched_forward(
    params: Params, h0: np.ndarray, inputs: np.ndarray, keep_cache: bool = False
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Run the recursion on a batch of sequences sharing one parameter vector.

    h0: (B, state_dim); inputs: (B, T', d_x). Returns (states (B, T'+1, sd),
    outputs (B, T', d_y), cache). The cache holds what the backward pass needs
    (LSTM gate activations; Elman derivatives are recomputed from the states).

    A stacked ``params`` (theta (R, n)) runs R models on the same inputs at
    once, each from its own initial states: h0 is (R, B, sd), and every
    returned array gains the leading start axis. Each time step is then one
    stacked product over the R models, so all of them share the per-step
    Python cost. The unstacked call is the same code without that axis.

    Storage: ``states`` and the LSTM ``gates``/``tanh_c`` buffers come from
    ``empty_time_major``, so their memory is (T'+1, ..., B, k) behind the
    batch-major shape, and step t reads and writes one contiguous block
    that holds every start's (B, k) rows. ``outputs`` is an ordinary
    batch-major array.

    The input half of every pre-activation, ``inputs · W_xhᵀ``, does not
    depend on the carried state and is computed once per call, before the
    time loop, into a buffer the pass returns anyway: ``states[..., 1:, :]``
    for linear/Elman cells, the (..., B, T', 4·d_h) gate buffer for the LSTM
    (kept as ``cache["gates"]`` with ``keep_cache``). Step t then adds
    ``h · W_hhᵀ`` (and, for Elman cells, the bias) into its row and applies
    the activation there. The product is one 3-index ``einsum`` per start,
    whose bits per element do not depend on B·T' or on R, so the states of
    a prefix, of a restart and of one start of a stack are the full
    unstacked run's bits. Outputs are exact only at a fixed shape: changing
    ``inputs[:, t:]`` leaves ``outputs[:, :t]`` as they were, but numpy's
    product ``read · W_hyᵀ`` takes a one-row vector path at T' = 1, so the
    outputs of a one-step prefix or tail can differ in their last bits.

    LSTM gates: each logistic gate is sigma(z) = tanh(z/2)/2 + 1/2, so the
    call multiplies the i, f and o rows of ``W_xh``, ``W_hh`` and ``b_h`` by
    1/2 (exact, a power of two) and adds the scaled bias into the hoisted
    product. Step t adds ``h · W_hhᵀ`` into its gate row, applies one tanh
    to the whole row, then ``z *= (1/2, 1/2, 1, 1/2)`` and
    ``z += (1/2, 1/2, 0, 1/2)`` per gate block: the row holds the i, f, g, o
    activations. c, h = o·tanh c and tanh c go straight into their rows
    (without ``keep_cache``, tanh c goes to one reused row). The gates are
    within 2⁻⁵² of the logistic function, exactly 0 or 1 in its tails.
    """
    spec = params.spec
    blocks = params.unpack()
    lead = params.theta.shape[:-1]
    B, T, d_x = inputs.shape
    if d_x != spec.d_x:
        raise DimensionError(f"inputs have d_x={d_x}, spec wants {spec.d_x}")
    if h0.shape != lead + (B, spec.state_dim):
        raise DimensionError(f"h0 has shape {h0.shape}, expected {lead + (B, spec.state_dim)}")

    W_hh, W_xh, W_hy = blocks["W_hh"], blocks["W_xh"], blocks["W_hy"]
    W_hh_T = W_hh.mT
    # biases broadcast over the batch rows (and, for b_y, the steps)
    b_h = blocks["b_h"][..., None, :] if spec.use_biases else None
    b_y = blocks["b_y"][..., None, None, :] if spec.use_biases else None
    d_h = spec.d_h

    states = empty_time_major(lead, B, T + 1, spec.state_dim)
    states[..., 0, :] = h0
    step_states = time_major(states)
    cache: dict = {}

    # overflow surfaces as a NonFiniteError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "lstm":
            # sigma(z) = tanh(z/2)/2 + 1/2 on the halved i, f and o rows
            scale = np.repeat([1.0 if gate == "g" else 0.5 for gate in LSTM_GATES], d_h)
            shift = 1.0 - scale
            W_xh, W_hh_T = W_xh * scale[:, None], (W_hh * scale[:, None]).mT
            gates = empty_time_major(lead, B, T, 4 * d_h)
            for r in start_indices(lead):
                np.einsum("btk,nk->btn", inputs, W_xh[r], out=gates[r])
            if b_h is not None:
                gates += b_h[..., None, :] * scale
            tanh_c = empty_time_major(lead, B, T if keep_cache else 1, d_h)
            if keep_cache:
                cache["gates"], cache["tanh_c"] = gates, tanh_c
            # the gate columns and state halves of every step, sliced once
            step_gates, step_tanh_c = time_major(gates), time_major(tanh_c)
            gi, gf, gg, go = (step_gates[..., k * d_h : (k + 1) * d_h] for k in range(4))
            step_c, step_h = step_states[..., :d_h], step_states[..., d_h:]
            for t in range(T):
                z = step_gates[t]
                z += step_h[t] @ W_hh_T
                np.tanh(z, out=z)
                z *= scale
                z += shift
                c_new = step_c[t + 1]
                np.multiply(gf[t], step_c[t], out=c_new)
                c_new += gi[t] * gg[t]
                tc = step_tanh_c[t if keep_cache else 0]
                np.tanh(c_new, out=tc)
                np.multiply(go[t], tc, out=step_h[t + 1])
        else:
            for r in start_indices(lead):
                np.einsum("btk,nk->btn", inputs, W_xh[r], out=states[r][:, 1:])
            activation = spec.activation
            for t in range(T):
                h = step_states[t + 1]
                h += step_states[t] @ W_hh_T
                if b_h is not None:
                    h += b_h
                if activation == "tanh":
                    np.tanh(h, out=h)
                elif activation == "relu":
                    np.maximum(h, 0.0, out=h)

        read = states[..., 1:, d_h:] if spec.kind == "lstm" else states[..., 1:, :]
        outputs = read @ W_hy.mT[..., None, :, :]
        if b_y is not None:
            outputs = outputs + b_y

    check_finite("forward pass", states[..., 1:, :], outputs)
    return states, outputs, cache


def forward(params: Params, h0, inputs) -> Trajectory:
    """Deterministic forward evaluation of one sequence from a given initial state.

    ``inputs`` is a (T', d_x) array (or sequence of length-d_x vectors);
    ``h0`` may be None for the zero state.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"inputs must be (T', d_x), got shape {x.shape}")
    if h0 is None:
        h0 = np.zeros(params.spec.state_dim)
    h0 = np.asarray(h0, dtype=np.float64)
    if h0.shape != (params.spec.state_dim,):
        raise DimensionError(f"h0 has shape {h0.shape}, expected ({params.spec.state_dim},)")
    states, outputs, _ = batched_forward(params, h0[None, :], x[None, :, :])
    return Trajectory(hidden=states[0], outputs=outputs[0])

