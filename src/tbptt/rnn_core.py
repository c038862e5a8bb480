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

Memory layout, the one statement of it: each
full-length recurrence buffer (the states, outputs, LSTM gates and tanh c
of a forward pass, the adjoints of a backward pass, the windows of a
stateful tape) has a batch-major shape, (..., B, T', k), over step-major,
batch-innermost memory, (T', ..., k, B). ``empty_time_major`` makes such
a buffer, ``take_steps`` gathers one, and ``time_major`` views it in its
storage order. Step t is one contiguous (..., k, B) block, each of its k
components a contiguous run of the B batch rows, so every elementwise
operation of a step runs over whole blocks however narrow k is, a slice
of components (an LSTM gate, a state half) is whole runs, and the step's
product with a weight matrix is one (n, k) @ (k, B) GEMM per start
(``step_products``). Inputs and cogradients may have any memory order; a
pass reads them through step-major views. A pass allocates its buffers,
or takes them from a ``Workspace`` that its caller keeps over passes of
the same shapes (``benchmark._Problem``'s step loop per solve,
``training.train`` per epoch log, ``autodiff.weighted_loss`` per chunk,
``autodiff.checkpointed_loss_grad`` per chunk and block),
so only the first of those passes faults in fresh pages.

A pass given ``h0=None`` starts every row from the zero state, the start
of every window of the truncated objective; no caller builds zeros for it.

Memory of a pass: a pass that keeps its cache (``record``, the stateful
span) holds every step of every buffer, which its backward pass reads. A
forward-only pass holds the LSTM gates of one block of whole steps,
``GATE_BLOCK_VALUES`` values, and returns full-length states and outputs;
``autodiff.weighted_loss`` runs its steps in chunks of
``autodiff.LOSS_BLOCK_VALUES`` values, so of those it holds one chunk.
``autodiff.checkpointed_loss_grad``, the epoch log's gradient, records and
differentiates one block of about √T' steps at a time, and holds the
states where the blocks start.
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

# float64 values in the LSTM gate buffer of a forward pass without a cache:
# it holds as many whole steps as fit, at least one
GATE_BLOCK_VALUES = 1 << 18


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
    """A view of a (..., B, T, k) array as (T, ..., k, B), so step t is one
    integer index, with or without a leading start axis; on a step-major
    buffer (module docstring) it is the C-contiguous storage."""
    nd = a.ndim
    return a.transpose((nd - 2, *range(nd - 3), nd - 1, nd - 3))


def empty_time_major(lead: tuple[int, ...], B: int, T: int, k: int) -> np.ndarray:
    """An uninitialised float64 (*lead, B, T, k) array over (T, *lead, k, B)
    memory: a step-major buffer (module docstring)."""
    return _batch_major(np.empty((T, *lead, k, B), dtype=np.float64))


class Workspace:
    """The full-length buffers of a caller's passes, one per name, kept
    from one pass to the next.

    ``empty(name, lead, B, T, k)`` is ``empty_time_major(lead, B, T, k)``
    the first time, and the same array, not zeroed, on every later call
    with that name and shape. A call for fewer steps than the array holds
    gets a view of its first T steps, which are whole steps of step-major
    memory (the short last chunk of a chunked pass); a call with another
    shape (a solver's stack after a start stops, more steps) makes and
    keeps a new one. The next pass given a workspace overwrites what the
    last one wrote there, so a caller passes one only when it keeps none of
    a pass's arrays. ``buffers`` holds the current array of each name."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def empty(self, name: str, lead: tuple[int, ...], B: int, T: int, k: int) -> np.ndarray:
        buf = self.buffers.get(name)
        if buf is None or buf.shape[-2] < T or buf.shape != (*lead, B, buf.shape[-2], k):
            buf = self.buffers[name] = empty_time_major(lead, B, T, k)
        return buf if buf.shape[-2] == T else _batch_major(time_major(buf)[:T])


def _batch_major(a: np.ndarray) -> np.ndarray:
    """The inverse of ``time_major``: a (T, ..., k, B) array viewed as
    (..., B, T, k), by one transpose."""
    nd = a.ndim
    return a.transpose((*range(1, nd - 2), nd - 1, 0, nd - 2))


def take_steps(a: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Windows of one sequence, gathered into a new step-major buffer.

    ``a`` is a (..., 1, L, k) array of one batch row and ``steps`` a (B, n)
    array of its step indices. Row b, step t of the (..., B, n, k) result
    is ``a[..., 0, steps[b, t], :]``, for every start of a leading start
    axis. The windows may overlap and their offsets need not be even. With
    one batch row, step s of the source is one contiguous run of every
    start's k values: one gather takes those runs in (step, window) order,
    and one transposing copy puts the windows innermost, into step-major
    memory.
    """
    lead, L, k = a.shape[:-3], a.shape[-2], a.shape[-1]
    runs = np.take(time_major(a).reshape(L, -1), steps.T, axis=0)  # (n, B, R·k)
    runs = runs.reshape(*steps.T.shape, *lead, k)
    return _batch_major(np.ascontiguousarray(runs.transpose(0, *range(2, runs.ndim), 1)))


def step_products(w: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``w @ a[t]`` for every step t of a step-major (T, *lead, k, B) array
    or view ``a``, with ``w`` (*lead, n, k): the (T, *lead, n, B) products,
    written to and returned as ``out``, one GEMM per step and start, so a
    start's bits do not depend on the others.

    With one batch row a start's steps are the rows of one (T, k) matrix,
    times ``wᵀ`` in one call. With k = 1 and B > 1 (a cogradient's
    ``W_hyᵀ · dY`` at d_y = 1) every product is an outer product: one
    broadcast ``einsum`` over all steps and starts. Like a GEMM, it adds
    each product to a zeroed output, so a -0.0 product gives +0.0 and the
    bits are the K = 1 GEMM's; a broadcast ``np.multiply`` would keep the
    -0.0, and allocates two iterator buffers of 8192 values per call.
    """
    if a.shape[-1] == 1:
        np.matmul(_rows(a), w.mT, out=_rows(out))
    elif a.shape[-2] == 1:
        np.einsum("...nk,t...kb->t...nb", w, a, out=out)
    else:
        np.matmul(w, a, out=out)
    return out


def _rows(a: np.ndarray) -> np.ndarray:
    """A step-major (T, *lead, k, 1) array as (*lead, T, k): the same memory,
    each start's steps as the rows of one matrix."""
    return a[..., 0].swapaxes(0, -2)


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
        n = num_params(self.spec)
        if self.theta.ndim not in (1, 2) or self.theta.shape[-1] != n:
            raise DimensionError(f"theta has shape {self.theta.shape}, expected ({n},) or (R, {n})")
        lead = self.theta.shape[:-1]
        self._blocks = MappingProxyType({
            name: self.theta[..., start:stop].reshape(lead + shape)
            for name, (start, stop, shape) in build_layout(self.spec).items()
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
    params: Params, h0: np.ndarray | None, inputs: np.ndarray, keep_cache: bool = False,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Run the recursion on a batch of sequences sharing one parameter vector.

    h0: (B, state_dim), or None for zero states; inputs: (B, T', d_x).
    Returns (states (B, T'+1, sd), outputs (B, T', d_y), cache). The cache
    holds what the backward pass needs (LSTM gate activations; Elman
    derivatives are recomputed from the states).

    A stacked ``params`` (theta (R, n)) runs R models on the same inputs at
    once, each from its own initial states: h0 is (R, B, sd) or None, and every
    returned array gains the leading start axis. Each time step is then one
    stacked product over the R models, so all of them share the per-step
    Python cost. The unstacked call is the same code without that axis.

    Storage: ``states``, ``outputs`` and the LSTM ``gates``/``tanh_c`` are
    step-major (module docstring), and the inputs are copied once into the
    same order. Given a ``workspace``, they are its "states", "outputs",
    "gates" and "tanh_c" arrays. With ``keep_cache`` the gates hold every
    step; without it they hold one block of whole steps, as many as fit
    ``GATE_BLOCK_VALUES`` values and at least one, which the steps of the
    pass fill block after block.

    The input half of every pre-activation, ``W_xh · x``, does not depend
    on the carried state and is computed before the steps it serves, into
    a buffer the pass holds anyway: once per call into
    ``states[..., 1:, :]`` for linear/Elman cells, once per gate block into
    the LSTM gate buffer (kept as ``cache["gates"]`` with ``keep_cache``),
    with the bias added to it in the same place. Step t then adds
    ``W_hh · h``, an (R, n, k) @ (R, k, B) product, into its block and
    applies the activation there. The input product is one 3-index
    ``einsum`` per start and block, whose bits per element do not depend
    on B·T', on the block or on R, and each step's
    product is one GEMM per start, so the states of a prefix, of a restart
    and of one start of a stack are the full unstacked run's bits. The
    outputs are ``step_products(W_hy, ...)``: with B > 1 one product per
    step, so a prefix's outputs are the full run's bits too; with one batch
    row one product of the steps' rows with ``W_hyᵀ``, which numpy takes as
    a one-row vector product at T' = 1, so the outputs of a one-step prefix
    or tail can differ from the longer run's in their last bits.

    LSTM gates: each logistic gate is sigma(z) = tanh(z/2)/2 + 1/2, so the
    call multiplies the i, f and o rows of ``W_xh``, ``W_hh`` and ``b_h`` by
    1/2 (exact, a power of two) and adds the scaled bias into the hoisted
    product. Step t adds ``W_hh · h`` into its gate block, applies one tanh
    to the whole block, then ``z *= (1/2, 1/2, 1, 1/2)`` and
    ``z += (1/2, 1/2, 0, 1/2)`` per gate: the block holds the i, f, g, o
    activations, each gate a contiguous d_h·B run. c, h = o·tanh c and
    tanh c go straight into their blocks (without ``keep_cache``, tanh c
    goes to one reused block). The gates are within 2⁻⁵² of the logistic
    function, exactly 0 or 1 in its tails.
    """
    spec = params.spec
    blocks = params.unpack()
    lead = params.theta.shape[:-1]
    B, T, d_x = inputs.shape
    if d_x != spec.d_x:
        raise DimensionError(f"inputs have d_x={d_x}, spec wants {spec.d_x}")
    if h0 is not None and h0.shape != lead + (B, spec.state_dim):
        raise DimensionError(f"h0 has shape {h0.shape}, expected {lead + (B, spec.state_dim)}")

    W_hh, W_xh, W_hy = blocks["W_hh"], blocks["W_xh"], blocks["W_hy"]
    # biases broadcast over the batch rows of a step block
    b_h = blocks["b_h"][..., None] if spec.use_biases else None
    b_y = blocks["b_y"][..., None] if spec.use_biases else None
    d_h = spec.d_h
    ws = workspace if workspace is not None else Workspace()

    states = ws.empty("states", lead, B, T + 1, spec.state_dim)
    states[..., 0, :] = 0.0 if h0 is None else h0
    step_states = time_major(states)
    # the inputs in step-major memory, read by the hoisted input product
    x = _batch_major(np.ascontiguousarray(time_major(inputs)))
    cache: dict = {}

    # overflow surfaces as a NonFiniteError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "lstm":
            # sigma(z) = tanh(z/2)/2 + 1/2 on the halved i, f and o rows
            scale = np.repeat([1.0 if gate == "g" else 0.5 for gate in LSTM_GATES], d_h)[:, None]
            shift = 1.0 - scale
            W_xh, W_hh = W_xh * scale, W_hh * scale
            if b_h is not None:
                b_h = b_h * scale
            # whole steps per gate block: every step with keep_cache, else as
            # many as fit GATE_BLOCK_VALUES, at least one
            step_values = math.prod(lead) * B * 4 * d_h
            block = max(1, T if keep_cache else GATE_BLOCK_VALUES // max(1, step_values))
            gates = ws.empty("gates", lead, B, min(block, T), 4 * d_h)
            step_gates = time_major(gates)
            tanh_c = ws.empty("tanh_c", lead, B, T if keep_cache else 1, d_h)
            if keep_cache:
                cache["gates"], cache["tanh_c"] = gates, tanh_c
            # the gates of every step of a block, sliced once
            step_tanh_c = time_major(tanh_c)
            gi, gf, gg, go = (step_gates[..., k * d_h : (k + 1) * d_h, :] for k in range(4))
            for lo in range(0, T, block):
                n = min(block, T - lo)
                for r in start_indices(lead):
                    np.einsum("btk,nk->btn", x[:, lo : lo + n], W_xh[r], out=gates[r][:, :n])
                if b_h is not None:
                    step_gates[:n] += b_h
                # the state halves from step lo on; with keep_cache lo is 0, so
                # t indexes tanh_c too
                step_c, step_h = step_states[lo:, ..., :d_h, :], step_states[lo:, ..., d_h:, :]
                # outputs go in positionally: numpy parses them faster than the keyword
                for t in range(n):
                    z = step_gates[t]
                    z += W_hh @ step_h[t]
                    np.tanh(z, z)
                    z *= scale
                    z += shift
                    c_new = step_c[t + 1]
                    np.multiply(gf[t], step_c[t], c_new)
                    c_new += gi[t] * gg[t]
                    tc = step_tanh_c[t if keep_cache else 0]
                    np.tanh(c_new, tc)
                    np.multiply(go[t], tc, step_h[t + 1])
        else:
            for r in start_indices(lead):
                np.einsum("btk,nk->btn", x, W_xh[r], out=states[r][:, 1:])
            if b_h is not None:
                step_states[1:] += b_h
            activation = spec.activation
            for t in range(T):
                h = step_states[t + 1]
                h += W_hh @ step_states[t]
                if activation == "tanh":
                    np.tanh(h, h)
                elif activation == "relu":
                    np.maximum(h, 0.0, out=h)

        read = step_states[1:, ..., d_h:, :] if spec.kind == "lstm" else step_states[1:]
        outputs = ws.empty("outputs", lead, B, T, spec.d_y)
        step_outputs = step_products(W_hy, read, out=time_major(outputs))
        if b_y is not None:
            step_outputs += b_y

    check_finite("forward pass", states[..., 1:, :], outputs)
    return states, outputs, cache


def forward(params: Params, h0, inputs) -> Trajectory:
    """Deterministic forward evaluation of one sequence from a given initial state.

    ``inputs`` is a (T', d_x) array (or sequence of length-d_x vectors);
    ``h0`` is a (state_dim,) vector, or None for the zero state.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"inputs must be (T', d_x), got shape {x.shape}")
    if h0 is not None:
        h0 = np.asarray(h0, dtype=np.float64)
        if h0.shape != (params.spec.state_dim,):
            raise DimensionError(f"h0 has shape {h0.shape}, expected ({params.spec.state_dim},)")
        h0 = h0[None, :]
    states, outputs, _ = batched_forward(params, h0, x[None, :, :])
    return Trajectory(hidden=states[0], outputs=outputs[0])

