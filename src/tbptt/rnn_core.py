"""Recurrent cells, flat parameter vectors, and deterministic forward evaluation.

Three cell kinds share one interface:

* ``linear``: h_t = W_hh h_{t-1} + W_xh x_t, y_t = W_hy h_t (no biases,
  identity activation by construction).
* ``elman``: h_t = phi(W_hh h_{t-1} + W_xh x_t + b_h), y_t = W_hy h_t + b_y.
* ``lstm``: standard gated cell; the internal state is the concatenation
  [cell_state, hidden_activation] of length 2*d_h, and the output layer reads
  the hidden-activation half.

All learnable weights live in one flat float64 vector ``theta`` with a named
block layout, so optimizers and serialization never special-case the cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
    step t is one integer index, with or without a leading start axis."""
    nd = a.ndim
    return a.transpose((nd - 2, *range(nd - 2), nd - 1))


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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "d_x": self.d_x,
            "d_h": self.d_h,
            "d_y": self.d_y,
            "activation": self.activation,
            "use_biases": self.use_biases,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "CellSpec":
        return CellSpec(
            kind=d["kind"],
            d_x=int(d["d_x"]),
            d_h=int(d["d_h"]),
            d_y=int(d["d_y"]),
            activation=d["activation"],
            use_biases=bool(d["use_biases"]),
        )


Layout = dict[str, tuple[int, int, tuple[int, ...]]]


def build_layout(spec: CellSpec) -> Layout:
    """Named blocks -> (start, stop, shape), partitioning [0, n) in order."""
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

    layout: Layout = {}
    offset = 0
    for name, shape in blocks:
        size = math.prod(shape)
        layout[name] = (offset, offset + size, shape)
        offset += size
    return layout


def _layout_size(layout: Layout) -> int:
    return max(stop for _, stop, _ in layout.values())


def num_params(spec: CellSpec) -> int:
    return _layout_size(build_layout(spec))


@dataclass
class Params:
    """Flat parameter vector plus its named block layout.

    ``theta`` is (n,) for one model or (R, n) for R models stacked on a
    leading start axis, which every block then carries first.
    """

    theta: np.ndarray
    spec: CellSpec
    layout: Layout = field(default_factory=dict)

    def __post_init__(self):
        if not self.layout:
            self.layout = build_layout(self.spec)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        n = _layout_size(self.layout)
        if self.theta.ndim not in (1, 2) or self.theta.shape[-1] != n:
            raise DimensionError(f"theta has shape {self.theta.shape}, expected ({n},) or (R, {n})")

    def block(self, name: str) -> np.ndarray:
        """One named block, reshaped: a view of ``theta``, read-only by
        convention (``with_block`` builds an updated copy)."""
        start, stop, shape = self.layout[name]
        return self.theta[..., start:stop].reshape(self.theta.shape[:-1] + shape)

    def unpack(self) -> dict[str, np.ndarray]:
        """Every named block as a read-only view of ``theta``."""
        return {name: self.block(name) for name in self.layout}

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
        return Params(theta, self.spec, self.layout)

    def copy(self) -> "Params":
        return Params(self.theta.copy(), self.spec, self.layout)

    def to_json(self) -> str:
        return json.dumps(
            {
                "spec": self.spec.to_json_dict(),
                "layout": [[name, start, stop] for name, (start, stop, _) in self.layout.items()],
                "theta": self.theta.tolist(),
            }
        )

    @staticmethod
    def from_json(text: str) -> "Params":
        d = json.loads(text)
        spec = CellSpec.from_json_dict(d["spec"])
        params = Params(np.array(d["theta"], dtype=np.float64), spec)
        stored = [[name, start, stop] for name, (start, stop, _) in params.layout.items()]
        if stored != [list(row) for row in d["layout"]]:
            raise ValueError("stored layout does not match the spec-derived layout")
        return params


def pack(spec: CellSpec, blocks: dict[str, np.ndarray]) -> Params:
    """Inverse of unpack: assemble theta from named blocks, each with the
    same leading start shape (none, or (R,))."""
    layout = build_layout(spec)
    if set(blocks) != set(layout):
        raise ValueError(f"blocks {sorted(blocks)} do not match layout {sorted(layout)}")
    lead = np.shape(blocks["W_hh"])[:-2]
    theta = np.empty(lead + (_layout_size(layout),), dtype=np.float64)
    for name, (start, stop, shape) in layout.items():
        value = np.asarray(blocks[name], dtype=np.float64)
        if value.shape != lead + shape:
            raise DimensionError(f"block {name} has shape {lead + shape}, got {value.shape}")
        theta[..., start:stop] = value.reshape(lead + (-1,))
    return Params(theta, spec, layout)


def init_params(spec: CellSpec, seed: int) -> Params:
    """Seeded init: weights uniform on [-1/sqrt(d_h), 1/sqrt(d_h)], biases zero,
    LSTM forget-gate bias 1.0."""
    rng = SplitMix64(seed)
    scale = 1.0 / np.sqrt(spec.d_h)
    layout = build_layout(spec)
    theta = np.zeros(_layout_size(layout), dtype=np.float64)
    for name, (start, stop, _) in layout.items():
        if name.startswith("W_"):
            theta[start:stop] = rng.uniforms(stop - start, -scale, scale)
    if spec.kind == "lstm" and spec.use_biases:
        start, _, _ = layout["b_h"]
        theta[start + spec.d_h : start + 2 * spec.d_h] = 1.0
    return Params(theta, spec, layout)


@dataclass
class Trajectory:
    """Forward-pass record: hidden[t] is the state after t inputs (hidden[0] = h0)."""

    hidden: np.ndarray  # (T'+1, state_dim)
    outputs: np.ndarray  # (T', d_y)


def _activation(kind: str, a: np.ndarray) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(a)
    if kind == "relu":
        return np.maximum(a, 0.0)
    return a


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e^-z) for z >= 0 and
    e^z/(1+e^z) below, both through e^-|z| <= 1; NaN stays NaN."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


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

    The input half of every pre-activation, ``inputs · W_xhᵀ``, does not
    depend on the carried state and is computed once per call, before the
    time loop, into a buffer the pass returns anyway: ``states[..., 1:, :]``
    for linear/Elman cells, the (..., B, T', 4·d_h) gate buffer for the LSTM
    (kept as ``cache["gates"]`` with ``keep_cache``). Step t then adds only
    ``h · W_hhᵀ`` and the bias, and overwrites its row with the step's
    state or gate activations. The product is one 3-index ``einsum`` per
    start, whose bits per element do not depend on B·T' or on R, so a
    prefix, a restart or one start of a stack reproduces the full unstacked
    run exactly.
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

    states = np.empty(lead + (B, T + 1, spec.state_dim), dtype=np.float64)
    states[..., 0, :] = h0
    cache: dict = {}

    # overflow surfaces as a NonFiniteError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "lstm":
            gates = np.empty(lead + (B, T, 4 * d_h), dtype=np.float64)
            for r in start_indices(lead):
                np.einsum("btk,nk->btn", inputs, W_xh[r], out=gates[r])
            if keep_cache:
                cache["gates"] = gates
                cache["tanh_c"] = np.empty(lead + (B, T, d_h), dtype=np.float64)
                step_tanh_c = time_major(cache["tanh_c"])
            step_states, step_gates = time_major(states), time_major(gates)
            g_block = slice(2 * d_h, 3 * d_h)
            for t in range(T):
                prev = step_states[t]
                z = step_gates[t] + prev[..., d_h:] @ W_hh_T
                if b_h is not None:
                    z += b_h
                act = _sigmoid(z)
                act[..., g_block] = np.tanh(z[..., g_block])
                gi, gf, go = act[..., :d_h], act[..., d_h : 2 * d_h], act[..., 3 * d_h :]
                gg = act[..., g_block]
                c_new = gf * prev[..., :d_h] + gi * gg
                tanh_c = np.tanh(c_new)
                row = step_states[t + 1]
                row[..., :d_h] = c_new
                row[..., d_h:] = go * tanh_c
                if keep_cache:
                    step_gates[t] = act
                    step_tanh_c[t] = tanh_c
        else:
            for r in start_indices(lead):
                np.einsum("btk,nk->btn", inputs, W_xh[r], out=states[r][:, 1:])
            step_states = time_major(states)
            h = h0
            for t in range(T):
                a = step_states[t + 1] + h @ W_hh_T
                if b_h is not None:
                    a += b_h
                h = _activation(spec.activation, a)
                step_states[t + 1] = h

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

