"""Reverse-mode differentiation through the unrolled recurrence.

``weighted_loss_grad`` is the one loss-and-gradient entry point: a batch of
sequences from given initial states, a squared error weighted per step
(``segment_weights`` builds the burn-in weights), and the exact gradient
with respect to theta and every row's initial state. ``weighted_loss`` is
its value alone. The backward pass is exact over whatever sequences it is
given: truncation lives entirely in how callers segment the data, never
inside the gradient. ``fd_gradient`` is the independent central-difference
oracle used by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError
from .rnn_core import NonFiniteError, Params, batched_forward, pack


@dataclass
class Tape:
    """Cached forward pass: everything the backward sweep needs.

    ``states`` is the forward pass's own (B, T'+1, sd) buffer, read by the
    backward sweep and never copied. For the LSTM, ``cache`` holds the
    forward's gate buffer ("gates", (B, T', 4·d_h), which first held the
    hoisted input product and was overwritten with the gate activations)
    and "tanh_c" (B, T', d_h); linear/Elman cells need no cache.
    """

    params: Params
    inputs: np.ndarray  # (B, T', d_x)
    states: np.ndarray  # (B, T'+1, state_dim)
    outputs: np.ndarray  # (B, T', d_y)
    cache: dict


def record(params: Params, h0: np.ndarray, inputs: np.ndarray) -> Tape:
    """Forward pass over a batch, keeping the activations backprop needs."""
    states, outputs, cache = batched_forward(params, h0, inputs, keep_cache=True)
    return Tape(params=params, inputs=inputs, states=states, outputs=outputs, cache=cache)


def _phi_prime(activation: str, h_new: np.ndarray) -> np.ndarray:
    # derivative from the cached post-activation; relu'(0) := 0
    if activation == "tanh":
        return 1.0 - h_new * h_new
    return (h_new > 0.0).astype(np.float64)


def backprop(tape: Tape, cograds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reverse sweep for the scalar sum_t <cograds[:, t], y_t>.

    Returns (d_theta summed over the batch, d_h0 per batch row).

    Linear/Elman cells: the loop carries only the adjoint. One
    (B, T'+1, d_h) buffer first takes ``cograds · W_hy`` for every step in
    one product; step t then adds the carried adjoint, applies phi' and
    stores the result back in row t. The zero last row pairs with the final
    state, so ``W_hh`` is one product against ``states.reshape(-1, sd)``,
    and ``W_xh`` and ``b_h`` take one product each after the loop. This
    buffer is the only full-length array the sweep allocates. The LSTM
    sweep stays per step: it accumulates every weight gradient inside the
    loop, which keeps its memory at the size of the tape.
    """
    spec = tape.params.spec
    blocks = tape.params.unpack()
    B, T, _ = tape.inputs.shape
    if cograds.shape != tape.outputs.shape:
        raise DimensionError(
            f"cograds shape {cograds.shape} != outputs shape {tape.outputs.shape}"
        )
    if not np.all(np.isfinite(cograds)):
        bad = np.where(~np.isfinite(cograds).all(axis=(0, 2)))[0]
        raise NonFiniteError("output cogradients", int(bad[0]) + 1)

    W_hh, W_hy = blocks["W_hh"], blocks["W_hy"]
    d_h = spec.d_h
    read = tape.states[:, 1:, d_h:] if spec.kind == "lstm" else tape.states[:, 1:]

    grads: dict[str, np.ndarray] = {"W_hy": np.einsum("bti,btj->ij", cograds, read)}
    if spec.use_biases:
        grads["b_y"] = cograds.sum(axis=(0, 1))

    if spec.kind == "lstm":
        grads["W_hh"] = np.zeros_like(W_hh)
        grads["W_xh"] = np.zeros_like(blocks["W_xh"])
        if spec.use_biases:
            grads["b_h"] = np.zeros_like(blocks["b_h"])
        gates, tanh_c = tape.cache["gates"], tape.cache["tanh_c"]
        carry_dc = np.zeros((B, d_h))
        carry_dh = np.zeros((B, d_h))
        for t in range(T - 1, -1, -1):
            dh = cograds[:, t] @ W_hy + carry_dh
            gi = gates[:, t, :d_h]
            gf = gates[:, t, d_h : 2 * d_h]
            gg = gates[:, t, 2 * d_h : 3 * d_h]
            go = gates[:, t, 3 * d_h :]
            tc = tanh_c[:, t]
            c_prev = tape.states[:, t, :d_h]
            hh_prev = tape.states[:, t, d_h:]

            do = dh * tc
            dc = carry_dc + dh * go * (1.0 - tc * tc)
            dz = np.concatenate(
                [
                    dc * gg * gi * (1.0 - gi),
                    dc * c_prev * gf * (1.0 - gf),
                    dc * gi * (1.0 - gg * gg),
                    do * go * (1.0 - go),
                ],
                axis=1,
            )
            grads["W_xh"] += dz.T @ tape.inputs[:, t]
            grads["W_hh"] += dz.T @ hh_prev
            if spec.use_biases:
                grads["b_h"] += dz.sum(axis=0)
            carry_dh = dz @ W_hh
            carry_dc = dc * gf
        d_h0 = np.concatenate([carry_dc, carry_dh], axis=1)
    else:
        da = np.empty((B, T + 1, d_h))
        da[:, T] = 0.0
        np.einsum("bti,ij->btj", cograds, W_hy, out=da[:, :T])
        carry = np.zeros((B, d_h))
        for t in range(T - 1, -1, -1):
            # a fresh contiguous row: elementwise work on the strided da[:, t] is slow
            a_t = da[:, t] + carry
            if spec.activation != "identity":
                a_t *= _phi_prime(spec.activation, tape.states[:, t + 1])
            da[:, t] = a_t
            carry = a_t @ W_hh
        d_h0 = carry
        grads["W_hh"] = da.reshape(-1, d_h).T @ tape.states.reshape(-1, d_h)
        grads["W_xh"] = np.matmul(da[:, :T].transpose(0, 2, 1), tape.inputs).sum(axis=0)
        if spec.use_biases:
            # summing B first: a one-pass reduction over (B, T'+1) rows is slow
            grads["b_h"] = da.sum(axis=0).sum(axis=0)

    return pack(spec, grads).theta, d_h0


def weighted_loss(params: Params, h0: np.ndarray, inputs: np.ndarray,
                  targets: np.ndarray, weights: np.ndarray) -> float:
    """sum_{b,t} weights[b,t] * ||y_{b,t} - targets_{b,t}||^2 (value only)."""
    _, outputs, _ = batched_forward(params, h0, inputs)
    err = outputs - targets
    return float(np.sum(weights * np.sum(err * err, axis=2)))


def weighted_loss_grad(
    params: Params, h0: np.ndarray, inputs: np.ndarray,
    targets: np.ndarray, weights: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and gradient of the weighted squared-error sum.

    weights: (B, T') nonnegative; entries of weight zero are excluded from the
    loss and contribute no cogradient. Returns (loss, d_theta, d_h0 (B, sd)).
    """
    tape = record(params, h0, inputs)
    err = tape.outputs - targets
    loss = float(np.sum(weights * np.sum(err * err, axis=2)))
    cograds = 2.0 * weights[:, :, None] * err
    d_theta, d_h0 = backprop(tape, cograds)
    return loss, d_theta, d_h0


def segment_weights(n_steps: int, m: int, rows: int = 1) -> np.ndarray:
    """Burn-in loss weights of ``rows`` segments of ``n_steps`` steps each.

    Steps 1..m get weight zero and every later step 1/(rows * (n_steps - m)),
    so the weighted loss is the mean over segments of each segment's mean
    squared error after burn-in.
    """
    if not 0 <= m <= n_steps - 1:
        raise ValueError(f"burn-in m={m} out of range [0, {n_steps - 1}]")
    w = np.zeros((rows, n_steps))
    w[:, m:] = 1.0 / (rows * (n_steps - m))
    return w


def fd_gradient(params: Params, inputs: np.ndarray, targets: np.ndarray, m: int,
                step: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient of one sequence's burn-in loss from the
    zero state; test oracle only.

    ``inputs`` (N, d_x) and ``targets`` (N, d_y) are one window. Returns
    (d_theta, d_h0 (1, state_dim)), the gradient ``weighted_loss_grad``
    computes exactly for the same row and ``segment_weights(N, m)``.
    """
    x = np.asarray(inputs, dtype=np.float64)[None]
    yd = np.asarray(targets, dtype=np.float64)[None]
    w = segment_weights(x.shape[1], m)
    h0 = np.zeros((1, params.spec.state_dim))

    def value(theta: np.ndarray, h: np.ndarray) -> float:
        return weighted_loss(Params(theta, params.spec, params.layout), h, x, yd, w)

    def central(f, point: np.ndarray) -> np.ndarray:
        grad = np.zeros(point.size)
        for k in range(point.size):
            up = point.copy()
            dn = point.copy()
            up.flat[k] += step
            dn.flat[k] -= step
            grad[k] = (f(up) - f(dn)) / (2.0 * step)
        return grad.reshape(point.shape)

    d_theta = central(lambda theta: value(theta, h0), params.theta)
    d_h0 = central(lambda h: value(params.theta, h), h0)
    return d_theta, d_h0
