"""Reverse-mode differentiation through the unrolled recurrence.

``weighted_loss_grad`` is the one loss-and-gradient entry point: a batch of
sequences from given initial states, a squared error weighted per step
(``segment_weights`` builds the burn-in weights), and the exact gradient
with respect to theta and every row's initial state. It also takes R
models stacked on a leading start axis (theta (R, n), h0 (R, B, sd)) over
shared inputs and targets, with shared or per-start weights, and then
returns one loss and one gradient per start. ``weighted_loss`` is its value
alone, unstacked or stacked, by the same reduction. The backward pass is
exact over whatever sequences it is given: truncation lives entirely in how
callers segment the data, never inside the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError
from .rnn_core import (
    Params, batched_forward, check_finite, pack, per_start, start_indices, time_major,
)


@dataclass
class Tape:
    """Cached forward pass: everything the backward sweep needs.

    ``states`` is the forward pass's own (B, T'+1, sd) buffer, read by the
    backward sweep and never copied. For the LSTM, ``cache`` holds the
    forward's gate buffer ("gates", (B, T', 4·d_h), which first held the
    hoisted input product and was overwritten with the gate activations)
    and "tanh_c" (B, T', d_h); linear/Elman cells need no cache. A tape of
    stacked ``params`` carries the leading start axis R on every array but
    the shared ``inputs``.
    """

    params: Params
    inputs: np.ndarray  # (B, T', d_x)
    states: np.ndarray  # (..., B, T'+1, state_dim)
    outputs: np.ndarray  # (..., B, T', d_y)
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
    """Reverse sweep for the scalar sum_t <cograds[..., t, :], y_t>.

    Returns (d_theta summed over the batch, d_h0 per batch row); for a
    stacked tape, d_theta is (R, n) and d_h0 (R, B, sd), one per start.

    Linear/Elman cells: the loop carries only the adjoint. One
    (..., B, T'+1, d_h) buffer first takes ``cograds · W_hy`` for every
    step, one product per start; step t then adds the carried adjoint,
    applies phi' and stores the result back in row t. The zero last row
    pairs with the final state, so ``W_hh`` is one product against
    ``states.reshape(-1, sd)``, and ``W_xh`` and ``b_h`` take one product
    each after the loop, all per start. This buffer is the only
    full-length array the sweep allocates. The LSTM sweep stays per step:
    it accumulates every weight gradient inside the loop, which keeps its
    memory at the size of the tape. Each step is one stacked product over
    the starts.
    """
    spec = tape.params.spec
    blocks = tape.params.unpack()
    lead = tape.params.theta.shape[:-1]
    B, T, _ = tape.inputs.shape
    if cograds.shape != tape.outputs.shape:
        raise DimensionError(
            f"cograds shape {cograds.shape} != outputs shape {tape.outputs.shape}"
        )
    check_finite("output cogradients", cograds)

    W_hh, W_hy = blocks["W_hh"], blocks["W_hy"]
    d_h = spec.d_h
    read = tape.states[..., 1:, d_h:] if spec.kind == "lstm" else tape.states[..., 1:, :]

    grads: dict[str, np.ndarray] = {
        "W_hy": per_start(lead, lambda r: np.einsum("bti,btj->ij", cograds[r], read[r]))
    }
    if spec.use_biases:
        grads["b_y"] = per_start(lead, lambda r: cograds[r].sum(axis=(0, 1)))

    if spec.kind == "lstm":
        grads["W_hh"] = np.zeros_like(W_hh)
        grads["W_xh"] = np.zeros_like(blocks["W_xh"])
        if spec.use_biases:
            grads["b_h"] = np.zeros_like(blocks["b_h"])
        step_cograds, step_states = time_major(cograds), time_major(tape.states)
        gates, tanh_c = time_major(tape.cache["gates"]), time_major(tape.cache["tanh_c"])
        step_inputs = time_major(tape.inputs)
        carry_dc = np.zeros(lead + (B, d_h))
        carry_dh = np.zeros(lead + (B, d_h))
        for t in range(T - 1, -1, -1):
            dh = step_cograds[t] @ W_hy + carry_dh
            g_t = gates[t]
            gi = g_t[..., :d_h]
            gf = g_t[..., d_h : 2 * d_h]
            gg = g_t[..., 2 * d_h : 3 * d_h]
            go = g_t[..., 3 * d_h :]
            tc = tanh_c[t]
            c_prev = step_states[t][..., :d_h]
            hh_prev = step_states[t][..., d_h:]

            do = dh * tc
            dc = carry_dc + dh * go * (1.0 - tc * tc)
            dz = np.concatenate(
                [
                    dc * gg * gi * (1.0 - gi),
                    dc * c_prev * gf * (1.0 - gf),
                    dc * gi * (1.0 - gg * gg),
                    do * go * (1.0 - go),
                ],
                axis=-1,
            )
            grads["W_xh"] += dz.mT @ step_inputs[t]
            grads["W_hh"] += dz.mT @ hh_prev
            if spec.use_biases:
                grads["b_h"] += dz.sum(axis=-2)
            carry_dh = dz @ W_hh
            carry_dc = dc * gf
        d_h0 = np.concatenate([carry_dc, carry_dh], axis=-1)
    else:
        da = np.empty(lead + (B, T + 1, d_h))
        da[..., T, :] = 0.0
        for r in start_indices(lead):
            np.einsum("bti,ij->btj", cograds[r], W_hy[r], out=da[r][:, :T])
        step_da, step_states = time_major(da), time_major(tape.states)
        carry = np.zeros(lead + (B, d_h))
        for t in range(T - 1, -1, -1):
            # a fresh contiguous row: elementwise work on the strided step_da[t] is slow
            a_t = step_da[t] + carry
            if spec.activation != "identity":
                a_t *= _phi_prime(spec.activation, step_states[t + 1])
            step_da[t] = a_t
            carry = a_t @ W_hh
        d_h0 = carry
        grads["W_hh"] = per_start(
            lead, lambda r: da[r].reshape(-1, d_h).T @ tape.states[r].reshape(-1, d_h))
        grads["W_xh"] = per_start(
            lead, lambda r: np.matmul(da[r][:, :T].transpose(0, 2, 1), tape.inputs).sum(axis=0))
        if spec.use_biases:
            # summing B first: a one-pass reduction over (B, T'+1) rows is slow
            grads["b_h"] = per_start(lead, lambda r: da[r].sum(axis=0).sum(axis=0))

    return pack(spec, grads).theta, d_h0


def _weighted_sse(err: np.ndarray, weights: np.ndarray) -> float | np.ndarray:
    """sum_{b,t} weights[b,t] * ||err_{b,t}||^2 of (..., B, T', d_y) errors:
    a float, or one value per start on a leading start axis."""
    loss = np.sum(weights * np.sum(err * err, axis=-1), axis=(-2, -1))
    return loss if loss.ndim else float(loss)


def weighted_loss(params: Params, h0: np.ndarray, inputs: np.ndarray,
                  targets: np.ndarray, weights: np.ndarray) -> float | np.ndarray:
    """sum_{b,t} weights[b,t] * ||y_{b,t} - targets_{b,t}||^2 by a forward
    pass alone: bit for bit the loss ``weighted_loss_grad`` returns, one per
    start when ``params`` is stacked."""
    _, outputs, _ = batched_forward(params, h0, inputs)
    return _weighted_sse(outputs - targets, weights)


def weighted_loss_grad(
    params: Params, h0: np.ndarray, inputs: np.ndarray,
    targets: np.ndarray, weights: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and gradient of the weighted squared-error sum.

    weights: (B, T') nonnegative; entries of weight zero are excluded from the
    loss and contribute no cogradient. Returns (loss, d_theta, d_h0 (B, sd)).
    With R stacked starts (theta (R, n), h0 (R, B, sd)) over the shared
    inputs and targets, and weights shared (B, T') or per start
    (R, B, T'), it returns per-start losses (R,), d_theta (R, n) and d_h0
    (R, B, sd), slice r bit-identical to the unstacked call with start r's
    theta, h0 and weights.
    """
    tape = record(params, h0, inputs)
    # overflow surfaces as a non-finite loss, cogradient (NonFiniteError) or
    # gradient, which every caller checks, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        err = tape.outputs - targets
        loss = _weighted_sse(err, weights)
        cograds = 2.0 * weights[..., None] * err
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

