"""Reverse-mode differentiation through the unrolled recurrence.

``weighted_loss_grad`` is the loss-and-gradient entry point: a batch of
sequences from given initial states, a squared error weighted per step
(``segment_weights`` builds the burn-in weights), and the exact gradient
with respect to theta and every row's initial state. It is ``record``, the
forward pass that keeps a ``Tape``, followed by ``tape_loss_grad``, the one
loss and gradient of a tape; a caller that already holds the batch's
forward pass (the stateful state chain) builds its tape itself and calls
``tape_loss_grad`` alone. Both also take R models stacked on a leading
start axis (theta (R, n), h0 (R, B, sd)) over shared inputs and targets,
with shared or per-start weights, and then return one loss and one
gradient per start. ``weighted_loss`` is the value alone, unstacked or
stacked, by the same reduction. The backward pass is exact over whatever
sequences it is given: truncation lives entirely in how callers segment
the data, never inside the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError
from .rnn_core import (
    Params, batched_forward, check_finite, empty_time_major, start_indices, time_major,
)


@dataclass
class Tape:
    """Cached forward pass: everything the backward sweep needs.

    On a tape from ``record``, ``states`` is the forward pass's own
    (B, T'+1, sd) buffer, read by the backward sweep and never copied; the
    stateful chain's tape (``training._stateful_inits``) holds windows
    gathered from one longer pass instead. For the LSTM, ``cache`` holds the
    forward's gate buffer ("gates", (B, T', 4·d_h), which first held the
    hoisted input product and bias over the half-scaled i, f and o rows and
    was overwritten with the i, f, g, o gate activations) and "tanh_c"
    (B, T', d_h); linear/Elman cells need no cache. A tape of
    stacked ``params`` carries the leading start axis R on every array but
    the shared ``inputs``. ``states`` and the cache arrays are time-major in
    memory, on either kind of tape (``rnn_core.empty_time_major``,
    ``rnn_core.take_steps``): (steps, R, B, k) behind the
    batch-major shape, so ``time_major(a)[t]`` is one contiguous block.
    ``inputs`` and ``outputs`` are ordinary batch-major arrays.
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

    The loop carries only the adjoints. Every full-length buffer it
    allocates is time-major like the tape's (``empty_time_major``), so step
    t reads and writes one contiguous block, and after the loop each weight
    gradient is one product per start over time-major rows. Those rows are
    views of an unstacked tape; a stacked tape's are copied one start at a
    time, which gives each start the memory layout, and so the bits, of its
    unstacked call. Each start's block gradients are written through the
    layout's slices into its row of one theta-shaped array, the d_theta
    returned.

    Linear/Elman cells: one (..., B, T'+1, d_h) buffer ``da`` first takes
    ``cograds · W_hy`` for every step, one product per start; step t adds
    the carried adjoint to its row, applies phi' in place, and carries the
    row's product with ``W_hh``: three or four operations per step. The
    zero last row pairs with the final state, so ``W_hh`` is one product of
    ``da``'s rows with the state rows. ``W_xh`` is one batched product with
    the batch-major inputs, summed over the batch, and ``b_h`` a sum of the
    rows. ``da`` is the only full-length array the sweep allocates.

    LSTM cells: before the loop, everything that does not depend on the
    carried adjoints is written in place, for all steps at once, into
    three buffers: ``dz`` (gates-sized) takes the four gate-derivative
    factors (∂c/∂z for i, f and g; tanh c · ∂o/∂z for o), ``c_path``
    (..., B, T', d_h) the c-path factor o·(1 − tanh²c), and ``dh_out`` the
    same size ``cograds · W_hy``. Step t then makes seven operations: dh
    and dc in their rows, the in-place scaling of its ``dz`` row by dc
    (i, f, g) and by dh (o), and the carries ``dz · W_hh`` and ``dc · f``.
    After the loop ``W_hh``, ``W_xh`` and ``b_h`` take one product each
    over the ``dz`` rows, as for the Elman cell. The three buffers come to
    1.5 times the tape's gate buffer, the sweep's whole full-length memory.
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
    d_h, sd = spec.d_h, spec.state_dim

    if spec.kind == "lstm":
        # time-major views: the buffers' own memory, step t at index t
        G, tanh_c = time_major(tape.cache["gates"]), time_major(tape.cache["tanh_c"])
        gi, gf, gg, go = (G[..., k * d_h : (k + 1) * d_h] for k in range(4))
        dz = empty_time_major(lead, B, T, 4 * d_h)
        Z = time_major(dz)
        z_i, z_f, z_g, z_o = (Z[..., k * d_h : (k + 1) * d_h] for k in range(4))
        # whole rows first: narrow gate columns make one short inner loop per row
        np.subtract(1.0, G, out=Z)
        Z *= G  # sigma' of the i, f and o gates
        z_i *= gg
        z_f *= time_major(tape.states)[:T, ..., :d_h]
        np.multiply(gg, gg, out=z_g)
        np.subtract(1.0, z_g, out=z_g)
        z_g *= gi
        z_o *= tanh_c
        c_path = empty_time_major(lead, B, T, d_h)
        C = time_major(c_path)
        np.multiply(tanh_c, tanh_c, out=C)
        np.subtract(1.0, C, out=C)
        C *= go
        dh_out = empty_time_major(lead, B, T, d_h)
        for r in start_indices(lead):
            np.einsum("bti,ij->btj", cograds[r], W_hy[r], out=dh_out[r])
        DH = time_major(dh_out)

        # Z's rows split per gate: (T', ..., B, 4, d_h), a view
        Z_gates = Z.reshape(Z.shape[:-1] + (4, d_h))
        carry_dc = np.zeros(lead + (B, d_h))
        carry_dh = np.zeros(lead + (B, d_h))
        for t in range(T - 1, -1, -1):
            dh = DH[t]
            dh += carry_dh
            dc = C[t]
            dc *= dh
            dc += carry_dc
            z = Z_gates[t]
            z[..., :3, :] *= dc[..., None, :]
            z[..., 3, :] *= dh
            carry_dh = Z[t] @ W_hh
            carry_dc = dc * gf[t]
        d_h0 = np.concatenate([carry_dc, carry_dh], axis=-1)
        adjoint = dz
    else:
        da = empty_time_major(lead, B, T + 1, d_h)
        da[..., T, :] = 0.0
        for r in start_indices(lead):
            np.einsum("bti,ij->btj", cograds[r], W_hy[r], out=da[r][:, :T])
        step_da, step_states = time_major(da), time_major(tape.states)
        carry = np.zeros(lead + (B, d_h))
        for t in range(T - 1, -1, -1):
            a_t = step_da[t]
            a_t += carry
            if spec.activation != "identity":
                a_t *= _phi_prime(spec.activation, step_states[t + 1])
            carry = a_t @ W_hh
        d_h0 = carry
        adjoint = da

    d_theta = np.empty(tape.params.theta.shape)
    layout = tape.params.layout
    for r in start_indices(lead):
        # start r's time-major rows: views of an unstacked tape's buffers,
        # contiguous copies of a stacked one's, so every product sees the
        # memory of the start's unstacked call and gives its bits
        adj = np.ascontiguousarray(time_major(adjoint[r]))  # (steps, B, k)
        hidden = np.ascontiguousarray(time_major(tape.states[r])).reshape(-1, sd)[:, sd - d_h :]
        grads = {
            "W_hy": np.einsum("bti,tbj->ij", cograds[r], hidden[B:].reshape(T, B, d_h)),
            "W_hh": adj.reshape(-1, adj.shape[-1]).T @ hidden[: adj.shape[0] * B],
            "W_xh": np.matmul(adj[:T].transpose(1, 2, 0), tape.inputs).sum(axis=0),
        }
        if spec.use_biases:
            grads["b_y"] = cograds[r].sum(axis=(0, 1))
            # summing the steps first: long contiguous runs, not one per row
            grads["b_h"] = adj.sum(axis=0).sum(axis=0)
        row = d_theta[r]
        for name, grad in grads.items():
            start, stop, _ = layout[name]
            row[start:stop] = grad.reshape(-1)
    return d_theta, d_h0


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


def tape_loss_grad(tape: Tape, targets: np.ndarray,
                   weights: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and gradient of the weighted squared-error sum of a recorded
    batch: ``weighted_loss_grad`` after its forward pass. Every gradient
    the package takes goes through here, whoever made the tape."""
    # overflow surfaces as a non-finite loss, cogradient (NonFiniteError) or
    # gradient, which every caller checks, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        err = tape.outputs - targets
        loss = _weighted_sse(err, weights)
        cograds = 2.0 * weights[..., None] * err
        d_theta, d_h0 = backprop(tape, cograds)
    return loss, d_theta, d_h0


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
    return tape_loss_grad(record(params, h0, inputs), targets, weights)


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

