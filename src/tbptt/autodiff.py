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
    Params, batched_forward, check_finite, empty_time_major, start_indices, step_products,
    time_major,
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
    the shared ``inputs``. ``states`` and the cache arrays are step-major
    and batch-innermost in memory, on either kind of tape
    (``rnn_core.empty_time_major``, ``rnn_core.take_steps``): (steps, R,
    k, B) behind the batch-major shape, so ``time_major(a)[t]`` is one
    contiguous (R, k, B) block. ``inputs`` and ``outputs`` may have any
    memory order; the backward sweep reads them through strided views.
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


def backprop(tape: Tape, cograds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reverse sweep for the scalar sum_t <cograds[..., t, :], y_t>.

    Returns (d_theta summed over the batch, d_h0 per batch row); for a
    stacked tape, d_theta is (R, n) and d_h0 (R, B, sd), one per start.

    The loop carries only the adjoints. Every full-length buffer it
    allocates comes from ``empty_time_major``, like the tape's: step t is
    one contiguous (..., k, B) block, batch rows innermost, and its
    products with the weights are (R, n, k) @ (R, k, B) GEMMs. The
    cogradients and inputs are read through step-major views of whatever
    memory they have, never copied whole. After the loop each start's
    weight gradients are products of its own step blocks (``_step_sum``),
    one start at a time over views with the shape and stride order of its
    unstacked call, so each start gets that call's bits. They are written
    through the layout's slices into the start's row of one theta-shaped
    array, the d_theta returned.

    Linear/Elman cells: one (..., B, T', d_h) buffer ``da`` first takes
    ``W_hyᵀ · cograds`` for every step; step t adds the carried adjoint to
    its block, multiplies it by phi', computed into one reused (..., d_h, B)
    block from the step's states (1 - h² for tanh, h > 0 for relu), and
    carries ``W_hhᵀ`` times the block. ``W_hh`` is then the step products
    of ``da`` with the previous states, ``W_xh`` with the inputs, and
    ``b_h`` the sum of ``da``. ``da`` is the only full-length array the
    sweep allocates.

    LSTM cells: before the loop, everything that does not depend on the
    carried adjoints is written in place, for all steps at once, into
    three buffers: ``dz`` (gates-sized) takes the four gate-derivative
    factors (∂c/∂z for i, f and g; tanh c · ∂o/∂z for o), ``c_path``
    (..., B, T', d_h) the c-path factor o·(1 − tanh²c), and ``dh_out`` the
    same size ``W_hyᵀ · cograds``. Each gate's factor is a slice of d_h
    components of every step block, whole runs of B rows. Step t then makes
    seven operations: dh and dc in their blocks, the in-place scaling of its
    ``dz`` block by dc (i, f, g) and by dh (o), and the carries
    ``W_hhᵀ · dz`` and ``dc · f``. After the loop ``W_hh``, ``W_xh`` and
    ``b_h`` are the step products and sum of ``dz``, as for the Elman cell.
    The three buffers come to 1.5 times the tape's gate buffer, the sweep's
    whole full-length memory.
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
    # step-major views, (steps, ..., k, B): the tape's own memory for the
    # states, and the cogradients (and, below, the inputs) in whatever
    # memory they come
    S, dY = time_major(tape.states), time_major(cograds)
    W_hh_T = W_hh.mT

    if spec.kind == "lstm":
        G, tanh_c = time_major(tape.cache["gates"]), time_major(tape.cache["tanh_c"])
        gi, gf, gg, go = (G[..., k * d_h : (k + 1) * d_h, :] for k in range(4))
        dz = empty_time_major(lead, B, T, 4 * d_h)
        A = time_major(dz)
        z_i, z_f, z_g, z_o = (A[..., k * d_h : (k + 1) * d_h, :] for k in range(4))
        np.subtract(1.0, G, out=A)
        A *= G  # sigma' of the i, f and o gates
        z_i *= gg
        z_f *= S[:T, ..., :d_h, :]
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
        DH = step_products(W_hy.mT, dY, out=time_major(dh_out))

        # A's step blocks split per gate: (T', ..., 4, d_h, B), a view
        A_gates = A.reshape(A.shape[:-2] + (4, d_h, B))
        carry_dc = np.zeros(lead + (d_h, B))
        carry_dh = np.zeros(lead + (d_h, B))
        for t in range(T - 1, -1, -1):
            dh = DH[t]
            dh += carry_dh
            dc = C[t]
            dc *= dh
            dc += carry_dc
            z = A_gates[t]
            z[..., :3, :, :] *= dc[..., None, :, :]
            z[..., 3, :, :] *= dh
            np.matmul(W_hh_T, A[t], carry_dh)
            np.multiply(dc, gf[t], carry_dc)
        d_h0 = np.concatenate([carry_dc, carry_dh], axis=-2)
    else:
        da = empty_time_major(lead, B, T, d_h)
        A = step_products(W_hy.mT, dY, out=time_major(da))
        carry = np.zeros(lead + (d_h, B))
        # phi' of one step, from its post-activation states; relu'(0) := 0
        phi = np.empty(lead + (d_h, B))
        tanh, relu = spec.activation == "tanh", spec.activation == "relu"
        # outputs go in positionally: numpy parses them faster than the keyword
        for t in range(T - 1, -1, -1):
            a_t = A[t]
            a_t += carry
            if tanh:
                h = S[t + 1]
                np.multiply(h, h, phi)
                np.subtract(1.0, phi, phi)
                a_t *= phi
            elif relu:
                np.greater(S[t + 1], 0.0, phi)
                a_t *= phi
            np.matmul(W_hh_T, a_t, carry)
        d_h0 = carry

    d_theta = np.empty(tape.params.theta.shape)
    layout = tape.params.layout
    X = time_major(tape.inputs)
    # one start at a time, each over step-major views of the shape and
    # stride order of its unstacked call, so each gives that call's bits:
    # start r is index r of the (T', R, k, B) views with the start axis
    # first, and an unstacked call's (T', k, B) views are index ()
    starts = [a.swapaxes(0, -3) for a in (A, S, dY)]
    for r in start_indices(lead):
        adj, states, cog = (a[r] for a in starts)
        if B == 1:
            # the steps as the rows of one (T', k) matrix, contiguous as in
            # an unstacked call
            adj, states, cog = (np.ascontiguousarray(a) for a in (adj, states, cog))
        hidden = states[:, sd - d_h :]
        grads = {
            "W_hy": _step_sum(cog, hidden[1:]),
            "W_hh": _step_sum(adj, hidden[:T]),
            "W_xh": _step_sum(adj, X),
        }
        if spec.use_biases:
            # each step's batch rows first: contiguous runs of B
            grads["b_y"] = cog.sum(axis=-1).sum(axis=0)
            grads["b_h"] = adj.sum(axis=-1).sum(axis=0)
        row = d_theta[r]
        for name, grad in grads.items():
            start, stop, _ = layout[name]
            row[start:stop] = grad.reshape(-1)
    return d_theta, d_h0.mT


# steps per product in ``_step_sum``: its temporary is at most this many
# (i, j) blocks, whatever T' is
_SUM_STEPS = 64


def _step_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over steps t and batch rows c of ``a[t, :, c] ⊗ b[t, :, c]``, for
    one start's step-major (T', i, B) and (T', j, B) arrays or views: a
    weight-gradient block (i, j).

    Per step one (i, B) @ (B, j) GEMM, summed over the steps in order, in
    chunks of ``_SUM_STEPS`` steps. With one batch row the steps are the
    rows of a (T', i) and a (T', j) matrix, and the sum is one
    (i, T') @ (T', j) product."""
    if a.shape[-1] == 1:
        return a[..., 0].T @ b[..., 0]
    total = np.matmul(a[:_SUM_STEPS], b[:_SUM_STEPS].mT).sum(axis=0)
    for lo in range(_SUM_STEPS, a.shape[0], _SUM_STEPS):
        total += np.matmul(a[lo : lo + _SUM_STEPS], b[lo : lo + _SUM_STEPS].mT).sum(axis=0)
    return total


def _weighted_sse(err: np.ndarray, weights: np.ndarray) -> float | np.ndarray:
    """sum_{b,t} weights[b,t] * ||err_{b,t}||^2 of (..., B, T', d_y) errors:
    a float, or one value per start on a leading start axis. The squares
    are summed in batch-major order whatever the memory of ``err``, so a
    start's sum is the same with or without the other starts."""
    loss = np.sum(weights * np.sum(np.multiply(err, err, order="C"), axis=-1), axis=(-2, -1))
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
    the package takes goes through here, whoever made the tape. The errors,
    and then in place the cogradients, go to one buffer of
    ``empty_time_major``, so ``backprop`` reads their step blocks as
    contiguous (..., d_y, B) runs."""
    # overflow surfaces as a non-finite loss, cogradient (NonFiniteError) or
    # gradient, which every caller checks, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        *lead, B, T, d_y = tape.outputs.shape
        err = np.subtract(tape.outputs, targets, out=empty_time_major(tuple(lead), B, T, d_y))
        loss = _weighted_sse(err, weights)
        err *= 2.0 * weights[..., None]  # the cogradients, step-major like the passes
        d_theta, d_h0 = backprop(tape, err)
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

