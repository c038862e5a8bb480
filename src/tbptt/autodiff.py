"""Reverse-mode differentiation through the unrolled recurrence.

``weighted_loss_grad`` is the loss-and-gradient entry point: a batch of
sequences from given initial states, a squared error weighted per step
(``segment_weights`` builds the burn-in weights), and the exact gradient
with respect to theta and every row's initial state (none from
``h0=None``, the zero states). It is ``record``, the forward pass that
keeps a ``Tape``, followed by ``tape_loss_grad``, the one loss and
gradient of a tape; a caller that already holds the batch's forward pass
(the stateful state chain) builds its tape itself and calls
``tape_loss_grad`` alone. Both also take R models stacked on a leading
start axis (theta (R, n), h0 (R, B, sd)) over shared inputs and targets,
with shared or per-start weights, and then return one loss and one
gradient per start. Two passes take all of a batch's steps in blocks of
about √T' (``_checkpoint_steps``) through one chunked forward,
``_chunk_errors``: ``weighted_loss``, the value alone, unstacked or
stacked, by the same reduction, and ``checkpointed_loss_grad``, the loss
and d_theta of ``weighted_loss_grad`` from zero states, with the same bits
(the epoch log's full-batch gradient). The gradient keeps only the states
where blocks of steps begin, and each block but the last is recorded again
from them for the backward sweep, walked from the last block to the first.
The backward pass is exact over whatever sequences it is given:
truncation lives entirely in how callers segment the data, never inside
the gradient.

A bias-free linear cell needs no step loop, and two passes give its
``weighted_loss_grad`` without one, equal to the loop's to rounding:
``linear_scan_loss_grad`` over one long batch row, by a chunked scan
(``_scan``), and ``linear_window_loss_grad`` over many short windows,
through the cell's impulse response W_hy·W_hh^j·W_xh (its Markov
parameters) and one Toeplitz product per start. Both take the powers of
W_hh from ``_powers`` and send every start whose values are not finite to
the loop (``_loop_where_not_finite``). A linear cell with biases would add
one more impulse-response term per step to the window pass, Σ_{j<t}
W_hy·W_hh^j·b_h + b_y, and b_h to the scan's hoisted input product.

Buffers follow the memory layout of ``rnn_core``'s module docstring, in a
caller's ``Workspace`` when one is given. ``tape_loss_grad`` writes the
errors and then the cogradients over the tape's ``outputs``, and
``backprop`` writes only its adjoint buffers, so a tape's outputs are
spent by its gradient. One backward implementation serves every cell and
caller: ``_sweep`` runs the reverse loop over one block of steps with an
adjoint carried in and out, and the weight gradients are per-step
products summed in one order (``_in_step_order``); ``backprop`` is one
block, the whole tape. The mini-batch steps, the stateful tapes and the
solvers' iterations record one tape, since a recomputed forward pass
would cost them one more pass on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError
from .rnn_core import (
    CellSpec, Layout, NonFiniteError, Params, Workspace, batched_forward, check_finite,
    empty_time_major, per_start, start_indices, step_products, time_major,
)


@dataclass
class Tape:
    """Cached forward pass: everything the backward sweep needs.

    On a tape from ``record``, ``states`` is the forward pass's own
    (B, T'+1, sd) buffer, read by the backward sweep and never copied; the
    stateful chain's tape (``training._stateful_inits``) holds windows
    gathered from one longer pass instead. For the LSTM, ``cache`` holds the
    forward's "gates" (B, T', 4·d_h), the i, f, g, o gate activations, and
    "tanh_c" (B, T', d_h); linear/Elman cells need no cache. A tape of
    stacked ``params`` carries the leading start axis R on every array but
    the shared ``inputs``. Every array but ``inputs``, which may have any
    memory order, is step-major (``rnn_core``'s module docstring) on either
    kind of tape. ``tape_loss_grad`` overwrites ``outputs`` with the
    cogradients.
    """

    params: Params
    inputs: np.ndarray  # (B, T', d_x)
    states: np.ndarray  # (..., B, T'+1, state_dim)
    outputs: np.ndarray  # (..., B, T', d_y)
    cache: dict


def record(params: Params, h0: np.ndarray | None, inputs: np.ndarray,
           workspace: Workspace | None = None) -> Tape:
    """Forward pass over a batch, keeping the activations backprop needs,
    in the arrays of ``workspace`` when one is given."""
    states, outputs, cache = batched_forward(params, h0, inputs, workspace)
    return Tape(params=params, inputs=inputs, states=states, outputs=outputs, cache=cache)


def backprop(tape: Tape, cograds: np.ndarray,
             workspace: Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reverse sweep for the scalar sum_t <cograds[..., t, :], y_t>.

    Returns (d_theta summed over the batch, d_h0 per batch row); for a
    stacked tape, d_theta is (R, n) and d_h0 (R, B, sd), one per start.
    Both are new arrays. The tape and ``cograds`` are read, never written;
    the sweep writes only its adjoint buffers, which it takes from
    ``workspace`` ("da", or "dz", "c_path" and "dh_out") when one is given
    and allocates otherwise.

    ``backprop`` is the backward pass over one block of steps, the whole
    tape: ``_sweep`` carries the adjoints back through the steps, from zero
    after the last one, into an adjoint buffer, and the weight gradients are
    products of that buffer, the tape's states and inputs and the
    cogradients (``_factors``). With B > 1 they are summed
    ``_in_step_order``, each step and start one (i, B) @ (B, j) GEMM over
    views with the stride order of an unstacked call, so each start gets
    that call's bits; ``checkpointed_loss_grad`` runs the same sweep and
    sums block after block, with these bits. With one batch row, one start
    at a time, a start's steps are the rows of one contiguous matrix and
    each gradient is one product over all of them (``_row_grads``). They
    are written through the layout's slices into one theta-shaped array,
    the d_theta returned.
    """
    spec = tape.params.spec
    lead = tape.params.theta.shape[:-1]
    B, T, _ = tape.inputs.shape
    if cograds.shape != tape.outputs.shape:
        raise DimensionError(
            f"cograds shape {cograds.shape} != outputs shape {tape.outputs.shape}"
        )
    check_finite("output cogradients", cograds)
    A, d_h0 = _sweep(tape, cograds, None, workspace if workspace is not None else Workspace())

    d_theta = np.empty(tape.params.theta.shape)
    layout = tape.params.layout
    S, dY, X = time_major(tape.states), time_major(cograds), time_major(tape.inputs)
    if B > 1:
        # the (T', R, k, B) views of every start at once
        weights, biases = _factors(A, S, dY, X, spec)
        grads = {name: _in_step_order(lambda lo, hi: np.matmul(a[lo:hi], b[lo:hi].mT), T, lead)
                 for name, (a, b) in weights.items()}
        grads |= {name: _sum_steps(a.sum(axis=-1), lead) for name, a in biases.items()}
        _write_grads(d_theta, grads, layout)
    else:
        # start r is index r of the views with the start axis first, and an
        # unstacked call's (T', k, 1) views are index (); each start's steps
        # as the rows of one (T', k) matrix, contiguous as in an unstacked call
        starts = [a.swapaxes(0, -3) for a in (A, S, dY)]
        for r in start_indices(lead):
            adj, states, cog = (np.ascontiguousarray(a[r]) for a in starts)
            _write_grads(d_theta[r], _row_grads(adj, states, cog, X, spec), layout)
    return d_theta, d_h0.mT


def _sweep(tape: Tape, cograds: np.ndarray, carry: np.ndarray | None,
           ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The reverse loop over the steps of a tape, one block of a longer
    sequence or all of it: (the step-major (T', ..., k, B) adjoint buffer
    whose step products give the weight gradients, the carry out).

    ``carry`` is the (..., sd, B) adjoint of the block's last state that the
    steps after the block carry in, None for zero (the sequence's last
    block); the carry out is that of the block's entry states, d_h0 of a
    whole tape. The loop carries only the adjoints, in step-major buffers
    like the tape's (``rnn_core``'s module docstring), taken from ``ws``.

    Linear/Elman cells: one (..., B, T', d_h) buffer ``da`` first takes
    ``W_hyᵀ · cograds`` for every step; step t adds the carried adjoint to
    its block, multiplies it by phi', computed into one reused (..., d_h, B)
    block from the step's states (1 - h² for tanh, h > 0 for relu), and
    carries ``W_hhᵀ`` times the block. ``da`` is the sweep's only
    full-length buffer, and the adjoint buffer.

    LSTM cells: before the loop, everything that does not depend on the
    carried adjoints is written in place, for all steps at once, into
    three buffers: ``dz`` (gates-sized) takes the four gate-derivative
    factors (∂c/∂z for i, f and g; tanh c · ∂o/∂z for o), ``c_path``
    (..., B, T', d_h) the c-path factor o·(1 − tanh²c), and ``dh_out`` the
    same size ``W_hyᵀ · cograds``. Step t then makes
    seven operations: dh and dc in their blocks, the in-place scaling of its
    ``dz`` block by dc (i, f, g) and by dh (o), and the carries
    ``W_hhᵀ · dz`` and ``dc · f``; the carry is [dc; dh], the c half first,
    as in the state. ``dz`` is the adjoint buffer. The three buffers come
    to 1.5 times the tape's gate buffer, the sweep's whole full-length
    memory.
    """
    spec = tape.params.spec
    blocks = tape.params.unpack()
    lead = tape.params.theta.shape[:-1]
    B, T, _ = tape.inputs.shape
    W_hh, W_hy = blocks["W_hh"], blocks["W_hy"]
    d_h = spec.d_h
    # step-major views, (steps, ..., k, B): the tape's own memory for the
    # states, and the cogradients in whatever memory they come
    S, dY = time_major(tape.states), time_major(cograds)
    W_hh_T = W_hh.mT

    if spec.kind == "lstm":
        G, tanh_c = time_major(tape.cache["gates"]), time_major(tape.cache["tanh_c"])
        gi, gf, gg, go = (G[..., k * d_h : (k + 1) * d_h, :] for k in range(4))
        A = time_major(ws.empty("dz", lead, B, T, 4 * d_h))
        z_i, z_f, z_g, z_o = (A[..., k * d_h : (k + 1) * d_h, :] for k in range(4))
        np.subtract(1.0, G, out=A)
        A *= G  # sigma' of the i, f and o gates
        z_i *= gg
        z_f *= S[:T, ..., :d_h, :]
        np.multiply(gg, gg, out=z_g)
        np.subtract(1.0, z_g, out=z_g)
        z_g *= gi
        z_o *= tanh_c
        C = time_major(ws.empty("c_path", lead, B, T, d_h))
        np.multiply(tanh_c, tanh_c, out=C)
        np.subtract(1.0, C, out=C)
        C *= go
        DH = step_products(W_hy.mT, dY, out=time_major(ws.empty("dh_out", lead, B, T, d_h)))

        # A's step blocks split per gate: (T', ..., 4, d_h, B), a view
        A_gates = A.reshape(A.shape[:-2] + (4, d_h, B))
        if carry is None:
            carry_dc, carry_dh = np.zeros(lead + (d_h, B)), np.zeros(lead + (d_h, B))
        else:
            carry_dc, carry_dh = carry[..., :d_h, :].copy(), carry[..., d_h:, :].copy()
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
        return A, np.concatenate([carry_dc, carry_dh], axis=-2)

    A = step_products(W_hy.mT, dY, out=time_major(ws.empty("da", lead, B, T, d_h)))
    if carry is None:
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
    return A, carry


def _factors(adj: np.ndarray, states: np.ndarray, cog: np.ndarray, x: np.ndarray,
             spec: CellSpec) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]],
                                      dict[str, np.ndarray]]:
    """The step-major factors of every gradient block, from (T', *lead, k,
    B) adjoints ``adj``, (T'+1, *lead, sd, B) states, cogradients ``cog``
    and inputs ``x``: (weights, biases), by block name. A weight block's
    gradient sums ``a[t, ..., :, c] ⊗ b[t, ..., :, c]`` of its pair (a, b)
    over steps t and batch rows c; a bias's sums the values of its one
    factor. Inputs without the start axis of stacked adjoints are shared by
    the starts and broadcast over it."""
    T = adj.shape[0]
    if x.ndim < adj.ndim:
        x = x[:, None]
    hidden = states[..., spec.state_dim - spec.d_h :, :]
    weights = {"W_hy": (cog, hidden[1:]), "W_hh": (adj, hidden[:T]), "W_xh": (adj, x)}
    return weights, {"b_y": cog, "b_h": adj} if spec.use_biases else {}


def _row_grads(adj: np.ndarray, states: np.ndarray, cog: np.ndarray, x: np.ndarray,
               spec: CellSpec) -> dict[str, np.ndarray]:
    """Every block gradient of one batch row of one start, from its
    factors: each weight block one (i, T') @ (T', j) product, each bias the
    sum over the steps of its factor."""
    weights, biases = _factors(adj, states, cog, x, spec)
    grads = {name: a[..., 0].T @ b[..., 0] for name, (a, b) in weights.items()}
    return grads | {name: a.sum(axis=-1).sum(axis=0) for name, a in biases.items()}


def _write_grads(d_theta: np.ndarray, grads: dict[str, np.ndarray], layout: Layout) -> None:
    """Each block gradient of ``grads`` into its ``layout`` slice of the
    (*lead, n) ``d_theta``, whose lead the gradients carry first."""
    lead = d_theta.shape[:-1]
    for name, grad in grads.items():
        start, stop, _ = layout[name]
        d_theta[..., start:stop] = grad.reshape(lead + (-1,))


# steps per sum of ``_in_step_order``: a weight gradient's per-step products
# are summed over chunks of this many steps, so ``backprop``'s temporary is
# at most this many (i, j) blocks, whatever T' is
_SUM_STEPS = 64


def _in_step_order(chunk, T: int, lead: tuple[int, ...]) -> np.ndarray:
    """A weight block's gradient, the sum of its per-step products over all
    T' steps, where ``chunk(lo, hi)`` gives those of steps lo:hi as one
    (hi - lo, *lead, i, j) array: in chunks of ``_SUM_STEPS`` steps, each
    chunk's sum (``_sum_steps``) added in step order: the one order of
    ``backprop`` and ``checkpointed_loss_grad``."""
    total = _sum_steps(chunk(0, _SUM_STEPS), lead)
    for lo in range(_SUM_STEPS, T, _SUM_STEPS):
        total += _sum_steps(chunk(lo, lo + _SUM_STEPS), lead)
    return total


def _sum_steps(p: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """The sum over the steps of (T', *lead, ...) per-step values, each
    start's with the bits of its unstacked call. numpy sums a start's
    (T', ...) array in step order, but pairwise when a step holds one
    number, so a stack of such starts is summed one start at a time."""
    if lead and p[0, 0].size == 1:
        return per_start(lead, lambda r: p[:, r].sum(axis=0))
    return p.sum(axis=0)


def _weighted_sse(err: np.ndarray, weights: np.ndarray) -> float | np.ndarray:
    """sum_{b,t} weights[b,t] * ||err_{b,t}||^2 of (..., B, T', d_y) errors:
    a float, or one value per start on a leading start axis. The squares
    go to one batch-major temporary, which at d_y = 1 also takes the
    weighting, and are summed in batch-major order whatever the memory of
    ``err``, so a start's sum is the same with or without the other
    starts."""
    squares = np.multiply(err, err, order="C")
    per_step = squares[..., 0] if squares.shape[-1] == 1 else squares.sum(axis=-1)
    per_step *= weights
    loss = np.sum(per_step, axis=(-2, -1))
    return loss if loss.ndim else float(loss)


def _checkpoint_steps(spec: CellSpec, B: int, T: int) -> int:
    """Steps per block of ``_chunk_errors``, the one rule of both
    full-batch passes: all T' (one block) with one batch row, else
    L = max(1, round(√(T'·sd / v))).

    v is what one block of ``checkpointed_loss_grad`` holds per row, start
    and step: the states, the LSTM gates and tanh c, the adjoint buffers
    (``_sweep``) and the outputs. The call holds ⌈T'/L⌉ checkpoints of sd
    values and one block of L·v per row and start, and L minimises their
    sum; ``weighted_loss``, which keeps no checkpoints and no adjoints,
    holds one block of fewer values. One row takes one block because
    ``backprop`` then takes each weight gradient as one product over all
    steps, whose bits a sum of per-step products does not have."""
    if B == 1:
        return T
    d_h, sd = spec.d_h, spec.state_dim
    # gates and tanh c; dz, c_path and dh_out, or da
    cache, adjoints = (5 * d_h, 6 * d_h) if spec.kind == "lstm" else (0, d_h)
    v = sd + cache + adjoints + spec.d_y
    return max(1, round(math.sqrt(T * sd / v)))


def _chunk_errors(params: Params, h0: np.ndarray | None, inputs: np.ndarray,
                  targets: np.ndarray, workspace: Workspace,
                  entries: list | None = None) -> tuple[np.ndarray, Tape]:
    """The errors y - targets of a batch, as one new step-major (..., B, T',
    d_y) array, from forward passes over blocks of L = ``_checkpoint_steps``
    whole steps, and the last block's pass as a ``Tape``: the one chunked
    forward of ``weighted_loss`` and ``checkpointed_loss_grad``. Step-major
    is the memory of a tape's outputs, so as cogradients a block of them is
    whole contiguous steps, as ``_sweep`` reads a tape's.

    Each block is a ``batched_forward`` of every row restarted from the
    last block's states, in ``workspace``. Every step's products keep their
    shape, so with B > 1 the blocks have the one pass's bits; a block of
    fewer rows would not, since a GEMM's bits depend on its column count.
    Every block keeps its cache, as every pass does, so the tape returned
    is the last block's ``record``; each block's pass overwrites the one
    before in ``workspace``, so the call holds one block's. ``entries``,
    when given, gets each block's first step and entry states in order,
    (0, ``h0``) first. A block that goes non-finite sends the call to the
    whole pass, which raises the ``NonFiniteError`` one pass gives; on that
    failure path alone the call holds the whole pass's states, outputs and
    LSTM cache."""
    B, T, _ = inputs.shape
    steps = _checkpoint_steps(params.spec, B, T)
    err = empty_time_major(params.theta.shape[:-1], B, T, params.spec.d_y)
    h = h0
    try:
        for lo in range(0, T, steps):
            if entries is not None:
                entries.append((lo, h))
            chunk = inputs[:, lo : lo + steps]
            states, outputs, cache = batched_forward(params, h, chunk, workspace)
            np.subtract(outputs, targets[:, lo : lo + steps], out=err[..., lo : lo + steps, :])
            h = states[..., -1, :].copy()
    except NonFiniteError:
        batched_forward(params, h0, inputs)
        raise
    return err, Tape(params=params, inputs=chunk, states=states, outputs=outputs, cache=cache)


def weighted_loss(params: Params, h0: np.ndarray | None, inputs: np.ndarray,
                  targets: np.ndarray, weights: np.ndarray) -> float | np.ndarray:
    """sum_{b,t} weights[b,t] * ||y_{b,t} - targets_{b,t}||^2 by forward
    passes alone: bit for bit the loss ``weighted_loss_grad`` returns, one
    per start when ``params`` is stacked.

    The steps run in the blocks of ``checkpointed_loss_grad``
    (``_chunk_errors``), in one ``Workspace``: one block of all steps with
    one row, whose output product takes all steps at once
    (``step_products``). Every block keeps its cache, which the next block
    overwrites, so the call holds one block's states, outputs and cache.
    ``_weighted_sse`` sums the errors of all blocks once."""
    err, _ = _chunk_errors(params, h0, inputs, targets, Workspace())
    return _weighted_sse(err, weights)


def _cogradients(err: np.ndarray, weights: np.ndarray) -> float | np.ndarray:
    """The loss of errors ``err``, which become the cogradients
    2·weights·err of the outputs in place."""
    loss = _weighted_sse(err, weights)
    err *= 2.0 * weights[..., None]
    return loss


def tape_loss_grad(tape: Tape, targets: np.ndarray, weights: np.ndarray,
                   workspace: Workspace | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and gradient of the weighted squared-error sum of a recorded
    batch: ``weighted_loss_grad`` after its forward pass. Every gradient
    the package takes but the checkpointed one goes through here, whoever
    made the tape.

    The tape's ``outputs`` are overwritten, in place: first with the
    errors, then with the cogradients, which ``backprop`` reads (with
    ``workspace`` for its adjoints), step-major like every tape's outputs."""
    # overflow surfaces as a non-finite loss, cogradient (NonFiniteError) or
    # gradient, which every caller checks, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.subtract(tape.outputs, targets, out=tape.outputs)
        loss = _cogradients(err, weights)
        d_theta, d_h0 = backprop(tape, err, workspace)
    return loss, d_theta, d_h0


def weighted_loss_grad(
    params: Params, h0: np.ndarray | None, inputs: np.ndarray,
    targets: np.ndarray, weights: np.ndarray, workspace: Workspace | None = None,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Value and gradient of the weighted squared-error sum.

    weights: (B, T') nonnegative; entries of weight zero are excluded from the
    loss and contribute no cogradient. Returns (loss, d_theta, d_h0 (B, sd)),
    where d_h0 is None for ``h0=None``, the zero states. With R stacked starts
    (theta (R, n), h0 (R, B, sd)) over the shared inputs and targets, and
    weights shared (B, T') or per start (R, B, T'), it returns per-start
    losses (R,), d_theta (R, n) and d_h0 (R, B, sd), slice r bit-identical to
    the unstacked call with start r's theta, h0 and weights. The forward and
    backward pass take their buffers from ``workspace`` when one is given;
    what the call returns is new either way.
    """
    tape = record(params, h0, inputs, workspace)
    loss, d_theta, d_h0 = tape_loss_grad(tape, targets, weights, workspace)
    return loss, d_theta, None if h0 is None else d_h0


def checkpointed_loss_grad(params: Params, inputs: np.ndarray, targets: np.ndarray,
                           weights: np.ndarray, workspace: Workspace | None = None,
                           ) -> tuple[float | np.ndarray, np.ndarray]:
    """(loss, d_theta) of ``weighted_loss_grad`` from ``h0=None``, the zero
    states, bit for bit, in memory that grows with B·√T' rather than B·T':
    gradient checkpointing (Chen et al., arXiv:1604.06174; Gruslys et al.,
    arXiv:1606.03401), unstacked or stacked.

    The forward pass runs in the blocks of ``_chunk_errors``, L =
    ``_checkpoint_steps`` steps each, keeping only the blocks' first steps
    and entry states, the checkpoints, and the last block's tape; the loss
    and cogradients are taken once over all steps, as by
    ``tape_loss_grad``. With one block (one batch row, or a window so short
    that L covers it) that tape is the whole pass's, and ``backprop`` takes
    the gradient. Otherwise the blocks are walked in reverse: ``_sweep``
    runs the last block's tape, and each earlier block is re-``record``-ed
    from its checkpoint and swept with the adjoint carried in from the
    block after it; the per-step products of its gradient factors
    (``_factors``) go to buffers of all T' steps, which are summed once at
    the end, in ``backprop``'s order (``_in_step_order``).
    Every step keeps all B rows, so a restart has the one pass's bits and
    so has every product and sum. Beyond the inputs, targets and weights
    the call holds the (..., B, T', d_y) cogradients, the checkpoints, one
    block's tape and adjoints, and T' weight-gradient-sized products. A
    block that goes non-finite raises the one pass's ``NonFiniteError``, and
    a non-finite cogradient raises it as ``backprop`` does. The passes take
    their buffers from ``workspace`` when one is given; a last block shorter
    than L takes views of the others' (``Workspace.empty``)."""
    lead = params.theta.shape[:-1]
    T = inputs.shape[1]
    ws = workspace if workspace is not None else Workspace()
    entries: list = []
    # overflow surfaces as in ``tape_loss_grad``
    with np.errstate(over="ignore", invalid="ignore"):
        cog, tape = _chunk_errors(params, None, inputs, targets, ws, entries)
        loss = _cogradients(cog, weights)
        if len(entries) == 1:
            return loss, backprop(tape, cog, ws)[0]
        check_finite("output cogradients", cog)
        # per gradient block one value per step: a weight block's (i, B) @ (B, j)
        # products, a bias's sums over the rows, written block after block
        layout = params.layout
        products = {name: np.empty((T, *lead, *shape)) for name, (_, _, shape) in layout.items()}
        carry, hi = None, T
        for lo, h in reversed(entries):
            if hi < T:  # the last block's tape is the last chunk's
                tape = record(params, h, inputs[:, lo:hi], ws)
            block = cog[..., lo:hi, :]
            adj, carry = _sweep(tape, block, carry, ws)
            factors, sums = _factors(adj, time_major(tape.states), time_major(block),
                                     time_major(tape.inputs), params.spec)
            for name, (a, b) in factors.items():
                np.matmul(a, b.mT, out=products[name][lo:hi])
            for name, a in sums.items():
                np.sum(a, axis=-1, out=products[name][lo:hi])
            hi = lo
    # summed as ``backprop`` sums them
    grads = {name: _in_step_order(lambda lo, hi, p=products[name]: p[lo:hi], T, lead)
             for name in factors}
    grads |= {name: _sum_steps(products[name], lead) for name in sums}
    d_theta = np.empty(params.theta.shape)
    _write_grads(d_theta, grads, layout)
    return loss, d_theta


# steps per chunk of ``_scan``: fixed, whatever T' is, so the powers of the
# recurrent matrix it takes stay below A^20
_SCAN_CHUNK = 20

# the largest window N·d_x·d_y that ``linear_window_loss_grad`` serves. Its
# Toeplitz products grow as (N·d_x)·(N·d_y) per window, the step loop's as
# N: at R = 4 and S = 400 - N + 1 the pass took 0.83 of the loop's time at
# 128 and 1.17 at 160 with d_h = 1, the cheapest loop (BENCH_impulse_windows.json)
WINDOW_TERMS = 128


def _powers(A: np.ndarray, L: int) -> np.ndarray:
    """A⁰ … A^L of (*lead, d, d) ``A`` as one (*lead, L+1, d, d) array, by
    doubling: A^(k+1) … A^(2k) are one stacked product of A¹ … A^k with A^k,
    so L powers take log₂ L products, each one GEMM per start and power."""
    lead, d = A.shape[:-2], A.shape[-1]
    powers = np.empty(lead + (L + 1, d, d))
    powers[..., 0, :, :] = np.eye(d)
    powers[..., 1, :, :] = A
    k = 1
    while k < L:
        n = min(k, L - k)
        np.matmul(powers[..., 1 : n + 1, :, :], powers[..., k : k + 1, :, :],
                  out=powers[..., k + 1 : k + n + 1, :, :])
        k += n
    return powers


def _scan(A: np.ndarray, U: np.ndarray, h0: np.ndarray | None) -> np.ndarray:
    """The states h_1 … h_T' of h_t = A h_{t-1} + U_t as the rows of a
    (*lead, T', d) array, for (*lead, d, d) ``A``, (*lead, T', d) ``U`` and
    (*lead, 1, d) ``h0``, or None for zero: a two-level chunked scan in
    place of T' steps.

    The steps split into C chunks of L = ``_SCAN_CHUNK`` (U padded with
    zeros). All chunks run from zero at once, L steps at batch C; the state
    entering each chunk follows from the last one's by A^L, C steps; and
    step j of every chunk adds A^(j+1) times its chunk's entry state, all of
    them in one product, with A¹ … A^L from ``_powers``. Every product is a
    (stacked) matmul with one GEMM per start, so a start's bits do not
    depend on the others. An A^L that overflows makes the result
    non-finite, also where the step loop's states are finite (0·∞)."""
    lead, T, d = U.shape[:-2], U.shape[-2], U.shape[-1]
    L = _SCAN_CHUNK
    C = -(-T // L)
    A_T = A.mT
    local = np.zeros(lead + (C, L, d))
    local.reshape(lead + (C * L, d))[..., :T, :] = U
    for j in range(1, L):
        local[..., j, :] += local[..., j - 1, :] @ A_T
    powers = _powers(A, L)[..., 1:, :, :]  # powers[..., k, :, :] = A^(k+1)
    entry = np.empty(lead + (C, d))
    entry[..., :1, :] = 0.0 if h0 is None else h0
    A_L_T = powers[..., L - 1, :, :].mT
    for c in range(1, C):
        entry[..., c : c + 1, :] = entry[..., c - 1 : c, :] @ A_L_T + local[..., c - 1, -1:, :]
    # (*lead, d, L·d): column (j, o) holds row o of A^(j+1)
    lifts = np.ascontiguousarray(powers.transpose(*range(len(lead)), -1, -3, -2))
    local += (entry @ lifts.reshape(lead + (d, L * d))).reshape(local.shape)
    return local.reshape(lead + (C * L, d))[..., :T, :]


def _loop_where_not_finite(result, checked, params: Params, h0: np.ndarray | None,
                           inputs: np.ndarray, targets: np.ndarray, weights: np.ndarray):
    """``result``, the (loss, d_theta, d_h0) of a linear cell's pass, with
    the step loop's result in place of every start whose loss, gradient or
    ``checked`` intermediate arrays (each with the call's leading start
    shape) are not all finite.

    The loop runs for those starts alone, from zero states when ``h0`` is
    None (and d_h0 is None on both paths), and its ``NonFiniteError`` is
    raised with their indices in the call. So a pass whose arithmetic
    differs from the loop's (a 0·∞ of an overflowing power) never surfaces
    a value the loop would not give, and a start that overflows fails
    exactly as it does through the loop."""
    loss, d_theta, d_h0 = result
    lead = params.theta.shape[:-1]
    finite = np.isfinite(loss)
    for a in (d_theta, *checked) + ((d_h0,) if h0 is not None else ()):
        finite &= np.isfinite(a).reshape(lead + (-1,)).all(axis=-1)
    if finite.all():
        return result
    if not lead:
        return weighted_loss_grad(params, h0, inputs, targets, weights)
    bad = np.flatnonzero(~finite)
    try:
        loop = weighted_loss_grad(Params(params.theta[bad], params.spec),
                                  None if h0 is None else h0[bad], inputs,
                                  targets, weights[bad] if weights.ndim == 3 else weights)
    except NonFiniteError as exc:
        starts = tuple(bad[list(exc.starts)].tolist())
        raise NonFiniteError(exc.where, exc.time_index, starts) from exc
    loss[bad], d_theta[bad] = loop[0], loop[1]
    if h0 is not None:
        d_h0[bad] = loop[2]
    return loss, d_theta, d_h0


def linear_scan_loss_grad(
    params: Params, h0: np.ndarray, inputs: np.ndarray, targets: np.ndarray,
    weights: np.ndarray,
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """``weighted_loss_grad`` of a bias-free linear cell over one batch row
    (inputs (1, T', d_x)), by ``_scan`` in place of the step loop: the same
    arguments but the workspace, unstacked or stacked, and the same return
    contract. The values agree with the loop's to rounding, not bit for
    bit; a stacked start keeps the bits of its unstacked call.

    Forward, the states are the scan of ``W_hh`` over the hoisted input
    product ``W_xh · x``; backward, the adjoints a_t = W_hhᵀ a_{t+1} +
    W_hyᵀ g_t are the scan of ``W_hhᵀ`` over the reversed steps. Each weight
    gradient is one product over all steps and d_h0 = W_hhᵀ a_1; the loss
    is ``_weighted_sse``, as in the loop. A start whose states, cogradients,
    adjoints, loss or gradient are not all finite gets the loop's result
    (``_loop_where_not_finite``)."""
    blocks = params.unpack()
    W_hh, W_xh, W_hy = blocks["W_hh"], blocks["W_xh"], blocks["W_hy"]
    lead = params.theta.shape[:-1]
    x, y = inputs[0], targets[0]
    # overflow surfaces as a non-finite value, sent to the loop
    with np.errstate(over="ignore", invalid="ignore"):
        states = np.empty(lead + (x.shape[0] + 1, W_hh.shape[-1]))  # h_0 … h_T'
        states[..., :1, :] = h0
        states[..., 1:, :] = _scan(W_hh, x @ W_xh.mT, h0)
        cog = np.subtract(states[..., 1:, :] @ W_hy.mT, y)
        loss = _weighted_sse(cog[..., None, :, :], weights)
        cog *= 2.0 * weights[..., 0, :, None]
        adj = np.ascontiguousarray(_scan(W_hh.mT, (cog @ W_hy)[..., ::-1, :], None)[..., ::-1, :])
        d_h0 = adj[..., :1, :] @ W_hh
        d_theta = np.empty(params.theta.shape)
        _write_grads(d_theta, {"W_hh": adj.mT @ states[..., :-1, :], "W_xh": adj.mT @ x,
                               "W_hy": cog.mT @ states[..., 1:, :]}, params.layout)
    return _loop_where_not_finite((loss, d_theta, d_h0), (states, cog, adj), params, h0,
                                  inputs, targets, weights)


@functools.cache
def _window_gathers(N: int, d_x: int, d_y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indices of the window pass's three gathers. The first two are
    flat indices into a source with one zero appended, which they point at
    where a term does not exist:

    * Toeplitz, (N·d_x, N·d_y): entry ((s, a), (t, o)) of Toep(K) is
      K_{t-s}[o, a] for t ≥ s, read from K as (N, d_y, d_x);
    * its adjoint, (N, d_y, d_x, N): entry (j, o, a, s) is M[(s, a), (s+j, o)]
      for s + j < N, read from M as (N·d_x, N·d_y), so summing over s gives
      dK_j;
    * Hankel, (N+1, N+1): entry (j, u) is j + u, the step of dP that
      Λ_j takes through (A^u)ᵀ, in a dP padded with N zero steps.

    Every call with the same shape shares them, so they are read-only."""
    s, a, t, o = np.ix_(range(N), range(d_x), range(N), range(d_y))
    j = t - s
    toeplitz = np.where(j >= 0, (j * d_y + o) * d_x + a, N * d_y * d_x).reshape(N * d_x, N * d_y)
    j, o, a, s = np.ix_(range(N), range(d_y), range(d_x), range(N))
    adjoint = np.where(s + j < N, (s * d_x + a) * (N * d_y) + (s + j) * d_y + o,
                       N * d_x * N * d_y)
    hankel = np.add.outer(range(N + 1), range(N + 1))
    for index in (toeplitz, adjoint, hankel):
        index.flags.writeable = False
    return toeplitz, adjoint, hankel


def linear_window_loss_grad(
    params: Params, h0: np.ndarray | None, inputs: np.ndarray, targets: np.ndarray,
    weights: np.ndarray,
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray | None]:
    """``weighted_loss_grad`` of a bias-free linear cell over S windows
    (inputs (S, N, d_x), targets (S, N, d_y)) through its impulse response,
    with no step loop: the same arguments but the workspace, unstacked or
    stacked, and the same return contract. The values agree with the
    loop's to rounding, not bit for bit; a stacked start keeps the bits of
    its unstacked call. The inputs and targets are read as (S, N·d)
    matrices, so C-contiguous ones are never copied. The one full-size
    buffer is the (..., S, N·d_y) outputs, which become the errors and
    then the cogradients in place.

    Forward: P_j = W_hy·A^j for j = 0…N, with A = W_hh and its powers from
    ``_powers``, and K_j = P_j·W_xh, the Markov parameters of the cell. A
    window's outputs are y_t = Σ_{s≤t} K_{t-s}·x_s + P_t·h0, so all of them
    are X·Toep(K), one (S, N·d_x) @ (N·d_x, N·d_y) GEMM per start, plus
    h0·[P_1…P_N]ᵀ. The loss is ``_weighted_sse``, as in the loop.

    Backward, from the cogradients G: M = Xᵀ·G and dK_j = Σ_s M[s, s+j],
    the adjoint of the Toeplitz gather; dP_j = dK_j·W_xhᵀ + Σ_i G_i[j]·h0_iᵀ
    (the latter for j ≥ 1); Λ_j = Σ_u dP_{j+u}·(A^u)ᵀ, one Hankel-gather
    GEMM; then dW_hy = Λ_0, dW_hh = Σ_j P_jᵀ·Λ_{j+1}, dW_xh = Σ_j P_jᵀ·dK_j
    and d_h0 = G·[P_1…P_N]. Every product is a (stacked) matmul with one
    GEMM per start and every sum runs over one start's own contiguous
    values. A start whose outputs, impulse response, cogradients, loss or
    gradient are not all finite gets the loop's result
    (``_loop_where_not_finite``); a state that overflows while the outputs
    stay finite is never formed here, so that start gets finite values where
    the loop raises ``NonFiniteError``."""
    blocks = params.unpack()
    W_hh, W_xh, W_hy = blocks["W_hh"], blocks["W_xh"], blocks["W_hy"]
    lead = params.theta.shape[:-1]
    S, N, d_x = inputs.shape
    d_y, d_h = W_hy.shape[-2:]
    toeplitz, adjoint, hankel = _window_gathers(N, d_x, d_y)
    X = inputs.reshape(S, N * d_x)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _powers(W_hh, N)  # (..., N+1, d_h, d_h)
        P = W_hy[..., None, :, :] @ powers  # (..., N+1, d_y, d_h)
        K = P[..., :N, :, :] @ W_xh[..., None, :, :]  # (..., N, d_y, d_x)
        K = np.concatenate([K.reshape(lead + (-1,)), np.zeros(lead + (1,))], axis=-1)
        # (..., S, N·d_y): the outputs, then the errors, then the cogradients
        Y = X @ np.take(K, toeplitz, axis=-1)
        P_out = P[..., 1:, :, :].reshape(lead + (N * d_y, d_h))  # [P_1 … P_N]ᵀ
        if h0 is not None:
            Y += h0 @ P_out.mT
        err = np.subtract(Y, targets.reshape(S, N * d_y), out=Y).reshape(lead + (S, N, d_y))
        loss = _weighted_sse(err, weights)
        err *= 2.0 * weights[..., None]
        G = Y

        M = X.T @ G  # (..., N·d_x, N·d_y)
        M = np.concatenate([M.reshape(lead + (-1,)), np.zeros(lead + (1,))], axis=-1)
        dK = np.take(M, adjoint, axis=-1).sum(axis=-1)  # (..., N, d_y, d_x)
        # dP_0 … dP_N, and N zero steps after them for the Hankel gather
        dP = np.zeros(lead + (2 * N + 1, d_y, d_h))
        np.matmul(dK, W_xh.mT[..., None, :, :], out=dP[..., :N, :, :])
        if h0 is not None:
            dP[..., 1 : N + 1, :, :] += (G.mT @ h0).reshape(lead + (N, d_y, d_h))
        H = np.take(dP, hankel, axis=-3)  # (..., N+1 (j), N+1 (u), d_y, d_h)
        H = np.ascontiguousarray(H.swapaxes(-3, -2)).reshape(lead + ((N + 1) * d_y,
                                                                     (N + 1) * d_h))
        # rows (u, h) of the stacked (A^u)ᵀ
        Q = np.ascontiguousarray(powers.mT).reshape(lead + ((N + 1) * d_h, d_h))
        Lam = H @ Q  # Λ_0 … Λ_N, rows (j, o)
        P_in = P[..., :N, :, :].reshape(lead + (N * d_y, d_h))  # [P_0 … P_{N-1}]ᵀ
        d_theta = np.empty(params.theta.shape)
        _write_grads(d_theta, {"W_hh": P_in.mT @ Lam[..., d_y:, :],
                               "W_xh": P_in.mT @ dK.reshape(lead + (N * d_y, d_x)),
                               "W_hy": Lam[..., :d_y, :]}, params.layout)
        d_h0 = None if h0 is None else G @ P_out
    return _loop_where_not_finite((loss, d_theta, d_h0), (P, G), params, h0, inputs, targets,
                                  weights)


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

