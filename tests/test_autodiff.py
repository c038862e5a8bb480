import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from helpers import assert_near_exact, exact_linear_loss_grad, fd_gradient, pack
from tbptt import autodiff
from tbptt.autodiff import (
    backprop,
    record,
    segment_weights,
    weighted_loss,
    weighted_loss_grad,
)
from tbptt.rnn_core import (
    CellSpec, NonFiniteError, Params, Workspace, forward, init_params, per_start,
    start_indices, step_products, time_major,
)


def scalar_linear(a, b, c):
    spec = CellSpec("linear", 1, 1, 1, activation="identity", use_biases=False)
    return pack(spec, {"W_hh": [[a]], "W_xh": [[b]], "W_hy": [[c]]})


def random_cell(kind, rng):
    d_x, d_h, d_y = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
    if kind == "linear":
        spec = CellSpec("linear", d_x, d_h, d_y, activation="identity", use_biases=False)
    else:
        spec = CellSpec(kind, d_x, d_h, d_y)
    return init_params(spec, int(rng.integers(0, 1 << 30)))


def reverse_sweep(params, h0, x, cograds):
    """(d_theta, d_h0) of sum_t <cograds[t], y_t> for one sequence."""
    if h0 is None:
        h0 = np.zeros(params.spec.state_dim)
    tape = record(params, np.asarray(h0, dtype=np.float64)[None], x[None])
    d_theta, d_h0 = backprop(tape, cograds[None])
    return d_theta, d_h0[0]


def row_loss_grad(params, x, yd, m):
    """Burn-in loss of one sequence from the zero state: (loss, d_theta, d_h0)."""
    h0 = np.zeros((1, params.spec.state_dim))
    return weighted_loss_grad(params, h0, x[None], yd[None], segment_weights(x.shape[0], m))


def rel_linf(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-10)


def test_zero_cograds_give_zero_gradient():
    params = init_params(CellSpec("elman", 2, 3, 1), 4)
    x = np.random.default_rng(0).normal(size=(5, 2))
    d_theta, d_h0 = reverse_sweep(params, None, x, np.zeros((5, 1)))
    npt.assert_array_equal(d_theta, 0.0)
    npt.assert_array_equal(d_h0, 0.0)


def test_scalar_linear_single_step_by_hand():
    # y_1 = c (a h_0 + b x_1); cograd 1 gives dc = h_1, db = c x_1, da = c h_0
    a, b, c = 0.5, -1.2, 2.0
    h0, x1 = 0.7, 1.3
    params = scalar_linear(a, b, c)
    d_theta, d_h0 = reverse_sweep(params, np.array([h0]), np.array([[x1]]), np.array([[1.0]]))
    h1 = a * h0 + b * x1
    da, db, dc = d_theta
    assert dc == pytest.approx(h1)
    assert db == pytest.approx(c * x1)
    assert da == pytest.approx(c * h0)
    assert d_h0[0] == pytest.approx(c * a)


def test_backward_linear_in_cograds():
    params = init_params(CellSpec("lstm", 1, 2, 2), 8)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 1))
    u = rng.normal(size=(6, 2))
    v = rng.normal(size=(6, 2))
    gu = reverse_sweep(params, None, x, u)
    gv = reverse_sweep(params, None, x, v)
    guv = reverse_sweep(params, None, x, u + v)
    npt.assert_allclose(guv[0], gu[0] + gv[0], rtol=1e-12, atol=1e-14)
    npt.assert_allclose(guv[1], gu[1] + gv[1], rtol=1e-12, atol=1e-14)


def test_backward_rejects_nonfinite_cograds():
    params = init_params(CellSpec("elman", 1, 2, 1), 1)
    x = np.ones((3, 1))
    cg = np.ones((3, 1))
    cg[1] = np.nan
    with pytest.raises(NonFiniteError):
        reverse_sweep(params, None, x, cg)


def test_gradient_matches_fd_all_cells():
    rng = np.random.default_rng(17)
    for kind in ("linear", "elman", "lstm"):
        for _ in range(4):
            params = random_cell(kind, rng)
            n = int(rng.integers(3, 13))
            m = int(rng.integers(0, n))
            x = rng.normal(size=(n, params.spec.d_x))
            yd = rng.normal(size=(n, params.spec.d_y))
            _, d_theta, d_h0 = row_loss_grad(params, x, yd, m)
            fd_theta, fd_h0 = fd_gradient(params, x, yd, m)
            assert rel_linf(d_theta, fd_theta) < 1e-6
            assert np.max(np.abs(d_h0 - fd_h0)) < 1e-6 * max(1.0, np.max(np.abs(fd_h0)))


def test_initial_state_gradient_directional():
    params = init_params(CellSpec("elman", 1, 3, 1), 23)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 1))
    yd = rng.normal(size=(7, 1))
    w = segment_weights(7, 2)
    h0 = np.zeros((1, 3))
    loss0, _, d_h0 = weighted_loss_grad(params, h0, x[None], yd[None], w)
    v = rng.normal(size=3)
    eps = 1e-6
    up = weighted_loss(params, h0 + eps * v, x[None], yd[None], w)
    dn = weighted_loss(params, h0 - eps * v, x[None], yd[None], w)
    assert (up - dn) / (2 * eps) == pytest.approx(float(d_h0[0] @ v), rel=1e-5)


def test_loss_grad_perfect_fit():
    # a = 0 makes the data realizable from the zero state at every step
    params = scalar_linear(0.0, 1.0, 2.0)
    x = np.random.default_rng(6).normal(size=(5, 1))
    loss, d_theta, _ = row_loss_grad(params, x, 2.0 * x, 0)
    assert loss == pytest.approx(0.0, abs=1e-24)
    start, stop, _ = params.layout["W_hy"]
    npt.assert_allclose(d_theta[start:stop], 0.0, atol=1e-12)


def test_loss_grad_max_burn_in_single_term():
    params = scalar_linear(0.3, 1.0, 1.0)
    x = np.ones((4, 1))
    yd = np.zeros((4, 1))
    loss, _, _ = row_loss_grad(params, x, yd, 3)
    y4 = forward(params, None, x).outputs[3, 0]
    assert loss == pytest.approx(y4**2)


def test_loss_grad_hand_value():
    # predictions equal the inputs (a=0, b=c=1); inputs (0,2,3), targets (0,1,1)
    params = scalar_linear(0.0, 1.0, 1.0)
    x = np.array([[0.0], [2.0], [3.0]])
    yd = np.array([[0.0], [1.0], [1.0]])
    loss, _, _ = row_loss_grad(params, x, yd, 1)
    assert loss == pytest.approx(((2 - 1) ** 2 + (3 - 1) ** 2) / 2)


def test_loss_grad_burn_in_range_checked():
    params = scalar_linear(0.1, 1.0, 1.0)
    x = np.ones((3, 1))
    with pytest.raises(ValueError):
        row_loss_grad(params, x, x, 3)
    with pytest.raises(ValueError):
        row_loss_grad(params, x, x, -1)


def test_fd_quadratic_self_consistency():
    # single step, loss quadratic in each coordinate around this point
    params = scalar_linear(0.4, 0.8, 1.1)
    x, yd = np.array([[1.5]]), np.array([[0.3]])
    _, d_theta, _ = row_loss_grad(params, x, yd, 0)
    fd_theta, _ = fd_gradient(params, x, yd, 0)
    npt.assert_allclose(fd_theta, d_theta, rtol=1e-9, atol=1e-12)


def test_fd_near_zero_at_stationary_point():
    params = scalar_linear(0.0, 1.0, 2.0)
    x = np.random.default_rng(7).normal(size=(4, 1))
    fd_theta, _ = fd_gradient(params, x, 2.0 * x, 0, step=1e-5)
    assert np.max(np.abs(fd_theta)) < 1e-8


def test_fd_second_order_convergence():
    params = init_params(CellSpec("elman", 1, 2, 1), 31)
    rng = np.random.default_rng(9)
    x, yd = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
    _, d_theta, _ = row_loss_grad(params, x, yd, 1)
    err_big = np.max(np.abs(fd_gradient(params, x, yd, 1, step=2e-4)[0] - d_theta))
    err_small = np.max(np.abs(fd_gradient(params, x, yd, 1, step=1e-4)[0] - d_theta))
    assert err_small < err_big
    assert err_big / max(err_small, 1e-18) == pytest.approx(4.0, rel=0.8)


# --- the hoisted backward sweep against the per-step sweep ---------------------


def per_step_backprop(tape, cograds):
    """Reverse sweep that accumulates every weight gradient inside the time
    loop, one step at a time: the reference for ``backprop``."""
    spec = tape.params.spec
    blocks = tape.params.unpack()
    B, T, _ = tape.inputs.shape
    W_hh, W_hy = blocks["W_hh"], blocks["W_hy"]
    d_h = spec.d_h
    read = tape.states[:, 1:, d_h:] if spec.kind == "lstm" else tape.states[:, 1:]
    grads = {
        "W_hy": np.einsum("bti,btj->ij", cograds, read),
        "W_hh": np.zeros_like(W_hh),
        "W_xh": np.zeros_like(blocks["W_xh"]),
    }
    if spec.use_biases:
        grads["b_y"] = cograds.sum(axis=(0, 1))
        grads["b_h"] = np.zeros_like(blocks["b_h"])
    if spec.kind == "lstm":
        gates, tanh_c = tape.cache["gates"], tape.cache["tanh_c"]
        carry_dc = np.zeros((B, d_h))
        carry_dh = np.zeros((B, d_h))
        for t in range(T - 1, -1, -1):
            dh = cograds[:, t] @ W_hy + carry_dh
            gi, gf = gates[:, t, :d_h], gates[:, t, d_h : 2 * d_h]
            gg, go = gates[:, t, 2 * d_h : 3 * d_h], gates[:, t, 3 * d_h :]
            tc = tanh_c[:, t]
            do = dh * tc
            dc = carry_dc + dh * go * (1.0 - tc * tc)
            dz = np.concatenate([
                dc * gg * gi * (1.0 - gi),
                dc * tape.states[:, t, :d_h] * gf * (1.0 - gf),
                dc * gi * (1.0 - gg * gg),
                do * go * (1.0 - go),
            ], axis=1)
            grads["W_xh"] += dz.T @ tape.inputs[:, t]
            grads["W_hh"] += dz.T @ tape.states[:, t, d_h:]
            if spec.use_biases:
                grads["b_h"] += dz.sum(axis=0)
            carry_dh = dz @ W_hh
            carry_dc = dc * gf
        d_h0 = np.concatenate([carry_dc, carry_dh], axis=1)
    else:
        carry = np.zeros((B, d_h))
        for t in range(T - 1, -1, -1):
            dh = cograds[:, t] @ W_hy + carry
            h_new = tape.states[:, t + 1]
            if spec.activation == "tanh":
                da = dh * (1.0 - h_new * h_new)
            elif spec.activation == "relu":
                da = dh * (h_new > 0.0)
            else:
                da = dh
            grads["W_hh"] += da.T @ tape.states[:, t]
            grads["W_xh"] += da.T @ tape.inputs[:, t]
            if spec.use_biases:
                grads["b_h"] += da.sum(axis=0)
            carry = da @ W_hh
        d_h0 = carry
    return pack(spec, grads).theta, d_h0


KERNEL_CELLS = {
    "linear": CellSpec("linear", 2, 3, 2, activation="identity", use_biases=False),
    "elman-tanh": CellSpec("elman", 2, 3, 2, activation="tanh"),
    "elman-relu": CellSpec("elman", 2, 3, 2, activation="relu"),
    "lstm": CellSpec("lstm", 2, 3, 2),
}


def contracting(params):
    """``params`` with W_hh scaled to spectral norm 0.9: a contracting
    recurrence keeps 400-step gradients in range."""
    w_hh = params.block("W_hh")
    return params.with_block("W_hh", w_hh * (0.9 / np.linalg.norm(w_hh, 2)))


@pytest.mark.parametrize("T", [1, 2, 21, 400])
@pytest.mark.parametrize("B", [1, 3, 64])
@pytest.mark.parametrize("cell", list(KERNEL_CELLS))
def test_backprop_matches_per_step_sweep(cell, B, T):
    spec = KERNEL_CELLS[cell]
    params = contracting(init_params(spec, 41))
    rng = np.random.default_rng(B * 1000 + T)
    h0 = rng.normal(size=(B, spec.state_dim))
    tape = record(params, h0, rng.normal(size=(B, T, spec.d_x)))
    cograds = rng.normal(size=(B, T, spec.d_y))
    d_theta, d_h0 = backprop(tape, cograds)
    ref_theta, ref_h0 = per_step_backprop(tape, cograds)
    for name, (start, stop, _) in params.layout.items():
        assert rel_linf(d_theta[start:stop], ref_theta[start:stop]) < 1e-12, name
    assert rel_linf(d_h0, ref_h0) < 1e-12

    # R = 3 stacked starts, each with its own parameters, initial states and
    # cograds over the shared inputs, against each start's unstacked oracle
    R = 3
    starts = [contracting(init_params(spec, 42 + r)) for r in range(R)]
    stacked_h0 = rng.normal(size=(R, B, spec.state_dim))
    stacked_cograds = rng.normal(size=(R, B, T, spec.d_y))
    stacked = record(Params(np.stack([p.theta for p in starts]), spec), stacked_h0, tape.inputs)
    d_theta, d_h0 = backprop(stacked, stacked_cograds)
    for r, start_params in enumerate(starts):
        alone = record(start_params, stacked_h0[r], tape.inputs)
        ref_theta, ref_h0 = per_step_backprop(alone, stacked_cograds[r])
        for name, (start, stop, _) in params.layout.items():
            assert rel_linf(d_theta[r, start:stop], ref_theta[start:stop]) < 1e-12, (r, name)
        assert rel_linf(d_h0[r], ref_h0) < 1e-12, r


def test_elman_backprop_allocates_one_states_sized_buffer():
    # a full-length temporary beyond the adjoint buffer would double the excess
    B, T = 64, 200
    spec = CellSpec("elman", 2, 8, 1)
    params = init_params(spec, 5)
    rng = np.random.default_rng(0)
    tape = record(params, np.zeros((B, spec.state_dim)), rng.normal(size=(B, T, spec.d_x)))
    cograds = rng.normal(size=(B, T, spec.d_y))
    backprop(tape, cograds)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        backprop(tape, cograds)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    per_step = B * spec.state_dim * tape.states.itemsize
    assert peak <= tape.states.nbytes + 16 * per_step + 32 * 1024


def test_lstm_backprop_memory_is_bounded_by_its_gate_buffer():
    # the gate-sized dz buffer and two (B, T', d_h) buffers make 1.5 gate
    # buffers; a full-length temporary in the carry-free set-up would exceed 1.6
    B, T = 64, 200
    spec = CellSpec("lstm", 2, 8, 1)
    params = init_params(spec, 5)
    rng = np.random.default_rng(0)
    tape = record(params, np.zeros((B, spec.state_dim)), rng.normal(size=(B, T, spec.d_x)))
    cograds = rng.normal(size=(B, T, spec.d_y))
    backprop(tape, cograds)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        backprop(tape, cograds)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * tape.cache["gates"].nbytes + 32 * 1024


@pytest.mark.parametrize("S", [1000, 4000])
def test_weighted_loss_memory_is_its_errors_and_one_chunk(S):
    # N = 50 steps in chunks of the checkpointed gradient's blocks (3 steps
    # at both S): beyond the errors and their squares, the peak is one chunk
    # and a few steps of every row, not the pass's states and gates
    # (S·51·8 and S·50·16 values)
    N, spec = 50, CellSpec("lstm", 1, 4, 1)
    params = init_params(spec, 5)
    rng = np.random.default_rng(0)
    h0 = np.zeros((S, spec.state_dim))
    x, y = rng.normal(size=(S, N, spec.d_x)), rng.normal(size=(S, N, spec.d_y))
    w = segment_weights(N, 5, S)
    weighted_loss(params, h0, x, y, w)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        weighted_loss(params, h0, x, y, w)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    errors = y.nbytes
    one_step = S * (spec.state_dim + 4 * spec.d_h + spec.d_y + spec.d_x) * y.itemsize
    steps = autodiff._checkpoint_steps(spec, S, N)
    assert steps == 3
    assert peak <= 2 * errors + steps * one_step + 4 * one_step + 32 * 1024


def block_grads(tape, cograds, adjoint, r) -> dict[str, np.ndarray]:
    """Start r's block gradients from ``backprop``'s adjoint buffer, by the
    products ``backprop`` makes after its loop, over the same memory: per
    step, a (k, B) @ (B, j) product of step-major blocks, summed over the
    steps in order (B > 1, T' <= 64: one chunk of steps)."""
    spec = tape.params.spec
    T = tape.inputs.shape[1]
    d_h, sd = spec.d_h, spec.state_dim
    adj = time_major(adjoint[r])  # (T', k, B)
    hidden = time_major(tape.states[r])[:, sd - d_h :]
    g = time_major(cograds[r])
    grads = {
        "W_hy": np.matmul(g, hidden[1:].mT).sum(axis=0),
        "W_hh": np.matmul(adj, hidden[:T].mT).sum(axis=0),
        "W_xh": np.matmul(adj, time_major(tape.inputs).mT).sum(axis=0),
    }
    if spec.use_biases:
        grads["b_y"] = g.sum(axis=-1).sum(axis=0)
        grads["b_h"] = adj.sum(axis=-1).sum(axis=0)
    return grads


@pytest.mark.parametrize("R", [None, 3])
@pytest.mark.parametrize("cell", list(KERNEL_CELLS))
def test_backprop_writes_pack_of_its_block_gradients(cell, R):
    # the adjoint buffer backprop leaves in its workspace: da for
    # linear/Elman cells, dz for the LSTM
    spec = KERNEL_CELLS[cell]
    lead = (R,) if R else ()
    B, T = 5, 7
    rng = np.random.default_rng(17)
    theta = np.stack([init_params(spec, 60 + r).theta for r in range(R or 1)]).reshape(
        lead + (-1,))
    tape = record(Params(theta, spec), rng.normal(size=lead + (B, spec.state_dim)),
                  rng.normal(size=(B, T, spec.d_x)))
    cograds = rng.normal(size=lead + (B, T, spec.d_y))
    workspace = Workspace()
    d_theta, _ = backprop(tape, cograds, workspace)
    adjoint = workspace.buffers["dz" if spec.kind == "lstm" else "da"]
    want = per_start(lead, lambda r: pack(spec, block_grads(tape, cograds, adjoint, r)).theta)
    assert d_theta.shape == want.shape
    assert d_theta.tobytes() == want.tobytes()


# --- starts stacked on a leading model axis -------------------------------------

STACK_CELLS = [
    CellSpec("linear", 2, 3, 2, activation="identity", use_biases=False),
    CellSpec("elman", 2, 3, 2, activation="tanh"),
    CellSpec("elman", 2, 3, 2, activation="relu"),
    CellSpec("lstm", 2, 3, 2),
]
# d_x = d_y = 1, the CLI's shape: W_hyᵀ · dY is an outer product; at d_h = 1
# every weight block and b_y are single numbers, summed pairwise over the steps
SCALAR_IO_CELLS = [
    CellSpec("linear", 1, 2, 1, activation="identity", use_biases=False),
    CellSpec("elman", 1, 1, 1, activation="tanh"),
    CellSpec("lstm", 1, 3, 1),
]


@pytest.mark.parametrize("B", [1, 16, 380])
@pytest.mark.parametrize("spec", STACK_CELLS + SCALAR_IO_CELLS, ids=lambda s: (
    f"{s.kind}-{s.activation}" + ("" if s in STACK_CELLS else f"-d_h{s.d_h}-scalar-io")))
def test_stacked_loss_grad_slices_equal_unstacked_calls(spec, B):
    # B = 1 rows of T = 400 (coupled), B = 16 rows of T = 70 (more than one
    # chunk of step products) and B = 380 rows of T = 21 (tbptt, unconstrained);
    # slice r of each stacked array has the bits of start r's unstacked call
    R, T = 3, {1: 400, 16: 70, 380: 21}[B]
    rng = np.random.default_rng(B)
    theta = np.stack([init_params(spec, 40 + r).theta for r in range(R)])
    h0 = rng.normal(size=(R, B, spec.state_dim))
    x = rng.normal(size=(B, T, spec.d_x))
    y = rng.normal(size=(B, T, spec.d_y))
    w = segment_weights(T, 5, B)
    tape = record(Params(theta, spec), h0, x)
    loss, d_theta, d_h0 = weighted_loss_grad(Params(theta, spec), h0, x, y, w)
    assert loss.shape == (R,)
    assert d_theta.shape == theta.shape
    assert d_h0.shape == h0.shape
    for r in range(R):
        alone = record(Params(theta[r], spec), h0[r], x)
        npt.assert_array_equal(tape.states[r], alone.states)
        npt.assert_array_equal(tape.outputs[r], alone.outputs)
        want_loss, want_theta, want_h0 = weighted_loss_grad(Params(theta[r], spec), h0[r], x, y, w)
        assert loss[r] == want_loss
        assert d_theta[r].tobytes() == want_theta.tobytes()
        assert d_h0[r].tobytes() == want_h0.tobytes()
    # one workspace for repeated calls: the same bits, in the same buffers,
    # none of which the call returns
    workspace = Workspace()
    first = weighted_loss_grad(Params(theta, spec), h0, x, y, w, workspace)
    kept = dict(workspace.buffers)
    again = weighted_loss_grad(Params(theta, spec), h0, x, y, w, workspace)
    for got in (first, again):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, (loss, d_theta, d_h0)))
    assert workspace.buffers.keys() == kept.keys()
    assert all(workspace.buffers[name] is a for name, a in kept.items())
    assert not any(np.shares_memory(a, b) for a in first[1:] for b in kept.values())


@pytest.mark.parametrize("lead", [(), (3,)], ids=["unstacked", "stacked"])
@pytest.mark.parametrize("B", [1, 5])
def test_outer_step_products_have_the_gemm_bits(B, lead):
    # k = 1: a broadcast product, whose -0.0 products come out as the +0.0
    # of the K = 1 GEMM
    rng = np.random.default_rng(B)
    w = rng.normal(size=lead + (4, 1))
    a = rng.normal(size=(6,) + lead + (1, B))
    a[::2] *= 0.0  # zeros of both signs
    w[..., 1, 0] = -0.0
    want = np.matmul(w, a)
    got = step_products(w, a, np.empty_like(want))
    assert got.shape == want.shape
    assert np.signbit(np.multiply(w, a)).sum() > np.signbit(want).sum()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("per_start_weights", [False, True])
@pytest.mark.parametrize("spec", STACK_CELLS, ids=lambda s: f"{s.kind}-{s.activation}")
def test_stacked_loss_equals_loss_grad_per_start(spec, per_start_weights, monkeypatch):
    # T = 8 steps in chunks of one step, of three (8 is no multiple of 3),
    # of all eight, and in a chunk larger than the pass; with one row the
    # pass is one chunk, as the rule keeps it (one row in chunks of one step
    # loses the bits on numpy's baseline kernels). Each start's loss has the
    # bits of its gradient call's, stacked and unstacked; from h0=None, those
    # of zero states, with no initial-state gradient.
    R, T = 2, 8
    rng = np.random.default_rng(3)
    params = Params(np.stack([init_params(spec, 50 + r).theta for r in range(R)]), spec)
    for B in (10, 1):
        h0 = rng.normal(size=(R, B, spec.state_dim))
        x, y = rng.normal(size=(B, T, spec.d_x)), rng.normal(size=(B, T, spec.d_y))
        if per_start_weights:
            w = np.stack([segment_weights(T, m, B) for m in (0, 3)])
        else:
            w = segment_weights(T, 3, B)
        want, _, _ = weighted_loss_grad(params, h0, x, y, w)
        zero_loss, zero_theta, _ = weighted_loss_grad(params, np.zeros_like(h0), x, y, w)
        none_loss, none_theta, none_h0 = weighted_loss_grad(params, None, x, y, w)
        assert none_loss.tobytes() == zero_loss.tobytes() and none_h0 is None
        assert none_theta.tobytes() == zero_theta.tobytes()
        for steps in (1, 3, T, 100):
            monkeypatch.setattr(autodiff, "_checkpoint_steps",
                                lambda spec, B, T: T if B == 1 else steps)
            loss = weighted_loss(params, h0, x, y, w)
            assert loss.shape == (R,)
            npt.assert_array_equal(loss, want)
            npt.assert_array_equal(weighted_loss(params, None, x, y, w), zero_loss)
            for r in range(R):
                w_r = w[r] if per_start_weights else w
                start = Params(params.theta[r], spec), h0[r], x, y, w_r
                assert weighted_loss(*start) == want[r] == weighted_loss_grad(*start)[0]
                loss, d_theta, d_h0 = weighted_loss_grad(Params(params.theta[r], spec), None, x, y,
                                                         w_r)
                assert weighted_loss(Params(params.theta[r], spec), None, x, y, w_r) == loss
                assert loss == zero_loss[r] and d_h0 is None
                assert d_theta.tobytes() == zero_theta[r].tobytes()


def test_stacked_nonfinite_error_names_only_the_overflowing_start(monkeypatch):
    stable, wild = scalar_linear(0.5, 1.0, 1.0), scalar_linear(1e4, 1e4, 1e4)
    theta = np.stack([stable.theta, wild.theta, stable.theta])
    x = np.ones((2, 300, 1))
    with pytest.raises(NonFiniteError) as alone:
        forward(wild, None, x[0])
    with pytest.raises(NonFiniteError) as err:
        weighted_loss_grad(Params(theta, wild.spec), np.zeros((3, 2, 1)), x, x,
                           segment_weights(300, 0, 2))
    assert err.value.starts == (1,)
    assert err.value.time_index == alone.value.time_index
    assert "in starts [1]" in str(err.value)
    assert alone.value.starts is None
    # the value-only loss in chunks of ten steps: a start that overflows in
    # a later chunk than the first one is still named, as by one pass
    slow = scalar_linear(1e2, 1e2, 1e2)
    theta = np.vstack([theta, slow.theta])
    w = segment_weights(300, 0, 2)
    with pytest.raises(NonFiniteError) as both:
        weighted_loss_grad(Params(theta, wild.spec), np.zeros((4, 2, 1)), x, x, w)
    monkeypatch.setattr(autodiff, "_checkpoint_steps", lambda *args: 10)
    with pytest.raises(NonFiniteError) as chunked:
        weighted_loss(Params(theta, wild.spec), np.zeros((4, 2, 1)), x, x, w)
    assert both.value.starts == chunked.value.starts == (1, 3)
    assert chunked.value.time_index == both.value.time_index == alone.value.time_index


# --- the chunked linear scan against the step loop ---------------------------

L = autodiff._SCAN_CHUNK
SCAN_CELLS = [CellSpec("linear", 1, 2, 1, activation="identity", use_biases=False),
              KERNEL_CELLS["linear"]]


def scan_case(spec, T, R=None):
    """Contracting linear starts (stacked when R is given) over one row of
    T steps, with coupled-style weights: zero over a burn-in, then
    uneven."""
    rng = np.random.default_rng(T)
    thetas = [contracting(init_params(spec, 60 + r)).theta for r in range(R or 1)]
    params = Params(np.stack(thetas) if R else thetas[0], spec)
    h0 = rng.normal(size=(R,) * bool(R) + (1, spec.state_dim))
    x, y = rng.normal(size=(1, T, spec.d_x)), rng.normal(size=(1, T, spec.d_y))
    w = rng.integers(0, 4, size=(1, T)) / T
    w[:, : T // 4] = 0.0
    return params, h0, x, y, w


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("R", [None, 3], ids=["unstacked", "stacked"])
@pytest.mark.parametrize("T", [1, L - 1, L, L + 1, 2 * L + 3, 400])
@pytest.mark.parametrize("spec", SCAN_CELLS, ids=["d_h2", "d_h3"])
def test_scan_matches_the_loop(spec, T, R):
    # loss, d_theta and d_h0 within 1e-13 of the loop's, relative to each
    # value's largest magnitude; a stacked start has its unstacked call's bits
    params, h0, x, y, w = scan_case(spec, T, R)
    got = autodiff.linear_scan_loss_grad(params, h0, x, y, w)
    want = weighted_loss_grad(params, h0, x, y, w)
    for a, b in zip(got, want):
        assert np.shape(a) == np.shape(b)
        assert rel_linf(np.asarray(a), np.asarray(b)) <= 1e-13
    for r in range(R or 0):
        alone = autodiff.linear_scan_loss_grad(Params(params.theta[r], spec), h0[r], x, y, w)
        assert_same_bits((got[0][r], got[1][r], got[2][r]), alone)


@pytest.mark.parametrize("A", [np.zeros((2, 2)), np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])],
                         ids=["zero", "identity", "nilpotent"])
def test_scan_degenerate_recurrences(A):
    params, h0, x, y, w = scan_case(SCAN_CELLS[0], 2 * L + 3)
    params = params.with_block("W_hh", A)
    got = autodiff.linear_scan_loss_grad(params, h0, x, y, w)
    want = weighted_loss_grad(params, h0, x, y, w)
    for a, b in zip(got, want):
        assert rel_linf(np.asarray(a), np.asarray(b)) <= 1e-13
    # h_t = W_xh x_t exactly when A = 0
    if not A.any():
        states = autodiff._scan(A, x[0] @ params.block("W_xh").T, h0)
        npt.assert_array_equal(states, x[0] @ params.block("W_xh").T)


# --- one fallback for both linear passes ------------------------------------

N_W = 21  # the window pass's cases: bench-linear's N, so A^N_W of 1e20·I overflows


def window_case(spec, S, N, R=None):
    """Contracting linear starts (stacked when R is given) over S windows of
    N steps, with free initial states and burn-in weights."""
    rng = np.random.default_rng(S * 100 + N)
    thetas = [contracting(init_params(spec, 70 + r)).theta for r in range(R or 1)]
    params = Params(np.stack(thetas) if R else thetas[0], spec)
    h0 = rng.normal(size=(R,) * bool(R) + (S, spec.state_dim))
    x, y = rng.normal(size=(S, N, spec.d_x)), rng.normal(size=(S, N, spec.d_y))
    return params, h0, x, y, segment_weights(N, N // 4, S)


# each linear pass with a case of its shape: one row of T = 2L + 3 steps for
# the scan, five windows of N_W steps for the window pass
LINEAR_PASSES = {
    "scan": (autodiff.linear_scan_loss_grad, lambda spec, R: scan_case(spec, 2 * L + 3, R)),
    "windows": (autodiff.linear_window_loss_grad, lambda spec, R: window_case(spec, 5, N_W, R)),
}


def both_passes(stacked):
    """(path, R) over both linear passes, unstacked and with ``stacked``
    starts; the scan's cases keep the ids they had before the window pass."""
    return pytest.mark.parametrize(
        ("path", "R"), [("scan", None), ("scan", stacked), ("windows", None), ("windows", stacked)],
        ids=["unstacked", "stacked", "windows-unstacked", "windows-stacked"])


@both_passes(2)
def test_scan_overflowing_power_returns_the_loop_values(path, R):
    # from h0 = 0 with W_xh = 0 every state of the loop is exactly zero and
    # finite, and W_hy = 0 keeps its adjoints zero; A^20 = 1e400 overflows,
    # so the pass alone gives 0·∞ (the scan's states, the window pass's
    # impulse response W_hy·A^j). A stacked finite start keeps its pass's bits.
    spec = SCAN_CELLS[0]
    linear_pass, case = LINEAR_PASSES[path]
    params, h0, x, y, w = case(spec, R)
    wild = pack(spec, {"W_hh": 1e20 * np.eye(2), "W_xh": [[0.0], [0.0]], "W_hy": [[0.0, 0.0]]})
    zero = np.zeros(h0.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        if path == "scan":
            alone = autodiff._scan(wild.block("W_hh"), np.zeros((2 * L + 3, 2)), zero)
        else:
            alone = wild.block("W_hy") @ autodiff._powers(wild.block("W_hh"), N_W)
    assert not np.isfinite(alone).all()
    want = weighted_loss_grad(wild, zero, x, y, w)
    assert all(np.isfinite(a).all() for a in want)
    if R is None:
        assert_same_bits(linear_pass(wild, zero, x, y, w), want)
        if path == "windows":  # zero starts: the loop's loss and d_theta, no d_h0
            loss, d_theta, d_h0 = linear_pass(wild, None, x, y, w)
            assert d_h0 is None
            assert_same_bits((loss, d_theta), want[:2])
        return
    theta = params.theta.copy()
    theta[1] = wild.theta
    h0 = np.zeros((R,) + zero.shape)
    per_start = np.stack([w[:, ::-1], w])  # per-start weights, start 1's as above
    loss, d_theta, d_h0 = linear_pass(Params(theta, spec), h0, x, y, per_start)
    assert_same_bits((loss[1], d_theta[1], d_h0[1]), want)
    finite = linear_pass(Params(theta[0], spec), h0[0], x, y, per_start[0])
    assert_same_bits((loss[0], d_theta[0], d_h0[0]), finite)


@both_passes(3)
def test_scan_diverging_start_raises_the_loop_error(path, R):
    # the loop's states overflow under 1e3·I over the scan's 400 steps, and
    # under 1e20·I over the window pass's N_W
    spec = SCAN_CELLS[0]
    linear_pass = LINEAR_PASSES[path][0]
    if path == "scan":
        (params, h0, x, y, w), scale = scan_case(spec, 400, R), 1e3
    else:
        (params, h0, x, y, w), scale = window_case(spec, 5, N_W, R), 1e20
    wild = pack(spec, {"W_hh": scale * np.eye(2), "W_xh": [[1.0], [1.0]], "W_hy": [[1.0, 1.0]]})
    if R is None:
        params = wild
    else:
        theta = params.theta.copy()
        theta[1] = wild.theta
        params = Params(theta, spec)
    with pytest.raises(NonFiniteError) as loop:
        weighted_loss_grad(params, h0, x, y, w)
    with pytest.raises(NonFiniteError) as scan:
        linear_pass(params, h0, x, y, w)
    assert loop.value.where == "forward pass"
    assert loop.value.starts == (None if R is None else (1,))
    got, want = scan.value, loop.value
    assert (got.where, got.time_index, got.starts) == (want.where, want.time_index, want.starts)
    assert str(got) == str(want)


# --- the window pass through the impulse response ---------------------------

# d_x = d_y = 1 (the CLI's shape) and a wider cell
WINDOW_CELLS = [SCAN_CELLS[0], CellSpec("linear", 2, 3, 3, activation="identity",
                                        use_biases=False)]


def exact_window_loss_grad(params, h0, x, y, w):
    """One start's exact loss, gradient in theta's order and flat d_h0 over
    the windows: ``exact_linear_loss_grad`` of every window, summed."""
    blocks = params.unpack()
    loss, grad, d_h0 = 0, [0] * params.theta.size, []
    for i in range(x.shape[0]):
        start = np.zeros(params.spec.d_h) if h0 is None else h0[i]
        value, grads, d_start = exact_linear_loss_grad(
            blocks["W_hh"], blocks["W_xh"], blocks["W_hy"], start, x[i], y[i], w[i])
        flat = [g for name in params.layout for row in grads[name] for g in row]
        loss, grad, d_h0 = loss + value, [a + b for a, b in zip(grad, flat)], d_h0 + d_start
    return loss, grad, d_h0


@pytest.mark.parametrize("R", [None, 2], ids=["unstacked", "stacked"])
@pytest.mark.parametrize("free", [False, True], ids=["zero-starts", "free-starts"])
@pytest.mark.parametrize("spec", WINDOW_CELLS, ids=["scalar-io", "d_x2-d_y3"])
def test_window_pass_lies_near_the_exact_values(spec, free, R):
    # loss, d_theta and d_h0 within 1e-13 of the exact values, relative to
    # each one's largest magnitude
    params, h0, x, y, w = window_case(spec, 4, 12, R)
    h0 = h0 if free else None
    loss, d_theta, d_h0 = autodiff.linear_window_loss_grad(params, h0, x, y, w)
    assert (d_h0 is None) == (not free)
    for r in start_indices(params.theta.shape[:-1]):
        start = Params(params.theta[r], spec)
        exact_loss, exact_grad, exact_h0 = exact_window_loss_grad(
            start, None if h0 is None else h0[r], x, y, w)
        assert_near_exact([np.asarray(loss)[r]], [exact_loss], 1e-13)
        assert_near_exact(d_theta[r], exact_grad, 1e-13)
        if free:
            assert_near_exact(d_h0[r].ravel(), exact_h0, 1e-13)


@pytest.mark.parametrize("R", [None, 2], ids=["unstacked", "stacked"])
@pytest.mark.parametrize("steps", [7, 3, 2], ids=["one-block", "short-last-block", "blocks"])
@pytest.mark.parametrize("spec", WINDOW_CELLS, ids=["scalar-io", "d_x2-d_y3"])
def test_full_batch_passes_lie_near_the_exact_values(monkeypatch, spec, steps, R):
    # the full-batch value and gradient over S windows of N = 7 steps from
    # zero, in one block, in blocks of three (a one-step last block) and of
    # two: loss and d_theta within 1e-13 of the exact values
    params, _, x, y, w = window_case(spec, 6, 7, R)
    monkeypatch.setattr(autodiff, "_checkpoint_steps", lambda *args: steps)
    value = weighted_loss(params, None, x, y, w)
    loss, d_theta = autodiff.checkpointed_loss_grad(params, x, y, w)
    for r in start_indices(params.theta.shape[:-1]):
        exact_loss, exact_grad, _ = exact_window_loss_grad(Params(params.theta[r], spec), None,
                                                           x, y, w)
        assert_near_exact([np.asarray(value)[r]], [exact_loss], 1e-13)
        assert_near_exact([np.asarray(loss)[r]], [exact_loss], 1e-13)
        assert_near_exact(d_theta[r], exact_grad, 1e-13)


@pytest.mark.parametrize("per_start_weights", [False, True], ids=["shared", "per-start"])
@pytest.mark.parametrize("free", [False, True], ids=["zero-starts", "free-starts"])
@pytest.mark.parametrize("spec", WINDOW_CELLS, ids=["scalar-io", "d_x2-d_y3"])
def test_window_pass_stacked_rows_equal_unstacked_calls(spec, free, per_start_weights):
    # bench-linear's windows (S = 380, N = 21); slice r of each stacked array
    # has the bits of start r's unstacked call
    R, S, N = 3, 380, 21
    params, h0, x, y, w = window_case(spec, S, N, R)
    h0 = h0 if free else None
    if per_start_weights:
        w = np.stack([segment_weights(N, m, S) for m in (0, 5, N - 1)])
    loss, d_theta, d_h0 = autodiff.linear_window_loss_grad(params, h0, x, y, w)
    assert loss.shape == (R,) and d_theta.shape == params.theta.shape
    for r in range(R):
        alone = autodiff.linear_window_loss_grad(Params(params.theta[r], spec),
                                                 None if h0 is None else h0[r], x, y,
                                                 w[r] if per_start_weights else w)
        assert_same_bits((loss[r], d_theta[r]), alone[:2])
        if free:
            assert d_h0[r].tobytes() == alone[2].tobytes()
        else:
            assert d_h0 is None and alone[2] is None


# (spec, S, N): one window; one step; the CLI's default d_h = 1; more
# outputs than inputs
DEGENERATE_WINDOWS = {
    "S1": (SCAN_CELLS[0], 1, N_W),
    "N1": (SCAN_CELLS[0], 7, 1),
    "d_h1": (CellSpec("linear", 1, 1, 1, activation="identity", use_biases=False), 7, N_W),
    "d_x2-d_y3": (WINDOW_CELLS[1], 7, 9),
}


@pytest.mark.parametrize("R", [None, 2], ids=["unstacked", "stacked"])
@pytest.mark.parametrize("case", list(DEGENERATE_WINDOWS))
def test_window_pass_matches_the_loop_on_degenerate_shapes(case, R):
    spec, S, N = DEGENERATE_WINDOWS[case]
    params, h0, x, y, w = window_case(spec, S, N, R)
    for start in (None, h0):
        got = autodiff.linear_window_loss_grad(params, start, x, y, w)
        want = weighted_loss_grad(params, np.zeros_like(h0) if start is None else start, x, y, w)
        for a, b in zip(got[:2] if start is None else got, want):
            assert np.shape(a) == np.shape(b)
            assert rel_linf(np.asarray(a), np.asarray(b)) <= 1e-13


@pytest.mark.parametrize("A", [np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]])],
                         ids=["zero", "nilpotent"])
def test_window_pass_degenerate_recurrences(A):
    # the powers of a nilpotent A are exact: A⁰ = I, A¹ = A, then zeros
    params, h0, x, y, w = window_case(SCAN_CELLS[0], 7, N_W)
    params = params.with_block("W_hh", A)
    got = autodiff.linear_window_loss_grad(params, h0, x, y, w)
    want = weighted_loss_grad(params, h0, x, y, w)
    for a, b in zip(got, want):
        assert rel_linf(np.asarray(a), np.asarray(b)) <= 1e-13
    powers = autodiff._powers(A, N_W)
    npt.assert_array_equal(powers[:2], [np.eye(2), A])
    assert not powers[2:].any()


def test_window_pass_is_finite_where_only_a_state_overflows():
    # the states t·1e307 of W_xh = 1e307 over unit inputs overflow at t = 18,
    # so the loop raises; read out by W_hy = 1e-300 and weighted by 1e-250,
    # the outputs (about 1e7·t), the loss and the gradient are finite. The
    # window pass forms no state: it returns them, near the exact values
    spec = DEGENERATE_WINDOWS["d_h1"][0]
    params = pack(spec, {"W_hh": [[1.0]], "W_xh": [[1e307]], "W_hy": [[1e-300]]})
    S, N = 3, N_W
    x = np.ones((S, N, 1))
    y = np.random.default_rng(8).normal(size=(S, N, 1))
    w = np.full((S, N), 1e-250)
    with pytest.raises(NonFiniteError) as loop:
        weighted_loss_grad(params, np.zeros((S, 1)), x, y, w)
    assert (loop.value.where, loop.value.time_index) == ("forward pass", 18)
    loss, d_theta, _ = autodiff.linear_window_loss_grad(params, None, x, y, w)
    exact_loss, exact_grad, _ = exact_window_loss_grad(params, None, x, y, w)
    assert_near_exact([loss], [exact_loss], 1e-13)
    assert_near_exact(d_theta, exact_grad, 1e-13)
