import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from tbptt.autodiff import (
    backprop,
    fd_gradient,
    record,
    segment_weights,
    weighted_loss,
    weighted_loss_grad,
)
from tbptt.rnn_core import CellSpec, NonFiniteError, Params, forward, init_params, pack


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


@pytest.mark.parametrize("T", [1, 2, 21, 400])
@pytest.mark.parametrize("B", [1, 3, 64])
@pytest.mark.parametrize("cell", list(KERNEL_CELLS))
def test_backprop_matches_per_step_sweep(cell, B, T):
    spec = KERNEL_CELLS[cell]
    params = init_params(spec, 41)
    # a contracting recurrence keeps 400-step gradients in range
    w_hh = params.block("W_hh")
    params = params.with_block("W_hh", w_hh * (0.9 / np.linalg.norm(w_hh, 2)))
    rng = np.random.default_rng(B * 1000 + T)
    h0 = rng.normal(size=(B, spec.state_dim))
    tape = record(params, h0, rng.normal(size=(B, T, spec.d_x)))
    cograds = rng.normal(size=(B, T, spec.d_y))
    d_theta, d_h0 = backprop(tape, cograds)
    ref_theta, ref_h0 = per_step_backprop(tape, cograds)
    for name, (start, stop, _) in params.layout.items():
        assert rel_linf(d_theta[start:stop], ref_theta[start:stop]) < 1e-12, name
    assert rel_linf(d_h0, ref_h0) < 1e-12


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


# --- starts stacked on a leading model axis -------------------------------------

STACK_CELLS = [
    CellSpec("linear", 2, 3, 2, activation="identity", use_biases=False),
    CellSpec("elman", 2, 3, 2, activation="tanh"),
    CellSpec("elman", 2, 3, 2, activation="relu"),
    CellSpec("lstm", 2, 3, 2),
]


@pytest.mark.parametrize("B", [1, 380])
@pytest.mark.parametrize("spec", STACK_CELLS, ids=lambda s: f"{s.kind}-{s.activation}")
def test_stacked_loss_grad_slices_equal_unstacked_calls(spec, B):
    # B = 1 rows of T = 400 (coupled) and B = 380 rows of T = 21 (tbptt, unconstrained)
    R, T = 3, 400 if B == 1 else 21
    rng = np.random.default_rng(B)
    theta = np.stack([init_params(spec, 40 + r).theta for r in range(R)])
    h0 = rng.normal(size=(R, B, spec.state_dim))
    x = rng.normal(size=(B, T, spec.d_x))
    y = rng.normal(size=(B, T, spec.d_y))
    w = segment_weights(T, 5, B)
    loss, d_theta, d_h0 = weighted_loss_grad(Params(theta, spec), h0, x, y, w)
    assert loss.shape == (R,)
    assert d_theta.shape == theta.shape
    assert d_h0.shape == h0.shape
    for r in range(R):
        want_loss, want_theta, want_h0 = weighted_loss_grad(Params(theta[r], spec), h0[r], x, y, w)
        assert loss[r] == want_loss
        npt.assert_array_equal(d_theta[r], want_theta)
        npt.assert_array_equal(d_h0[r], want_h0)


def test_stacked_nonfinite_error_names_only_the_overflowing_start():
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
