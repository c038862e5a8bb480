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
from tbptt.rnn_core import CellSpec, NonFiniteError, forward, init_params, pack


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
