import json

import numpy as np
import numpy.testing as npt
import pytest

from tbptt.linalg import DimensionError
from tbptt.rnn_core import (
    CellSpec,
    NonFiniteError,
    Params,
    _sigmoid,
    batched_forward,
    build_layout,
    forward,
    init_params,
    num_params,
    pack,
)


def scalar_linear(a, b, c):
    spec = CellSpec("linear", 1, 1, 1, activation="identity", use_biases=False)
    return pack(spec, {"W_hh": [[a]], "W_xh": [[b]], "W_hy": [[c]]})


def test_zero_elman_outputs_zero():
    spec = CellSpec("elman", 2, 3, 2)
    params = Params(np.zeros(num_params(spec)), spec)
    x = np.random.default_rng(0).normal(size=(6, 2))
    traj = forward(params, None, x)
    npt.assert_array_equal(traj.hidden, 0.0)
    npt.assert_array_equal(traj.outputs, 0.0)


def test_scalar_linear_closed_form():
    # y_t = c * sum_k a^(t-k) b x_k, checked against the recursion
    rng = np.random.default_rng(42)
    for _ in range(10):
        a, b, c = rng.uniform(-0.9, 0.9, size=3)
        x = rng.normal(size=(7, 1))
        traj = forward(scalar_linear(a, b, c), None, x)
        for t in range(1, 8):
            expected = c * sum(a ** (t - k) * b * x[k - 1, 0] for k in range(1, t + 1))
            assert traj.outputs[t - 1, 0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_forward_markov_in_initial_state():
    spec = CellSpec("elman", 1, 2, 1)
    params = init_params(spec, 3)
    x = np.random.default_rng(1).normal(size=(5, 1))
    h0 = np.array([0.3, -0.2])
    t1 = forward(params, h0, x)
    t2 = forward(params, h0.copy(), x)
    npt.assert_array_equal(t1.hidden, t2.hidden)
    npt.assert_array_equal(t1.outputs, t2.outputs)


def test_causality_prefix_exact():
    spec = CellSpec("lstm", 2, 3, 2)
    params = init_params(spec, 11)
    x = np.random.default_rng(2).normal(size=(9, 2))
    full = forward(params, None, x)
    for t in (1, 4, 9):
        part = forward(params, None, x[:t])
        npt.assert_array_equal(part.outputs, full.outputs[:t])


def test_semigroup_restart_exact():
    for kind in ("linear", "elman", "lstm"):
        spec = (
            CellSpec("linear", 1, 2, 1, activation="identity", use_biases=False)
            if kind == "linear"
            else CellSpec(kind, 1, 2, 1)
        )
        params = init_params(spec, 5)
        x = np.random.default_rng(4).normal(size=(8, 1))
        full = forward(params, None, x)
        k = 3
        tail = forward(params, full.hidden[k], x[k:])
        npt.assert_array_equal(tail.outputs, full.outputs[k:])
        npt.assert_array_equal(tail.hidden[1:], full.hidden[k + 1 :])


def test_linear_scalar_output_at_t2():
    a, b, c = 0.5, 1.5, -2.0
    x = np.array([[1.0], [2.0]])
    y2 = forward(scalar_linear(a, b, c), None, x).outputs[1]
    assert y2[0] == pytest.approx(c * (a * b * 1.0 + b * 2.0))


def test_init_params_deterministic_and_seed_sensitive():
    spec = CellSpec("lstm", 2, 3, 1)
    p1 = init_params(spec, 7)
    p2 = init_params(spec, 7)
    p3 = init_params(spec, 8)
    npt.assert_array_equal(p1.theta, p2.theta)
    assert not np.array_equal(p1.theta, p3.theta)


def test_init_params_bias_handling():
    spec = CellSpec("lstm", 2, 3, 1)
    params = init_params(spec, 0)
    b_h = params.block("b_h")
    npt.assert_array_equal(b_h[:3], 0.0)  # input gate
    npt.assert_array_equal(b_h[3:6], 1.0)  # forget gate starts open
    npt.assert_array_equal(b_h[6:], 0.0)
    npt.assert_array_equal(params.block("b_y"), 0.0)
    scale = 1.0 / np.sqrt(3)
    assert np.max(np.abs(params.block("W_hh"))) <= scale


def test_linear_param_count():
    spec = CellSpec("linear", 3, 4, 2, activation="identity", use_biases=False)
    assert num_params(spec) == 4 * 4 + 4 * 3 + 2 * 4


def test_layout_partitions_theta():
    for spec in (
        CellSpec("elman", 2, 3, 2),
        CellSpec("lstm", 1, 2, 1),
        CellSpec("linear", 2, 2, 1, activation="identity", use_biases=False),
    ):
        layout = build_layout(spec)
        cursor = 0
        for name, (start, stop, shape) in layout.items():
            assert start == cursor
            assert stop - start == int(np.prod(shape))
            cursor = stop
        assert cursor == num_params(spec)


def test_pack_unpack_roundtrip_bit_exact():
    spec = CellSpec("lstm", 2, 3, 2)
    params = init_params(spec, 13)
    rebuilt = pack(spec, params.unpack())
    npt.assert_array_equal(rebuilt.theta, params.theta)


def test_with_block_touches_exactly_one_range():
    spec = CellSpec("elman", 2, 3, 2)
    params = init_params(spec, 1)
    new_whh = params.block("W_hh") + 1.0
    updated = params.with_block("W_hh", new_whh)
    start, stop, _ = params.layout["W_hh"]
    changed = np.nonzero(updated.theta != params.theta)[0]
    assert changed.min() >= start and changed.max() < stop
    npt.assert_array_equal(updated.theta[:start], params.theta[:start])
    npt.assert_array_equal(updated.theta[stop:], params.theta[stop:])


def test_stacked_with_block_slices_equal_unstacked_calls():
    spec = CellSpec("lstm", 2, 3, 2)
    starts = [init_params(spec, seed) for seed in range(3)]
    stacked = Params(np.stack([p.theta for p in starts]), spec)
    value = np.random.default_rng(4).normal(size=(3, 12, 3))
    updated = stacked.with_block("W_hh", value)
    for r, params in enumerate(starts):
        npt.assert_array_equal(updated.theta[r], params.with_block("W_hh", value[r]).theta)
    with pytest.raises(DimensionError):
        stacked.with_block("W_hh", value[0])  # one block for three starts


def test_blocks_are_views_of_theta():
    spec = CellSpec("lstm", 2, 3, 2)
    params = init_params(spec, 2)
    for name, block in params.unpack().items():
        start, stop, shape = params.layout[name]
        assert block.shape == shape
        assert np.shares_memory(block, params.theta)
        npt.assert_array_equal(block.reshape(-1), params.theta[start:stop])
    assert np.shares_memory(params.block("W_hy"), params.theta)


def test_params_json_roundtrip_exact():
    spec = CellSpec("elman", 2, 3, 2, activation="relu")
    params = init_params(spec, 21)
    again = Params.from_json(params.to_json())
    npt.assert_array_equal(again.theta, params.theta)
    assert again.spec == params.spec
    # layout survives the trip as the serialized table
    doc = json.loads(params.to_json())
    assert doc["layout"][0][0] == "W_hh"


def test_cellspec_validation():
    with pytest.raises(ValueError):
        CellSpec("linear", 1, 1, 1, activation="tanh", use_biases=False)
    with pytest.raises(ValueError):
        CellSpec("linear", 1, 1, 1, activation="identity", use_biases=True)
    with pytest.raises(ValueError):
        CellSpec("gru", 1, 1, 1)
    with pytest.raises(ValueError):
        CellSpec("elman", 0, 1, 1)
    with pytest.raises(ValueError):
        CellSpec("elman", 1, 1, 1, activation="softmax")


def test_forward_shape_errors():
    spec = CellSpec("elman", 2, 3, 1)
    params = init_params(spec, 2)
    with pytest.raises(DimensionError):
        forward(params, None, np.ones((4, 3)))
    with pytest.raises(DimensionError):
        forward(params, np.zeros(2), np.ones((4, 2)))


def test_forward_nonfinite_names_first_bad_step():
    params = scalar_linear(1e4, 1e4, 1e4)
    x = np.ones((300, 1))
    with pytest.raises(NonFiniteError) as err:
        forward(params, None, x)
    assert err.value.time_index >= 1


def test_lstm_state_is_cell_then_hidden():
    spec = CellSpec("lstm", 1, 2, 1)
    assert spec.state_dim == 4
    params = init_params(spec, 3)
    x = np.random.default_rng(8).normal(size=(4, 1))
    traj = forward(params, None, x)
    # the output layer reads only the hidden-activation half
    w_hy = params.block("W_hy")
    b_y = params.block("b_y")
    expected = traj.hidden[1:, 2:] @ w_hy.T + b_y
    npt.assert_allclose(traj.outputs, expected, rtol=0, atol=0)


# --- LSTM step against a per-gate reference -----------------------------------


def masked_sigmoid(z):
    """The logistic function as a masked two-branch evaluation."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_special_values():
    z = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, 3.5, -3.5])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _sigmoid(z)
    npt.assert_array_equal(got, masked_sigmoid(z))
    npt.assert_array_equal(got[:7], [0.5, 0.5, 1.0, 0.0, 1.0, 0.0, np.nan])


def reference_lstm(params, h0, inputs):
    """One sequence step at a time, gate by gate.

    The input half of the pre-activation is the kernel's one product over
    the whole batch, so the comparison stays bitwise.
    """
    d_h = params.spec.d_h
    W_hh, W_xh, b_h = params.block("W_hh"), params.block("W_xh"), params.block("b_h")
    B, T, _ = inputs.shape
    x_part = np.einsum("btk,nk->btn", inputs, W_xh)
    states = np.empty((B, T + 1, 2 * d_h))
    states[:, 0] = h0
    gates = np.empty((B, T, 4 * d_h))
    tanh_cs = np.empty((B, T, d_h))
    h = h0
    for t in range(T):
        c_prev, hh_prev = h[:, :d_h], h[:, d_h:]
        z = x_part[:, t] + hh_prev @ W_hh.T + b_h
        gi = masked_sigmoid(z[:, :d_h])
        gf = masked_sigmoid(z[:, d_h : 2 * d_h])
        gg = np.tanh(z[:, 2 * d_h : 3 * d_h])
        go = masked_sigmoid(z[:, 3 * d_h :])
        c_new = gf * c_prev + gi * gg
        tanh_c = np.tanh(c_new)
        h = np.concatenate([c_new, go * tanh_c], axis=1)
        states[:, t + 1] = h
        gates[:, t] = np.concatenate([gi, gf, gg, go], axis=1)
        tanh_cs[:, t] = tanh_c
    outputs = states[:, 1:, d_h:] @ params.block("W_hy").T + params.block("b_y")
    return states, outputs, gates, tanh_cs


@pytest.mark.parametrize("batch", [1, 3])
def test_lstm_step_matches_per_gate_reference_bitwise(batch):
    spec = CellSpec("lstm", 2, 3, 1)
    params = init_params(spec, 11)
    rng = np.random.default_rng(batch)
    # large inputs drive gates into both saturated tails
    inputs = rng.normal(scale=4.0, size=(batch, 25, 2))
    h0 = rng.normal(size=(batch, spec.state_dim))
    states, outputs, cache = batched_forward(params, h0, inputs, keep_cache=True)
    ref_states, ref_outputs, ref_gates, ref_tanh_c = reference_lstm(params, h0, inputs)
    npt.assert_array_equal(states, ref_states)
    npt.assert_array_equal(outputs, ref_outputs)
    npt.assert_array_equal(cache["gates"], ref_gates)
    npt.assert_array_equal(cache["tanh_c"], ref_tanh_c)
