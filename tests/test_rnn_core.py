import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from helpers import pack, read_params
from tbptt import autodiff, cli
from tbptt.data import TimeSeriesDataset, make_plan, segment_arrays
from tbptt.linalg import DimensionError
from tbptt.rnn_core import (
    CellSpec,
    NonFiniteError,
    Params,
    Workspace,
    batched_forward,
    build_layout,
    forward,
    init_params,
    num_params,
    time_major,
)
from tbptt.training import _stateful_inits


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
    # The states of a prefix or a restart are the full pass's bits; the
    # outputs are exact under a fixed shape only, because the output product
    # takes numpy's one-row vector path at T' = 1.
    for spec in (
        CellSpec("linear", 2, 3, 2, activation="identity", use_biases=False),
        CellSpec("elman", 2, 3, 2),
        CellSpec("lstm", 2, 3, 2),
    ):
        for seed in range(50):
            params = init_params(spec, seed)
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(9, spec.d_x))
            full = forward(params, None, x)
            for t in (1, 4, 8):
                other = x.copy()
                other[t:] = rng.normal(size=(9 - t, spec.d_x))
                changed = forward(params, None, other)
                npt.assert_array_equal(changed.outputs[:t], full.outputs[:t])
                npt.assert_array_equal(changed.hidden[: t + 1], full.hidden[: t + 1])
                prefix = forward(params, None, x[:t])
                npt.assert_array_equal(prefix.hidden, full.hidden[: t + 1])
                tail = forward(params, full.hidden[t], x[t:])
                npt.assert_array_equal(tail.hidden, full.hidden[t:])


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
    again = read_params(cli.to_json(params))
    npt.assert_array_equal(again.theta, params.theta)
    assert again.spec == params.spec
    # layout survives the trip as the serialized table
    doc = json.loads(cli.to_json(params))
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


def test_lstm_gates_track_the_logistic_and_tanh():
    # W_xh = 1, W_hh = 0 and b_h = 0: every gate's pre-activation is the input
    spec = CellSpec("lstm", 1, 1, 1)
    params = pack(spec, {"W_hh": np.zeros((4, 1)), "W_xh": np.ones((4, 1)), "b_h": np.zeros(4),
                         "W_hy": np.ones((1, 1)), "b_y": np.zeros(1)})
    tails = np.array([0.0, -0.0, 60.0, -60.0, 745.0, -745.0, 800.0, -800.0])
    z = np.concatenate([np.linspace(-40.0, 40.0, 200_001), tails])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, cache = batched_forward(params, np.zeros((z.size, 2)), z[:, None, None])
    gates = cache["gates"][:, 0]
    sigmoid_gates = gates[:, [0, 1, 3]]  # i, f, o
    assert np.max(np.abs(sigmoid_gates - masked_sigmoid(z)[:, None])) <= 2.0**-52
    npt.assert_array_equal(gates[:, 2], np.tanh(z))
    expected_tails = [0.5, 0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    npt.assert_array_equal(sigmoid_gates[-8:], np.repeat(expected_tails, 3).reshape(8, 3))


def reference_lstm(params, h0, inputs):
    """One sequence step at a time, gate by gate, with each logistic gate as
    sigma(z) = tanh(z/2)/2 + 1/2 over i, f and o weight and bias rows halved.

    The input half of the pre-activation is the kernel's one product over
    the whole batch, tanh runs over the whole gate row, and every product
    has the kernel's orientation: a step carries the state as (k, B)
    columns and multiplies them by the weights from the left; the outputs
    are W_hy times each step's columns, or, with one batch row, the steps'
    rows times W_hyᵀ in one product. So the comparison stays bitwise.
    """
    d_h = params.spec.d_h
    half = np.repeat([0.5, 0.5, 1.0, 0.5], d_h)  # i, f, g, o
    W_hh = params.block("W_hh") * half[:, None]
    W_xh = params.block("W_xh") * half[:, None]
    b_h = params.block("b_h") * half
    W_hy = params.block("W_hy")
    B, T, _ = inputs.shape
    x_part = np.einsum("btk,nk->btn", inputs, W_xh) + b_h
    states = np.empty((B, T + 1, 2 * d_h))
    states[:, 0] = h0
    gates = np.empty((B, T, 4 * d_h))
    tanh_cs = np.empty((B, T, d_h))
    outputs = np.empty((B, T, W_hy.shape[0]))
    h = h0.T
    for t in range(T):
        c_prev, hh_prev = h[:d_h], h[d_h:]
        tanh_z = np.tanh(x_part[:, t].T + W_hh @ hh_prev)
        gi = 0.5 * tanh_z[:d_h] + 0.5
        gf = 0.5 * tanh_z[d_h : 2 * d_h] + 0.5
        gg = tanh_z[2 * d_h : 3 * d_h]
        go = 0.5 * tanh_z[3 * d_h :] + 0.5
        c_new = gf * c_prev + gi * gg
        tanh_c = np.tanh(c_new)
        h = np.concatenate([c_new, go * tanh_c])
        states[:, t + 1] = h.T
        gates[:, t] = np.concatenate([gi, gf, gg, go]).T
        tanh_cs[:, t] = tanh_c.T
        outputs[:, t] = (W_hy @ h[d_h:]).T
    if B == 1:
        outputs = states[:, 1:, d_h:] @ W_hy.T
    return states, outputs + params.block("b_y"), gates, tanh_cs


@pytest.mark.parametrize("batch", [1, 3])
def test_lstm_step_matches_per_gate_reference_bitwise(batch):
    spec = CellSpec("lstm", 2, 3, 1)
    params = init_params(spec, 11)
    rng = np.random.default_rng(batch)
    # large inputs drive gates into both saturated tails
    inputs = rng.normal(scale=4.0, size=(batch, 25, 2))
    h0 = rng.normal(size=(batch, spec.state_dim))
    states, outputs, cache = batched_forward(params, h0, inputs)
    ref_states, ref_outputs, ref_gates, ref_tanh_c = reference_lstm(params, h0, inputs)
    npt.assert_array_equal(states, ref_states)
    npt.assert_array_equal(outputs, ref_outputs)
    npt.assert_array_equal(cache["gates"], ref_gates)
    npt.assert_array_equal(cache["tanh_c"], ref_tanh_c)


# --- every pass keeps its cache -----------------------------------------------


@pytest.mark.parametrize("with_workspace", [False, True], ids=["new", "workspace"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["unstacked", "stacked"])
def test_every_pass_returns_the_cache_of_all_its_steps(lead, batch, with_workspace):
    # the LSTM gates and tanh c of every step, with record's bits, whoever
    # calls the pass and wherever its buffers come from
    spec = CellSpec("lstm", 2, 3, 2)
    T = 17
    rng = np.random.default_rng(batch)
    theta = np.stack([init_params(spec, 80 + r).theta for r in range(3)])
    params = Params(theta if lead else theta[0], spec)
    h0 = rng.normal(size=lead + (batch, spec.state_dim))
    inputs = rng.normal(scale=4.0, size=(batch, T, spec.d_x))
    tape = autodiff.record(params, h0, inputs)
    workspace = Workspace() if with_workspace else None
    states, outputs, cache = batched_forward(params, h0, inputs, workspace=workspace)
    assert cache.keys() == {"gates", "tanh_c"}
    assert cache["gates"].shape == lead + (batch, T, 4 * spec.d_h)
    assert cache["tanh_c"].shape == lead + (batch, T, spec.d_h)
    for name in cache:
        assert cache[name].tobytes() == tape.cache[name].tobytes(), name
    assert states.tobytes() == tape.states.tobytes()
    assert outputs.tobytes() == tape.outputs.tobytes()


# --- step-major, batch-innermost step rows -------------------------------------

LAYOUT_CELLS = [
    CellSpec("linear", 2, 3, 2, activation="identity", use_biases=False),
    CellSpec("elman", 2, 3, 2),
    CellSpec("lstm", 2, 3, 2),
]


@pytest.mark.parametrize("lead", [(), (3,)], ids=["unstacked", "stacked"])
@pytest.mark.parametrize("spec", LAYOUT_CELLS, ids=lambda s: s.kind)
def test_no_initial_states_are_the_zero_states(spec, lead):
    # h0=None starts every row of every start from zero: the bits of zeros
    B, T = 4, 6
    rng = np.random.default_rng(2)
    theta = np.stack([init_params(spec, 60 + r).theta for r in range(3)])
    params = Params(theta if lead else theta[0], spec)
    inputs = rng.normal(size=(B, T, spec.d_x))
    zeros = np.zeros(lead + (B, spec.state_dim))
    got = batched_forward(params, None, inputs)
    want = batched_forward(params, zeros, inputs)
    for a, b in zip(got[:2], want[:2]):
        assert a.tobytes() == b.tobytes()
    assert got[2].keys() == want[2].keys()
    assert all(got[2][name].tobytes() == want[2][name].tobytes() for name in want[2])


def test_workspace_serves_fewer_steps_from_the_buffer_it_holds():
    # a call for fewer steps is a view of the held buffer's first steps, in
    # the step-major memory of a buffer of its own shape; more steps or
    # another batch or width make a new buffer
    workspace = Workspace()
    full = workspace.empty("states", (2,), 5, 4, 3)
    short = workspace.empty("states", (2,), 5, 3, 3)
    assert short.shape == (2, 5, 3, 3)
    assert np.shares_memory(short, full)
    assert time_major(short).flags.c_contiguous
    assert time_major(short).strides == time_major(np.empty_like(full)).strides
    assert workspace.empty("states", (2,), 5, 4, 3) is full
    assert workspace.buffers["states"] is full
    for shape in [((2,), 5, 6, 3), ((2,), 4, 3, 3), ((2,), 5, 3, 2), ((), 5, 3, 3)]:
        other = workspace.empty("states", *shape)
        assert not np.shares_memory(other, full)
        assert workspace.buffers["states"] is other


@pytest.mark.parametrize("lead", [(), (3,)], ids=["unstacked", "stacked"])
@pytest.mark.parametrize("spec", LAYOUT_CELLS, ids=lambda s: s.kind)
def test_step_rows_are_contiguous(spec, lead, monkeypatch):
    # every recurrence buffer, forward and backward, and the cogradients of
    # both kinds of tape store step t as one C-contiguous (..., k, B) block:
    # each component a run of the B batch rows
    B, T = 4, 6
    rng = np.random.default_rng(1)
    theta = np.stack([init_params(spec, 60 + r).theta for r in range(3)])
    params = Params(theta if lead else theta[0], spec)
    h0 = rng.normal(size=lead + (B, spec.state_dim))
    inputs = rng.normal(size=(B, T, spec.d_x))
    states, outputs, cache = batched_forward(params, h0, inputs)
    assert set(cache) == ({"gates", "tanh_c"} if spec.kind == "lstm" else set())
    buffers = {"states": states, "outputs": outputs, **cache}
    cograds = []
    real_backprop = autodiff.backprop

    def spy(tape, cog, workspace=None):
        cograds.append(cog)
        return real_backprop(tape, cog, workspace)

    monkeypatch.setattr(autodiff, "backprop", spy)
    # a recorded tape's gradient in a workspace, which then holds the
    # forward's buffers and the backward's: da, or dz, c_path and dh_out
    workspace = Workspace()
    autodiff.weighted_loss_grad(params, h0, inputs, rng.normal(size=(B, T, spec.d_y)),
                                autodiff.segment_weights(T, 1, B), workspace)
    backward = {"dz", "c_path", "dh_out"} if spec.kind == "lstm" else {"da"}
    assert workspace.buffers.keys() == {"states", "outputs"} | cache.keys() | backward
    buffers.update({f"workspace {name}": a for name, a in workspace.buffers.items()})
    # a stateful tape: windows gathered from one B = 1 pass over a series
    series = TimeSeriesDataset(rng.normal(size=(10, spec.d_x)), np.zeros((10, spec.d_y)))
    plan = make_plan(10, 4, 2)
    cached = np.zeros(lead + (plan.S, spec.state_dim))
    xs, _ = segment_arrays(series, plan)
    tape = _stateful_inits(params, series.inputs, xs, plan, cached, list(range(plan.S)))
    buffers.update({f"stateful {name}": a for name, a in
                    [("states", tape.states), ("outputs", tape.outputs), *tape.cache.items()]})
    autodiff.tape_loss_grad(tape, rng.normal(size=(plan.S, 4, spec.d_y)),
                            autodiff.segment_weights(4, 1, plan.S))
    assert len(cograds) == 2
    buffers["recorded cogradients"], buffers["stateful cogradients"] = cograds
    for name, buffer in buffers.items():
        steps_of = time_major(buffer)
        rows, k = buffer.shape[-3], buffer.shape[-1]
        for t in range(steps_of.shape[0]):
            assert steps_of[t].shape == lead + (k, rows), (name, t)
            assert steps_of[t].flags.c_contiguous, (name, t)


