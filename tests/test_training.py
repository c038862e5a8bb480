import itertools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from helpers import fd_gradient, gen_synthetic, pack
from tbptt.data import TimeSeriesDataset, make_plan, segment_arrays
from tbptt import autodiff
from tbptt.autodiff import segment_weights, tape_loss_grad, weighted_loss_grad
from tbptt.linalg import spectral_norm
from tbptt.rng import SplitMix64
from tbptt.rnn_core import (
    CellSpec, NonFiniteError, Params, Workspace, batched_forward, forward, init_params,
    num_params, per_start,
)
from tbptt.training import (
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainingError,
    _stateful_inits,
    full_batch_gradient,
    full_batch_objective,
    project_stability,
    sgd_step,
    train,
    train_burn_ins,
)


def scalar_linear(a, b, c):
    spec = CellSpec("linear", 1, 1, 1, activation="identity", use_biases=False)
    return pack(spec, {"W_hh": [[a]], "W_xh": [[b]], "W_hy": [[c]]})


def memoryless_dataset(seed=0, t=40, gain=2.0):
    """Data from y_t = gain * x_t: realizable from the zero state everywhere."""
    rng = SplitMix64(seed)
    x = rng.normals(t)[:, None]
    return TimeSeriesDataset(x, gain * x)


LIN_SPEC = CellSpec("linear", 1, 1, 1, activation="identity", use_biases=False)


def lin_config(**kw):
    defaults = dict(
        spec=LIN_SPEC,
        N=8,
        m=1,
        batch_size=4,
        optimizer="adam",
        lr=0.05,
        epochs=50,
        stride=1,
        seed=3,
        spectral_bound=0.999,
        mode="zero_init",
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


# --- objective --------------------------------------------------------------


def test_full_batch_objective_is_mean_of_segment_losses():
    ds = memoryless_dataset(t=20)
    plan = make_plan(20, 6, 2)
    params = scalar_linear(0.2, 0.7, -0.4)
    m = 2
    xs, ys = segment_arrays(ds, plan)
    h0 = np.zeros((1, 1))
    w = segment_weights(plan.N, m)
    losses = [weighted_loss_grad(params, h0, x[None], y[None], w)[0] for x, y in zip(xs, ys)]
    assert full_batch_objective(params, xs, ys, m) == pytest.approx(np.mean(losses), rel=1e-14)


def test_full_batch_objective_two_segments_hand_case():
    # zero model on unit inputs: per-segment loss is the mean squared target
    x = np.zeros((4, 1))
    y = np.array([[1.0], [1.0], [3.0], [3.0]]) * np.sqrt(1.0)
    y[:2] = 1.0
    y[2:] = np.sqrt(3.0)
    ds = TimeSeriesDataset(x, y)
    plan = make_plan(4, 2, 2)
    params = scalar_linear(0.0, 0.0, 0.0)
    # segment losses: mean(1,1)=1 and mean(3,3)=3
    assert full_batch_objective(params, *segment_arrays(ds, plan), 0) == pytest.approx(2.0)


def test_full_batch_objective_single_segment_reduces_to_loss():
    ds = memoryless_dataset(t=9)
    plan = make_plan(9, 9, 1)
    params = scalar_linear(0.1, 1.0, 1.0)
    loss, _, _ = weighted_loss_grad(params, np.zeros((1, 1)), ds.inputs[None],
                                    ds.targets[None], segment_weights(9, 3))
    assert full_batch_objective(params, *segment_arrays(ds, plan), 3) == pytest.approx(loss, rel=1e-14)


def test_full_batch_objective_zero_at_realizable_optimum():
    ds = memoryless_dataset(gain=1.5)
    plan = make_plan(40, 8, 1)
    params = scalar_linear(0.0, 1.0, 1.5)
    assert full_batch_objective(params, *segment_arrays(ds, plan), 0) == pytest.approx(0.0, abs=1e-26)


# --- single update ----------------------------------------------------------


def test_sgd_step_zero_rate_leaves_params():
    ds = memoryless_dataset()
    plan = make_plan(40, 8, 1)
    config = lin_config(optimizer="sgd", lr=0.0, spectral_bound=None)
    params = scalar_linear(0.3, 0.5, 0.7)
    out = sgd_step(params, *segment_arrays(ds, plan), [0, 3], config)
    npt.assert_array_equal(out.theta, params.theta)


def test_sgd_step_single_segment_matches_hand_gradient():
    ds = memoryless_dataset()
    plan = make_plan(40, 8, 1)
    lr = 0.01
    config = lin_config(optimizer="sgd", lr=lr, m=2, batch_size=1, spectral_bound=None)
    params = scalar_linear(0.3, 0.5, 0.7)
    out = sgd_step(params, *segment_arrays(ds, plan), [5], config)
    xs, ys = segment_arrays(ds, plan)
    fd_theta, _ = fd_gradient(params, xs[5], ys[5], 2)
    npt.assert_allclose(params.theta - out.theta, lr * fd_theta, rtol=1e-6)


def test_sgd_step_full_batch_equals_objective_gradient():
    ds = memoryless_dataset(t=24)
    plan = make_plan(24, 6, 3)
    lr = 0.05
    config = lin_config(optimizer="sgd", lr=lr, m=1, batch_size=plan.S, spectral_bound=None)
    params = scalar_linear(0.4, -0.3, 0.9)
    xs, ys = segment_arrays(ds, plan)
    out = sgd_step(params, xs, ys, list(range(plan.S)), config)
    _, d_theta = full_batch_gradient(params, xs, ys, 1)
    npt.assert_allclose(params.theta - out.theta, lr * d_theta, rtol=1e-12)


def test_batch_directions_average_to_full_gradient():
    # unbiasedness: mean over all C(S, b) batches equals the full-batch gradient
    ds = memoryless_dataset(seed=5, t=16)
    plan = make_plan(16, 4, 4)
    assert plan.S == 4
    params = scalar_linear(0.2, 0.8, -0.5)
    m, b = 1, 2
    lr = 1.0
    config = lin_config(optimizer="sgd", lr=lr, m=m, batch_size=b, spectral_bound=None)
    xs, ys = segment_arrays(ds, plan)
    directions = []
    for batch in itertools.combinations(range(plan.S), b):
        out = sgd_step(params, xs, ys, list(batch), config)
        directions.append(params.theta - out.theta)
    _, d_theta = full_batch_gradient(params, xs, ys, m)
    npt.assert_allclose(np.mean(directions, axis=0), d_theta, rtol=1e-10, atol=1e-14)


def test_nonfinite_gradient_aborts_with_diagnostic():
    from tbptt.rnn_core import NonFiniteError

    ds = memoryless_dataset()
    plan = make_plan(40, 8, 1)
    config = lin_config(optimizer="sgd", lr=0.1, spectral_bound=None)
    params = scalar_linear(1e40, 1e40, 1e40)  # overflows within a segment
    with pytest.raises(NonFiniteError):
        sgd_step(params, *segment_arrays(ds, plan), [0], config)


# --- projection -------------------------------------------------------------


def test_projection_scales_down():
    params = scalar_linear(2.0, 1.0, 1.0)
    out = project_stability(params, 0.999)
    assert out.block("W_hh")[0, 0] == pytest.approx(0.999, rel=1e-10)


def test_projection_leaves_feasible_untouched():
    params = scalar_linear(0.5, 1.0, 1.0)
    out = project_stability(params, 0.999)
    npt.assert_array_equal(out.theta, params.theta)


def test_projection_idempotent_bit_exact():
    rng = np.random.default_rng(0)
    spec = CellSpec("elman", 2, 4, 1)
    params = init_params(spec, 3).with_block("W_hh", rng.normal(size=(4, 4)) * 2.0)
    once = project_stability(params, 0.9)
    twice = project_stability(once, 0.9)
    npt.assert_array_equal(once.theta, twice.theta)
    assert spectral_norm(once.block("W_hh")) <= 0.9 * (1 + 1e-9)


def test_projection_clips_lstm_recurrent_block():
    spec = CellSpec("lstm", 1, 3, 1)
    params = init_params(spec, 2)
    params = params.with_block("W_hh", params.block("W_hh") * 10.0)
    out = project_stability(params, 0.999)
    assert spectral_norm(out.block("W_hh")) <= 0.999 * (1 + 1e-9)
    npt.assert_array_equal(out.block("W_xh"), params.block("W_xh"))


@pytest.mark.parametrize("kind", ["elman", "lstm"])
def test_stacked_projection_slices_equal_unstacked_calls(kind):
    spec = CellSpec(kind, 1, 3, 1)
    starts = [init_params(spec, seed) for seed in range(4)]
    # starts 0 and 2 lie above the bound and are scaled; start 1 lies below
    # it and start 3 within 1e-9 above it, and both are left alone
    for r, factor in ((0, 10.0), (1, 0.1), (2, 10.0)):
        starts[r] = starts[r].with_block("W_hh", starts[r].block("W_hh") * factor)
    w = starts[3].block("W_hh")
    starts[3] = starts[3].with_block("W_hh", w * (0.999 * (1 + 5e-10) / spectral_norm(w)))
    stacked = Params(np.stack([p.theta for p in starts]), spec)
    out = project_stability(stacked, 0.999)
    for r, params in enumerate(starts):
        assert out.theta[r].tobytes() == project_stability(params, 0.999).theta.tobytes()
    for r in (1, 3):
        assert out.theta[r].tobytes() == starts[r].theta.tobytes()
    assert project_stability(out, 0.999) is out


def test_projection_returns_an_empty_stack_as_it_is():
    # the solver projects once more after its last start has stopped
    spec = CellSpec("elman", 1, 3, 1)
    empty = Params(np.empty((0, num_params(spec))), spec)
    assert project_stability(empty, 0.999) is empty


def test_adam_direction_is_silent_on_an_overflowing_row():
    grad = np.array([[1e200, np.inf, 1.0], [0.5, -0.25, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = AdamState(grad.shape).direction(grad, 0.1)
    npt.assert_array_equal(step[1], AdamState(3).direction(grad[1], 0.1))
    assert step[0, 0] == 0.0 and np.isnan(step[0, 1])


def test_projection_validates_rho():
    params = scalar_linear(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        project_stability(params, 1.5)
    npt.assert_array_equal(project_stability(params, None).theta, params.theta)


# --- full training loop -----------------------------------------------------


def test_train_zero_epochs_returns_init():
    ds = memoryless_dataset()
    log = train(ds, lin_config(epochs=0))
    npt.assert_array_equal(log.params.theta, init_params(LIN_SPEC, 3).theta)
    assert log.records == []


def test_train_deterministic():
    ds = memoryless_dataset()
    config = lin_config(epochs=12)
    log1 = train(ds, config)
    log2 = train(ds, config)
    npt.assert_array_equal(log1.params.theta, log2.params.theta)
    assert log1.records == log2.records


def test_train_converges_on_realizable_data():
    ds = memoryless_dataset(gain=1.5)
    config = lin_config(epochs=400, m=0, optimizer="adam", lr=0.05)
    log = train(ds, config)
    assert log.records[-1].objective < 1e-6


def test_windowed_min_objective_nonincreasing():
    ds = memoryless_dataset(gain=1.5)
    log = train(ds, lin_config(epochs=150, optimizer="adam", lr=0.03))
    objs = np.array([r.objective for r in log.records])
    window_mins = [objs[k : k + 50].min() for k in range(0, 150, 50)]
    assert all(b <= a + 1e-15 for a, b in zip(window_mins, window_mins[1:]))


def test_train_respects_spectral_bound_each_epoch():
    ds, _ = gen_synthetic(5, 60, 0.1)
    spec = CellSpec("elman", 1, 3, 1)
    config = TrainConfig(spec=spec, N=10, m=2, batch_size=8,
                         optimizer="adam", lr=0.05, epochs=10, seed=1,
                         spectral_bound=0.9)
    log = train(ds, config)
    assert spectral_norm(log.params.block("W_hh")) <= 0.9 * (1 + 1e-9)


def test_train_validates_batch_size():
    ds = memoryless_dataset(t=20)
    with pytest.raises(ValueError):
        train(ds, lin_config(N=20, batch_size=2))  # S == 1 < batch


def test_config_validation():
    with pytest.raises(ValueError):
        lin_config(m=8)  # m > N-1
    with pytest.raises(ValueError):
        lin_config(mode="other")
    with pytest.raises(ValueError):
        lin_config(spectral_bound=0.0)


def test_config_rejects_an_unknown_optimizer():
    with pytest.raises(ValueError, match="optimizer 'rmsprop' not one of"):
        lin_config(optimizer="rmsprop")


# --- stateful chaining ------------------------------------------------------


def test_stateful_inits_chain_without_overlap():
    # stride == N: each segment starts exactly where the previous one ended
    ds = memoryless_dataset(seed=7, t=24)
    plan = make_plan(24, 6, 6)
    spec = CellSpec("elman", 1, 2, 1)
    params = init_params(spec, 4)
    cached = np.zeros((plan.S, 2))
    xs, _ = segment_arrays(ds, plan)
    h0 = _stateful_inits(params, ds.inputs, xs, plan, cached, list(range(plan.S))).states[:, 0]
    full = forward(params, None, ds.inputs)
    for i in range(1, plan.S):
        npt.assert_array_equal(h0[i], full.hidden[6 * i])


def test_stateful_inits_with_overlap_use_meeting_point():
    ds = memoryless_dataset(seed=8, t=20)
    plan = make_plan(20, 6, 2)
    spec = CellSpec("elman", 1, 2, 1)
    params = init_params(spec, 9)
    xs, _ = segment_arrays(ds, plan)
    cached = np.zeros((plan.S, 2))
    h0 = _stateful_inits(params, ds.inputs, xs, plan, cached, list(range(plan.S))).states[:, 0]
    # segment i starts at the state reached N - o_i = stride steps into its predecessor
    for i in range(1, plan.S):
        states, _, _ = batched_forward(params, h0[i - 1][None], xs[i - 1][None, :2])
        npt.assert_array_equal(h0[i], states[0, 2])


def per_segment_chain(params, xs, plan, cached, batch):
    """Reference chain: replay each predecessor window from its cached start."""
    h0 = np.zeros((len(batch), cached.shape[1]))
    for row, i in enumerate(batch):
        if i == 0:
            cached[0] = 0.0
            continue
        chain = plan.starts[i] - plan.starts[i - 1]
        states, _, _ = batched_forward(params, cached[i - 1][None], xs[i - 1][None, :chain])
        cached[i] = states[0, chain]
        h0[row] = cached[i]
    return h0


@pytest.mark.parametrize("batch_size", [1, 3, 16])
@pytest.mark.parametrize("kind, N, stride, stack", [
    *(pytest.param(kind, N, stride, None, id=f"{kind}-{N}-{stride}") for kind, N, stride in [
        ("lstm", 7, 1), ("lstm", 7, 3), ("elman", 7, 1), ("elman", 7, 3),
        ("elman", 41, 1),  # N = T: one segment, a zero-step forward
    ]),
    # two models stacked, chained in the one pass
    pytest.param("lstm", 7, 3, 2, id="lstm-7-3-R2"),
    pytest.param("elman", 7, 1, 2, id="elman-7-1-R2"),
])
def test_stateful_inits_one_pass_matches_per_segment_chain(monkeypatch, kind, N, stride,
                                                           stack, batch_size):
    import tbptt.training as training

    ds, _ = gen_synthetic(5, 41, 0.05)
    plan = make_plan(ds.T, N, stride)
    spec = CellSpec(kind, 1, 3, 1)
    lead = () if stack is None else (stack,)
    theta = init_params(spec, 2).theta
    params = Params(np.broadcast_to(theta, lead + theta.shape).copy(), spec)
    xs, _ = segment_arrays(ds, plan)
    cached = np.zeros(lead + (plan.S, spec.state_dim))
    expected_cached = cached.copy()
    forwards = []
    real_forward = training.batched_forward

    def counting_forward(*args, **kwargs):
        forwards.append(1)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(training, "batched_forward", counting_forward)
    rng = SplitMix64(11)
    order = list(range(plan.S))
    batches = [order[k : k + batch_size] for k in range(0, plan.S, batch_size)]
    for _ in range(2):  # the cache carries over into the next epoch
        for batch in batches:
            step = rng.normals(params.theta.size).reshape(params.theta.shape)
            params = Params(params.theta + 0.05 * step, params.spec)
            expected = per_start(lead, lambda r: per_segment_chain(
                Params(params.theta[r], spec), xs, plan, expected_cached[r], batch))
            forwards.clear()
            tape = _stateful_inits(params, ds.inputs, xs, plan, cached, batch)
            assert len(forwards) == 1
            h0 = tape.states[..., 0, :]
            npt.assert_array_equal(h0, expected)
            npt.assert_array_equal(cached, expected_cached)


STACK_SPECS = [
    CellSpec("linear", 1, 3, 1, activation="identity", use_biases=False),
    CellSpec("elman", 1, 3, 1, activation="tanh"),
    CellSpec("lstm", 1, 3, 1),
]


@pytest.mark.parametrize("stack", [None, 2], ids=["R1", "R2"])
@pytest.mark.parametrize("batch_size", [1, 3, 16])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda spec: spec.kind)
def test_stateful_span_tape_equals_per_window_passes(spec, stride, batch_size, stack):
    # N = 7 on T = 41: stride 3 ends with a clipped window (starts ..., 34, 35)
    ds, _ = gen_synthetic(5, 41, 0.05)
    plan = make_plan(ds.T, 7, stride)
    lead = () if stack is None else (stack,)
    theta = init_params(spec, 2).theta
    params = Params(np.broadcast_to(theta, lead + theta.shape).copy(), spec)
    xs, ys = segment_arrays(ds, plan)
    cached = np.zeros(lead + (plan.S, spec.state_dim))
    expected_cached = cached.copy()
    rng = SplitMix64(13)
    order = list(range(plan.S))
    for batch in [order[k : k + batch_size] for k in range(0, plan.S, batch_size)]:
        step = rng.normals(params.theta.size).reshape(params.theta.shape)
        params = Params(params.theta + 0.05 * step, params.spec)
        per_start(lead, lambda r: per_segment_chain(
            Params(params.theta[r], spec), xs, plan, expected_cached[r], batch))
        tape = _stateful_inits(params, ds.inputs, xs, plan, cached, batch)
        npt.assert_array_equal(cached, expected_cached)
        starts = tape.states[..., 0, :]
        npt.assert_array_equal(starts, expected_cached[..., batch, :])
        npt.assert_array_equal(tape.inputs, xs[batch])
        # each window's own B = 1 pass from its chained start, bit for bit
        for row, i in enumerate(batch):
            states, _, cache = batched_forward(params, starts[..., row, None, :], xs[i][None])
            npt.assert_array_equal(tape.states[..., row, :, :], states[..., 0, :, :])
            assert cache.keys() == tape.cache.keys()
            for name, value in cache.items():
                npt.assert_array_equal(tape.cache[name][..., row, :, :], value[..., 0, :, :])
        # the gradient of the recorded batch from the same starts; the outputs
        # of the span's longer pass may differ from the batch pass's in their
        # last bits (numpy's output product depends on the number of steps)
        w = segment_weights(plan.N, 2, len(batch))
        got = tape_loss_grad(tape, ys[batch], w)
        want = weighted_loss_grad(params, starts, xs[batch], ys[batch], w)
        for g, v in zip(got, want):
            npt.assert_allclose(g, v, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("burn_ins", [[2], [0, 2]], ids=["unstacked", "stacked"])
def test_stateful_tape_inputs_are_the_run_windows(monkeypatch, burn_ins):
    # the tape's inputs are the batch's rows of the run's one window gather,
    # not a second gather off the span
    import tbptt.training as training

    ds, _ = gen_synthetic(5, 41, 0.05)
    config = lin_config(N=7, stride=3, batch_size=3, epochs=2, mode="stateful")
    windows, _ = segment_arrays(ds, make_plan(ds.T, config.N, config.stride))
    taped = []
    real_step = training.sgd_step

    def spy(params, xs, ys, batch, config, **kwargs):
        taped.append((batch, kwargs["tape"].inputs))
        return real_step(params, xs, ys, batch, config, **kwargs)

    monkeypatch.setattr(training, "sgd_step", spy)
    for _ in train_burn_ins(ds, config, burn_ins):
        pass
    assert len(taped) == 2 * -(-len(windows) // 3)
    for batch, inputs in taped:
        assert inputs.shape == windows[batch].shape
        assert inputs.tobytes() == windows[batch].tobytes()


def test_stateful_span_names_the_span_step_of_a_non_finite_value():
    # batch [3, 4, 5] at N = 7, stride 1: the span starts at segment 2's start
    # (sample 3) and runs through sample 12, the last window's last input
    ds = memoryless_dataset(seed=3, t=20)
    inputs = ds.inputs.copy()
    inputs[9] = np.nan  # input 8 of the span, input 5 of segment 5's window
    plan = make_plan(20, 7, 1)
    xs, _ = segment_arrays(TimeSeriesDataset(inputs, ds.targets), plan)
    params = init_params(CellSpec("elman", 1, 2, 1), 4)
    with pytest.raises(NonFiniteError) as err:
        _stateful_inits(params, inputs, xs, plan, np.zeros((plan.S, 2)), [3, 4, 5])
    assert err.value.time_index == 8


def recurrent_norm_start(spec, seed, norm):
    params = init_params(spec, seed)
    w = params.block("W_hh")
    return params.with_block("W_hh", w * (norm / spectral_norm(w)))


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("bound", [None, 0.999])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda spec: spec.kind)
@pytest.mark.parametrize("case", ["zero_init", "stateful", "full_bptt"])
def test_train_burn_ins_equal_train_per_burn_in(case, spec, optimizer, bound, stride):
    ds, _ = gen_synthetic(4, 40, 0.05)
    # full BPTT is zero-init training on the one window N = T, so S = 1
    mode, N, batch = ("zero_init", ds.T, 1) if case == "full_bptt" else (case, 7, 3)
    config = TrainConfig(spec=spec, N=N, m=0, batch_size=batch,
                         optimizer=optimizer, lr=0.02, epochs=2, stride=stride, seed=2,
                         spectral_bound=bound, mode=mode)
    # under a bound, a start above it: the first projection scales every model
    init = recurrent_norm_start(spec, 5, 1.2) if bound else None
    burn_ins = [0, 2, 6]
    stacked = list(train_burn_ins(ds, config, burn_ins, init=init))
    assert len(stacked) == 1 + config.epochs
    for r, m in enumerate(burn_ins):
        alone = train(ds, replace(config, m=m), init=init)
        # the per-epoch log of train, rebuilt from start r of each yielded epoch
        records = []
        for epoch, (params, xs, ys) in enumerate(stacked[1:]):
            objective, d_theta = full_batch_gradient(
                Params(params.theta[r], params.spec), xs, ys, m)
            records.append(EpochRecord(epoch, objective, float(np.linalg.norm(d_theta))))
        npt.assert_array_equal(stacked[-1][0].theta[r], alone.params.theta)
        assert records == alone.records
        assert len(alone.records) == 2


def test_train_burn_ins_rejects_bad_burn_in():
    ds = memoryless_dataset(t=20)
    with pytest.raises(ValueError):
        next(train_burn_ins(ds, lin_config(N=6), [0, 6]))  # m > N-1
    with pytest.raises(ValueError):
        next(train_burn_ins(ds, lin_config(N=6), []))


@pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda spec: spec.kind)
@pytest.mark.parametrize("mode", ["zero_init", "stateful"])
@pytest.mark.parametrize("N", [21, 41])
def test_full_batch_objective_equals_gradient_objective(spec, mode, N):
    # the forward-only objective has the bits of the gradient call's, on the
    # parameters after each epoch of a training run with three burn-ins
    ds, _ = gen_synthetic(5, 120, 0.05)
    config = TrainConfig(spec=spec, N=N, m=0, batch_size=16, optimizer="adam", lr=0.02,
                         epochs=2, seed=1, mode=mode)
    burn_ins = [0, 5, 10]
    for params, xs, ys in train_burn_ins(ds, config, burn_ins):
        for r, m in enumerate(burn_ins):
            model = Params(params.theta[r], params.spec)
            assert full_batch_objective(model, xs, ys, m) == full_batch_gradient(model, xs, ys, m)[0]


def test_train_stateful_runs_and_logs():
    ds = memoryless_dataset(seed=9, t=30)
    config = lin_config(mode="stateful", epochs=8, batch_size=3, N=6, m=1)
    log = train(ds, config)
    assert len(log.records) == 8
    assert all(np.isfinite(r.objective) for r in log.records)


# --- near-degenerate and non-finite recurrent blocks -------------------------


def near_degenerate_w(d=4, seed=11):
    """Q diag(1, 1 - 1e-4, 0.5, ...) R: top two singular values nearly equal."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    r, _ = np.linalg.qr(rng.normal(size=(d, d)))
    sigmas = np.concatenate([[1.0, 1.0 - 1e-4], 0.5 ** np.arange(1, d - 1)])
    return q @ np.diag(sigmas) @ r


def test_train_from_near_degenerate_recurrent_block_completes():
    ds, _ = gen_synthetic(3, 40, 0.05)
    spec = CellSpec("elman", 1, 4, 1)
    init = init_params(spec, 2).with_block("W_hh", near_degenerate_w())
    config = TrainConfig(spec=spec, N=8, m=2, batch_size=8,
                         optimizer="sgd", lr=1e-6, epochs=2, seed=1,
                         spectral_bound=0.999)
    log = train(ds, config, init=init)
    assert len(log.records) == 2
    assert spectral_norm(log.params.block("W_hh")) <= 0.999 * (1 + 1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projection_rejects_nonfinite_recurrent_block(bad):
    spec = CellSpec("elman", 1, 3, 1)
    w = np.eye(3)
    w[1, 2] = bad
    params = init_params(spec, 0).with_block("W_hh", w)
    with pytest.raises(TrainingError, match="W_hh"):
        project_stability(params, 0.999)


def test_stacked_projection_rejects_one_nonfinite_start():
    spec = CellSpec("elman", 1, 3, 1)
    theta = np.stack([init_params(spec, seed).theta for seed in range(3)])
    start, _, _ = init_params(spec, 0).layout["W_hh"]
    theta[1, start + 5] = np.nan
    with pytest.raises(TrainingError, match="W_hh"):
        project_stability(Params(theta, spec), 0.999)


# --- windows gathered once per run ------------------------------------------


@pytest.mark.parametrize("mode", ["zero_init", "stateful"])
@pytest.mark.parametrize("epochs", [1, 3])
def test_train_gathers_windows_once_per_run(monkeypatch, mode, epochs):
    import tbptt.training as training

    calls = []
    real = training.segment_arrays

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "segment_arrays", counting)
    log = train(memoryless_dataset(t=30), lin_config(epochs=epochs, N=6, mode=mode))
    assert len(log.records) == epochs
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["elman", "lstm"])
def test_train_logs_every_epoch_in_one_workspace(monkeypatch, kind):
    # the epoch log's full-batch passes share one workspace, and each
    # record has the bits of a call that allocates its own buffers
    import tbptt.training as training

    workspaces = []
    real = training.full_batch_gradient

    def spy(params, xs, ys, m, workspace=None):
        workspaces.append(workspace)
        got = real(params, xs, ys, m, workspace)
        want = real(params, xs, ys, m)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        return got

    monkeypatch.setattr(training, "full_batch_gradient", spy)
    ds, _ = gen_synthetic(5, 41, 0.05)
    log = train(ds, lin_config(spec=CellSpec(kind, 1, 3, 1), epochs=3, N=7))
    assert len(log.records) == 3
    assert workspaces[0] is not None
    assert all(w is workspaces[0] for w in workspaces)


# --- the epoch log's gradient in checkpointed blocks -------------------------

BLOCK_CELLS = [
    CellSpec("linear", 2, 3, 2, activation="identity", use_biases=False),
    CellSpec("elman", 2, 3, 2, activation="tanh"),
    CellSpec("elman", 2, 3, 2, activation="relu"),
    CellSpec("lstm", 2, 3, 2),
    CellSpec("elman", 1, 8, 1, activation="tanh"),
]


def block_case(spec, N, S, seed=0):
    """Seeded parameters and the S windows of length N of a random series,
    gathered as the epoch log gathers them."""
    rng = np.random.default_rng(seed)
    T = N + S - 1
    ds = TimeSeriesDataset(rng.normal(size=(T, spec.d_x)), rng.normal(size=(T, spec.d_y)))
    xs, ys = segment_arrays(ds, make_plan(T, N, 1))
    return init_params(spec, 40 + seed), xs, ys


def count_forwards(monkeypatch):
    calls = []
    real = autodiff.batched_forward

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(autodiff, "batched_forward", counting)
    return calls


def spy_step_ranges(monkeypatch, xs):
    """The (lo, hi) step range of ``xs`` that each ``autodiff.batched_forward``
    call runs, in call order; every call's inputs are a view of ``xs``."""
    ranges = []
    real = autodiff.batched_forward

    def spying(params, h0, inputs, *args, **kwargs):
        assert np.shares_memory(inputs, xs)
        offset = inputs.__array_interface__["data"][0] - xs.__array_interface__["data"][0]
        lo = offset // xs.strides[1]
        ranges.append((lo, lo + inputs.shape[1]))
        return real(params, h0, inputs, *args, **kwargs)

    monkeypatch.setattr(autodiff, "batched_forward", spying)
    return ranges


@pytest.mark.parametrize("N", [21, 41])
@pytest.mark.parametrize("spec", [CellSpec("elman", 1, 8, 1), CellSpec("lstm", 1, 8, 1)],
                         ids=lambda s: s.kind)
def test_value_and_gradient_passes_share_their_blocks(monkeypatch, spec, N):
    # S = 50 windows: the value pass's forwards are the blocks of the
    # gradient's rule, and so are the gradient's first forwards; the
    # re-records after them walk every block but the last in reverse
    S = 50
    params, xs, ys = block_case(spec, N, S)
    L = autodiff._checkpoint_steps(spec, S, N)
    blocks = [(lo, min(lo + L, N)) for lo in range(0, N, L)]
    assert len(blocks) > 1
    ranges = spy_step_ranges(monkeypatch, xs)
    full_batch_objective(params, xs, ys, 5)
    assert ranges == blocks
    ranges.clear()
    full_batch_gradient(params, xs, ys, 5)
    assert ranges == blocks + blocks[-2::-1]


@pytest.mark.parametrize("S, N", [(1, 21), (50, 1)], ids=["S1", "N1"])
@pytest.mark.parametrize("spec", [CellSpec("elman", 1, 8, 1), CellSpec("lstm", 1, 8, 1)],
                         ids=lambda s: s.kind)
def test_one_block_passes_make_one_forward(monkeypatch, spec, S, N):
    # one row, or one step: each pass is one forward of all N steps, and the
    # gradient differentiates that forward's own tape, with the bits of
    # weighted_loss_grad and without calling it
    params, xs, ys = block_case(spec, N, S)
    want_loss, want_theta, _ = weighted_loss_grad(params, None, xs, ys,
                                                  segment_weights(N, 0, S))

    def refuse(*args, **kwargs):
        raise AssertionError("the one-block gradient called weighted_loss_grad")

    monkeypatch.setattr(autodiff, "weighted_loss_grad", refuse)
    ranges = spy_step_ranges(monkeypatch, xs)
    assert full_batch_objective(params, xs, ys, 0) == want_loss
    assert ranges == [(0, N)]
    ranges.clear()
    loss, d_theta = full_batch_gradient(params, xs, ys, 0)
    assert ranges == [(0, N)]
    assert loss == want_loss
    assert d_theta.tobytes() == want_theta.tobytes()


@pytest.mark.parametrize("m_last", [False, True], ids=["m0", "mN-1"])
@pytest.mark.parametrize("B", [2, 5])
@pytest.mark.parametrize("N", [1, 2, 5, 21])
@pytest.mark.parametrize("spec", BLOCK_CELLS, ids=lambda s: f"{s.kind}-{s.activation}-{s.d_h}")
def test_full_batch_gradient_in_blocks_equals_one_pass(monkeypatch, spec, N, B, m_last):
    # with more than one row, every window length above one step runs in
    # blocks of the rule's size (one step to three here, a shorter last
    # block at some N): one chunk forward per block and one re-record per
    # block but the last, whose tape is its chunk's; one block is one
    # forward. Loss and gradient keep the one pass's bits
    m = N - 1 if m_last else 0
    params, xs, ys = block_case(spec, N, B)
    want_loss, want_theta, _ = weighted_loss_grad(params, None, xs, ys, segment_weights(N, m, B))
    blocks = -(-N // autodiff._checkpoint_steps(spec, B, N))
    assert (blocks > 1) == (N > 1)
    forwards = count_forwards(monkeypatch)
    loss, d_theta = full_batch_gradient(params, xs, ys, m)
    assert len(forwards) == 2 * blocks - 1
    assert loss == want_loss
    assert d_theta.tobytes() == want_theta.tobytes()


@pytest.mark.parametrize("steps", [1, 2, 4, 20])
@pytest.mark.parametrize("spec", BLOCK_CELLS, ids=lambda s: f"{s.kind}-{s.activation}-{s.d_h}")
def test_checkpointed_gradient_any_block_size_equals_one_pass(monkeypatch, spec, steps):
    # block sizes the rule would not pick, 20 of 21 steps a block of one
    # step after it; and starts stacked on a leading axis with their own
    # burn-in weights, each with its unstacked call's bits
    N, B = 21, 5
    params, xs, ys = block_case(spec, N, B, seed=1)
    stacked = Params(np.stack([params.theta, init_params(spec, 9).theta]), spec)
    w = np.stack([segment_weights(N, 0, B), segment_weights(N, 7, B)])
    want = weighted_loss_grad(stacked, None, xs, ys, w)
    monkeypatch.setattr(autodiff, "_checkpoint_steps", lambda *args: steps)
    forwards = count_forwards(monkeypatch)
    loss, d_theta = autodiff.checkpointed_loss_grad(stacked, xs, ys, w)
    assert len(forwards) == 2 * -(-N // steps) - 1
    assert loss.tobytes() == want[0].tobytes()
    assert d_theta.tobytes() == want[1].tobytes()
    for r in range(2):
        alone = autodiff.checkpointed_loss_grad(Params(stacked.theta[r], spec), xs, ys, w[r])
        assert alone[0] == loss[r] and alone[1].tobytes() == d_theta[r].tobytes()


@pytest.mark.parametrize("overflow", ["forward", "cogradients"])
def test_full_batch_gradient_in_blocks_raises_the_one_pass_error(monkeypatch, overflow):
    # an overflow in a later block than the first: the error of the forward
    # pass names the one pass's step, and so does that of a cogradient
    N, B = 100, 3
    x = np.ones((B, N, 1))
    if overflow == "forward":
        params, y = scalar_linear(1e4, 1e4, 1e4), np.ones((B, N, 1))
    else:
        params, y = scalar_linear(0.5, 1.0, 1.0), np.ones((B, N, 1))
        y[1, 60:] = -np.finfo(float).max
        params = Params(params.theta * np.array([1.0, 1.0, 1e300]), params.spec)
    with pytest.raises(NonFiniteError) as one_pass:
        weighted_loss_grad(params, None, x, y, segment_weights(N, 0, B))
    assert autodiff._checkpoint_steps(params.spec, B, N) < 60
    with pytest.raises(NonFiniteError) as blocked:
        full_batch_gradient(params, x, y, 0)
    assert blocked.value.where == one_pass.value.where
    assert blocked.value.time_index == one_pass.value.time_index > 60


@pytest.mark.parametrize("spec", [CellSpec("elman", 1, 8, 1), CellSpec("lstm", 1, 4, 1)],
                         ids=lambda s: s.kind)
def test_full_batch_gradient_memory_is_its_cogradients_checkpoints_and_one_block(spec):
    # S = 1000 windows of N = 40 steps: beyond the cogradients (and their
    # squares), the weights, the checkpoints and one block of every row, the
    # peak is a few steps of every row, not the whole tape and its adjoints
    S, N = 1000, 40
    params, xs, ys = block_case(spec, N, S)
    full_batch_gradient(params, xs, ys, 5)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        full_batch_gradient(params, xs, ys, 5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    sd, d_h = spec.state_dim, spec.d_h
    # states, gates and tanh c, adjoint buffers and outputs, per row and step
    v = sd + (11 * d_h if spec.kind == "lstm" else d_h) + spec.d_y
    steps = autodiff._checkpoint_steps(spec, S, N)
    assert 1 < steps < N
    itemsize = xs.itemsize
    errors = weights = S * N * itemsize
    checkpoints = -(-N // steps) * S * sd * itemsize
    block = S * (steps * v + sd) * itemsize
    one_step = S * (v + spec.d_x) * itemsize
    assert peak <= 2 * errors + weights + checkpoints + block + 2 * one_step + 32 * 1024


@pytest.mark.parametrize("spec", [CellSpec("elman", 1, 3, 1), CellSpec("lstm", 1, 3, 1)],
                         ids=lambda s: s.kind)
def test_full_batch_gradient_warm_call_keeps_its_workspace_buffers(spec):
    # N = 41 steps in blocks that do not divide it: the short last block
    # takes views of the full blocks' buffers, so a warm call, each epoch
    # after the first, makes no buffer, and has the bits of a cold call
    S, N = 50, 41
    params, xs, ys = block_case(spec, N, S)
    assert N % autodiff._checkpoint_steps(spec, S, N)
    workspace = Workspace()
    full_batch_gradient(params, xs, ys, 5, workspace)
    held = dict(workspace.buffers)
    loss, d_theta = full_batch_gradient(params, xs, ys, 5, workspace)
    assert workspace.buffers.keys() == held.keys()
    assert all(workspace.buffers[name] is a for name, a in held.items())
    want_loss, want_theta = full_batch_gradient(params, xs, ys, 5)
    assert loss == want_loss
    assert d_theta.tobytes() == want_theta.tobytes()
