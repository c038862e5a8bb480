import numpy as np
import numpy.testing as npt
import pytest

from tbptt.benchmark import (
    LiftedSolution,
    OptConfig,
    coupled_time_weights,
    segment_initial_states,
    solve_variant,
    variant_trajectories,
)
from tbptt.data import gen_synthetic, make_plan, segment_arrays
from tbptt.linalg import spectral_norm
from tbptt.rnn_core import CellSpec, NonFiniteError, batched_forward, forward, init_params, pack
from tbptt.training import AdamConfig, TrainConfig, train

LIN1 = CellSpec("linear", 1, 1, 1, activation="identity", use_biases=False)
LIN2 = CellSpec("linear", 1, 2, 1, activation="identity", use_biases=False)

FAST = OptConfig(restarts=2, max_iters=4000, lr=0.05, plateau_iters=200, seed=0)


@pytest.fixture(scope="module")
def noisy_instance():
    ds, _ = gen_synthetic(seed=3, T=60, noise_std=0.05)
    return ds, make_plan(60, 10, 1)


@pytest.fixture(scope="module")
def clean_instance():
    # noise-free and started at rest: exactly realizable with two hidden states
    ds, gen = gen_synthetic(seed=5, T=60, noise_std=0.0, warmup=0)
    return ds, make_plan(60, 10, 1), gen


def test_coupled_time_weights_cover_objective():
    plan = make_plan(30, 6, 2)
    m = 2
    w = coupled_time_weights(plan, m, 30)
    assert w.sum() == plan.S * (plan.N - m)
    # nothing before the first window's burn-in end contributes
    assert np.all(w[:m] == 0)
    assert w[-1] >= 1


def test_tbptt_solution_realizable_reaches_zero():
    # fast-forgetting true model: a burn-in of 6 buries the zero-init
    # transient (0.25^7 ~ 6e-5), so the true parameters reach ~0
    from tbptt.rng import SplitMix64
    from tbptt.data import TimeSeriesDataset

    truth = pack(LIN1, {"W_hh": [[0.25]], "W_xh": [[1.0]], "W_hy": [[1.0]]})
    x = SplitMix64(12).normals(60)[:, None]
    y = forward(truth, None, x).outputs
    ds = TimeSeriesDataset(x, y)
    plan = make_plan(60, 12, 1)
    sol = solve_variant("tbptt", ds, plan, 6, LIN1, FAST)
    assert sol.objective < 1e-6
    assert sol.diagnostics["bounded"]


def test_unconstrained_realizable_hits_zero(clean_instance):
    ds, plan, gen = clean_instance
    opt = OptConfig(restarts=2, max_iters=6000, lr=0.05, plateau_iters=300,
                    extra_starts=[(gen.realizing_params(), None)])
    sol = solve_variant("unconstrained", ds, plan, 0, LIN2, opt)
    assert sol.objective < 1e-9
    outputs = variant_trajectories(sol, ds, plan)[1]
    _, targets = segment_arrays(ds, plan)
    assert np.max(np.abs(outputs - targets)) < 1e-4


def test_coupled_realizable_with_true_start(clean_instance):
    ds, plan, gen = clean_instance
    opt = OptConfig(restarts=2, max_iters=6000, lr=0.05, plateau_iters=300,
                    extra_starts=[(gen.realizing_params(),
                                   gen.state_at_start[None, :])])
    sol = solve_variant("coupled", ds, plan, 0, LIN2, opt)
    assert sol.objective < 1e-9


def test_coupled_single_segment_equals_unconstrained(noisy_instance):
    ds, _ = noisy_instance
    plan = make_plan(60, 60, 1)
    assert plan.S == 1
    c = solve_variant("coupled", ds, plan, 3, LIN1, FAST)
    u = solve_variant("unconstrained", ds, plan, 3, LIN1, FAST)
    assert c.objective == pytest.approx(u.objective, abs=1e-8)


def test_feasible_set_ordering_with_warm_starts(noisy_instance):
    ds, plan = noisy_instance
    m = 2
    star = solve_variant("tbptt", ds, plan, m, LIN1, FAST)
    bench_opt = OptConfig(**{**FAST.__dict__, "extra_starts": [(star.params, None)]})
    bench = solve_variant("coupled", ds, plan, m, LIN1, bench_opt)
    un_opt = OptConfig(
        **{
            **FAST.__dict__,
            "extra_starts": [
                (star.params, None),
                (bench.params, segment_initial_states(bench, ds, plan)),
            ],
        }
    )
    un = solve_variant("unconstrained", ds, plan, m, LIN1, un_opt)
    assert un.objective <= bench.objective + 1e-7
    assert un.objective <= star.objective + 1e-7


def test_coupled_reconstruction_bitwise(noisy_instance):
    ds, plan = noisy_instance
    sol = solve_variant("coupled", ds, plan, 2, LIN1, FAST)
    inits = segment_initial_states(sol, ds, plan)
    global_traj = forward(sol.params, sol.init_states[0], ds.inputs)
    for i, s in enumerate(plan.starts):
        seg_traj = forward(sol.params, inits[i], ds.inputs[s - 1 : s - 1 + plan.N])
        npt.assert_array_equal(seg_traj.outputs,
                               global_traj.outputs[s - 1 : s - 1 + plan.N])


def test_coupled_objective_matches_segment_evaluation(noisy_instance):
    # the weighted single-trajectory objective equals the average segment loss
    # evaluated from the reconstructed initial states
    ds, plan = noisy_instance
    m = 3
    sol = solve_variant("coupled", ds, plan, m, LIN1, FAST)
    outputs = variant_trajectories(sol, ds, plan)[1]
    _, targets = segment_arrays(ds, plan)
    err = np.sum((outputs[:, m:] - targets[:, m:]) ** 2, axis=2)
    direct = err.sum() / (plan.S * (plan.N - m))
    assert sol.objective == pytest.approx(direct, rel=1e-12)


def test_tbptt_matches_training_fixed_point(noisy_instance):
    ds, plan = noisy_instance
    m = 1
    theta0 = init_params(LIN1, 0)
    config = TrainConfig(spec=LIN1, N=plan.N, m=m, batch_size=plan.S,
                         optimizer=AdamConfig(lr=0.02), epochs=300, seed=0,
                         spectral_bound=0.999)
    log = train(ds, config, init=theta0)
    opt = OptConfig(restarts=0, max_iters=20000, lr=0.02,
                    extra_starts=[(theta0, None)], plateau_iters=500)
    sol = solve_variant("tbptt", ds, plan, m, LIN1, opt)
    assert sol.objective <= log.records[-1].objective + 1e-9
    assert sol.objective == pytest.approx(log.records[-1].objective, abs=1e-6)


def test_single_step_windows_degenerate_case(noisy_instance):
    ds, _ = noisy_instance
    plan = make_plan(60, 1, 1)
    sol = solve_variant("tbptt", ds, plan, 0, LIN1, FAST)
    xs, ys = segment_arrays(ds, plan)
    _, outputs, _ = batched_forward(sol.params, np.zeros((plan.S, 1)), xs)
    manual = float(np.mean(np.sum((outputs - ys) ** 2, axis=2)))
    assert sol.objective == pytest.approx(manual, rel=1e-12)


def test_solutions_respect_spectral_bound(noisy_instance):
    ds, plan = noisy_instance
    for variant in ("tbptt", "coupled", "unconstrained"):
        sol = solve_variant(variant, ds, plan, 1, LIN1, FAST)
        assert spectral_norm(sol.params.block("W_hh")) <= 0.999 * (1 + 1e-9)


def test_variant_init_state_shapes(noisy_instance):
    ds, plan = noisy_instance
    star = solve_variant("tbptt", ds, plan, 1, LIN1, FAST)
    bench = solve_variant("coupled", ds, plan, 1, LIN1, FAST)
    un = solve_variant("unconstrained", ds, plan, 1, LIN1, FAST)
    assert star.init_states.shape == (0, 1)
    assert bench.init_states.shape == (1, 1)
    assert un.init_states.shape == (plan.S, 1)
    assert star.variant == "tbptt"


def test_lifted_solution_json_roundtrip(noisy_instance):
    ds, plan = noisy_instance
    sol = solve_variant("coupled", ds, plan, 1, LIN1, FAST)
    again = LiftedSolution.from_json(sol.to_json())
    npt.assert_array_equal(again.params.theta, sol.params.theta)
    npt.assert_array_equal(again.init_states, sol.init_states)
    assert again.objective == sol.objective
    assert again.variant == sol.variant
    assert again.converged == sol.converged


def test_burn_in_validated(noisy_instance):
    ds, plan = noisy_instance
    with pytest.raises(ValueError):
        solve_variant("tbptt", ds, plan, plan.N, LIN1, FAST)


@pytest.mark.parametrize("budget", [dict(restarts=0), dict(max_iters=0)])
def test_zero_budget_rejected(noisy_instance, budget):
    ds, plan = noisy_instance
    with pytest.raises(ValueError, match="restarts|max_iters"):
        solve_variant("tbptt", ds, plan, 1, LIN1, OptConfig(**{"restarts": 1, **budget}))


def test_diverging_start_fails_alone(noisy_instance):
    # an unprojected huge W_hh overflows the forward pass: that start ends,
    # the seeded restart beside it still gives the answer
    ds, plan = noisy_instance
    huge = pack(LIN1, {"W_hh": [[1e200]], "W_xh": [[1.0]], "W_hy": [[1.0]]})
    base = dict(restarts=1, max_iters=300, spectral_bound=None)
    alone = solve_variant("tbptt", ds, plan, 1, LIN1, OptConfig(**base))
    both = solve_variant("tbptt", ds, plan, 1, LIN1,
                         OptConfig(**base, extra_starts=[(huge, None)]))
    assert both.diagnostics["failed_starts"] == 1
    assert both.diagnostics["starts"] == 2
    assert alone.diagnostics["failed_starts"] == 0
    assert both.objective == alone.objective
    npt.assert_array_equal(both.params.theta, alone.params.theta)


def test_every_start_diverging_raises(noisy_instance):
    ds, plan = noisy_instance
    huge = pack(LIN1, {"W_hh": [[1e200]], "W_xh": [[1.0]], "W_hy": [[1.0]]})
    opt = OptConfig(restarts=0, max_iters=10, spectral_bound=None,
                    extra_starts=[(huge, None)])
    with pytest.raises(NonFiniteError):
        solve_variant("tbptt", ds, plan, 1, LIN1, opt)
