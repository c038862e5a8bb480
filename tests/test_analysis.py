import math

import numpy as np
import numpy.testing as npt
import pytest

from helpers import gen_synthetic, pack
from tbptt.analysis import (
    ObservedSets,
    StabilityEstimate,
    bound_constants,
    collect_observed,
    epsilon_check,
    estimate_stability,
    merge_stability,
    performance,
    regret_report,
    thm2_radicand,
    turnpike_errors,
)
from tbptt.benchmark import LiftedSolution, OptConfig, evaluate, solve_variant
from tbptt.data import TimeSeriesDataset, make_plan
from tbptt.rng import SplitMix64
from tbptt.rnn_core import CellSpec, Params, batched_forward, forward, init_params

LIN1 = CellSpec("linear", 1, 1, 1, activation="identity", use_biases=False)
FAST = OptConfig(restarts=2, max_iters=4000, lr=0.05, plateau_iters=200, seed=0)


def scalar_linear(a, b, c):
    return pack(LIN1, {"W_hh": [[a]], "W_xh": [[b]], "W_hy": [[c]]})


def tbptt_record(params, ds, plan):
    sol = LiftedSolution(
        params=params,
        init_states=np.zeros((0, params.spec.state_dim)),
        objective=0.0,
        variant="tbptt",
        converged=True,
        grad_norm=0.0,
    )
    return evaluate(sol, ds, plan)


def zero_pass(params, ds):
    return forward(params, None, ds.inputs)


@pytest.fixture(scope="module")
def solved_instance():
    ds, _ = gen_synthetic(seed=3, T=60, noise_std=0.05)
    plan = make_plan(60, 10, 1)
    m = 2
    star = solve_variant("tbptt", ds, plan, m, LIN1, FAST)
    bench_opt = OptConfig(**{**FAST.__dict__, "extra_starts": [(star.sol.params, None)]})
    bench = solve_variant("coupled", ds, plan, m, LIN1, bench_opt)
    un_opt = OptConfig(
        **{
            **FAST.__dict__,
            "extra_starts": [
                (star.sol.params, None),
                (bench.sol.params, bench.states[:, 0]),
            ],
        }
    )
    un = solve_variant("unconstrained", ds, plan, m, LIN1, un_opt)
    return ds, plan, m, star, bench, un


# --- performance metric -----------------------------------------------------


def test_performance_zero_for_perfect_predictor():
    params = scalar_linear(0.0, 1.0, 2.0)
    x = SplitMix64(1).normals(20)[:, None]
    ds = TimeSeriesDataset(x, 2.0 * x)
    assert performance(zero_pass(params, ds), ds, 0) == pytest.approx(0.0, abs=1e-28)


def test_performance_single_term_at_max_burn_in():
    params = scalar_linear(0.3, 1.0, 1.0)
    x = np.ones((5, 1))
    ds = TimeSeriesDataset(x, np.zeros((5, 1)))
    y5 = forward(params, None, x).outputs[-1, 0]
    assert performance(zero_pass(params, ds), ds, 4) == pytest.approx(y5**2)


def test_performance_hand_value():
    # predictions (0, 1, 2) on targets (0, 0, 0): errors (., 1, 2) after m=1
    params = scalar_linear(0.0, 1.0, 1.0)
    x = np.array([[0.0], [1.0], [2.0]])
    ds = TimeSeriesDataset(x, np.zeros((3, 1)))
    assert performance(zero_pass(params, ds), ds, 1) == pytest.approx((1.0 + 4.0) / 2)


def test_performance_m0_is_plain_mse():
    params = scalar_linear(0.4, 0.8, 1.0)
    x = SplitMix64(2).normals(15)[:, None]
    yd = SplitMix64(3).normals(15)[:, None]
    ds = TimeSeriesDataset(x, yd)
    outs = forward(params, None, x).outputs
    assert performance(zero_pass(params, ds), ds, 0) == pytest.approx(
        float(np.mean((outs - yd) ** 2)), rel=1e-14
    )


def test_performance_rejects_large_burn_in():
    params = scalar_linear(0.0, 1.0, 1.0)
    ds = TimeSeriesDataset(np.ones((4, 1)), np.ones((4, 1)))
    with pytest.raises(ValueError):
        performance(zero_pass(params, ds), ds, 4)


# --- stability estimation ---------------------------------------------------


def test_stability_recovers_scalar_decay_rate():
    a, c = 0.8, 1.7
    params = scalar_linear(a, 0.5, c)
    ds, _ = gen_synthetic(seed=6, T=80, noise_std=0.1)
    est = estimate_stability(params, ds, [zero_pass(params, ds)], num_pairs=12, seed=4)[0]
    assert est.lam < 1.0
    assert est.lam == pytest.approx(a, abs=1e-6)
    # envelope convention C lambda^t >= r_t with r_t = |c| a^t exactly
    assert est.C == pytest.approx(abs(c), rel=1e-7)
    *_, (t, r), _ = per_pair_stability(params, ds, num_pairs=12, seed=4)
    assert np.max(r - est.C * est.lam**t) <= 1e-12


@pytest.mark.parametrize("a", [0.3, 0.5])
def test_stability_envelope_constant_ignores_rounding_noise(a):
    # on a long input r_t = |c| a^t sinks into rounding noise; C must come
    # from the samples lambda was fitted on, not from noise times lambda^-t
    params = scalar_linear(a, 0.5, 1.7)
    ds, _ = gen_synthetic(seed=6, T=400)
    est = estimate_stability(params, ds, [zero_pass(params, ds)], num_pairs=12, seed=4)[0]
    assert est.C == pytest.approx(1.7, rel=0.01)


def test_stability_envelope_dominates_all_samples():
    ds, _ = gen_synthetic(seed=7, T=60, noise_std=0.1)
    from tbptt.rnn_core import init_params
    from tbptt.training import project_stability

    params = project_stability(init_params(CellSpec("elman", 1, 3, 1), 5), 0.95)
    est = estimate_stability(params, ds, [zero_pass(params, ds)], num_pairs=16, seed=9)[0]
    *_, tested, (t, r), _ = per_pair_stability(params, ds, num_pairs=16, seed=9)
    assert tested > 0
    assert np.max(r - est.C * est.lam**t) <= 1e-12
    assert 0.0 < est.lam <= 1.0


def test_stability_insensitive_model_degenerates_gracefully():
    params = scalar_linear(0.5, 1.0, 0.0)  # output never sees the state
    ds, _ = gen_synthetic(seed=8, T=40, noise_std=0.1)
    est = estimate_stability(params, ds, [zero_pass(params, ds)], num_pairs=8, seed=1)[0]
    assert est == StabilityEstimate(C=0.0, lam=0.5)
    # no pair at all falls under the same no-sample rule
    params = scalar_linear(0.5, 1.0, 1.0)
    assert estimate_stability(params, ds, [zero_pass(params, ds)], num_pairs=0) == [est]


def per_pair_stability(params, dataset, num_pairs, seed):
    """estimate_stability's samples with one forward pass per pair, from the
    pair's start; returns (lambda, C, pairs tested, (t, r), (t_all, r_all)):
    the samples (t, r_t) that lambda and C are fitted on, then every sample of
    the pairs tested, in draw order, before the fit drops rounding noise."""
    sd = params.spec.state_dim
    states, _, _ = batched_forward(params, np.zeros((1, sd)), dataset.inputs[None])
    radius = 2.0 * float(np.max(np.linalg.norm(states[0], axis=1))) or 1.0
    rng = SplitMix64(seed).spawn(0x57AB)
    min_len = min(8, dataset.T)
    ts, rs = [], []
    for _ in range(num_pairs):
        start = rng.randrange(dataset.T - min_len + 1)
        x = dataset.inputs[start:]
        pair = np.empty((2, sd))
        for row in range(2):
            direction = rng.normals(sd)
            norm = np.linalg.norm(direction)
            direction = direction / norm if norm > 0 else np.eye(sd)[0]
            pair[row] = radius * rng.uniform() ** (1.0 / sd) * direction
        gap = float(np.linalg.norm(pair[0] - pair[1]))
        if gap < 1e-12:
            continue
        _, outs, _ = batched_forward(params, pair, np.broadcast_to(x, (2, *x.shape)))
        ts.append(np.arange(1, x.shape[0] + 1, dtype=np.float64))
        rs.append(np.linalg.norm(outs[0] - outs[1], axis=1) / gap)
    t_all, r_all = np.concatenate([[], *ts]), np.concatenate([[], *rs])
    if not np.any(r_all > 0.0):  # no pair, or outputs blind to the state
        return 0.5, 0.0, len(rs), (t_all[:0], r_all[:0]), (t_all, r_all)
    keep = r_all > 1e-13 * np.max(r_all)
    t, r = t_all[keep], r_all[keep]
    slope = float(np.polyfit(t, np.log(r), 1)[0]) if np.ptp(t) > 0 else 0.0
    lam = min(math.exp(slope), 1.0) if slope < 0 else 1.0
    with np.errstate(over="ignore"):
        ratios = r / lam**t
    return lam, float(np.max(ratios[np.isfinite(ratios)])), len(rs), (t, r), (t_all, r_all)


STABILITY_CELLS = {
    "linear": lambda: scalar_linear(0.8, 0.5, 1.7),
    "elman": lambda: init_params(CellSpec("elman", 1, 3, 1), 5),
    "lstm": lambda: init_params(CellSpec("lstm", 1, 3, 1), 2),
}


@pytest.mark.parametrize("cell", sorted(STABILITY_CELLS))
@pytest.mark.parametrize("T, num_pairs", [(60, 16), (9, 12), (5, 6), (60, 1)])
def test_stability_staggered_pass_matches_per_pair_runs(cell, T, num_pairs):
    # T = 9 draws starts from {0, 1} (repeated starts); T = 5 < 8 starts
    # every pair at 0
    params = STABILITY_CELLS[cell]()
    ds, _ = gen_synthetic(seed=T, T=T, noise_std=0.1)
    est = estimate_stability(params, ds, [zero_pass(params, ds)], num_pairs=num_pairs, seed=3)[0]
    lam, C, tested, *_ = per_pair_stability(params, ds, num_pairs, seed=3)
    assert tested == num_pairs
    assert est.lam == pytest.approx(lam, rel=1e-6)
    assert est.C == pytest.approx(C, rel=1e-6)


@pytest.mark.parametrize("cell", sorted(STABILITY_CELLS))
@pytest.mark.parametrize("T, num_pairs", [(60, 16), (9, 12), (5, 6), (300, 16)])
def test_stability_samples_match_per_pair_runs(monkeypatch, cell, T, num_pairs):
    # the samples themselves, not only the fitted constants, which amplify
    # rounding: the staggered pass's r_t are the per-pair runs' to within
    # 1e-14 of the largest, at the same t and in the same order
    import tbptt.analysis as analysis

    params = STABILITY_CELLS[cell]()
    ds, _ = gen_synthetic(seed=T, T=T, noise_std=0.1)
    fits = []
    real = analysis._fit_envelope
    monkeypatch.setattr(analysis, "_fit_envelope", lambda *a: fits.append(a) or real(*a))
    analysis.estimate_stability(params, ds, [zero_pass(params, ds)], num_pairs=num_pairs, seed=3)
    ((r, starts, kept),) = fits
    *_, tested, _, (t_want, r_want) = per_pair_stability(params, ds, num_pairs, seed=3)
    assert tested == num_pairs and kept.all()
    t = np.concatenate([np.arange(1, T - start + 1) for start in starts])
    got = np.concatenate([row[start:] for row, start in zip(r, starts)])
    npt.assert_array_equal(t, t_want)
    assert np.max(np.abs(got - r_want)) <= 1e-14 * np.max(r_want)


# W_hh nilpotent: a state difference reaches the output at t = 1 and is
# gone from t = 2 on
NILPOTENT = pack(CellSpec("linear", 1, 2, 1, activation="identity", use_biases=False),
                 {"W_hh": [[0.0, 1.0], [0.0, 0.0]], "W_xh": [[0.5], [0.3]], "W_hy": [[1.0, 0.7]]})


@pytest.mark.parametrize("cell, T", [("nilpotent", 30), ("elman", 1), ("lstm", 1)])
def test_stability_from_one_step_fits_no_rate(cell, T):
    # every sample the fit keeps lies at t = 1, which shows no decay rate:
    # lambda = 1 and C the largest sample, with no rank warning of a fit
    params = NILPOTENT if cell == "nilpotent" else STABILITY_CELLS[cell]()
    ds, _ = gen_synthetic(seed=5, T=T, noise_std=0.1)
    est = estimate_stability(params, ds, [zero_pass(params, ds)], num_pairs=8, seed=2)[0]
    *_, tested, (t, r), _ = per_pair_stability(params, ds, num_pairs=8, seed=2)
    assert tested == 8 and set(t) == {1.0}
    assert est.lam == 1.0
    assert est.C == pytest.approx(np.max(r), rel=1e-12)


def scaled_input_block(params, factor):
    """The model with its input weights scaled: its hidden states, and with
    them its probe radius, shrink or grow."""
    return params.with_block("W_xh", params.block("W_xh") * factor)


def stack(models):
    return Params(np.stack([p.theta for p in models]), models[0].spec)


@pytest.mark.parametrize("cell", sorted(STABILITY_CELLS))
@pytest.mark.parametrize("T, num_pairs", [(60, 16), (9, 12), (300, 16)])
def test_stacked_stability_equals_per_model_calls(monkeypatch, cell, T, num_pairs):
    import tbptt.analysis as analysis

    base = STABILITY_CELLS[cell]()
    models = [base, scaled_input_block(base, 0.01), scaled_input_block(base, 0.5)]
    ds, _ = gen_synthetic(seed=T, T=T, noise_std=0.1)
    trajs = [zero_pass(p, ds) for p in models]
    radii = [np.max(np.linalg.norm(t.hidden, axis=1)) for t in trajs]
    assert radii[0] >= 10 * radii[1]
    alone = [estimate_stability(p, ds, [t], num_pairs=num_pairs, seed=3)[0]
             for p, t in zip(models, trajs)]
    assert all(per_pair_stability(p, ds, num_pairs, seed=3)[2] == num_pairs for p in models)

    calls = []
    real = analysis.estimate_stability
    monkeypatch.setattr(analysis, "estimate_stability",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    for k in (2, 3):  # two models whose radii differ 10x and more, then all three
        stacked = analysis.estimate_stability(stack(models[:k]), ds, trajs[:k],
                                              num_pairs=num_pairs, seed=3)
        assert stacked == alone[:k]
    assert len(calls) == 2  # one shared pass each, no per-model fallback


@pytest.mark.parametrize("cell", sorted(STABILITY_CELLS))
def test_stacked_stability_with_different_degenerate_pairs_runs_one_pass(monkeypatch, cell):
    import tbptt.analysis as analysis

    base = STABILITY_CELLS[cell]()
    # hidden states near 1e-14: every pair of the second model is degenerate
    models = [base, scaled_input_block(base, 1e-14)]
    ds, _ = gen_synthetic(seed=6, T=60, noise_std=0.1)
    trajs = [zero_pass(p, ds) for p in models]
    alone = [estimate_stability(p, ds, [t], num_pairs=16, seed=3)[0] for p, t in zip(models, trajs)]
    assert [per_pair_stability(p, ds, 16, seed=3)[2] for p in models] == [16, 0]
    assert alone[1] == StabilityEstimate(C=0.0, lam=0.5)

    calls = []
    real = analysis.estimate_stability
    monkeypatch.setattr(analysis, "estimate_stability",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    stacked = analysis.estimate_stability(stack(models), ds, trajs, num_pairs=16, seed=3)
    assert stacked == alone
    assert len(calls) == 1  # the degenerate pairs run too, and give the second model no sample


def test_stability_of_a_list_of_one_is_a_list():
    params = STABILITY_CELLS["elman"]()
    ds, _ = gen_synthetic(seed=6, T=40, noise_std=0.1)
    traj = zero_pass(params, ds)
    (est,) = estimate_stability(params, ds, [traj], num_pairs=8, seed=1)
    assert est == estimate_stability(params, ds, [traj], num_pairs=8, seed=1)[0]
    with pytest.raises(ValueError, match="trajectories"):
        estimate_stability(stack([params, params]), ds, [traj], num_pairs=8, seed=1)


def test_merge_stability_dominates_both():
    a = StabilityEstimate(C=1.0, lam=0.5)
    b = StabilityEstimate(C=2.0, lam=0.7)
    merged = merge_stability(a, b)
    assert merged == StabilityEstimate(C=2.0, lam=0.7)
    assert merged.lam < 1.0


# --- turnpike errors --------------------------------------------------------


def test_turnpike_self_comparison_is_zero(solved_instance):
    ds, plan, m, star, _, _ = solved_instance
    rep = turnpike_errors(star, star, m)
    npt.assert_array_equal(rep.e_j, 0.0)
    assert rep.sum_e == 0.0
    assert len(rep.e_j) == plan.N - m


def test_turnpike_errors_decay_along_window(solved_instance):
    ds, plan, m, star, bench, _ = solved_instance
    rep = turnpike_errors(star, bench, m)
    assert rep.e_j[0] > rep.e_j[-1]
    assert np.all(rep.e_j >= 0)
    assert rep.sum_e == pytest.approx(float(np.sum(rep.e_j)))
    assert rep.reference == "coupled"


def test_turnpike_sum_bounded_by_envelope_constant(solved_instance):
    # converged solutions obey sum_e <= 10 K lambda^m with constructive K
    ds, plan, m, star, bench, un = solved_instance
    stab = merge_stability(
        estimate_stability(star.sol.params, ds, [zero_pass(star.sol.params, ds)],
                           num_pairs=16, seed=2)[0],
        estimate_stability(un.sol.params, ds, [zero_pass(un.sol.params, ds)],
                           num_pairs=16, seed=3)[0],
    )
    eps_max = epsilon_check(star, un, ds, plan, m)
    observed = collect_observed([star, bench, un], ds)
    constants = bound_constants(stab, eps_max, observed)
    if constants.finite:
        rep = turnpike_errors(star, un, m)
        assert rep.sum_e <= 10.0 * constants.K * constants.lam**m


def test_corollary_triangle_split(solved_instance):
    # exact Young-inequality split, no fitted constants
    ds, plan, m, star, bench, un = solved_instance
    sc = turnpike_errors(star, bench, m).sum_e
    su = turnpike_errors(star, un, m).sum_e
    cu = turnpike_errors(bench, un, m).sum_e
    assert sc <= 2.0 * su + 2.0 * cu + 1e-12


# --- epsilon check ----------------------------------------------------------


def test_epsilon_identical_solutions(solved_instance):
    ds, plan, m, star, _, _ = solved_instance
    assert math.isinf(epsilon_check(star, star, ds, plan, m))


def test_epsilon_orthogonal_residual_case():
    # reference output equals the data on evaluated steps: cross term vanishes
    x = SplitMix64(4).normals(30)[:, None]
    truth = scalar_linear(0.0, 1.0, 1.5)
    ds = TimeSeriesDataset(x, forward(truth, None, x).outputs)
    plan = make_plan(30, 6, 1)
    ref = tbptt_record(truth, ds, plan)
    other = tbptt_record(scalar_linear(0.0, 1.0, 1.2), ds, plan)
    assert np.any(other.outputs != ref.outputs)
    assert math.isinf(epsilon_check(other, ref, ds, plan, 0))


def test_epsilon_on_solved_instance(solved_instance):
    ds, plan, m, star, _, un = solved_instance
    assert epsilon_check(star, un, ds, plan, m) > 1.0


# --- bound constants --------------------------------------------------------


def test_bound_constants_plugin_arithmetic():
    stab = StabilityEstimate(C=1.0, lam=0.5)
    observed = ObservedSets(max_output_norm=0.6, max_target_norm=0.4, max_hidden_norm=1.0)
    constants = bound_constants(stab, 2.0, observed)
    assert constants.L_l == pytest.approx(2.0)
    assert constants.C_bar == pytest.approx(2.0 * 1.0 * 1.0 * 0.5 / 0.5)  # = 2
    assert constants.K == pytest.approx(4.0)  # C_bar * eps / (eps - 1)
    assert constants.c1 == pytest.approx(1.0)
    assert constants.c2 == pytest.approx(0.25 / 0.75)
    # c2 < 4K, so E1 takes the 8K branch
    assert constants.E1 == pytest.approx(8.0 * constants.K)
    assert constants.E2 == pytest.approx(2.0 * math.sqrt(constants.E1))
    assert constants.finite


def test_bound_constants_vanish_with_lambda():
    stab = StabilityEstimate(C=1.0, lam=1e-9)
    observed = ObservedSets(1.0, 1.0, 1.0)
    constants = bound_constants(stab, 2.0, observed)
    assert constants.C_bar < 1e-8


def test_bound_constants_infinite_without_stability():
    stab = StabilityEstimate(C=1.0, lam=1.0)
    constants = bound_constants(stab, 2.0, ObservedSets(1.0, 1.0, 1.0))
    assert not constants.finite
    assert math.isinf(constants.C_bar)
    assert math.isinf(constants.E2)


def test_bound_constants_default_epsilon_when_unbounded():
    stab = StabilityEstimate(C=1.0, lam=0.5)
    constants = bound_constants(stab, math.inf, ObservedSets(0.5, 0.5, 1.0))
    assert constants.epsilon == 2.0
    assert constants.finite


# --- regret report ----------------------------------------------------------


def test_thm2_radicand_plugin_value():
    # (79 * 0.9^40 + 80 * 0.9^12) / 88, recomputed independently
    val = thm2_radicand(S=80, lam=0.9, m=12, o_min=20, T=100)
    expected = (79 * 0.9**40 + 80 * 0.9**12) / 88
    assert val == pytest.approx(expected, rel=1e-15)
    assert val == pytest.approx(0.2700233, abs=5e-7)
    assert math.sqrt(val) == pytest.approx(0.5196377, abs=5e-7)


def test_regret_report_degenerate_equality(solved_instance):
    ds, plan, m, star, _, _ = solved_instance
    stab = StabilityEstimate(C=1.0, lam=0.5)
    observed = collect_observed([star], ds)
    constants = bound_constants(stab, math.inf, observed)
    rep = regret_report(star, evaluate(star_as_bench(star.sol), ds, plan), ds, plan, m,
                        constants)
    assert rep.training_regret == 0.0
    assert rep.performance_regret == 0.0
    assert not rep.thm1_violation
    assert rep.thm2_rhs is not None and not rep.thm2_violation


def star_as_bench(star):
    # identical parameters framed as a benchmark with a zero initial state
    return LiftedSolution(
        params=star.params,
        init_states=np.zeros((1, star.params.spec.state_dim)),
        objective=star.objective,
        variant="coupled",
        converged=True,
        grad_norm=0.0,
    )


def test_regret_report_on_solved_instance(solved_instance):
    ds, plan, m, star, bench, un = solved_instance
    stab = merge_stability(
        estimate_stability(star.sol.params, ds, [zero_pass(star.sol.params, ds)],
                           num_pairs=16, seed=2)[0],
        estimate_stability(bench.sol.params, ds, [zero_pass(bench.sol.params, ds)],
                           num_pairs=16, seed=3)[0],
    )
    eps_max = epsilon_check(star, un, ds, plan, m)
    observed = collect_observed([star, bench, un], ds)
    constants = bound_constants(stab, eps_max, observed)
    rep = regret_report(star, bench, ds, plan, m, constants)
    assert rep.V_star == star.sol.objective
    assert rep.V_bench == bench.sol.objective
    assert rep.m == m and rep.N == plan.N and rep.S == plan.S and rep.o_min == plan.o_min
    assert rep.thm2_rhs is not None  # m=2 <= o_min=9


def test_regret_report_skips_thm2_beyond_overlap():
    ds, _ = gen_synthetic(seed=9, T=40, noise_std=0.05)
    plan = make_plan(40, 8, 4)  # o_min = 4
    m = 6
    star = solve_variant("tbptt", ds, plan, m, LIN1, FAST)
    bench = solve_variant("coupled", ds, plan, m, LIN1, FAST)
    stab = StabilityEstimate(C=1.0, lam=0.5)
    constants = bound_constants(stab, math.inf,
                                collect_observed([star, bench], ds))
    rep = regret_report(star, bench, ds, plan, m, constants)
    assert rep.thm2_rhs is None
    assert rep.thm2_violation is None


def test_regret_report_evaluates_coupled_bench_from_its_state(solved_instance):
    ds, plan, m, star, bench, _ = solved_instance
    stab = StabilityEstimate(C=1.0, lam=0.5)
    constants = bound_constants(stab, math.inf,
                                collect_observed([star, bench], ds))
    rep = regret_report(star, bench, ds, plan, m, constants)
    assert rep.P_star == performance(zero_pass(star.sol.params, ds), ds, m)
    assert rep.P_bench == performance(
        forward(bench.sol.params, bench.sol.init_states[0], ds.inputs), ds, m)


@pytest.mark.parametrize("pair", [("bench", "star"), ("star", "un"), ("un", "bench")])
def test_regret_report_rejects_other_variant_pairs(solved_instance, pair):
    ds, plan, m, star, bench, un = solved_instance
    sols = {"star": star, "bench": bench, "un": un}
    stab = StabilityEstimate(C=1.0, lam=0.5)
    constants = bound_constants(stab, math.inf,
                                collect_observed([star, bench], ds))
    with pytest.raises(ValueError, match="tbptt star with a coupled benchmark"):
        regret_report(sols[pair[0]], sols[pair[1]], ds, plan, m, constants)
