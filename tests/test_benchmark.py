import numpy as np
import numpy.testing as npt
import pytest

from helpers import (
    assert_near_exact, exact_linear_loss_grad, gen_synthetic, pack, read_solution, realizing_params,
)
from tbptt import cli
from tbptt.autodiff import (
    WINDOW_TERMS, linear_scan_loss_grad, linear_window_loss_grad, weighted_loss_grad,
)
from tbptt.benchmark import (
    VARIANTS,
    LiftedSolution,
    OptConfig,
    _Problem,
    _solve,
    coupled_time_weights,
    evaluate,
    solve_variant,
)
from tbptt.data import make_plan, segment_arrays
from tbptt.linalg import spectral_norm
from tbptt.rng import _mix
from tbptt import rnn_core
from tbptt.rnn_core import CellSpec, NonFiniteError, batched_forward, forward, init_params
from tbptt.training import AdamState, TrainConfig, train

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
    sol = solve_variant("tbptt", ds, plan, 6, LIN1, FAST).sol
    assert sol.objective < 1e-6
    assert sol.diagnostics["bounded"]


def test_unconstrained_realizable_hits_zero(clean_instance):
    ds, plan, gen = clean_instance
    opt = OptConfig(restarts=2, max_iters=6000, lr=0.05, plateau_iters=300,
                    extra_starts=[(realizing_params(gen, ds), None)])
    record = solve_variant("unconstrained", ds, plan, 0, LIN2, opt)
    assert record.sol.objective < 1e-9
    _, targets = segment_arrays(ds, plan)
    assert np.max(np.abs(record.outputs - targets)) < 1e-4


def test_coupled_realizable_with_true_start(clean_instance):
    ds, plan, gen = clean_instance
    opt = OptConfig(restarts=2, max_iters=6000, lr=0.05, plateau_iters=300,
                    extra_starts=[(realizing_params(gen, ds),
                                   gen.state_at_start[None, :])])
    sol = solve_variant("coupled", ds, plan, 0, LIN2, opt).sol
    assert sol.objective < 1e-9


def test_coupled_single_segment_equals_unconstrained(noisy_instance):
    ds, _ = noisy_instance
    plan = make_plan(60, 60, 1)
    assert plan.S == 1
    c = solve_variant("coupled", ds, plan, 3, LIN1, FAST).sol
    u = solve_variant("unconstrained", ds, plan, 3, LIN1, FAST).sol
    assert c.objective == pytest.approx(u.objective, abs=1e-8)


def test_feasible_set_ordering_with_warm_starts(noisy_instance):
    ds, plan = noisy_instance
    m = 2
    star = solve_variant("tbptt", ds, plan, m, LIN1, FAST).sol
    bench_opt = OptConfig(**{**FAST.__dict__, "extra_starts": [(star.params, None)]})
    bench_record = solve_variant("coupled", ds, plan, m, LIN1, bench_opt)
    bench = bench_record.sol
    un_opt = OptConfig(
        **{
            **FAST.__dict__,
            "extra_starts": [
                (star.params, None),
                (bench.params, bench_record.states[:, 0]),
            ],
        }
    )
    un = solve_variant("unconstrained", ds, plan, m, LIN1, un_opt).sol
    assert un.objective <= bench.objective + 1e-7
    assert un.objective <= star.objective + 1e-7


def test_coupled_reconstruction_bitwise(noisy_instance):
    ds, plan = noisy_instance
    record = solve_variant("coupled", ds, plan, 2, LIN1, FAST)
    sol, inits = record.sol, record.states[:, 0]
    global_traj = forward(sol.params, sol.init_states[0], ds.inputs)
    npt.assert_array_equal(record.full.hidden, global_traj.hidden)
    for i, s in enumerate(plan.starts):
        seg_traj = forward(sol.params, inits[i], ds.inputs[s - 1 : s - 1 + plan.N])
        npt.assert_array_equal(seg_traj.outputs,
                               global_traj.outputs[s - 1 : s - 1 + plan.N])


def test_coupled_objective_matches_segment_evaluation(noisy_instance):
    # the weighted single-trajectory objective equals the average segment loss
    # evaluated from the reconstructed initial states
    ds, plan = noisy_instance
    m = 3
    record = solve_variant("coupled", ds, plan, m, LIN1, FAST)
    _, targets = segment_arrays(ds, plan)
    err = np.sum((record.outputs[:, m:] - targets[:, m:]) ** 2, axis=2)
    direct = err.sum() / (plan.S * (plan.N - m))
    assert record.sol.objective == pytest.approx(direct, rel=1e-12)


def test_tbptt_matches_training_fixed_point(noisy_instance):
    ds, plan = noisy_instance
    m = 1
    theta0 = init_params(LIN1, 0)
    config = TrainConfig(spec=LIN1, N=plan.N, m=m, batch_size=plan.S,
                         optimizer="adam", lr=0.02, epochs=300, seed=0,
                         spectral_bound=0.999)
    log = train(ds, config, init=theta0)
    opt = OptConfig(restarts=0, max_iters=20000, lr=0.02,
                    extra_starts=[(theta0, None)], plateau_iters=500)
    sol = solve_variant("tbptt", ds, plan, m, LIN1, opt).sol
    assert sol.objective <= log.records[-1].objective + 1e-9
    assert sol.objective == pytest.approx(log.records[-1].objective, abs=1e-6)


def test_single_step_windows_degenerate_case(noisy_instance):
    ds, _ = noisy_instance
    plan = make_plan(60, 1, 1)
    sol = solve_variant("tbptt", ds, plan, 0, LIN1, FAST).sol
    xs, ys = segment_arrays(ds, plan)
    _, outputs, _ = batched_forward(sol.params, np.zeros((plan.S, 1)), xs)
    manual = float(np.mean(np.sum((outputs - ys) ** 2, axis=2)))
    assert sol.objective == pytest.approx(manual, rel=1e-12)


def test_solutions_respect_spectral_bound(noisy_instance):
    ds, plan = noisy_instance
    for variant in ("tbptt", "coupled", "unconstrained"):
        sol = solve_variant(variant, ds, plan, 1, LIN1, FAST).sol
        assert spectral_norm(sol.params.block("W_hh")) <= 0.999 * (1 + 1e-9)


def test_variant_init_state_shapes(noisy_instance):
    ds, plan = noisy_instance
    star = solve_variant("tbptt", ds, plan, 1, LIN1, FAST).sol
    bench = solve_variant("coupled", ds, plan, 1, LIN1, FAST).sol
    un = solve_variant("unconstrained", ds, plan, 1, LIN1, FAST).sol
    assert star.init_states.shape == (0, 1)
    assert bench.init_states.shape == (1, 1)
    assert un.init_states.shape == (plan.S, 1)
    assert star.variant == "tbptt"


def test_lifted_solution_json_roundtrip(noisy_instance):
    ds, plan = noisy_instance
    sol = solve_variant("coupled", ds, plan, 1, LIN1, FAST).sol
    again = read_solution(cli.to_json(sol))
    npt.assert_array_equal(again.params.theta, sol.params.theta)
    npt.assert_array_equal(again.init_states, sol.init_states)
    assert again.objective == sol.objective
    assert again.variant == sol.variant
    assert again.converged == sol.converged


def test_evaluate_rejects_mismatched_plan(noisy_instance):
    ds, plan = noisy_instance
    un = solve_variant("unconstrained", ds, plan, 1, LIN1, FAST).sol
    with pytest.raises(ValueError):
        evaluate(un, ds, make_plan(60, 10, 2))


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
    alone = solve_variant("tbptt", ds, plan, 1, LIN1, OptConfig(**base)).sol
    both = solve_variant("tbptt", ds, plan, 1, LIN1,
                         OptConfig(**base, extra_starts=[(huge, None)])).sol
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


# --- the stacked solver against the serial one --------------------------------


def serial_solve(problem, opt):
    """The solver as it ran before starts were stacked: one start after
    another, each to its own stop. Also returns each start's (stop reason,
    last iteration, best objective)."""
    starts = [problem.join(params, states) for params, states in opt.extra_starts]
    for r in range(opt.restarts):
        starts.append(problem.join(init_params(problem.spec, _mix(opt.seed ^ _mix(1000 + r))),
                                   None))
    best_z = None
    best_obj = np.inf
    iters_used = failed = 0
    error = None
    stops = []
    for z0 in starts:
        reason, start_best, it = "max_iters", np.inf, 0
        try:
            z = problem.project(z0.copy(), opt.spectral_bound)
            adam = AdamState(z0.shape)
            anchor_obj, anchor_it = np.inf, 0
            for it in range(opt.max_iters):
                obj, grad = problem.value_grad(z)
                iters_used += 1
                if not np.isfinite(obj):
                    raise NonFiniteError("solver objective", it + 1)
                start_best = min(start_best, obj)
                if obj < best_obj:
                    best_obj, best_z = obj, z.copy()
                if obj < anchor_obj - opt.plateau_tol:
                    anchor_obj, anchor_it = obj, it
                if not np.isfinite(grad).all():
                    raise NonFiniteError("solver gradient", it + 1)
                if float(np.linalg.norm(grad)) <= opt.grad_tol:
                    reason = "grad_tol"
                    break
                if it - anchor_it >= opt.plateau_iters:
                    reason = "plateau"
                    break
                z = problem.project(z - adam.direction(grad, opt.lr), opt.spectral_bound)
        except NonFiniteError as exc:
            failed += 1
            error = exc
            reason = "non_finite"
        stops.append((reason, it, start_best))
    if best_z is None:
        raise error
    obj, grad = problem.value_grad(best_z)
    grad_norm = float(np.linalg.norm(grad))
    params, states = problem.split(best_z)
    sol = LiftedSolution(params=params, init_states=states, objective=float(obj),
                         variant=problem.variant, converged=grad_norm <= opt.grad_tol,
                         grad_norm=grad_norm,
                         diagnostics={"iterations": iters_used, "starts": len(starts),
                                      "failed_starts": failed})
    return sol, stops


STACK_SPECS = {
    "linear": CellSpec("linear", 1, 2, 1, activation="identity", use_biases=False),
    "elman": CellSpec("elman", 1, 2, 1),
    "lstm": CellSpec("lstm", 1, 2, 1),
}


def flat_start(problem):
    """Zero weights and, with biases, the weighted mean target as output
    bias: the gradient vanishes to rounding, so the start stops on grad_tol."""
    spec = problem.spec
    blocks = {name: np.zeros_like(b) for name, b in init_params(spec, 0).unpack().items()}
    if spec.use_biases:
        w = problem.w[..., None]
        blocks["b_y"] = np.sum(w * problem.ys, axis=(0, 1)) / np.sum(w)
    return pack(spec, blocks)


def twin_start(spec):
    """Two hidden units with the same weights, read out with +C and -C: the
    output is rounding noise times C. Its objective is finite and its
    gradient overflows, so the start fails on its first pass, with or
    without a projection."""
    blocks = dict(init_params(spec, 9).unpack())
    for name in ("W_hh", "W_xh", "b_h"):
        if name in blocks:
            blocks[name] = blocks[name].copy()
            blocks[name][1::2] = blocks[name][0::2]
    blocks["W_hy"] = np.array([[1e165, -1e165]])
    return pack(spec, blocks)


def mirror(params, states):
    """The sign-flipped hidden units of a linear or tanh cell, whose every
    objective ties the original's bit for bit; an LSTM start is repeated."""
    if params.spec.kind == "lstm":
        return params, states
    flipped = params.with_block("W_xh", -params.block("W_xh"))
    flipped = flipped.with_block("W_hy", -params.block("W_hy"))
    if params.spec.use_biases:
        flipped = flipped.with_block("b_h", -params.block("b_h"))
    return flipped, None if states is None else -states


@pytest.fixture(scope="module")
def stack_instance():
    ds, _ = gen_synthetic(seed=3, T=40, noise_std=0.05)
    return ds, make_plan(40, 8, 1)


@pytest.mark.parametrize("rho", [None, 0.5])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kind", list(STACK_SPECS))
def test_stacked_solve_equals_serial_solve(stack_instance, kind, variant, rho):
    ds, plan = stack_instance
    spec = STACK_SPECS[kind]
    problem = _Problem(variant, ds, plan, 2, spec)
    states = None
    if variant != "tbptt":
        states = np.random.default_rng(0).normal(scale=0.3, size=(problem.n_states,
                                                                  spec.state_dim))
    p0, p1 = (init_params(spec, 23), states), (init_params(spec, 21), None)
    loud = p0[0].with_block("W_hy", p0[0].block("W_hy") * 1e160)  # objective overflows
    # each random start comes after its tied twin, so the best one is always a tie
    extra = [mirror(*p0), mirror(*p1), (flat_start(problem), None), (loud, None),
             (twin_start(spec), None)]
    opt = OptConfig(restarts=0, max_iters=150, lr=0.05, plateau_iters=10, plateau_tol=1e-4,
                    spectral_bound=rho, extra_starts=extra + [p0, p1])
    want, stops = serial_solve(problem, opt)
    got = _solve(problem, opt)

    npt.assert_array_equal(got.params.theta, want.params.theta)
    npt.assert_array_equal(got.init_states, want.init_states)
    assert got.objective == want.objective
    assert got.grad_norm == want.grad_norm
    assert got.converged == want.converged
    assert got.diagnostics == want.diagnostics
    # the scenario holds every stop rule and a tie at the best objective
    reasons = [reason for reason, _, _ in stops]
    assert reasons[2] == "grad_tol"
    assert reasons[3] == "non_finite"
    assert "plateau" in reasons
    assert stops[4][:2] == ("non_finite", 0)
    best = sorted(b for _, _, b in stops)
    assert best[0] == best[1]


@pytest.mark.parametrize("rho", [None, 0.5])
@pytest.mark.parametrize("kind", list(STACK_SPECS))
def test_overflowing_gradient_fails_alone(stack_instance, kind, rho):
    # the twin start's objective counts, then it fails alone, also when a
    # spectral bound would have to project its NaN step
    ds, plan = stack_instance
    spec = STACK_SPECS[kind]
    problem = _Problem("tbptt", ds, plan, 2, spec)
    base = dict(restarts=1, max_iters=20, spectral_bound=rho)
    alone = _solve(problem, OptConfig(**base))
    both = _solve(problem, OptConfig(**base, extra_starts=[(twin_start(spec), None)]))
    assert alone.diagnostics == {"iterations": 20, "starts": 1, "failed_starts": 0}
    assert both.diagnostics == {"iterations": 21, "starts": 2, "failed_starts": 1}
    assert both.objective == alone.objective
    npt.assert_array_equal(both.params.theta, alone.params.theta)


def test_solve_evaluates_once_per_iteration(stack_instance, monkeypatch):
    # the answer's objective and gradient norm are kept from the loop
    ds, plan = stack_instance
    problem = _Problem("tbptt", ds, plan, 2, STACK_SPECS["elman"])
    evaluate_stack = problem.value_grad
    rows = []
    monkeypatch.setattr(problem, "value_grad",
                        lambda z: rows.append(z.shape[:-1]) or evaluate_stack(z))
    sol = _solve(problem, OptConfig(restarts=2, max_iters=20, plateau_iters=300))
    assert rows == [(2,)] * 20
    assert sol.diagnostics["iterations"] == 40


# --- one workspace per solve ---------------------------------------------------


def identity_start(spec, **blocks):
    """A start of the identity cell of ``spec``'s shape from its weight
    blocks, with zero biases when the cell has them: the same map either way."""
    if spec.use_biases:
        blocks |= {"b_h": np.zeros(spec.d_h), "b_y": np.zeros(spec.d_y)}
    return pack(spec, blocks)


def ramp_start(problem):
    """An identity-cell start of two equal hidden units that grow to about
    3e154 over the longest sequence, read out by zeros: its first objective
    and gradient are finite, and after its first Adam step of 10 its
    objective overflows, so it fails in the second iteration."""
    longest = problem.xs.shape[1]
    c = (3e154 / np.max(np.abs(problem.xs))) ** (1.0 / (longest - 1))
    return identity_start(problem.spec, W_hh=c * np.eye(2), W_xh=[[1.0], [1.0]],
                          W_hy=[[0.0, 0.0]])


# linear problems take no loop pass (the scan, the window pass), so the
# linear cases run an identity Elman cell of the same shape on the loop
WORKSPACE_SPECS = {**STACK_SPECS, "linear": CellSpec("elman", 1, 2, 1, activation="identity")}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kind", list(WORKSPACE_SPECS))
def test_solve_in_one_workspace_equals_fresh_buffers(stack_instance, kind, variant):
    # the stack shrinks as starts fail (linear huge: its first forward pass
    # overflows and the rest are evaluated again; twin: end of iteration 1;
    # ramp: iteration 2) and stop on plateaus; every size of it runs in the
    # problem's workspace
    ds, plan = stack_instance
    spec = WORKSPACE_SPECS[kind]
    shared, fresh = (_Problem(variant, ds, plan, 2, spec) for _ in range(2))
    assert shared.linear_pass is None
    if variant != "coupled":
        # the loop reads segment_arrays' windows as they are, batch-major
        xs, ys = segment_arrays(ds, plan)
        assert shared.xs.flags.c_contiguous and shared.ys.flags.c_contiguous
        assert shared.xs.tobytes() == xs.tobytes() and shared.ys.tobytes() == ys.tobytes()
    fresh.workspace = None  # every pass allocates its own buffers
    extra = [(init_params(spec, 23), None), (twin_start(spec), None)]
    if kind == "linear":
        huge = identity_start(spec, W_hh=1e200 * np.eye(2), W_xh=[[1.0], [1.0]],
                              W_hy=[[1.0, 1.0]])
        extra += [(huge, None), (ramp_start(shared), None)]
    opt = OptConfig(restarts=2, max_iters=60, lr=10.0 if kind == "linear" else 0.05,
                    plateau_iters=10, plateau_tol=1e-3, spectral_bound=None,
                    extra_starts=extra)
    sizes = []
    evaluate_stack = shared.value_grad
    shared.value_grad = lambda z: sizes.append(z.shape[0]) or evaluate_stack(z)
    got, want = _solve(shared, opt), _solve(fresh, opt)

    assert got.params.theta.tobytes() == want.params.theta.tobytes()
    assert got.init_states.tobytes() == want.init_states.tobytes()
    assert got.objective == want.objective
    assert got.grad_norm == want.grad_norm
    assert got.diagnostics == want.diagnostics
    starts = len(extra) + 2
    if kind == "linear":
        assert sizes[:4] == [starts, starts - 1, starts - 2, starts - 3]
        assert got.diagnostics["failed_starts"] == 3
    else:
        assert sizes[:2] == [starts, starts - 1]
    assert len(set(sizes)) > 2, sizes


def test_solve_reuses_its_workspace_per_stack_shape(stack_instance, monkeypatch):
    # an iteration allocates full-length buffers only when the stack's shape
    # is new; the same buffer objects serve every iteration of one shape,
    # and no array value_grad returns shares their memory
    ds, plan = stack_instance
    problem = _Problem("unconstrained", ds, plan, 2, STACK_SPECS["lstm"])
    allocated = []
    allocate = rnn_core.empty_time_major
    monkeypatch.setattr(rnn_core, "empty_time_major",
                        lambda *args: allocated.append(args) or allocate(*args))
    seen = []  # (stack size, allocations, the workspace's buffers) per iteration
    evaluate_stack = problem.value_grad

    def spy(z):
        allocated.clear()
        obj, grad = evaluate_stack(z)
        buffers = dict(problem.workspace.buffers)
        assert not any(np.shares_memory(a, b) for a in (obj, grad) for b in buffers.values())
        seen.append((z.shape[0], len(allocated), buffers))
        return obj, grad

    monkeypatch.setattr(problem, "value_grad", spy)
    _solve(problem, OptConfig(restarts=2, max_iters=40, plateau_iters=10, plateau_tol=1e-4,
                              spectral_bound=None,
                              extra_starts=[(twin_start(problem.spec), None)]))
    names = {"states", "outputs", "gates", "tanh_c", "dz", "c_path", "dh_out"}
    assert [size for size, _, _ in seen[:2]] == [3, 2]
    for (size, made, buffers), (last_size, _, last) in zip(seen[1:], seen):
        assert buffers.keys() == names
        if size == last_size:
            assert made == 0
            assert all(buffers[name] is last[name] for name in names)
        else:
            assert made == len(names)
            assert not any(buffers[name] is last[name] for name in names)
    assert sum(size == last for (size, _, _), (last, _, _) in zip(seen[1:], seen)) >= 10


# --- the coupled objective against exact arithmetic ----------------------------


def exact_value_grad(problem, z):
    """The coupled objective and gradient at one point z of a linear
    problem, exactly: the loss and the gradient in z's order."""
    params, states = problem.split(z)
    blocks = params.unpack()
    loss, grads, d_h0 = exact_linear_loss_grad(
        blocks["W_hh"], blocks["W_xh"], blocks["W_hy"], states[0], problem.xs[0],
        problem.ys[0], problem.w[0])
    flat = [g for name in params.layout for row in grads[name] for g in row]
    return loss, flat + d_h0


def test_coupled_scan_and_loop_lie_near_the_exact_values(stack_instance):
    # T = 40, two chunks of the scan: both float paths, stacked and
    # unstacked, within 1e-13 of the exact loss and gradient
    ds, plan = stack_instance
    spec = STACK_SPECS["linear"]
    problem = _Problem("coupled", ds, plan, 2, spec)
    assert problem.linear_pass is linear_scan_loss_grad and ds.T == 40
    rng = np.random.default_rng(4)
    z = np.stack([problem.join(init_params(spec, 30 + r), rng.normal(size=(1, 2)))
                  for r in range(2)])
    stacked_obj, stacked_grad = problem.value_grad(z)
    for r in range(2):
        loss, grad = exact_value_grad(problem, z[r])
        params, states = problem.split(z[r])
        loop_loss, d_theta, d_h0 = weighted_loss_grad(params, states, problem.xs, problem.ys,
                                                      problem.w)
        scan_obj, scan_grad = problem.value_grad(z[r])
        assert scan_obj == stacked_obj[r]
        assert scan_grad.tobytes() == stacked_grad[r].tobytes()
        for value, gradient in [(loop_loss, np.concatenate([d_theta, d_h0.ravel()])),
                                (scan_obj, scan_grad)]:
            assert_near_exact([value], [loss], 1e-13)
            assert_near_exact(gradient, grad, 1e-13)


# --- the linear window problems through the impulse response -------------------


@pytest.mark.parametrize("variant", ["tbptt", "unconstrained"])
def test_window_problem_on_a_strided_plan_matches_the_loop(stack_instance, variant):
    # stride 5 over T = 40 with N = 8: the last window is clipped to end at
    # T, overlapping the one before it by 6 steps
    ds, _ = stack_instance
    plan = make_plan(40, 8, 5)
    assert plan.starts[-2:] == (31, 33)
    problem = _Problem(variant, ds, plan, 2, LIN2)
    assert problem.linear_pass is linear_window_loss_grad
    assert problem.xs.flags.c_contiguous and problem.ys.flags.c_contiguous
    rng = np.random.default_rng(6)
    z = np.stack([problem.join(init_params(LIN2, 30 + r), rng.normal(size=(plan.S, 2)))
                  for r in range(2)])
    obj, grad = problem.value_grad(z)
    xs, ys = segment_arrays(ds, plan)
    for r in range(2):
        params, states = problem.split(z[r])
        h0 = np.zeros((plan.S, 2)) if variant == "tbptt" else states
        loss, d_theta, d_h0 = weighted_loss_grad(params, h0, xs, ys, problem.w)
        want = d_theta if variant == "tbptt" else np.concatenate([d_theta, d_h0.ravel()])
        assert abs(obj[r] - loss) <= 1e-13 * abs(loss)
        assert np.max(np.abs(grad[r] - want)) <= 1e-13 * np.max(np.abs(want))


def test_window_above_the_bound_takes_the_loop():
    # N·d_x·d_y = WINDOW_TERMS takes the window pass; one more step, the
    # step loop, whose bits value_grad then returns
    ds, _ = gen_synthetic(seed=4, T=WINDOW_TERMS + 20, noise_std=0.05)
    at, above = (_Problem("unconstrained", ds, make_plan(ds.T, N, 7), 3, LIN2)
                 for N in (WINDOW_TERMS, WINDOW_TERMS + 1))
    assert at.linear_pass is linear_window_loss_grad
    assert above.linear_pass is None
    rng = np.random.default_rng(2)
    start = init_params(LIN2, 5)
    start = start.with_block("W_hh", 0.5 * start.block("W_hh"))
    z = above.join(start, rng.normal(size=(above.plan.S, 2)))
    obj, grad = above.value_grad(z)
    params, states = above.split(z)
    loss, d_theta, d_h0 = weighted_loss_grad(params, states, *segment_arrays(ds, above.plan),
                                             above.w)
    assert obj == loss
    assert grad.tobytes() == np.concatenate([d_theta, d_h0.ravel()]).tobytes()
