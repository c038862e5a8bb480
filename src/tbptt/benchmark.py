"""Desk-scale solvers for the segment-averaged objective under three couplings
of the per-segment initial states:

* ``tbptt``: every segment starts from zero; only theta is free.
* ``coupled``: one free global initial state; all segment starts are read off
  a single length-T trajectory, so hidden sequences agree where windows
  overlap. This is the benchmark an ideal initialization would achieve.
* ``unconstrained``: every segment's initial state is its own free variable.

All three are smooth unconstrained problems after eliminating the coupling
constraints, solved by multi-start Adam with best-iterate tracking and an
optional spectral-norm projection of the recurrent block after every step.
The starts run together on a leading model axis: each solver iteration is
one stacked forward and backward pass over every start still running, so
they share the per-step Python cost of the recurrence. A linear cell's
iterations skip that cost altogether. ``coupled`` runs B = 1 passes over
the whole series, so it takes ``autodiff.linear_scan_loss_grad``, a
chunked scan. ``tbptt`` and ``unconstrained`` run wide batches of short
windows, so they take ``autodiff.linear_window_loss_grad``: each window's
outputs are one product with the Toeplitz matrix of the cell's impulse
response, as long as N·d_x·d_y is at most ``autodiff.WINDOW_TERMS``. Both
agree with the step loop to rounding. Every other pass keeps the loop:
nonlinear cells, windows above that bound, and ``evaluate``'s passes,
which are tied bit for bit to prefixes and restarts of ``forward``.
``solve_variant`` is the one entry point. A start whose iterates stop
being finite ends alone (``failed_starts`` in the diagnostics); the solve
fails only when no start reached a finite objective. ``evaluate`` runs a
solution over the instance once: its full-sequence pass from the variant's
global initial state and its per-window states and outputs, which every
analysis reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    WINDOW_TERMS, linear_scan_loss_grad, linear_window_loss_grad, segment_weights,
    weighted_loss_grad,
)
from .data import SegmentationPlan, TimeSeriesDataset, segment_arrays
from .rng import _mix
from .rnn_core import (
    CellSpec,
    NonFiniteError,
    Params,
    Trajectory,
    Workspace,
    batched_forward,
    empty_time_major,
    forward,
    init_params,
    num_params,
)
from .training import AdamState, project_stability

VARIANTS = ("tbptt", "coupled", "unconstrained")


@dataclass
class OptConfig:
    """Multi-start first-order solver settings."""

    restarts: int = 8
    max_iters: int = 20000
    lr: float = 0.05
    grad_tol: float = 1e-8
    seed: int = 0
    spectral_bound: float | None = 0.999
    plateau_iters: int = 300
    plateau_tol: float = 1e-14
    # extra initial points: list of (Params, init_states or None)
    extra_starts: list = field(default_factory=list)


@dataclass
class LiftedSolution:
    """Best point found for one variant, with convergence diagnostics."""

    variant: str
    objective: float
    converged: bool
    grad_norm: float
    params: Params
    init_states: np.ndarray  # (0 | 1 | S, state_dim)
    diagnostics: dict = field(default_factory=dict)


def coupled_time_weights(plan: SegmentationPlan, m: int, T: int) -> np.ndarray:
    """How many segment loss terms each global time step contributes to."""
    w = np.zeros(T)
    for s in plan.starts:
        w[s - 1 + m : s - 1 + plan.N] += 1.0
    return w


class _Problem:
    """Flat-vector view of one variant: z = [theta, free initial states].

    ``value_grad`` takes one of three passes (``linear_pass``): the chunked
    scan for a linear ``coupled`` problem, the window pass for a linear
    ``tbptt`` or ``unconstrained`` one whose N·d_x·d_y is at most
    ``WINDOW_TERMS``, and the step loop (None) otherwise. ``xs`` and ``ys``
    are kept in the memory the problem's pass reads, so no pass copies
    them: batch-major (S, N, d) for the window pass, which reads each as
    one (S, N·d) matrix, and step-major (``rnn_core``'s module docstring)
    for the loop and the scan (one row, so both orders are the same). The
    loop and the window pass keep their buffers in the problem's one
    ``Workspace`` over the iterations of a solve; ``value_grad`` returns no
    array of them."""

    def __init__(self, variant: str, dataset: TimeSeriesDataset,
                 plan: SegmentationPlan, m: int, spec: CellSpec):
        if variant not in VARIANTS:
            raise ValueError(f"variant {variant!r} not one of {VARIANTS}")
        w = segment_weights(plan.N, m, plan.S)
        self.variant = variant
        self.spec = spec
        self.plan = plan
        self.m = m
        self.n_theta = num_params(spec)
        self.sd = spec.state_dim
        if variant == "coupled":
            self.n_states = 1
            xs, ys = dataset.inputs[None, :, :], dataset.targets[None, :, :]
            # each segment term covering a time step adds one term's weight
            self.w = coupled_time_weights(plan, m, dataset.T)[None, :] * w[0, -1]
        else:
            self.n_states = 0 if variant == "tbptt" else plan.S
            xs, ys = segment_arrays(dataset, plan)
            self.w = w
        self.linear_pass = None  # the step loop
        if spec.kind == "linear" and variant == "coupled":
            self.linear_pass = linear_scan_loss_grad
        elif spec.kind == "linear" and plan.N * spec.d_x * spec.d_y <= WINDOW_TERMS:
            self.linear_pass = linear_window_loss_grad
        if self.linear_pass is linear_window_loss_grad:
            self.xs, self.ys = xs, ys  # batch-major, the window pass's (S, N·d) rows
        else:
            # step-major, the loop's memory; with one row also the scan's
            self.xs, self.ys = (empty_time_major((), *a.shape) for a in (xs, ys))
            self.xs[...], self.ys[...] = xs, ys
        self.workspace = Workspace()

    def split(self, z: np.ndarray) -> tuple[Params, np.ndarray]:
        """Parameters and free initial states of z, one point or R stacked
        starts (one per row); stacked ones keep the leading axis."""
        params = Params(z[..., : self.n_theta].copy(), self.spec)
        states = z[..., self.n_theta :].reshape(z.shape[:-1] + (self.n_states, self.sd)).copy()
        return params, states

    def join(self, params: Params, states: np.ndarray | None) -> np.ndarray:
        parts = [np.asarray(params.theta, dtype=np.float64)]
        if self.n_states:
            if states is None:
                states = np.zeros((self.n_states, self.sd))
            parts.append(np.asarray(states, dtype=np.float64).reshape(-1))
        return np.concatenate(parts)

    def value_grad(self, z: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        """Objective and gradient at z; R stacked starts (one per row of z)
        give (R,) objectives and one gradient row each in one pass."""
        params, states = self.split(z)
        lead = z.shape[:-1]
        if self.linear_pass is linear_scan_loss_grad:
            loss, d_theta, d_h0 = linear_scan_loss_grad(params, states, self.xs, self.ys, self.w)
        elif self.linear_pass is linear_window_loss_grad:
            h0 = None if self.variant == "tbptt" else states
            loss, d_theta, d_h0 = linear_window_loss_grad(params, h0, self.xs, self.ys, self.w,
                                                          self.workspace)
        else:
            h0 = np.zeros(lead + (self.plan.S, self.sd)) if self.variant == "tbptt" else states
            loss, d_theta, d_h0 = weighted_loss_grad(params, h0, self.xs, self.ys, self.w,
                                                     self.workspace)
        if self.n_states:
            return loss, np.concatenate([d_theta, d_h0.reshape(lead + (-1,))], axis=-1)
        return loss, d_theta

    def project(self, z: np.ndarray, rho: float | None) -> np.ndarray:
        """Project the recurrent block of z, or of each stacked start."""
        if rho is None:
            return z
        out = z.copy()
        theta = Params(z[..., : self.n_theta], self.spec)
        out[..., : self.n_theta] = project_stability(theta, rho).theta
        return out


def _solve(problem: _Problem, opt: OptConfig) -> LiftedSolution:
    """Multi-start Adam with every start on one stacked model axis.

    Each iteration is one stacked ``value_grad`` over the starts still
    running. Each start keeps its own stop rules (``grad_tol``, plateau),
    best iterate and iteration count, and leaves the stack with its Adam
    moment rows when it stops. A start whose pass goes non-finite fails
    alone and the others are evaluated again at the same iterate; one whose
    objective is finite but whose gradient is not fails after that objective
    has counted. The answer is the best iterate over all starts, ties going
    to the lowest start index, which is what running the starts one after
    another gives. Each start keeps its objective and gradient at its best
    iterate, so the answer's ``objective`` and ``grad_norm`` are read from
    the loop, not evaluated again: a stacked row of ``value_grad`` has the
    bits of the unstacked call at that row's point.
    """
    if opt.max_iters < 1:
        raise ValueError(f"max_iters={opt.max_iters} must be >= 1")
    if opt.restarts < 0 or opt.restarts + len(opt.extra_starts) < 1:
        raise ValueError(f"restarts={opt.restarts} with {len(opt.extra_starts)} "
                         "extra starts leaves no starting point")
    starts: list[np.ndarray] = []
    for params, states in opt.extra_starts:
        starts.append(problem.join(params, states))
    for r in range(opt.restarts):
        theta0 = init_params(problem.spec, _mix(opt.seed ^ _mix(1000 + r)))
        starts.append(problem.join(theta0, None))

    n_starts = len(starts)
    z = problem.project(np.stack(starts), opt.spectral_bound)
    rows = np.arange(n_starts)  # the start index of each stacked row
    best_obj = np.full(n_starts, np.inf)
    best_z = np.empty_like(z)
    best_grad = np.empty_like(z)  # the gradient at best_z
    anchor_obj = np.full(n_starts, np.inf)
    anchor_it = np.zeros(n_starts, dtype=int)
    adam = AdamState(z.shape)
    iters_used = failed = 0
    error: NonFiniteError | None = None
    it = 0
    while rows.size and it < opt.max_iters:
        try:
            obj, grad = problem.value_grad(z)
        except NonFiniteError as exc:
            # the diverging starts end alone; their finite iterates still count
            bad = np.zeros(rows.size, dtype=bool)
            bad[list(exc.starts)] = True
            failed += int(bad.sum())
            error = NonFiniteError(exc.where, exc.time_index, tuple(rows[bad].tolist()))
            rows, z = rows[~bad], z[~bad]
            adam.keep(~bad)
            continue
        iters_used += rows.size
        finite = np.isfinite(obj)
        if not finite.all():
            failed += int((~finite).sum())
            error = NonFiniteError("solver objective", it + 1, tuple(rows[~finite].tolist()))
        better = finite & (obj < best_obj[rows])
        best_obj[rows[better]] = obj[better]
        best_z[rows[better]] = z[better]
        best_grad[rows[better]] = grad[better]
        moved = obj < anchor_obj[rows] - opt.plateau_tol
        anchor_obj[rows[moved]] = obj[moved]
        anchor_it[rows[moved]] = it
        # a non-finite gradient has no next iterate (its Adam step is NaN)
        grad_finite = np.isfinite(grad).all(axis=-1)
        failed += int((finite & ~grad_finite).sum())
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm is inf
            grad_norm = np.array([np.linalg.norm(g) for g in grad])
        going = (finite & grad_finite & ~(grad_norm <= opt.grad_tol)
                 & (it - anchor_it[rows] < opt.plateau_iters))
        rows, z, grad = rows[going], z[going], grad[going]
        adam.keep(going)
        z = problem.project(z - adam.direction(grad, opt.lr), opt.spectral_bound)
        it += 1

    if not np.isfinite(best_obj).any():
        raise error  # every start diverged before a finite objective
    best = int(np.argmin(best_obj))  # the lowest start index among ties
    grad_norm = float(np.linalg.norm(best_grad[best]))
    params, states = problem.split(best_z[best])
    return LiftedSolution(
        params=params,
        init_states=states,
        objective=float(best_obj[best]),
        variant=problem.variant,
        converged=grad_norm <= opt.grad_tol,
        grad_norm=grad_norm,
        diagnostics={"iterations": iters_used, "starts": n_starts,
                     "failed_starts": failed},
    )


@dataclass
class Evaluation:
    """A solution with its passes over one instance: ``full`` from the
    variant's global initial state, and each window's ``states`` (S, N+1, sd)
    and ``outputs`` (S, N, d_y)."""

    sol: LiftedSolution
    full: Trajectory
    states: np.ndarray
    outputs: np.ndarray


def evaluate(sol: LiftedSolution, dataset: TimeSeriesDataset,
             plan: SegmentationPlan) -> Evaluation:
    """Run a solution over the instance once. The global initial state is
    the coupled solution's free state and zero otherwise; a window starts
    from zero (tbptt), from the full pass's state before its first input
    (coupled) or from its own free state (unconstrained, whose S must be the
    plan's, or ``DimensionError`` is raised)."""
    full = forward(sol.params, sol.init_states[0] if sol.variant == "coupled" else None,
                   dataset.inputs)
    if sol.variant == "tbptt":
        h0 = np.zeros((plan.S, sol.params.spec.state_dim))
    elif sol.variant == "coupled":
        h0 = full.hidden[np.array(plan.starts) - 1]
    else:
        h0 = sol.init_states
    xs, _ = segment_arrays(dataset, plan)
    states, outputs, _ = batched_forward(sol.params, h0, xs)
    return Evaluation(sol, full, states, outputs)


def _finish(sol: LiftedSolution, dataset: TimeSeriesDataset,
            plan: SegmentationPlan) -> Evaluation:
    record = evaluate(sol, dataset, plan)
    data_peak = max(
        1.0,
        float(np.max(np.abs(dataset.inputs))),
        float(np.max(np.abs(dataset.targets))),
    )
    peak = max(float(np.max(np.abs(record.states))), float(np.max(np.abs(record.outputs))))
    sol.diagnostics["bounded"] = bool(np.isfinite(peak) and peak <= 10.0 * data_peak)
    sol.diagnostics["state_output_peak"] = peak
    return record


def solve_variant(variant: str, dataset: TimeSeriesDataset, plan: SegmentationPlan,
                  m: int, spec: CellSpec, opt: OptConfig | None = None) -> Evaluation:
    """Best point of one variant's segment objective, with its boundedness
    check, evaluated on the instance."""
    sol = _solve(_Problem(variant, dataset, plan, m, spec), opt or OptConfig())
    return _finish(sol, dataset, plan)
