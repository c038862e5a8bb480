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
``solve_variant`` is the one entry point. A start whose iterates stop being
finite ends alone (``failed_starts`` in the diagnostics); the solve fails
only when no start reached a finite objective. ``variant_trajectories`` is
the one evaluation of a solution's per-segment states and outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import segment_weights, weighted_loss_grad
from .data import SegmentationPlan, TimeSeriesDataset, segment_arrays
from .rng import _mix
from .rnn_core import CellSpec, NonFiniteError, Params, batched_forward, init_params
from .training import AdamConfig, AdamState, project_stability

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

    params: Params
    init_states: np.ndarray  # (0 | 1 | S, state_dim)
    objective: float
    variant: str
    converged: bool
    grad_norm: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "variant": self.variant,
                "objective": self.objective,
                "converged": self.converged,
                "grad_norm": self.grad_norm,
                "params": json.loads(self.params.to_json()),
                "init_states": self.init_states.tolist(),
                "diagnostics": self.diagnostics,
            }
        )

    @staticmethod
    def from_json(text: str) -> "LiftedSolution":
        d = json.loads(text)
        params = Params.from_json(json.dumps(d["params"]))
        states = np.array(d["init_states"], dtype=np.float64)
        if states.size == 0:
            states = states.reshape(0, params.spec.state_dim)
        return LiftedSolution(
            params=params,
            init_states=states,
            objective=float(d["objective"]),
            variant=d["variant"],
            converged=bool(d["converged"]),
            grad_norm=float(d["grad_norm"]),
            diagnostics=d.get("diagnostics", {}),
        )


def coupled_time_weights(plan: SegmentationPlan, m: int, T: int) -> np.ndarray:
    """How many segment loss terms each global time step contributes to."""
    w = np.zeros(T)
    for s in plan.starts:
        w[s - 1 + m : s - 1 + plan.N] += 1.0
    return w


class _Problem:
    """Flat-vector view of one variant: z = [theta, free initial states]."""

    def __init__(self, variant: str, dataset: TimeSeriesDataset,
                 plan: SegmentationPlan, m: int, spec: CellSpec):
        if variant not in VARIANTS:
            raise ValueError(f"variant {variant!r} not one of {VARIANTS}")
        w = segment_weights(plan.N, m, plan.S)
        self.variant = variant
        self.spec = spec
        self.plan = plan
        self.m = m
        self.n_theta = init_params(spec, 0).theta.size
        self.sd = spec.state_dim
        if variant == "coupled":
            self.n_states = 1
            self.xs = dataset.inputs[None, :, :]
            self.ys = dataset.targets[None, :, :]
            # each segment term covering a time step adds one term's weight
            self.w = coupled_time_weights(plan, m, dataset.T)[None, :] * w[0, -1]
        else:
            self.n_states = 0 if variant == "tbptt" else plan.S
            self.xs, self.ys = segment_arrays(dataset, plan)
            self.w = w

    @property
    def n_free(self) -> int:
        return self.n_theta + self.n_states * self.sd

    def split(self, z: np.ndarray) -> tuple[Params, np.ndarray]:
        params = Params(z[: self.n_theta].copy(), self.spec)
        states = z[self.n_theta :].reshape(self.n_states, self.sd).copy()
        return params, states

    def join(self, params: Params, states: np.ndarray | None) -> np.ndarray:
        parts = [np.asarray(params.theta, dtype=np.float64)]
        if self.n_states:
            if states is None:
                states = np.zeros((self.n_states, self.sd))
            parts.append(np.asarray(states, dtype=np.float64).reshape(-1))
        return np.concatenate(parts)

    def h0_of(self, states: np.ndarray) -> np.ndarray:
        if self.variant == "tbptt":
            return np.zeros((self.plan.S, self.sd))
        return states

    def value_grad(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        params, states = self.split(z)
        loss, d_theta, d_h0 = weighted_loss_grad(
            params, self.h0_of(states), self.xs, self.ys, self.w
        )
        if self.n_states:
            return loss, np.concatenate([d_theta, d_h0.reshape(-1)])
        return loss, d_theta

    def project(self, z: np.ndarray, rho: float | None) -> np.ndarray:
        if rho is None:
            return z
        params, states = self.split(z)
        return self.join(project_stability(params, rho), states if self.n_states else None)


def _solve(problem: _Problem, opt: OptConfig) -> LiftedSolution:
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

    best_z: np.ndarray | None = None
    best_obj = np.inf
    iters_used = failed = 0
    error: NonFiniteError | None = None
    adam_cfg = AdamConfig(lr=opt.lr)
    for z0 in starts:
        try:
            z = problem.project(z0.copy(), opt.spectral_bound)
            adam = AdamState(problem.n_free)
            anchor_obj, anchor_it = np.inf, 0
            for it in range(opt.max_iters):
                obj, grad = problem.value_grad(z)
                iters_used += 1
                if not np.isfinite(obj):
                    raise NonFiniteError("solver objective", it + 1)
                if obj < best_obj:
                    best_obj, best_z = obj, z.copy()
                if obj < anchor_obj - opt.plateau_tol:
                    anchor_obj, anchor_it = obj, it
                if float(np.linalg.norm(grad)) <= opt.grad_tol:
                    break
                if it - anchor_it >= opt.plateau_iters:
                    break
                z = problem.project(z - adam.direction(grad, adam_cfg), opt.spectral_bound)
        except NonFiniteError as exc:
            # a diverging start ends alone; its finite iterates still count
            failed += 1
            error = exc

    if best_z is None:
        raise error  # every start diverged before a finite objective
    obj, grad = problem.value_grad(best_z)
    grad_norm = float(np.linalg.norm(grad))
    params, states = problem.split(best_z)
    return LiftedSolution(
        params=params,
        init_states=states,
        objective=float(obj),
        variant=problem.variant,
        converged=grad_norm <= opt.grad_tol,
        grad_norm=grad_norm,
        diagnostics={"iterations": iters_used, "starts": len(starts),
                     "failed_starts": failed},
    )


def _finish(sol: LiftedSolution, dataset: TimeSeriesDataset,
            plan: SegmentationPlan) -> LiftedSolution:
    states, outputs = variant_trajectories(sol, dataset, plan)
    data_peak = max(
        1.0,
        float(np.max(np.abs(dataset.inputs))),
        float(np.max(np.abs(dataset.targets))),
    )
    peak = max(float(np.max(np.abs(states))), float(np.max(np.abs(outputs))))
    sol.diagnostics["bounded"] = bool(np.isfinite(peak) and peak <= 10.0 * data_peak)
    sol.diagnostics["state_output_peak"] = peak
    return sol


def solve_variant(variant: str, dataset: TimeSeriesDataset, plan: SegmentationPlan,
                  m: int, spec: CellSpec, opt: OptConfig | None = None) -> LiftedSolution:
    """Best point of one variant's segment objective, with its boundedness check."""
    sol = _solve(_Problem(variant, dataset, plan, m, spec), opt or OptConfig())
    return _finish(sol, dataset, plan)


def segment_initial_states(sol: LiftedSolution, dataset: TimeSeriesDataset,
                           plan: SegmentationPlan) -> np.ndarray:
    """(S, state_dim) initial states implied by a solution's variant.

    A coupled solution's segment starts are read off its one length-T
    trajectory: the state before each window's first input.
    """
    if sol.variant == "tbptt":
        return np.zeros((plan.S, sol.params.spec.state_dim))
    if sol.variant == "coupled":
        states, _, _ = batched_forward(
            sol.params, sol.init_states[0][None], dataset.inputs[None]
        )
        return states[0, np.array(plan.starts) - 1]
    return sol.init_states


def variant_trajectories(sol: LiftedSolution, dataset: TimeSeriesDataset,
                         plan: SegmentationPlan) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment states (S, N+1, sd) and outputs (S, N, d_y) that the
    solution generates on this instance, each window from the initial state
    its variant implies."""
    xs, _ = segment_arrays(dataset, plan)
    h0 = segment_initial_states(sol, dataset, plan)
    states, outputs, _ = batched_forward(sol.params, h0, xs)
    return states, outputs
