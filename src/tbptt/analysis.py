"""Diagnostics for trained and benchmark solutions: truncated-MSE performance,
empirical output-stability constants, turnpike error curves, the strict-epsilon
optimality check, constructive bound constants, and regret reports.

Every function reads the forward passes its caller already made: a
``Trajectory`` for a trained model, a ``benchmark.Evaluation`` for a reference
solution. The only model runs here are ``estimate_stability``'s perturbed
pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .benchmark import Evaluation
from .data import SegmentationPlan, TimeSeriesDataset, segment_arrays
from .rng import SplitMix64
from .rnn_core import Params, Trajectory, batched_forward

# ---------------------------------------------------------------------------
# Truncated-MSE performance over the full sequence
# ---------------------------------------------------------------------------


def performance(traj: Trajectory, dataset: TimeSeriesDataset, m: int) -> float:
    """Mean squared output error over steps m+1..T of ``traj``, a model's
    forward pass over the full sequence of ``dataset``."""
    if not 0 <= m <= dataset.T - 1:
        raise ValueError(f"burn-in m={m} out of range [0, {dataset.T - 1}]")
    err = traj.outputs[m:] - dataset.targets[m:]
    return float(np.mean(np.sum(err * err, axis=1)))


# ---------------------------------------------------------------------------
# Empirical output-stability constants
# ---------------------------------------------------------------------------


@dataclass
class StabilityEstimate:
    """Envelope constants (C, lambda) with C * lambda^t covering every sampled
    normalized output difference r_t; lambda < 1 means the model was found
    output-stable."""

    C: float
    lam: float


def merge_stability(a: StabilityEstimate, b: StabilityEstimate) -> StabilityEstimate:
    """Constants dominating both estimates (for bounds involving two models)."""
    return StabilityEstimate(C=max(a.C, b.C), lam=max(a.lam, b.lam))


# float64 values in one block of the stability probe's pass (``block_steps``):
# it holds as many whole steps as fit, at least one. Measured on the sweep
# workload (4 LSTM models, up to 32 probe rows, seeds 1-3), when a block
# counted 4·d_h values per row-step: at 2^18 the blocks were 64 steps at full
# rows and the sweep's peak RSS 47.8-48.5 MB, at 2^16 16 steps and 46.1 MB,
# at 2^15 45.8 MB
GATE_BLOCK_VALUES = 1 << 16


def block_steps(params: Params, B: int) -> int:
    """Whole steps in one block of the probe's pass over B rows of every
    model stacked in ``params``: as many as fit ``GATE_BLOCK_VALUES`` values
    of the widest buffer a step fills per row, the LSTM cache (4·d_h gates
    and d_h of tanh c) or else the states, and at least one."""
    spec = params.spec
    width = 5 * spec.d_h if spec.kind == "lstm" else spec.state_dim
    return max(1, GATE_BLOCK_VALUES // max(1, math.prod(params.theta.shape[:-1]) * B * width))


def estimate_stability(params: Params, dataset: TimeSeriesDataset,
                       trajs: list[Trajectory], num_pairs: int = 32,
                       seed: int = 0) -> list[StabilityEstimate]:
    """Fit the tightest geometric envelope on output differences from paired
    random initial states, driven by random tails of the training inputs.

    Initial states are drawn from a ball of twice the largest hidden-state
    norm the model reaches on the training data, read off its trajectory in
    ``trajs``, its forward pass over the series from its own initial state
    (zero, or a coupled model's free state). ``trajs`` holds one trajectory
    per model: one for unstacked ``params``, R for a stacked theta (R, n).
    The draws (start, direction, u) do not depend on the radius, so every
    model scales the same draws by its own radius.

    Every pair runs, for every model, in one staggered pass over the inputs:
    sorted by start, each pair's two rows join the batch when the pass
    reaches its start, so the pass takes at most T recurrence steps whatever
    the number of pairs. Each segment of the pass, between two starts, runs
    as blocks of whole steps, each a ``batched_forward`` from the last state
    of the block before: ``block_steps`` steps, as many as fit
    ``GATE_BLOCK_VALUES`` values of the LSTM cache (else the states) over
    the models and the segment's rows, so a segment shorter than that is
    one block. Each block writes its samples r_t = ||y_t - y'_t|| / ||h -
    h'|| into one (pair, absolute time) array per model and drops its
    states, outputs and cache before the next one runs: beyond that array
    and the draws, the pass holds one block. Every block
    has both rows of a pair, so each step is one GEMM of the segment's
    shape and the samples have the bits of one pass per segment. A pair
    whose two initial states lie within 1e-12 of each other for a model
    gives that model no sample (``_fit_envelope``). Each result has the
    bits of the model's unstacked call.
    """
    lead = params.theta.shape[:-1]
    if len(trajs) != (lead[0] if lead else 1):
        raise ValueError(f"{len(trajs)} trajectories for parameters stacked as {lead}")
    sd = params.spec.state_dim
    T = dataset.T
    radii = [2.0 * float(np.max(np.linalg.norm(t.hidden, axis=1))) or 1.0 for t in trajs]

    rng = SplitMix64(seed).spawn(0x57AB)
    min_len = min(8, T)
    draws = []  # (start, ((u^(1/sd), direction) per row of the pair))
    for _ in range(num_pairs):
        start = rng.randrange(T - min_len + 1)
        rows = []
        for _row in range(2):
            direction = rng.normals(sd)
            norm = np.linalg.norm(direction)
            direction = direction / norm if norm > 0 else np.eye(sd)[0]
            rows.append((rng.uniform() ** (1.0 / sd), direction))
        draws.append((start, rows))

    pairs = np.array([[[radius * u * d for u, d in rows] for _, rows in draws]
                      for radius in radii]).reshape(len(radii), num_pairs, 2, sd)
    gaps = np.array([[float(np.linalg.norm(pair[0] - pair[1])) for pair in model]
                     for model in pairs]).reshape(len(radii), num_pairs)

    starts = np.array([start for start, _ in draws], dtype=int)
    order = np.argsort(starts, kind="stable")  # pass pair -> drawn pair
    init = pairs[:, order].reshape(lead + (-1, sd))
    pass_gaps = gaps[:, order].reshape(lead + (-1, 1))
    r = np.empty(lead + (num_pairs, T))  # drawn pair, absolute time
    h = init[..., :0, :]
    bounds = sorted(set(starts.tolist())) + [T]
    for lo, hi in zip(bounds, bounds[1:]):
        active = int(np.count_nonzero(starts <= lo))  # pairs begun by lo
        h = np.concatenate([h, init[..., h.shape[-2] : 2 * active, :]], axis=-2)
        steps = block_steps(params, 2 * active)
        for b_lo in range(lo, hi, steps):
            b_hi = min(b_lo + steps, hi)
            x = dataset.inputs[b_lo:b_hi]
            states, outs, cache = batched_forward(params, h,
                                                  np.broadcast_to(x, (2 * active, *x.shape)))
            h = states[..., -1, :].copy()  # a copy: no view keeps the block's states
            dist = np.linalg.norm(outs[..., 0::2, :, :] - outs[..., 1::2, :, :], axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):  # a degenerate pair's gap may be 0
                r[..., order[:active], b_lo:b_hi] = dist / pass_gaps[..., :active, :]
            del states, outs, cache, dist  # the block's arrays go before the next block runs

    r = r.reshape(len(trajs), num_pairs, T)
    return [_fit_envelope(r[k], starts, gaps[k] >= 1e-12) for k in range(len(trajs))]


def _fit_envelope(r: np.ndarray, starts: np.ndarray, kept: np.ndarray) -> StabilityEstimate:
    """The envelope fit of one model. ``r`` (P, T) holds pair p's samples
    r_t from absolute time ``starts[p]`` on; the pairs with ``kept`` False
    give none. lambda comes from a pooled least-squares slope on log r_t over
    the samples in draw order, or is 1 when every sample kept lies at one t
    (a one-step series, a nilpotent cell); C is the smallest constant whose
    envelope dominates every sample the slope was fitted on. With no sample
    above 0 (no pair, or outputs insensitive to the initial state) the
    envelope is C = 0, lambda = 1/2."""
    steps = np.arange(1, r.shape[-1] + 1) - starts[:, None]  # t of each sample
    sampled = kept[:, None] & (steps > 0)
    t_all, r_all = steps[sampled].astype(np.float64), r[sampled]
    if not np.any(r_all > 0.0):
        return StabilityEstimate(C=0.0, lam=0.5)

    # drop cancellation noise: lambda^-t would blow it up into the envelope
    keep = r_all > 1e-13 * float(np.max(r_all))
    t_kept, r_kept = t_all[keep], r_all[keep]
    # samples at one t show no decay: no rate is fitted, and lambda = 1
    slope = float(np.polyfit(t_kept, np.log(r_kept), 1)[0]) if np.ptp(t_kept) > 0 else 0.0
    lam = min(math.exp(slope), 1.0) if slope < 0 else 1.0
    with np.errstate(over="ignore"):
        ratios = r_kept / np.power(lam, t_kept)
    return StabilityEstimate(C=float(np.max(ratios[np.isfinite(ratios)])), lam=lam)


# ---------------------------------------------------------------------------
# Turnpike error curves and the strict-epsilon check
# ---------------------------------------------------------------------------


@dataclass
class TurnpikeReport:
    """Batch-averaged squared output gaps e_j for j = m+1..N, plus their
    correctly rounded sum (``math.fsum``, independent of summation order)."""

    e_j: np.ndarray
    sum_e: float
    reference: str
    m: int
    N: int


def turnpike_errors(a: Evaluation, b: Evaluation, m: int) -> TurnpikeReport:
    """Per-step averaged squared gap between two solutions' segment outputs,
    both evaluated on one instance."""
    gaps = np.sum((a.outputs - b.outputs) ** 2, axis=2).mean(axis=0)  # (N,)
    e_j = gaps[m:]
    return TurnpikeReport(e_j=e_j, sum_e=math.fsum(e_j),
                          reference=b.sol.variant, m=m, N=gaps.shape[0])


def epsilon_check(star: Evaluation, inf: Evaluation,
                  dataset: TimeSeriesDataset, plan: SegmentationPlan,
                  m: int) -> float:
    """The largest epsilon for which sum 2(y_ref - y_d)'(y - y_ref) >=
    -sum ||y - y_ref||^2 / epsilon, ``math.inf`` when every epsilon works.

    The reference solution is the unconstrained one. Strict satisfaction
    means epsilon_max > 1; epsilon_max is infinite when the two output sets
    coincide.
    """
    _, yd = segment_arrays(dataset, plan)
    y_star = star.outputs[:, m:]
    y_inf = inf.outputs[:, m:]
    y_data = yd[:, m:]
    diff = y_star - y_inf
    cross = float(np.sum(2.0 * (y_inf - y_data) * diff))
    sq = float(np.sum(diff * diff))
    return math.inf if sq == 0.0 or cross >= 0.0 else sq / -cross


# ---------------------------------------------------------------------------
# Constructive bound constants
# ---------------------------------------------------------------------------


@dataclass
class ObservedSets:
    """Compact surrogates for the sets the bounds quantify over."""

    max_output_norm: float
    max_target_norm: float
    max_hidden_norm: float


def collect_observed(records: list[Evaluation], dataset: TimeSeriesDataset) -> ObservedSets:
    """Largest output/hidden norms any evaluated solution realizes on the
    instance, over both the per-segment runs and the full-sequence run."""
    max_out = 0.0
    max_hidden = 0.0
    for record in records:
        max_out = max(max_out, float(np.max(np.linalg.norm(record.outputs, axis=2))))
        max_hidden = max(max_hidden, float(np.max(np.linalg.norm(record.states, axis=2))))
        max_out = max(max_out, float(np.max(np.linalg.norm(record.full.outputs, axis=1))))
        max_hidden = max(max_hidden, float(np.max(np.linalg.norm(record.full.hidden, axis=1))))
    max_target = float(np.max(np.linalg.norm(dataset.targets, axis=1)))
    return ObservedSets(max_output_norm=max_out, max_target_norm=max_target,
                        max_hidden_norm=max_hidden)


@dataclass
class BoundConstants:
    """Plug-in constants for the regret and accuracy bounds."""

    L_l: float
    h_bar: float
    C: float
    lam: float
    epsilon: float
    C_bar: float
    K: float
    c1: float
    c2: float
    E1: float
    E2: float
    finite: bool


def bound_constants(stab: StabilityEstimate, epsilon_max: float,
                    observed: ObservedSets) -> BoundConstants:
    """Assemble the geometric-series constants from fitted (C, lambda), the
    strict-epsilon margin ``epsilon_max`` and observed output/hidden ranges.

    When epsilon_max is infinite, any epsilon > 1 works and 2 is used.
    Nonconvergent lambda (>= 1) or epsilon_max <= 1 yields infinite
    constants and finite=False.
    """
    L_l = 2.0 * (observed.max_output_norm + observed.max_target_norm)
    h_bar = observed.max_hidden_norm
    lam, C = stab.lam, stab.C
    epsilon = 2.0 if math.isinf(epsilon_max) else epsilon_max

    finite = lam < 1.0 and epsilon > 1.0
    if not finite:
        inf = math.inf
        return BoundConstants(L_l=L_l, h_bar=h_bar, C=C, lam=lam, epsilon=epsilon,
                              C_bar=inf, K=inf, c1=inf, c2=inf, E1=inf, E2=inf,
                              finite=False)
    C_bar = L_l * C * h_bar * lam / (1.0 - lam)
    K = C_bar * epsilon / (epsilon - 1.0)
    c1 = C * C * h_bar * h_bar
    c2 = c1 * lam * lam / (1.0 - lam * lam)
    E1 = 2.0 * max(c2, 4.0 * K)
    E2 = L_l * math.sqrt(E1)
    return BoundConstants(L_l=L_l, h_bar=h_bar, C=C, lam=lam, epsilon=epsilon,
                          C_bar=C_bar, K=K, c1=c1, c2=c2, E1=E1, E2=E2, finite=True)


# ---------------------------------------------------------------------------
# Regret report
# ---------------------------------------------------------------------------


@dataclass
class RegretReport:
    """Empirical regrets next to their theoretical right-hand sides."""

    V_star: float
    V_bench: float
    training_regret: float
    P_star: float
    P_bench: float
    performance_regret: float
    thm1_rhs: float
    thm2_rhs: float | None  # None when m > o_min
    thm1_violation: bool
    thm2_violation: bool | None
    m: int
    N: int
    S: int
    o_min: int
    constants: BoundConstants = field(repr=False)


def thm2_radicand(S: int, lam: float, m: int, o_min: int, T: int) -> float:
    return ((S - 1) * lam ** (2 * o_min) + S * lam**m) / (T - m)


def regret_report(star: Evaluation, bench: Evaluation,
                  dataset: TimeSeriesDataset, plan: SegmentationPlan, m: int,
                  constants: BoundConstants) -> RegretReport:
    """Assemble training and performance regrets with their bound values.

    The star is the ``tbptt`` solution and the benchmark the ``coupled``
    one, each judged on its full pass from its global initial state (zero
    for the star); any other pair raises ``ValueError``. The second bound needs
    m <= o_min; outside that range its fields are left unset rather than
    reporting a vacuous number.
    """
    if (star.sol.variant, bench.sol.variant) != ("tbptt", "coupled"):
        raise ValueError(
            f"regret_report compares a tbptt star with a coupled benchmark, "
            f"got {star.sol.variant!r} and {bench.sol.variant!r}"
        )
    V_star, V_bench = star.sol.objective, bench.sol.objective
    P_star = performance(star.full, dataset, m)
    P_bench = performance(bench.full, dataset, m)

    thm1_rhs = constants.C_bar * constants.lam**m / (plan.N - m)
    training_regret = V_star - V_bench
    performance_regret = P_star - P_bench

    if m <= plan.o_min:
        thm2_rhs = constants.E2 * math.sqrt(
            thm2_radicand(plan.S, constants.lam, m, plan.o_min, dataset.T)
        )
        thm2_violation = performance_regret > thm2_rhs
    else:
        thm2_rhs, thm2_violation = None, None

    return RegretReport(
        V_star=V_star,
        V_bench=V_bench,
        training_regret=training_regret,
        P_star=P_star,
        P_bench=P_bench,
        performance_regret=performance_regret,
        thm1_rhs=thm1_rhs,
        thm2_rhs=thm2_rhs,
        thm1_violation=training_regret > thm1_rhs,
        thm2_violation=thm2_violation,
        m=m,
        N=plan.N,
        S=plan.S,
        o_min=plan.o_min,
        constants=constants,
    )
