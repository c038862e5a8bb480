"""Diagnostics for trained and benchmark solutions: truncated-MSE performance,
empirical output-stability constants, turnpike error curves, the strict-epsilon
optimality check, constructive bound constants, and regret reports.

Every function reads the forward passes its caller already made: a
``Trajectory`` for a trained model, a ``benchmark.Evaluation`` for a reference
solution. The only model runs here are ``estimate_stability``'s perturbed
pairs.
"""

from __future__ import annotations

import bisect
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
    normalized output difference r_t."""

    C: float
    lam: float
    max_violation: float
    num_pairs_tested: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "C": self.C,
            "lambda": self.lam,
            "max_violation": self.max_violation,
            "num_pairs_tested": self.num_pairs_tested,
            "passed": self.passed,
        }


def merge_stability(a: StabilityEstimate, b: StabilityEstimate) -> StabilityEstimate:
    """Constants dominating both estimates (for bounds involving two models)."""
    return StabilityEstimate(
        C=max(a.C, b.C),
        lam=max(a.lam, b.lam),
        max_violation=max(a.max_violation, b.max_violation),
        num_pairs_tested=a.num_pairs_tested + b.num_pairs_tested,
        passed=a.passed and b.passed,
    )


def estimate_stability(params: Params, dataset: TimeSeriesDataset, traj: Trajectory,
                       num_pairs: int = 32, seed: int = 0) -> StabilityEstimate:
    """Fit the tightest geometric envelope on output differences from paired
    random initial states, driven by random tails of the training inputs.

    Initial states are drawn from a ball of twice the largest hidden-state
    norm the model reaches on the training data, read off ``traj``, its
    zero-state forward pass over the series. All pairs run in one staggered
    pass over the inputs: sorted by start, each pair's two rows join the
    batch when the pass reaches its start, so the pass takes at most T
    recurrence steps whatever the number of pairs. lambda comes from a
    pooled least-squares slope on log r_t; C is the smallest constant whose
    envelope dominates every sample the slope was fitted on.
    """
    sd = params.spec.state_dim
    T = dataset.T
    radius = 2.0 * float(np.max(np.linalg.norm(traj.hidden, axis=1)))
    if radius == 0.0:
        radius = 1.0

    rng = SplitMix64(seed).spawn(0x57AB)
    min_len = min(8, T)
    starts: list[int] = []
    pairs: list[np.ndarray] = []
    gaps: list[float] = []
    for _ in range(num_pairs):
        start = rng.randrange(T - min_len + 1)
        pair = np.empty((2, sd))
        for row in range(2):
            direction = rng.normals(sd)
            norm = np.linalg.norm(direction)
            direction = direction / norm if norm > 0 else np.eye(sd)[0]
            pair[row] = radius * rng.uniform() ** (1.0 / sd) * direction
        gap = float(np.linalg.norm(pair[0] - pair[1]))
        if gap < 1e-12:
            continue  # degenerate pair
        starts.append(start)
        pairs.append(pair)
        gaps.append(gap)

    if not pairs:
        return StabilityEstimate(C=0.0, lam=0.5, max_violation=0.0,
                                 num_pairs_tested=0, passed=True)

    order = sorted(range(len(pairs)), key=starts.__getitem__)
    rows = np.ravel([(2 * p, 2 * p + 1) for p in order])  # batch row -> pair row
    init = np.concatenate(pairs)[rows]
    sorted_starts = sorted(starts)
    outs = np.empty((init.shape[0], T, params.spec.d_y))  # pair row, absolute time
    h = init[:0]
    bounds = sorted(set(starts)) + [T]
    for lo, hi in zip(bounds, bounds[1:]):
        active = 2 * bisect.bisect_right(sorted_starts, lo)
        h = np.concatenate([h, init[h.shape[0] : active]])
        x = dataset.inputs[lo:hi]
        seg_states, seg_outs, _ = batched_forward(
            params, h, np.broadcast_to(x, (active, *x.shape))
        )
        outs[rows[:active], lo:hi] = seg_outs
        h = seg_states[:, -1]

    t_all = np.concatenate([np.arange(1, T - start + 1, dtype=np.float64) for start in starts])
    r_all = np.concatenate([
        np.linalg.norm(outs[2 * p, start:] - outs[2 * p + 1, start:], axis=1) / gap
        for p, (start, gap) in enumerate(zip(starts, gaps))
    ])
    r_max = float(np.max(r_all))
    if r_max == 0.0:
        # outputs are insensitive to the initial state
        return StabilityEstimate(C=0.0, lam=0.5, max_violation=0.0,
                                 num_pairs_tested=len(pairs), passed=True)

    # drop cancellation noise: lambda^-t would blow it up into the envelope
    keep = r_all > 1e-13 * r_max
    t_kept, r_kept = t_all[keep], r_all[keep]
    slope = float(np.polyfit(t_kept, np.log(r_kept), 1)[0])
    lam = min(math.exp(slope), 1.0) if slope < 0 else 1.0
    with np.errstate(over="ignore"):
        ratios = r_kept / np.power(lam, t_kept)
    c = float(np.max(ratios[np.isfinite(ratios)]))
    max_violation = float(np.max(r_kept - c * np.power(lam, t_kept)))
    return StabilityEstimate(C=c, lam=lam, max_violation=max_violation,
                             num_pairs_tested=len(pairs), passed=lam < 1.0)


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

    def to_json_dict(self) -> dict:
        return {"e_j": self.e_j.tolist(), "sum_e": self.sum_e,
                "reference": self.reference, "m": self.m, "N": self.N}


def turnpike_errors(a: Evaluation, b: Evaluation, m: int) -> TurnpikeReport:
    """Per-step averaged squared gap between two solutions' segment outputs,
    both evaluated on one instance."""
    gaps = np.sum((a.outputs - b.outputs) ** 2, axis=2).mean(axis=0)  # (N,)
    e_j = gaps[m:]
    return TurnpikeReport(e_j=e_j, sum_e=math.fsum(e_j),
                          reference=b.sol.variant, m=m, N=gaps.shape[0])


@dataclass
class EpsilonCheck:
    """Strictness margin of the optimality cross-term between two solutions."""

    cross_term: float
    sq_norm: float
    epsilon_max: float  # inf means unbounded
    satisfied_strict: bool

    def to_json_dict(self) -> dict:
        eps = "unbounded" if math.isinf(self.epsilon_max) else self.epsilon_max
        return {"cross_term": self.cross_term, "sq_norm": self.sq_norm,
                "epsilon_max": eps, "satisfied_strict": self.satisfied_strict}


def epsilon_check(star: Evaluation, inf: Evaluation,
                  dataset: TimeSeriesDataset, plan: SegmentationPlan,
                  m: int) -> EpsilonCheck:
    """Compare sum 2(y_ref - y_d)'(y - y_ref) against -sum ||y - y_ref||^2.

    The reference solution is the unconstrained one; strict satisfaction means
    an epsilon > 1 exists, or the two output sets coincide.
    """
    _, yd = segment_arrays(dataset, plan)
    y_star = star.outputs[:, m:]
    y_inf = inf.outputs[:, m:]
    y_data = yd[:, m:]
    diff = y_star - y_inf
    cross = float(np.sum(2.0 * (y_inf - y_data) * diff))
    sq = float(np.sum(diff * diff))
    if sq == 0.0:
        return EpsilonCheck(cross, sq, math.inf, True)
    eps_max = math.inf if cross >= 0.0 else sq / (-cross)
    return EpsilonCheck(cross, sq, eps_max, cross > -sq)


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

    def to_json_dict(self) -> dict:
        out = {k: getattr(self, k) for k in
               ("L_l", "h_bar", "C", "lam", "epsilon", "C_bar", "K", "c1", "c2",
                "E1", "E2", "finite")}
        return {k: (v if not isinstance(v, float) or math.isfinite(v) else "inf")
                for k, v in out.items()}


def bound_constants(stab: StabilityEstimate, eps: EpsilonCheck,
                    observed: ObservedSets) -> BoundConstants:
    """Assemble the geometric-series constants from fitted (C, lambda), the
    strict-epsilon margin, and observed output/hidden ranges.

    When the output sets coincide (sq_norm = 0), any epsilon > 1 works and 2
    is used. Nonconvergent lambda (>= 1) or epsilon_max <= 1 yields infinite
    constants and finite=False.
    """
    L_l = 2.0 * (observed.max_output_norm + observed.max_target_norm)
    h_bar = observed.max_hidden_norm
    lam, C = stab.lam, stab.C
    if eps.sq_norm == 0.0 or math.isinf(eps.epsilon_max):
        epsilon = 2.0
    else:
        epsilon = eps.epsilon_max

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
    constants: BoundConstants = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        d = {
            "V_star": self.V_star,
            "V_bench": self.V_bench,
            "training_regret": self.training_regret,
            "P_star": self.P_star,
            "P_bench": self.P_bench,
            "performance_regret": self.performance_regret,
            "thm1_rhs": self.thm1_rhs,
            "thm2_rhs": self.thm2_rhs,
            "thm1_violation": self.thm1_violation,
            "thm2_violation": self.thm2_violation,
            "m": self.m,
            "N": self.N,
            "S": self.S,
            "o_min": self.o_min,
        }
        if self.constants is not None:
            d["constants"] = self.constants.to_json_dict()
        return d

    @staticmethod
    def csv_header() -> list[str]:
        return ["N", "m", "S", "o_min", "V_star", "V_bench", "training_regret",
                "P_star", "P_bench", "performance_regret", "thm1_rhs", "thm2_rhs",
                "thm1_violation", "thm2_violation", "lambda", "C_bar", "E2"]

    def csv_row(self) -> list:
        c = self.constants
        return [self.N, self.m, self.S, self.o_min, self.V_star, self.V_bench,
                self.training_regret, self.P_star, self.P_bench,
                self.performance_regret, self.thm1_rhs,
                "" if self.thm2_rhs is None else self.thm2_rhs,
                self.thm1_violation,
                "" if self.thm2_violation is None else self.thm2_violation,
                c.lam if c else "", c.C_bar if c else "", c.E2 if c else ""]


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
