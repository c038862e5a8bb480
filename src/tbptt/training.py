"""Mini-batch training over overlapping segments with a tunable burn-in phase.

Two modes:

* ``zero_init``: every segment's forward pass starts from the zero state and
  the segment order is reshuffled each epoch (the classic truncated scheme).
* ``stateful``: segments are visited chronologically and each one starts from
  the state its predecessor reached at the step where the windows meet,
  recomputed under the current parameters. Under one parameter vector the
  windows of a batch are slices of one trajectory, so one forward pass per
  batch, from the cached start of the segment before it through its last
  window, gives both the chained starts and the tape its gradient reads
  (the one forward pass of Williams & Peng's BPTT(h; h'), Neural
  Computation 2(4), 1990).

Full BPTT, the optimization over the whole sequence, is the one window
N = T (S = 1), where both modes train the same model.

The per-step update is plain SGD or Adam on the batch-averaged gradient,
optionally followed by a spectral-norm projection of the recurrent block.

``train_burn_ins`` trains one model per burn-in of a list that share every
other setting: the same initial parameters, batch order, windows and
optimizer, so only the loss weights differ. The models run on one leading
start axis (theta (R, n)), one stacked forward and backward pass per batch,
and each ends with the bits ``train`` gives it alone. It yields the
parameters after each epoch and evaluates nothing: ``train`` runs it with
one burn-in, unstacked, and logs each epoch's full-batch objective and
gradient norm (``full_batch_gradient``); a caller that reads only the final
objective computes it with ``full_batch_objective``, a forward pass alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (
    Tape, record, segment_weights, tape_loss_grad, weighted_loss, weighted_loss_grad,
)
from .data import SegmentationPlan, TimeSeriesDataset, make_plan, segment_arrays
from .linalg import spectral_norm
from .rnn_core import (
    CellSpec, Params, Workspace, batched_forward, init_params, per_start, take_steps,
)
from .rng import SplitMix64

MODES = ("zero_init", "stateful")
OPTIMIZERS = ("sgd", "adam")
# Adam's moment decay rates and the guard of its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingError(RuntimeError):
    """Aborted update; message carries epoch, segment, and component info."""


class AdamState:
    """First/second moment accumulators with bias correction.

    ``shape`` is (n,) for one parameter vector or (R, n) for R stacked
    starts that began together; ``keep`` drops the rows of starts that
    stopped.
    """

    def __init__(self, shape: int | tuple[int, ...]):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def keep(self, rows: np.ndarray) -> None:
        self.m, self.v = self.m[rows], self.v[rows]

    def direction(self, grad: np.ndarray, lr: float) -> np.ndarray:
        """The next step, of step size ``lr``; a row whose gradient overflows
        gets a non-finite step silently, since every caller checks the
        gradient for that."""
        self.t += 1
        with np.errstate(over="ignore", invalid="ignore"):
            self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
            self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = self.m / (1.0 - ADAM_BETA1**self.t)
            v_hat = self.v / (1.0 - ADAM_BETA2**self.t)
            return lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class TrainConfig:
    """Everything a training run depends on.

    The run trains on the length-``N`` windows of ``make_plan(T, N, stride)``
    in one of ``MODES``, with ``optimizer`` (one of ``OPTIMIZERS``) at step
    size ``lr``; N = T is full BPTT. ``train`` runs every one of the
    ``epochs``; ``train_burn_ins`` takes the burn-ins from its own list in
    place of ``m``.
    """

    spec: CellSpec
    N: int
    m: int
    batch_size: int
    optimizer: str
    lr: float
    epochs: int
    stride: int = 1
    seed: int = 0
    spectral_bound: float | None = 0.999
    mode: str = "zero_init"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} not one of {MODES}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer {self.optimizer!r} not one of {OPTIMIZERS}")
        if not 0 <= self.m <= self.N - 1:
            raise ValueError(f"burn-in m={self.m} must lie in [0, N-1] = [0, {self.N - 1}]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.spectral_bound is not None and not 0.0 < self.spectral_bound <= 1.0:
            raise ValueError("spectral_bound must lie in (0, 1] or be None")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class EpochRecord:
    """One ``log.jsonl`` line: the full-batch objective and gradient norm
    after an epoch. Deterministic; no wall time."""

    epoch: int
    objective: float
    grad_norm: float


@dataclass
class TrainLog:
    """What ``train`` returns: one record per epoch and the final
    parameters. The run's config hash and wall time belong to its caller."""

    records: list[EpochRecord]
    params: Params


def full_batch_objective(params: Params, xs: np.ndarray, ys: np.ndarray, m: int) -> float:
    """Average segment loss with zero initialization (the truncated objective)
    over all gathered windows, by one forward pass and no tape.

    ``xs`` (S, N, d_x) and ``ys`` (S, N, d_y) are ``segment_arrays`` output.
    The value is bit for bit the objective ``full_batch_gradient`` returns.
    """
    S, N = xs.shape[:2]
    h0 = np.zeros((S, params.spec.state_dim))
    return weighted_loss(params, h0, xs, ys, segment_weights(N, m, S))


def full_batch_gradient(params: Params, xs: np.ndarray, ys: np.ndarray, m: int,
                        workspace: Workspace | None = None) -> tuple[float, np.ndarray]:
    """Objective value and its exact gradient over all gathered windows.

    ``xs`` (S, N, d_x) and ``ys`` (S, N, d_y) are ``segment_arrays`` output.
    The passes take their buffers from ``workspace`` when one is given.
    """
    S, N = xs.shape[:2]
    h0 = np.zeros((S, params.spec.state_dim))
    loss, d_theta, _ = weighted_loss_grad(params, h0, xs, ys, segment_weights(N, m, S),
                                          workspace)
    return loss, d_theta


def project_stability(params: Params, rho: float | None) -> Params:
    """Scale the recurrent block so its spectral norm is at most rho.

    A stacked ``params`` (theta (R, n)) has each start's block projected on
    its own, with the bits of its unstacked call: one ``spectral_norm``
    call takes the norms of all R blocks, and each clipped block is scaled
    by rho / sigma, the others by exactly 1. Idempotent: norms within 1e-9
    of the bound are left untouched, so a freshly projected matrix is never
    rescaled again, and ``params`` itself is returned when no block is
    clipped, an empty (0, n) stack included. A non-finite block raises
    ``TrainingError``: it has no spectral norm to project with.
    """
    if rho is None:
        return params
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    w = params.block("W_hh")
    if not np.isfinite(w).all():
        raise TrainingError("non-finite recurrent block W_hh, cannot project its spectral norm")
    sigma = spectral_norm(w)
    clipped = sigma > rho * (1.0 + 1e-9)
    if not np.any(clipped):
        return params
    # rho / rho is exactly 1, and a zero norm is never divided by
    scale = rho / np.where(clipped, sigma, rho)
    return params.with_block("W_hh", w * scale[..., None, None])


def _check_finite_grad(d_theta: np.ndarray, epoch: int, batch: list[int]) -> None:
    """Raise unless every start's gradient is finite, naming the first
    non-finite component of the first start that has one."""
    bad = ~np.isfinite(d_theta)
    if bad.any():
        comp = int(np.nonzero(bad)[-1][0])
        raise TrainingError(
            f"non-finite gradient at epoch {epoch}, segments {batch}, component {comp}"
        )


def sgd_step(
    params: Params,
    xs: np.ndarray,
    ys: np.ndarray,
    batch: list[int],
    config: TrainConfig,
    opt_state: AdamState | None = None,
    tape: Tape | None = None,
    epoch: int = 0,
    burn_ins: np.ndarray | None = None,
) -> Params:
    """One update on a batch of window indices into ``xs``/``ys``.

    ``xs`` (S, N, d_x) and ``ys`` (S, N, d_y) are all windows of the run,
    gathered once by ``segment_arrays``; the step reads the batch's rows.
    ``tape`` is the batch's forward pass under ``params`` when the caller
    has one (stateful mode: ``_stateful_inits``); without it the step
    records the batch from the zero state (zero initialization). Either
    way the gradient is ``tape_loss_grad`` of that tape. A stacked
    ``params`` (theta (R, n)) takes one stacked step, with ``burn_ins`` (R,)
    giving each start's burn-in in place of ``config.m``.
    """
    b = len(batch)
    lead = params.theta.shape[:-1]
    if tape is None:
        tape = record(params, np.zeros(lead + (b, params.spec.state_dim)), xs[batch])
    if burn_ins is None:
        burn_ins = np.full(lead, config.m)
    w = per_start(lead, lambda r: segment_weights(xs.shape[1], int(burn_ins[r]), b))
    _, d_theta, _ = tape_loss_grad(tape, ys[batch], w)
    _check_finite_grad(d_theta, epoch, batch)

    if config.optimizer == "adam":
        if opt_state is None:
            raise ValueError("Adam updates need an AdamState")
        step = opt_state.direction(d_theta, config.lr)
    else:
        step = config.lr * d_theta
    updated = Params(params.theta - step, params.spec)
    return project_stability(updated, config.spectral_bound)


def _batches(order: list[int], size: int) -> list[list[int]]:
    return [order[k : k + size] for k in range(0, len(order), size)]


def _stateful_inits(
    params: Params,
    inputs: np.ndarray,
    xs: np.ndarray,
    plan: SegmentationPlan,
    cached: np.ndarray,
    batch: list[int],
) -> Tape:
    """Chain initial states through the batch under the current parameters
    and return the batch's tape, both from one forward pass.

    Segment i starts from the state its predecessor reaches at sample s_i,
    where the windows meet. ``batch`` must hold consecutive segment indices
    (stateful mode never shuffles), so under one parameter vector its
    windows are slices of one trajectory of the (T, d_x) series
    ``inputs``. One forward pass at batch size 1 runs that trajectory, the
    span: from the cached start of segment j, the one before the batch
    (the first segment itself for batch 0), through the last input of the
    batch's last window, s_last - s_j + N steps. Window i covers the span's
    steps s_i - s_j to s_i - s_j + N. The windows' states, LSTM
    ``gates``/``tanh_c`` and outputs are gathered from the span
    (``rnn_core.take_steps``) into a ``Tape`` of (B, N) windows, whose
    inputs are ``xs[batch]``, the batch's rows of the run's windows (S, N,
    d_x); ``sgd_step`` differentiates it. ``tape.states[..., 0, :]`` are
    the chained starts. ``cached`` (S, sd) keeps every segment's start and
    is updated. A stacked ``params`` chains every start in the same one
    pass, with ``cached`` (R, S, sd) and a stacked tape.

    A non-finite span raises ``NonFiniteError`` whose time index counts span
    steps: index k is the state after k inputs of the span, which starts at
    segment j's start.
    """
    j = max(batch[0] - 1, 0)
    s_j, N = plan.starts[j], plan.N
    span_inputs = inputs[s_j - 1 : plan.starts[batch[-1]] - 1 + N]
    states, outputs, cache = batched_forward(params, cached[..., j, None, :],
                                             span_inputs[None], keep_cache=True)
    offsets = np.array([plan.starts[i] - s_j for i in batch])
    steps = offsets[:, None] + np.arange(N + 1)  # (B, N + 1) span steps per window
    cached[..., batch, :] = states[..., 0, offsets, :]
    return Tape(params=params, inputs=xs[batch],
                states=take_steps(states, steps), outputs=take_steps(outputs, steps[:, :N]),
                cache={name: take_steps(a, steps[:, :N]) for name, a in cache.items()})


def train(dataset: TimeSeriesDataset, config: TrainConfig,
          init: Params | None = None) -> TrainLog:
    """Run the configured training mode (``train_burn_ins`` with the one
    burn-in ``config.m``) and log the full-batch objective and gradient norm
    after every epoch. It keeps no time: the CLI's ``timings.json`` holds the
    wall time of the whole call. The epochs' full-batch passes share one
    ``Workspace``."""
    epochs = train_burn_ins(dataset, config, [config.m], init)
    params, xs, ys = next(epochs)
    records: list[EpochRecord] = []
    workspace = Workspace()
    for epoch, (params, _, _) in enumerate(epochs):
        objective, d_theta = full_batch_gradient(params, xs, ys, config.m, workspace)
        records.append(EpochRecord(epoch=epoch, objective=objective,
                                   grad_norm=float(np.linalg.norm(d_theta))))
    return TrainLog(records=records, params=params)


def train_burn_ins(dataset: TimeSeriesDataset, config: TrainConfig,
                   burn_ins: list[int] | tuple[int, ...],
                   init: Params | None = None,
                   ) -> Iterator[tuple[Params, np.ndarray, np.ndarray]]:
    """Train one model per burn-in m of ``burn_ins`` and yield
    ``(params, xs, ys)`` before the first epoch and after each one.

    ``params`` stacks the models on a leading start axis (theta (R, n)) in
    the order of ``burn_ins``; start r after epoch k holds the bits of
    ``train(dataset, replace(config, m=burn_ins[r]), init)`` after epoch k.
    ``xs`` (S, N, d_x) and ``ys`` (S, N, d_y) are the run's windows,
    gathered once, for a caller's full-batch evaluation. The runs share
    their initial parameters, batch order and windows, so they train
    together: each batch is one stacked step of the R models (one forward
    pass, the stateful span or a zero-state record, and one backward pass),
    each start with its own burn-in weights, Adam moments and projection.
    One burn-in runs unstacked (theta (n,)), so ``train`` keeps its arrays
    and error messages. A start that fails (a non-finite gradient or pass)
    fails the whole run. The arguments are checked by the first ``next``.
    """
    configs = [replace(config, m=m) for m in burn_ins]  # validates each m
    if not configs:
        raise ValueError("train_burn_ins needs at least one burn-in")
    plan = make_plan(dataset.T, config.N, config.stride)
    if config.batch_size > plan.S:
        raise ValueError(f"batch_size={config.batch_size} exceeds segment count S={plan.S}")

    lead = (len(configs),) if len(configs) > 1 else ()
    ms = np.array([c.m for c in configs]).reshape(lead)
    start = init if init is not None else init_params(config.spec, config.seed)
    params = Params(np.broadcast_to(start.theta, lead + start.theta.shape).copy(), start.spec)
    opt_state = AdamState(params.theta.shape) if config.optimizer == "adam" else None
    shuffler = SplitMix64(config.seed).spawn(0xB0)
    xs, ys = segment_arrays(dataset, plan)
    cached_inits = np.zeros(lead + (plan.S, params.spec.state_dim))

    yield params, xs, ys
    for epoch in range(config.epochs):
        order = list(range(plan.S))
        if config.mode == "zero_init":
            shuffler.shuffle(order)
        for batch in _batches(order, config.batch_size):
            tape = None
            if config.mode == "stateful":
                tape = _stateful_inits(params, dataset.inputs, xs, plan, cached_inits, batch)
            params = sgd_step(params, xs, ys, batch, config, opt_state=opt_state,
                              tape=tape, epoch=epoch, burn_ins=ms)
        yield params, xs, ys
