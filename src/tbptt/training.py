"""Mini-batch training over overlapping segments with a tunable burn-in phase.

Three modes:

* ``zero_init``: every segment's forward pass starts from the zero state and
  the segment order is reshuffled each epoch (the classic truncated scheme).
* ``stateful``: segments are visited chronologically and each one starts from
  the state its predecessor reached at the step where the windows meet,
  recomputed under the current parameters by one forward pass per batch.
* ``full_bptt``: one segment spanning the whole sequence.

The per-step update is plain SGD or Adam on the batch-averaged gradient,
optionally followed by a spectral-norm projection of the recurrent block.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Union

import numpy as np

from .autodiff import segment_weights, weighted_loss, weighted_loss_grad
from .data import SegmentationPlan, TimeSeriesDataset, make_plan, segment_arrays
from .linalg import spectral_norm
from .rnn_core import CellSpec, Params, batched_forward, init_params
from .rng import SplitMix64

MODES = ("zero_init", "stateful", "full_bptt")


class TrainingError(RuntimeError):
    """Aborted update; message carries epoch, segment, and component info."""


@dataclass(frozen=True)
class SGDConfig:
    lr: float

    def to_json_dict(self) -> dict:
        return {"kind": "sgd", "lr": self.lr}


@dataclass(frozen=True)
class AdamConfig:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def to_json_dict(self) -> dict:
        return {"kind": "adam", "lr": self.lr, "beta1": self.beta1,
                "beta2": self.beta2, "eps": self.eps}


OptimizerConfig = Union[SGDConfig, AdamConfig]


class AdamState:
    """First/second moment accumulators with bias correction."""

    def __init__(self, n: int):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def direction(self, grad: np.ndarray, cfg: AdamConfig) -> np.ndarray:
        self.t += 1
        self.m = cfg.beta1 * self.m + (1.0 - cfg.beta1) * grad
        self.v = cfg.beta2 * self.v + (1.0 - cfg.beta2) * grad * grad
        m_hat = self.m / (1.0 - cfg.beta1**self.t)
        v_hat = self.v / (1.0 - cfg.beta2**self.t)
        return cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


@dataclass
class TrainConfig:
    """Everything a training run depends on; hashable for run manifests.

    ``train`` runs every one of the ``epochs``.
    """

    spec: CellSpec
    N: int
    m: int
    batch_size: int
    optimizer: OptimizerConfig
    epochs: int
    stride: int = 1
    seed: int = 0
    spectral_bound: float | None = 0.999
    mode: str = "zero_init"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} not one of {MODES}")
        if self.mode != "full_bptt" and not 0 <= self.m <= self.N - 1:
            raise ValueError(f"burn-in m={self.m} must lie in [0, N-1] = [0, {self.N - 1}]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.spectral_bound is not None and not 0.0 < self.spectral_bound <= 1.0:
            raise ValueError("spectral_bound must lie in (0, 1] or be None")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "N": self.N,
            "m": self.m,
            "batch_size": self.batch_size,
            "optimizer": self.optimizer.to_json_dict(),
            "epochs": self.epochs,
            "stride": self.stride,
            "seed": self.seed,
            "spectral_bound": self.spectral_bound,
            "mode": self.mode,
        }

    def digest(self) -> str:
        text = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class EpochRecord:
    epoch: int
    objective: float
    grad_norm: float
    wall_time_s: float


@dataclass
class TrainLog:
    records: list[EpochRecord]
    params: Params
    config_digest: str
    seed: int

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def to_jsonl(self) -> str:
        """Deterministic per-epoch lines; wall time is reported separately."""
        lines = [
            json.dumps({"epoch": r.epoch, "objective": r.objective, "grad_norm": r.grad_norm})
            for r in self.records
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def full_batch_objective(params: Params, dataset: TimeSeriesDataset,
                         plan: SegmentationPlan, m: int) -> float:
    """Average segment loss with zero initialization (the truncated objective)."""
    h0 = np.zeros((plan.S, params.spec.state_dim))
    return weighted_loss(params, h0, *segment_arrays(dataset, plan),
                         segment_weights(plan.N, m, plan.S))


def full_batch_gradient(params: Params, xs: np.ndarray, ys: np.ndarray,
                        m: int) -> tuple[float, np.ndarray]:
    """Objective value and its exact gradient over all gathered windows.

    ``xs`` (S, N, d_x) and ``ys`` (S, N, d_y) are ``segment_arrays`` output.
    """
    S, N = xs.shape[:2]
    h0 = np.zeros((S, params.spec.state_dim))
    loss, d_theta, _ = weighted_loss_grad(params, h0, xs, ys, segment_weights(N, m, S))
    return loss, d_theta


def project_stability(params: Params, rho: float | None) -> Params:
    """Scale the recurrent block so its spectral norm is at most rho.

    Idempotent: norms within 1e-9 of the bound are left untouched, so a
    freshly projected matrix is never rescaled again. A non-finite block
    raises ``TrainingError``: it has no spectral norm to project with.
    """
    if rho is None:
        return params
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    w = params.block("W_hh")
    if not np.isfinite(w).all():
        raise TrainingError("non-finite recurrent block W_hh, cannot project its spectral norm")
    sigma = spectral_norm(w)
    if sigma <= rho * (1.0 + 1e-9):
        return params
    return params.with_block("W_hh", w * (rho / sigma))


def _check_finite_grad(d_theta: np.ndarray, epoch: int, batch: list[int]) -> None:
    if not np.all(np.isfinite(d_theta)):
        comp = int(np.where(~np.isfinite(d_theta))[0][0])
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
    h0: np.ndarray | None = None,
    epoch: int = 0,
) -> Params:
    """One update on a batch of window indices into ``xs``/``ys``.

    ``xs`` (S, N, d_x) and ``ys`` (S, N, d_y) are all windows of the run,
    gathered once by ``segment_arrays``; the step reads the batch's rows.
    ``h0`` optionally supplies per-segment initial states (stateful mode);
    the default is zero initialization.
    """
    b = len(batch)
    if h0 is None:
        h0 = np.zeros((b, params.spec.state_dim))
    w = segment_weights(xs.shape[1], config.m, b)
    _, d_theta, _ = weighted_loss_grad(params, h0, xs[batch], ys[batch], w)
    _check_finite_grad(d_theta, epoch, batch)

    if isinstance(config.optimizer, AdamConfig):
        if opt_state is None:
            raise ValueError("Adam updates need an AdamState")
        step = opt_state.direction(d_theta, config.optimizer)
    else:
        step = config.optimizer.lr * d_theta
    updated = Params(params.theta - step, params.spec, params.layout)
    return project_stability(updated, config.spectral_bound)


def _batches(order: list[int], size: int) -> list[list[int]]:
    return [order[k : k + size] for k in range(0, len(order), size)]


def _stateful_inits(
    params: Params,
    inputs: np.ndarray,
    plan: SegmentationPlan,
    cached: np.ndarray,
    batch: list[int],
) -> np.ndarray:
    """Chain initial states through the batch under the current parameters.

    Segment i starts from the state its predecessor reaches at sample s_i,
    where the windows meet. ``batch`` must hold consecutive segment indices
    (stateful mode never shuffles), so the chain is one forward pass over the
    (T, d_x) series ``inputs``: from the cached start of the segment before
    the batch to the start of the batch's last segment, read at each
    segment's start. ``cached`` keeps every segment's start and is updated.
    """
    j = max(batch[0] - 1, 0)
    s_j = plan.starts[j]
    states, _, _ = batched_forward(params, cached[j][None],
                                   inputs[None, s_j - 1 : plan.starts[batch[-1]] - 1])
    cached[batch] = states[0, [plan.starts[i] - s_j for i in batch]]
    return cached[batch]


def train(dataset: TimeSeriesDataset, config: TrainConfig,
          init: Params | None = None) -> TrainLog:
    """Run the configured training mode and log the full-batch objective per epoch."""
    if config.mode == "full_bptt":
        plan = SegmentationPlan(N=dataset.T, starts=(1,))
        if not 0 <= config.m <= dataset.T - 1:
            raise ValueError(f"burn-in m={config.m} out of range [0, {dataset.T - 1}]")
    else:
        plan = make_plan(dataset.T, config.N, config.stride)
    if config.batch_size > plan.S:
        raise ValueError(f"batch_size={config.batch_size} exceeds segment count S={plan.S}")

    params = init.copy() if init is not None else init_params(config.spec, config.seed)
    opt_state = AdamState(params.theta.size) if isinstance(config.optimizer, AdamConfig) else None
    shuffler = SplitMix64(config.seed).spawn(0xB0)
    xs, ys = segment_arrays(dataset, plan)
    cached_inits = np.zeros((plan.S, params.spec.state_dim))

    records: list[EpochRecord] = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = list(range(plan.S))
        if config.mode == "zero_init":
            shuffler.shuffle(order)
        for batch in _batches(order, config.batch_size):
            h0 = None
            if config.mode == "stateful":
                h0 = _stateful_inits(params, dataset.inputs, plan, cached_inits, batch)
            params = sgd_step(params, xs, ys, batch, config,
                              opt_state=opt_state, h0=h0, epoch=epoch)
        objective, d_theta = full_batch_gradient(params, xs, ys, config.m)
        records.append(
            EpochRecord(
                epoch=epoch,
                objective=objective,
                grad_norm=float(np.linalg.norm(d_theta)),
                wall_time_s=time.perf_counter() - t0,
            )
        )

    return TrainLog(records=records, params=params,
                    config_digest=config.digest(), seed=config.seed)
