"""Time-series ingestion, normalization, segmentation, and the synthetic
recording behind ``tbptt synth``.

Segmentation follows the overlapping-window scheme: S windows of length N
with 1-based start samples s_i, pairwise overlaps o_i = N - (s_i - s_{i-1}),
and minimum overlap o_min. Windows always cover the whole sequence.
``segment_arrays`` gathers all S windows in one indexing step; it is the
only way windows are read off a dataset.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .rng import SplitMix64


@dataclass(frozen=True)
class ColumnTransform:
    """Affine per-column map x' = (x - offset) * scale.

    A zero scale marks a constant column: it normalizes to 0, and the offset
    records the constant.
    """

    offset: float
    scale: float

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.offset) * self.scale


def minmax_transform(column: np.ndarray) -> ColumnTransform:
    """Fit the affine map sending [min, max] to [-1, 1]."""
    lo, hi = float(np.min(column)), float(np.max(column))
    if hi == lo:
        return ColumnTransform(offset=lo, scale=0.0)
    return ColumnTransform(offset=0.5 * (lo + hi), scale=2.0 / (hi - lo))


@dataclass
class TimeSeriesDataset:
    """Aligned input/target sequences plus the normalization that produced them."""

    inputs: np.ndarray  # (T, d_x)
    targets: np.ndarray  # (T, d_y)
    input_transforms: list[ColumnTransform] = field(default_factory=list)
    target_transforms: list[ColumnTransform] = field(default_factory=list)

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=np.float64))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"inputs ({self.inputs.shape[0]}) and targets ({self.targets.shape[0]}) "
                "must have the same length"
            )
        if self.inputs.shape[0] < 1:
            raise ValueError("dataset must contain at least one time step")

    @property
    def T(self) -> int:
        return self.inputs.shape[0]

    @property
    def d_x(self) -> int:
        return self.inputs.shape[1]

    @property
    def d_y(self) -> int:
        return self.targets.shape[1]


@dataclass(frozen=True)
class SegmentationPlan:
    """Window length N, count S, 1-based starts, overlaps o_2..o_S, and o_min."""

    N: int
    starts: tuple[int, ...]

    @property
    def S(self) -> int:
        return len(self.starts)

    @property
    def overlaps(self) -> tuple[int, ...]:
        return tuple(
            self.N - (self.starts[i] - self.starts[i - 1]) for i in range(1, self.S)
        )

    @property
    def o_min(self) -> int:
        # single-segment convention: the natural burn-in cap N-1 remains valid
        if self.S == 1:
            return self.N - 1
        return min(self.overlaps)


def make_plan(T: int, N: int, stride: int) -> SegmentationPlan:
    """Starts 1, 1+stride, ... clipped so the last window ends exactly at T."""
    if not 1 <= N <= T:
        raise ValueError(f"window length N={N} must satisfy 1 <= N <= T={T}")
    if not 1 <= stride <= N:
        raise ValueError(f"stride={stride} must satisfy 1 <= stride <= N={N}")
    last = T - N + 1
    starts = list(range(1, last + 1, stride))
    if starts[-1] != last:
        starts.append(last)
    return SegmentationPlan(N=N, starts=tuple(starts))


def segment_arrays(dataset: TimeSeriesDataset, plan: SegmentationPlan) -> tuple[np.ndarray, np.ndarray]:
    """All windows stacked: inputs (S, N, d_x) and targets (S, N, d_y)."""
    idx = np.array(plan.starts) - 1
    gather = idx[:, None] + np.arange(plan.N)[None, :]
    return dataset.inputs[gather], dataset.targets[gather]


# ---------------------------------------------------------------------------
# Synthetic single-input single-output data
# ---------------------------------------------------------------------------

# Fixed second-order system, diagonal (modal) form: poles 0.7 and 0.3, both
# modes driven by the input, output mixing the modes with weights 0.35/0.5.
# The noise-free output has close to unit variance under unit white input.
_GEN_A = np.array([[0.7, 0.0], [0.0, 0.3]])
_GEN_B = np.array([1.0, 1.0])
_GEN_C = np.array([0.35, 0.5])


@dataclass
class LinearSISOGenerator:
    """Ground-truth linear system behind the synthetic series, in raw units.

    Keeps everything an oracle needs to reproduce a recording: the
    state-space matrices, the state at the first recorded sample, the noise
    level, and the seed and warmup of the simulation. Normalization is not
    part of it: it belongs to whoever loads the series.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    noise_std: float
    seed: int
    warmup: int
    state_at_start: np.ndarray

    def to_json(self) -> str:
        return json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v
                           for k, v in asdict(self).items()})


def _simulate_raw(seed: int, total: int, warmup: int, noise_std: float):
    """Raw input and output series of ``total`` recorded samples after
    ``warmup`` unrecorded steps, and the generator that describes them."""
    rng = SplitMix64(seed)
    u = rng.normals(warmup + total)
    h = np.zeros(2)
    ys = np.empty(total)
    state_at_start = h
    for t in range(warmup + total):
        if t == warmup:
            # state before the first recorded input is applied
            state_at_start = h.copy()
        h = _GEN_A @ h + _GEN_B * u[t]
        if t >= warmup:
            ys[t - warmup] = _GEN_C @ h
    noise = rng.normals(total, sigma=noise_std) if noise_std > 0 else np.zeros(total)
    generator = LinearSISOGenerator(a=_GEN_A.copy(), b=_GEN_B.copy(), c=_GEN_C.copy(),
                                    noise_std=noise_std, seed=seed, warmup=warmup,
                                    state_at_start=state_at_start)
    return u[warmup:], ys + noise, generator


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def load_csv(
    path,
    input_cols: list[str],
    target_cols: list[str],
    transforms: tuple[list[ColumnTransform], list[ColumnTransform]] | None = None,
) -> TimeSeriesDataset:
    """Read a headed CSV of finite decimal doubles into a normalized dataset.

    Each requested column is min-max normalized to [-1, 1] (constant columns
    map to 0) unless explicit transforms are given, e.g. to apply a training
    split's normalization to a test split.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    missing = [c for c in input_cols + target_cols if c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {missing} (header: {header})")
    if len(rows) < 2:
        raise ValueError(f"{path}: no data rows")

    col_idx = {c: header.index(c) for c in header}
    data = np.empty((len(rows) - 1, len(header)), dtype=np.float64)
    for r, row in enumerate(rows[1:], start=2):
        for c, name_c in enumerate(header):
            cell = row[c].strip() if c < len(row) else ""
            try:
                data[r - 2, c] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell {cell!r} at row {r}, column {name_c!r}"
                ) from None
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise ValueError(f"{path}: non-finite cell at row {r + 2}, column {header[c]!r}")

    def take(cols, fitted):
        raw = np.stack([data[:, col_idx[c]] for c in cols], axis=1)
        trs = fitted if fitted is not None else [minmax_transform(raw[:, j]) for j in range(raw.shape[1])]
        normed = np.stack([trs[j].apply(raw[:, j]) for j in range(raw.shape[1])], axis=1)
        return normed, trs

    in_fit, tg_fit = transforms if transforms is not None else (None, None)
    inputs, in_trs = take(input_cols, in_fit)
    targets, tg_trs = take(target_cols, tg_fit)
    return TimeSeriesDataset(inputs, targets, input_transforms=in_trs,
                             target_transforms=tg_trs)


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write aligned 1-D columns as a headed CSV with repr-exact doubles."""
    names = list(columns)
    arrays = [np.asarray(columns[n]).reshape(-1) for n in names]
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise ValueError("all columns must have equal length")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for r in range(length):
            writer.writerow([repr(float(a[r])) for a in arrays])
