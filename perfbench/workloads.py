"""The three benchmark workloads, their fixed amounts of work, and the
output check.

A workload has one or more inputs. Input j of a run with seed s has the
input seed s * inputs + j: ``tbptt synth --seed <input seed>`` generates its
CSVs and the command runs on them with ``--seed <input seed>``. The work of
one command (windows and optimizer updates) follows from the sizes below
alone; it is never counted from the program.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Headline numbers must match the stored reference to this share of the
# largest headline value of the run: a change may alter the last bits (a
# different spectral-norm routine, summation order), not the results.
REL_TOL = 1e-6


def _windows(T: int, N: int) -> int:
    """Window count S of a stride-1 plan."""
    return T - N + 1


def _batches(S: int, batch: int) -> int:
    return -(-S // batch)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: tuple[str, ...]  # flags of `tbptt synth`, without --seed
    command: str
    flags: tuple[str, ...]  # flags of the command, without --data/--test/--seed
    windows: int  # segment-loss gradients taken by the optimizer steps
    updates: int  # optimizer updates
    inputs: int = 1
    threads: int = 1  # pool threads the command keeps busy, at most

    def input_seed(self, seed: int, j: int) -> int:
        return seed * self.inputs + j


# Calls are short so that a run repeats each input several times: the host
# of a shared machine slows every call for stretches of seconds to minutes.
#
# train: 1 epoch over S = 1980 windows in batches of 16, on 32 inputs. How
# long power iteration takes to converge depends on the singular-value gap of
# the learned W_hh: over 200 seeds the power-iteration steps of one command
# had quartiles 7.6k, 11k and 17.5k, and its time a coefficient of variation
# of 0.3 to 0.46, with a tail of inputs several times slower. A run takes
# the median over 32 input seeds.
_TRAIN_S = _windows(2000, 21)
# sweep: 1 epoch for each of the four (N, m) cells
_SWEEP_S = [_windows(1000, N) for N in (21, 21, 41, 41)]
# benchmark: 2 restarts per variant, plus 1 (coupled) and 2 (unconstrained)
# warm starts; plateau_iters = 300 > 50, so every start runs all 50 iterations
_BENCH_STARTS = 2 + 3 + 4
_BENCH_S = _windows(400, 21)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-elman-zero",
            why="many small-batch Elman steps: spectral projection and the per-step "
                "window re-gather dominate; no stateful chain, solver or analysis",
            synth=("--T", "2000", "--T-test", "0"),
            command="train",
            flags=("--cell", "elman", "--d-h", "8", "--N", "21", "--m", "5",
                   "--batch", "16", "--opt", "adam", "--rho", "0.999",
                   "--mode", "zero", "--epochs", "1"),
            windows=_TRAIN_S,
            updates=_batches(_TRAIN_S, 16),
            inputs=32,
        ),
        Workload(
            name="sweep-lstm-stateful",
            why="LSTM gates, the stateful state chain, per-epoch full-batch "
                "gradients, sweep analysis calls and the sweep thread pool",
            synth=("--T", "1000", "--T-test", "300"),
            command="sweep",
            flags=("--cell", "lstm", "--d-h", "8", "--mode", "stateful",
                   "--epochs", "1", "--N-list", "21,41", "--m-list", "0,10"),
            windows=sum(_SWEEP_S),
            updates=sum(_batches(S, 16) for S in _SWEEP_S),
            threads=len(_SWEEP_S),  # default --jobs: one thread per processor
        ),
        Workload(
            name="bench-linear",
            why="reference-problem solver: long coupled sequences and wide "
                "batches, fixed 450 iterations; little spectral-norm time",
            synth=("--T", "400", "--T-test", "0"),
            command="benchmark",
            flags=("--cell", "linear", "--d-h", "2", "--N", "21", "--m-list", "5",
                   "--restarts", "2", "--iters", "50"),
            windows=_BENCH_STARTS * 50 * _BENCH_S,
            updates=_BENCH_STARTS * 50,
        ),
    )
}


def synth_argv(workload: Workload, seed: int, out_root: Path) -> list[str]:
    return ["--out", str(out_root), "synth", *workload.synth, "--seed", str(seed)]


def input_files(out_root: Path) -> dict[str, Path]:
    """The CSVs (train, and test when present) of the one synth run under
    ``out_root``."""
    (synth_dir,) = (out_root / "synth").iterdir()
    return {p.stem: p for p in sorted(synth_dir.glob("*.csv"))}


def command_argv(workload: Workload, inputs: dict[str, Path], seed: int,
                 out_root: Path) -> list[str]:
    argv = ["--out", str(out_root), workload.command, "--data", str(inputs["train"])]
    if "test" in inputs:
        argv += ["--test", str(inputs["test"])]
    return argv + [*workload.flags, "--seed", str(seed)]


# ---------------------------------------------------------------------------
# Output digest and headline numbers
# ---------------------------------------------------------------------------


@dataclass
class Outputs:
    sha256: str
    headline: dict[str, float]
    cells: int  # sweep cells in the report (0 for other commands)
    errors: list[str]  # sweep cells that reported an error


def _sweep_report(text: str) -> tuple[bytes, dict[str, float], int, list[str]]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("report.csv has no rows")
    columns = [c for c in rows[0] if c != "wall_time_s"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    headline: dict[str, float] = {}
    errors = []
    for row in rows:
        cell = f"N{row['N']}.m{row['m']}"
        if row["error"]:
            errors.append(f"{cell}: {row['error']}")
            continue
        headline[f"train_mse.{cell}"] = float(row["train_mse"])
        headline[f"test_mse.{cell}"] = float(row["test_mse"])
    return buf.getvalue().encode(), headline, len(rows), errors


def read_outputs(command: str, run_dir: Path) -> Outputs:
    """Digest of the deterministic outputs of one run directory.

    Timing (``timings.json``, the sweep's ``wall_time_s`` column) and the
    manifest's timestamp are left out, so reruns hash identically.
    """
    parts: list[tuple[str, bytes]] = []
    headline: dict[str, float] = {}
    cells, errors = 0, []
    if command == "train":
        for name in ("params.json", "log.jsonl"):
            parts.append((name, (run_dir / name).read_bytes()))
        last = parts[1][1].decode().strip().splitlines()[-1]
        headline["final_objective"] = float(json.loads(last)["objective"])
    elif command == "sweep":
        report, headline, cells, errors = _sweep_report((run_dir / "report.csv").read_text())
        parts.append(("report.csv", report))
    elif command == "benchmark":
        names = sorted(p.name for p in run_dir.glob("solution_*.json"))
        reports = sorted(p.name for p in run_dir.glob("report_m*.json"))
        if not names or not reports:
            raise ValueError(f"{run_dir}: missing solution or report files")
        for name in names + reports + ["report.csv"]:
            parts.append((name, (run_dir / name).read_bytes()))
        for name in reports:
            report = json.loads((run_dir / name).read_text())
            tag = name[len("report_"):-len(".json")]
            for key in ("V_star", "V_bench", "training_regret", "performance_regret"):
                headline[f"{key}.{tag}"] = float(report[key])
    else:
        raise ValueError(f"unknown command {command!r}")
    digest = hashlib.sha256()
    for name, blob in parts:
        digest.update(name.encode() + b"\0" + blob + b"\0")
    return Outputs(digest.hexdigest(), headline, cells, errors)


def combine(outputs: list[Outputs]) -> Outputs:
    """One digest and headline for the outputs of a workload's inputs, in order."""
    if len(outputs) == 1:
        return outputs[0]
    digest = hashlib.sha256("".join(o.sha256 for o in outputs).encode()).hexdigest()
    headline = {f"{key}.{j}": value for j, o in enumerate(outputs)
                for key, value in o.headline.items()}
    return Outputs(digest, headline, sum(o.cells for o in outputs),
                   [e for o in outputs for e in o.errors])


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def compare_reference(outputs: Outputs, expected: dict) -> tuple[list[str], bool]:
    """Headline mismatches against one stored reference, and bit identity."""
    problems = []
    scale = max(abs(v) for v in expected["headline"].values())
    for key, want in expected["headline"].items():
        got = outputs.headline.get(key)
        if got is None or not math.isclose(got, want, rel_tol=REL_TOL,
                                           abs_tol=REL_TOL * scale):
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    extra = sorted(set(outputs.headline) - set(expected["headline"]))
    if extra:
        problems.append(f"headline values missing from the reference: {extra}")
    return problems, outputs.sha256 == expected["sha256"]
