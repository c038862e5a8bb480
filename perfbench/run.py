"""Benchmark entry point: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-elman-zero --seed 0 --seconds 30 --trace 0

Set-up runs ``perfbench/setup_inputs.py`` in fresh interpreters and reports
the median as ``setup_s``. The workload then runs closed-loop, one
``tbptt.cli.main`` call at a time in this process, each in a fresh output
root: one untimed warm-up call, then cycling over its inputs until
``--seconds`` have passed and every input has run (at least three calls).
The host-speed calibrations (``hostspeed.py``) run before and after every
timed set-up and call, and times are reported at the reference host speed. Every
call's outputs are hashed and checked. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
each input untraced and then traced (at least two traced calls), prints
the per-layer metrics, and writes the spans of the first two traced calls
to ``.perfbench_traces/<workload>-seed<seed>.jsonl``. The last line of standard output is the result
object; the lines before it are a report with the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_traces"
SETUP_SAMPLES = 9
MIN_REPS = 3
MIN_TRACED = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import hostspeed, layers  # noqa: E402
from perfbench.tracer import Tracer, span_records  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, Outputs, Workload, combine, command_argv, compare_reference,
    input_files, load_reference, read_outputs,
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "train_windows_per_s": "1/s",
    "solver_iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _git() -> dict:
    # stop at the checkout: never read an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit is None:
        return {"commit": None, "dirty": None}
    status = git("status", "--porcelain")
    return {"commit": commit.strip(), "dirty": None if status is None else bool(status.strip())}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git": _git(),
    }


# ---------------------------------------------------------------------------
# Set-up and repetitions
# ---------------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def op(self, problem: str | None = None) -> None:
        self.attempted += 1
        if problem:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        """Record a failure of an operation already counted as attempted."""
        self.problems.append(problem)
        print(f"FAILED: {problem}", file=sys.stderr)


def prepare_inputs(workload: Workload, seed: int, work: Path,
                   ledger: Ledger) -> tuple[list[float], list[float], list[dict[str, Path]]]:
    """Time SETUP_SAMPLES fresh set-ups of input 0, which must all write the
    same CSV bytes; then generate the workload's other inputs in this
    process. Returns the set-up times as measured and at the reference host
    speed, and the inputs (empty if none succeeded)."""
    script = Path(__file__).resolve().parent / "setup_inputs.py"
    first_seed = str(workload.input_seed(seed, 0))
    times: list[float] = []
    scaled: list[float] = []
    first_bytes, inputs = None, []
    hostspeed.start_seconds()  # warm-up: file cache
    start_before = hostspeed.start_seconds()
    for k in range(SETUP_SAMPLES):
        out_root = work / f"setup{k}"
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, str(script), workload.name, first_seed,
                               str(out_root)], capture_output=True, text=True, timeout=150)
        elapsed = time.perf_counter() - t0
        start_after = hostspeed.start_seconds()
        elapsed_scaled = hostspeed.scaled(elapsed, start_before, start_after,
                                          hostspeed.START_REFERENCE_S)
        start_before = start_after
        if done.returncode != 0:
            ledger.op(f"setup {k} exited {done.returncode}: {done.stderr.strip()[-500:]}")
            continue
        files = input_files(out_root)
        blobs = {name: path.read_bytes() for name, path in files.items()}
        if first_bytes is None:
            first_bytes, inputs = blobs, [files]
            ledger.op()
        else:
            ledger.op(None if blobs == first_bytes else
                      f"setup {k}: input CSVs differ from the first set-up of the same seed")
        times.append(elapsed)
        scaled.append(elapsed_scaled)
    if not inputs:
        return times, scaled, inputs
    from perfbench.setup_inputs import make_input

    for j in range(1, workload.inputs):
        files = make_input(workload.name, workload.input_seed(seed, j), work / f"input{j}")
        ledger.op(None if files else f"setup of input {j} failed")
        if not files:
            return times, scaled, []
        inputs.append(files)
    return times, scaled, inputs


def run_rep(cli, workload: Workload, inputs: dict[str, Path], seed: int,
            out_root: Path, tracer: Tracer | None = None):
    """One ``cli.main`` call. Returns (wall seconds, outputs or None,
    problem or None)."""
    argv = command_argv(workload, inputs, seed, out_root)
    gc.collect()
    captured = io.StringIO()
    code = 1
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            if tracer is None:
                code = cli.main(argv)
            else:
                with layers.installed(tracer), tracer.root_span("cli"):
                    code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not a crashed benchmark
        traceback.print_exc()
    wall = time.perf_counter() - t0
    if code != 0:
        shutil.rmtree(out_root, ignore_errors=True)
        return wall, None, f"{workload.command} exited {code}"
    run_dir = Path(captured.getvalue().strip().splitlines()[-1])
    try:
        outputs = read_outputs(workload.command, run_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return wall, None, f"unreadable outputs: {exc!r}"
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    return wall, outputs, None


def distribution(values: list[float]) -> dict:
    """Median, quartiles, max, count, and the highest percentile with at
    least ten samples beyond it (None below 20 samples)."""
    n = len(values)
    q = statistics.quantiles(values, n=4) if n > 1 else [values[0]] * 3
    highest = None
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            highest = {"p": p, "value": statistics.quantiles(values, n=1000)[round(p * 10) - 1]}
            break
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2],
            "min": min(values), "max": max(values), "count": n,
            "highest_percentile": highest}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def measure(cli, workload: Workload, seed: int, inputs: list[dict[str, Path]],
            args, work: Path, ledger: Ledger):
    """Make one untimed warm-up call, then run the workload's inputs in turn
    until ``args.seconds`` have passed and every input has run. With
    ``--trace 1`` each input runs untraced, then traced. Returns the
    untraced calls in order as [input, wall, host-speed kernel time before,
    kernel time after], the per-layer values of each traced call, the first
    outputs of each input, and the span records of the first MIN_TRACED
    traced calls."""
    timeline: list[list] = []
    traced: list[dict[str, float]] = []
    firsts: dict[int, Outputs] = {}
    spans: list[dict] = []
    start = time.perf_counter()

    def enough() -> bool:
        if time.perf_counter() - start < args.seconds:
            return False
        if args.trace:
            return len(traced) >= MIN_TRACED
        return len({row[0] for row in timeline}) == len(inputs) and len(timeline) >= MIN_REPS

    def call(k: int, j: int, tracer: Tracer | None = None) -> float:
        input_seed = workload.input_seed(seed, j)
        wall, outputs, problem = run_rep(cli, workload, inputs[j], input_seed,
                                         work / f"rep{k}", tracer)
        if outputs is not None:
            ledger.attempted += outputs.cells
            for cell_error in outputs.errors:
                ledger.fail(f"input {j}, sweep cell {cell_error}")
            if j not in firsts:
                firsts[j] = outputs
            elif outputs.sha256 != firsts[j].sha256:
                problem = f"input {j}: outputs differ from its first run"
        ledger.op(problem)
        return wall

    call(-1, 0)  # warm-up: lazy imports and first allocations
    threads = min(workload.threads, os.cpu_count() or 1)
    kernel_before = hostspeed.kernel_seconds(threads)
    k = 0
    while not enough():
        traced_call = args.trace and k % 2 == 1
        j = (k // 2 if args.trace else k) % len(inputs)
        tracer = Tracer() if traced_call else None
        wall = call(k, j, tracer)
        kernel_after = hostspeed.kernel_seconds(threads)
        k += 1
        if tracer is None:
            timeline.append([j, wall, kernel_before, kernel_after])
        else:
            rep = layers.rep_metrics(tracer)
            # the call before ran the same input untraced
            rep["cli.trace_overhead_s"] = rep["cli.s"] - timeline[-1][1]
            traced.append(rep)
            if len(traced) <= MIN_TRACED:
                spans.extend({"call": len(traced) - 1, "input": j, **r}
                             for r in span_records(tracer.spans))
        kernel_before = kernel_after
    return timeline, traced, firsts, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tbptt" / "cli.py").is_file():
        print(f"error: no tbptt sources under {SRC}", file=sys.stderr)
        return 2
    import tbptt
    from tbptt import cli

    if Path(tbptt.__file__).resolve().parent != SRC / "tbptt":
        print(f"error: imported tbptt from {tbptt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    reference = load_reference()["workloads"].get(workload.name, {}).get(str(args.seed))
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    ledger = Ledger()
    try:
        hostspeed.kernel_seconds()  # warm-up
        setup_times, setup_scaled, inputs = prepare_inputs(workload, args.seed, work, ledger)
        if not inputs:
            print("error: set-up failed", file=sys.stderr)
            return 1
        timeline, traced, firsts, spans = measure(cli, workload, args.seed, inputs, args,
                                               work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()

    outputs, bit_identical = None, None
    if len(firsts) == len(inputs):
        outputs = combine([firsts[j] for j in range(len(inputs))])
        if reference is not None:
            mismatches, bit_identical = compare_reference(outputs, reference)
            ledger.op("reference mismatch: " + "; ".join(mismatches) if mismatches else None)
    # At the reference host speed: the mean over each input's calls, which
    # uses every call of a workload with few (the sweep runs about five),
    # then the median over inputs, so that inputs on which power iteration
    # converges slowly fall in the tail and a partial last cycle over the
    # inputs weighs no input more.
    walls: dict[int, list[float]] = {}
    scaled: dict[int, list[float]] = {}
    for j, wall, kernel_before, kernel_after in timeline:
        walls.setdefault(j, []).append(wall)
        scaled.setdefault(j, []).append(hostspeed.scaled(wall, kernel_before, kernel_after))
    wall_s = statistics.median(statistics.mean(scaled[j]) for j in sorted(scaled))
    calls = [x for w in walls.values() for x in w]
    failed = len(ledger.problems)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "input_seeds": [workload.input_seed(args.seed, j) for j in range(len(inputs))],
        "trace": args.trace,
        "environment": environment(),
        "wall_s": wall_s,
        "wall_s_per_call": distribution([x for w in scaled.values() for x in w]),
        "wall_s_by_input": {j: scaled[j] for j in sorted(scaled)},
        "measured_wall_s_per_call": distribution(calls),
        "measured_wall_s_by_input": {j: walls[j] for j in sorted(walls)},
        "calls": {"columns": ["input", "wall_s", "kernel_before_s", "kernel_after_s"],
                  "rows": timeline},
        "kernel_reference_s": hostspeed.REFERENCE_S,
        "setup_s": distribution(setup_scaled),
        "measured_setup_s": distribution(setup_times),
        "work_per_call": {"windows": workload.windows, "updates": workload.updates},
        "attempted": ledger.attempted,
        "failed_share": failed / ledger.attempted,
        "problems": ledger.problems,
        "outputs_sha256": None if outputs is None else outputs.sha256,
        "headline": None if outputs is None else outputs.headline,
        "reference_checked": bit_identical is not None,
        "bit_identical_to_reference": bit_identical,
    }
    if args.trace:
        trace_path = TRACE_DIR / f"{workload.name}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(exist_ok=True)
        trace_path.write_text("".join(json.dumps(r) + "\n" for r in spans))
        report["spans_file"] = str(trace_path.relative_to(ROOT))
        per_layer = {k: statistics.median(r[k] for r in traced) for k in traced[0]}
        metrics = {k: {"value": per_layer[k], "unit": u}
                   for k, u in layers.metric_units().items()}
        # share of all busy thread time (the sweep pool runs two threads)
        names = layers.span_names() + ["cli"]
        busy = sum(per_layer[f"{name}.self_s"] for name in names)
        report["self_share"] = {name: per_layer[f"{name}.self_s"] / busy for name in names}
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_scaled),
            "train_windows_per_s": workload.windows / wall_s,
            "solver_iters_per_s": workload.updates / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": 1.0 - failed / ledger.attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
