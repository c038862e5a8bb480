"""Command-line entry point.

Subcommands: ``synth`` (generate data files), ``train`` (one training run),
``sweep`` (cross-product of window lengths and burn-in values), ``benchmark``
(solve the coupled/unconstrained reference problems and report regrets).

``train`` and ``sweep`` train with zero-initialized or state-passing windows
(``--mode zero``/``stateful``). ``--mode bptt`` is full BPTT, the paper's
optimization over the whole sequence: zero-initialized training on the one
window N = T, whatever ``--N`` or ``--N-list`` says, with ``--batch`` 1 by
default. Flags that no run can use exit 2 before a run directory is made.

A sweep cell's ``train_mse`` is the full-batch objective of its final
parameters, computed by a forward pass alone; it equals the same ``train``
run's ``final_objective`` and is empty when ``--epochs 0``. The cells of one
window length N train together as one stacked run over their burn-ins; then
every trained model of the grid is evaluated in one stacked pass.
Every command but ``synth`` writes ``timings.json`` with the times it
measures under ``phases``: ``train``'s whole training call, setup included;
the sweep's training of each N and its one evaluation; the benchmark's
(m, variant) solves and each m's analysis (the stability fit, the checks
and the report).

Every run writes into ``<out-root>/<command>/<config-hash>/`` with a
manifest.json describing it; rerunning with identical flags reproduces all
numeric outputs bit-exactly (timestamps live only in the manifest, wall
times only in timings.json). A run's identity, which the hash digests, is
every flag except ``--out``, with the data files (``--data``, and ``--test``
when given) by the SHA-256 of their bytes: a file rewritten in place gets a
new run directory, and two paths to one file share one.

Every JSON run file is strict JSON, written by ``to_json``: a non-finite
number, such as a bound constant of a fitted lambda >= 1, is the string
``"inf"``, ``"-inf"`` or ``"nan"``.

Exit codes: 0 success, 2 usage error (a path that cannot be read or written
included), 3 numeric failure, 4 partial sweep.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analysis, benchmark, data, training
from .rnn_core import (
    CellSpec, NonFiniteError, Params, Trajectory, batched_forward, start_indices,
)
from .training import TrainConfig, TrainingError

OUT_ROOT_ENV = "TBPTT_RUNS_DIR"


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Manifest and directory plumbing
# ---------------------------------------------------------------------------


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def out_root(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_ROOT_ENV, "runs"))


def _input_paths(args) -> list[str]:
    """The data files a command reads: ``--data``, and ``--test`` when given."""
    return [str(p) for p in (vars(args).get("data"), vars(args).get("test")) if p]


def run_config(args, **resolved) -> dict:
    """A run's identity: every parsed flag except ``--out``, with the data
    files under ``inputs`` by the SHA-256 of their bytes in place of their
    paths, and the values ``resolved`` from flags (a parsed grid or variant
    list) in place of theirs. ``args`` is read as the command left it, so a
    ``--batch`` or ``--N`` that ``_resolve_windows`` set enters resolved."""
    flags = {k: v for k, v in vars(args).items()
             if k not in ("out", "command", "func", "data", "test")}
    paths = _input_paths(args)
    if paths:
        flags = {"inputs": [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths],
                 **flags}
    return {**flags, **resolved}


def _plain(value):
    """``value`` as plain JSON data: ``Params`` as its spec, block layout and
    ``theta``; any other dataclass field by field; dicts, lists, tuples and
    arrays element by element; a non-finite float as ``"inf"``, ``"-inf"``
    or ``"nan"``."""
    if isinstance(value, Params):
        return {"spec": _plain(value.spec),
                "layout": [[name, start, stop]
                           for name, (start, stop, _) in value.layout.items()],
                "theta": _plain(value.theta)}
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def to_json(record, indent: int | None = None) -> str:
    """``record`` as strict JSON text; see ``_plain``."""
    return json.dumps(_plain(record), indent=indent, allow_nan=False)


def _write_json(path: Path, record, indent: int | None = 2) -> None:
    path.write_text(to_json(record, indent) + "\n")


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    """A header line of ``columns``, then one line per row; a row's keys
    that are not columns are left out."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def make_run_dir(args, config: dict) -> Path:
    """Make ``<out-root>/<args.command>/<config-hash>/`` for the run
    identity ``config`` and write its manifest.json with ``_write_json``.
    The manifest's top-level ``inputs`` lists the data files by the paths
    given, outside the hash."""
    digest = config_hash(config)
    run_dir = out_root(args) / args.command / digest
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_json(run_dir / "manifest.json", {
        "command": args.command,
        "config": config,
        "config_hash": digest,
        "seed": config.get("seed"),
        "inputs": _input_paths(args),
        "out_dir": str(run_dir),
        "version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
    })
    return run_dir


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _check_synth_flags(args) -> None:
    if args.T < 1:
        raise UsageError(f"--T {args.T} must be >= 1")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise UsageError(f"--noise {args.noise} must be finite and >= 0")
    for flag, value in (("--T-val", args.T_val), ("--T-test", args.T_test),
                        ("--warmup", args.warmup)):
        if value < 0:
            raise UsageError(f"{flag} {value} must be >= 0")


def cmd_synth(args) -> int:
    _check_synth_flags(args)
    run_dir = make_run_dir(args, run_config(args))

    lengths = [args.T]
    names = ["train"]
    if args.T_val > 0:
        lengths.append(args.T_val)
        names.append("val")
    if args.T_test > 0:
        lengths.append(args.T_test)
        names.append("test")

    # the CSVs carry the raw (pre-normalization) series, and generator.json
    # the raw-unit system that recorded them; loaders normalize
    u, y, generator = data._simulate_raw(args.seed, sum(lengths), args.warmup, args.noise)
    pos = 0
    for name, length in zip(names, lengths):
        data.write_csv(run_dir / f"{name}.csv",
                       {"u": u[pos : pos + length], "y": y[pos : pos + length]})
        pos += length
    _write_json(run_dir / "generator.json", generator, indent=None)
    print(run_dir)
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _cell_spec(args, d_x: int, d_y: int) -> CellSpec:
    """The cell the flags name. ``--activation`` is the Elman cell's: a
    linear cell (identity) or an LSTM (tanh) takes the default, tanh, or the
    activation it has, so no manifest names one its model does not have."""
    if args.cell == "elman":
        return CellSpec("elman", d_x, args.d_h, d_y, activation=args.activation)
    own = "identity" if args.cell == "linear" else "tanh"
    if args.activation not in ("tanh", own):
        raise ValueError(f"--activation {args.activation}: {args.cell} cells have the "
                         f"{own} activation")
    if args.cell == "linear":
        return CellSpec("linear", d_x, args.d_h, d_y, activation="identity",
                        use_biases=False)
    return CellSpec("lstm", d_x, args.d_h, d_y)


# --mode bptt is full BPTT: zero-init training on the one window N = T
_MODES = {"zero": "zero_init", "stateful": "stateful", "bptt": "zero_init"}


def _spectral_bound(args) -> float | None:
    return None if args.rho <= 0 else args.rho


def _train_config(args, spec: CellSpec, N: int, m: int) -> TrainConfig:
    return TrainConfig(
        spec=spec,
        N=N,
        m=m,
        batch_size=args.batch,
        optimizer=args.opt,
        lr=args.lr,
        epochs=args.epochs,
        stride=args.stride,
        seed=args.seed,
        spectral_bound=_spectral_bound(args),
        mode=_MODES[args.mode],
    )


def _load_dataset(args, path, transforms=None) -> data.TimeSeriesDataset:
    """Read the requested columns of a CSV; unreadable content is a usage error."""
    try:
        return data.load_csv(path, args.input_cols.split(","), args.target_cols.split(","),
                             transforms=transforms)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve_windows(args, n_values: list[int], T: int) -> list[int]:
    """The window lengths a training command runs for the given
    ``n_values``; also sets ``--batch`` to 16 windows unless given.

    In bptt mode every N trains the one window N = T, so the command takes
    one N, whatever its value, and ``--batch`` defaults to that window's
    one segment.
    """
    full = args.mode == "bptt"
    if args.batch is None:
        args.batch = 1 if full else 16
    if not full:
        return n_values
    if len(n_values) > 1:
        raise UsageError(f"--mode bptt trains on the one window N = T whatever N is: "
                         f"give one window length, not {n_values}")
    return [T]


def _check_flags(args, dataset: data.TimeSeriesDataset, n_values: list[int],
                 m_values: list[int]) -> None:
    """Reject the flags that ``train``, ``sweep`` and ``benchmark`` share,
    before any run directory is made: the cell spec, ``--lr``, ``--rho``, the
    window lengths ``n_values`` and burn-ins ``m_values`` against the series
    length T, the segmentation plan of each N with ``--stride`` and, in the
    commands that train, ``--epochs`` and ``--batch`` against each plan's
    segment count S. The checks that only one command needs stay with it."""
    try:
        _cell_spec(args, dataset.d_x, dataset.d_y)
        plans = [data.make_plan(dataset.T, N, args.stride) for N in n_values]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not (math.isfinite(args.lr) and args.lr > 0):
        raise UsageError(f"--lr {args.lr} must be finite and > 0")
    if not (math.isfinite(args.rho) and args.rho <= 1.0):
        raise UsageError(f"--rho {args.rho} must be finite and <= 1")
    if any(not 0 <= m < dataset.T for m in m_values):
        raise UsageError(f"burn-ins {m_values} must lie in [0, T-1] = [0, {dataset.T - 1}]")
    if "epochs" not in vars(args):  # benchmark has neither --epochs nor --batch
        return
    if args.epochs < 0:
        raise UsageError(f"--epochs {args.epochs} must be >= 0")
    if args.batch < 1:
        raise UsageError(f"--batch {args.batch} must be >= 1")
    for plan in plans:
        if args.batch > plan.S:
            raise UsageError(f"--batch {args.batch} exceeds the S={plan.S} segments of "
                             f"N={plan.N}")


def cmd_train(args) -> int:
    dataset = _load_dataset(args, args.data)
    (args.N,) = _resolve_windows(args, [args.N], dataset.T)
    _check_flags(args, dataset, [args.N], [args.m])
    if args.m > args.N - 1:
        raise UsageError(f"burn-in m={args.m} exceeds N-1={args.N - 1}")
    config = _train_config(args, _cell_spec(args, dataset.d_x, dataset.d_y), args.N, args.m)
    run_dir = make_run_dir(args, run_config(args))
    t0 = time.perf_counter()
    log = training.train(dataset, config)
    train_s = time.perf_counter() - t0
    _write_json(run_dir / "params.json", log.params, indent=None)
    (run_dir / "log.jsonl").write_text("".join(to_json(r) + "\n" for r in log.records))
    _write_json(run_dir / "timings.json", {"phases": {"train": {"wall_time_s": train_s}}})
    _write_json(run_dir / "summary.json", {
        "final_objective": log.records[-1].objective if log.records else None,
        "epochs_run": len(log.records),
    })
    print(run_dir)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    """Comma-separated integers, at least one, repeats dropped, first-seen
    order kept."""
    try:
        values = list(dict.fromkeys(int(tok) for tok in text.split(",") if tok != ""))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise UsageError(f"expected at least one comma-separated integer, got {text!r}")
    return values


def _zero_state_passes(params: Params, dataset) -> list[Trajectory]:
    """The zero-state forward pass over the series of each model stacked in
    ``params`` (one, unstacked, or R), all in one pass."""
    states, outputs, _ = batched_forward(params, None, dataset.inputs[None])
    return [Trajectory(states[r][0], outputs[r][0])
            for r in start_indices(params.theta.shape[:-1])]


def _train_group(dataset, args, N: int, ms: tuple[int, ...]) -> list[tuple]:
    """The ``(train_mse, final parameters)`` of cells (N, m), m in ``ms``,
    trained as one stacked run.

    Training evaluates nothing per epoch; each model's ``train_mse`` is the
    full-batch objective of its final parameters, one forward pass over the
    run's windows. A failing cell raises for the whole group. With one
    burn-in the run is unstacked, in the order a lone cell has always taken,
    so its error text is a lone cell's.
    """
    config = _train_config(args, _cell_spec(args, dataset.d_x, dataset.d_y), N, ms[0])
    *_, (params, xs, ys) = training.train_burn_ins(dataset, config, ms)
    models = [Params(params.theta[r], params.spec)
              for r in start_indices(params.theta.shape[:-1])]
    return [(training.full_batch_objective(model, xs, ys, m) if config.epochs else "", model)
            for m, model in zip(ms, models)]


def _alone_on_failure(run, items: tuple) -> list:
    """``run(items)``, one result per item; if that raises, ``run`` of each
    item alone, where an item that fails alone gets its error text in place
    of its result. So a failing item takes no other with it."""
    try:
        return run(items)
    except Exception as exc:  # cell failures must not kill the sweep
        if len(items) == 1:
            return [str(exc)]
    return [_alone_on_failure(run, (item,))[0] for item in items]


def _evaluate(cells: tuple[tuple, ...], dataset, test_set, args) -> list[dict]:
    """The rows of trained cells ``(N, m, train_mse, params)``, evaluated
    together.

    The models are stacked on one start axis. Each gets one zero-state pass
    over the training series, which serves both its performance and its
    stability radius, and one over the test series; the passes of all
    models run stacked, and so does the one stability probe, which gives
    each model the bits of its unstacked call. A failing model raises for
    all of them. One cell is evaluated unstacked, in the order a lone cell
    has always taken, so its row and error text are those of a lone cell.
    """
    windows, ms, mses, models = zip(*cells)
    params = models[0] if len(models) == 1 else Params(
        np.stack([model.theta for model in models]), models[0].spec)
    trajs = _zero_state_passes(params, dataset)
    perf = [analysis.performance(traj, dataset, m) for m, traj in zip(ms, trajs)]
    stabs = analysis.estimate_stability(params, dataset, trajs, num_pairs=16, seed=args.seed)
    rows = [{"N": N, "m": m, "train_mse": mse, "test_mse": "", "P": p, "lambda": stab.lam,
             "error": ""}
            for N, m, mse, p, stab in zip(windows, ms, mses, perf, stabs)]
    if test_set is not None:
        for row, traj in zip(rows, _zero_state_passes(params, test_set)):
            m_eval = args.test_burn if args.test_burn >= 0 else row["m"]
            row["test_mse"] = analysis.performance(traj, test_set, m_eval)
    return rows


SWEEP_COLUMNS = ["N", "m", "train_mse", "test_mse", "P", "lambda", "error"]


def _error_row(N: int, m: int, error: str) -> dict:
    return {**dict.fromkeys(SWEEP_COLUMNS, ""), "N": N, "m": m, "error": error}


def cmd_sweep(args) -> int:
    """Train and evaluate every (N, m) cell of the grid into ``report.csv``.

    The runnable cells of one N share everything but the burn-in, so they
    train as one stacked run (``training.train_burn_ins``); training
    evaluates no epoch, and each ``train_mse`` is one forward pass of the
    final parameters. The evaluation does not depend on N, so every model
    the grid trained is evaluated in one stack: one zero-state pass over
    each series and one stability probe. If any cell of a group fails to
    train, the group's cells rerun one by one; if the stacked evaluation
    fails, each cell is evaluated alone (``_alone_on_failure``). So each
    row holds exactly what a lone run of its cell gives. A burn-in beyond
    N - 1 is neither trained nor evaluated and gets an error row.
    ``timings.json`` holds the wall time of each N's training and of the
    evaluation under ``phases``. The exit code is 4 when a cell that could
    run failed, and 0 otherwise.
    """
    dataset = _load_dataset(args, args.data)
    test_set = None
    if args.test:
        test_set = _load_dataset(
            args, args.test,
            transforms=(dataset.input_transforms, dataset.target_transforms),
        )
    n_values = _resolve_windows(args, _int_list(args.N_list), dataset.T)
    m_values = _int_list(args.m_list)
    _check_flags(args, dataset, n_values, m_values)
    if args.test_burn < -1:
        raise UsageError(f"--test-burn {args.test_burn} must be >= -1")
    if test_set is not None and args.test_burn >= test_set.T:
        raise UsageError(f"--test-burn {args.test_burn} must be < T_test = {test_set.T}")
    if test_set is not None and args.test_burn == -1 and max(m_values) >= test_set.T:
        raise UsageError(f"--m-list {m_values} must lie below T_test = {test_set.T} "
                         "when --test-burn -1 evaluates each cell with its own m")
    run_dir = make_run_dir(args, run_config(args, N_list=n_values, m_list=m_values))

    rows: dict[tuple[int, int], dict] = {}
    trained: list[tuple] = []  # (N, m, train_mse, params) of each cell that trained
    train_phases = []
    for N in n_values:
        ms = tuple(m for m in m_values if m <= N - 1)
        rows.update({(N, m): _error_row(N, m, f"m={m} exceeds N-1")
                     for m in m_values if m not in ms})
        if ms:
            t0 = time.perf_counter()
            cells = _alone_on_failure(lambda group: _train_group(dataset, args, N, group), ms)
            train_phases.append({"N": N, "wall_time_s": time.perf_counter() - t0})
            for m, cell in zip(ms, cells):
                if isinstance(cell, str):
                    rows[N, m] = _error_row(N, m, cell)
                else:
                    trained.append((N, m, *cell))
    t0 = time.perf_counter()
    if trained:
        evaluated = _alone_on_failure(
            lambda cells: _evaluate(cells, dataset, test_set, args), tuple(trained))
        for (N, m, *_), row in zip(trained, evaluated):
            rows[N, m] = _error_row(N, m, row) if isinstance(row, str) else row
    evaluate_s = time.perf_counter() - t0

    _write_csv(run_dir / "report.csv", SWEEP_COLUMNS, [rows[cell] for cell in sorted(rows)])
    _write_json(run_dir / "timings.json", {
        "phases": {"train": train_phases, "evaluate": {"wall_time_s": evaluate_s}},
    })
    print(run_dir)
    failed = any(row["error"] for (N, m), row in rows.items() if m <= N - 1)
    return 4 if failed else 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


BENCHMARK_COLUMNS = ["N", "m", "S", "o_min", "V_star", "V_bench", "training_regret",
                     "P_star", "P_bench", "performance_regret", "thm1_rhs", "thm2_rhs",
                     "thm1_violation", "thm2_violation", "lambda", "C_bar", "E2"]


def cmd_benchmark(args) -> int:
    dataset = _load_dataset(args, args.data)
    variants = list(dict.fromkeys(v.strip() for v in args.variants.split(",") if v.strip()))
    if not variants:
        raise UsageError(f"--variants {args.variants!r} names no variant")
    unknown = [v for v in variants if v not in benchmark.VARIANTS]
    if unknown:
        raise UsageError(f"unknown variants {unknown}")
    m_values = _int_list(args.m_list)
    _check_flags(args, dataset, [args.N], m_values)
    if max(m_values) > args.N - 1:
        raise UsageError(f"burn-in values {m_values} must lie in [0, N-1] = [0, {args.N - 1}]")
    if args.restarts < 1 or args.iters < 1:
        raise UsageError(f"--restarts ({args.restarts}) and --iters ({args.iters}) must be >= 1")
    spec = _cell_spec(args, dataset.d_x, dataset.d_y)
    plan = data.make_plan(dataset.T, args.N, args.stride)
    run_dir = make_run_dir(args, run_config(args, m_list=m_values, variants=variants))

    report_rows = []
    solve_phases, analysis_phases = [], []
    for m in m_values:
        records: dict[str, benchmark.Evaluation] = {}
        for variant in variants:
            extra = []
            if variant != "tbptt" and "tbptt" in records:
                extra.append((records["tbptt"].sol.params, None))
            if variant == "unconstrained" and "coupled" in records:
                extra.append((records["coupled"].sol.params, records["coupled"].states[:, 0]))
            opt = benchmark.OptConfig(restarts=args.restarts, max_iters=args.iters,
                                      lr=args.lr, seed=args.seed,
                                      spectral_bound=_spectral_bound(args), extra_starts=extra)
            t0 = time.perf_counter()
            records[variant] = benchmark.solve_variant(variant, dataset, plan, m, spec, opt)
            solve_phases.append({"m": m, "variant": variant,
                                 "wall_time_s": time.perf_counter() - t0})
            _write_json(run_dir / f"solution_{variant}_m{m}.json", records[variant].sol,
                        indent=None)

        if "tbptt" in records and "coupled" in records:
            t0 = time.perf_counter()
            star, bench = records["tbptt"], records["coupled"]
            pair = Params(np.stack([star.sol.params.theta, bench.sol.params.theta]), spec)
            stab = analysis.merge_stability(*analysis.estimate_stability(
                pair, dataset, [star.full, bench.full], seed=args.seed))
            epsilon_max = math.inf
            if "unconstrained" in records:
                epsilon_max = analysis.epsilon_check(star, records["unconstrained"], dataset,
                                                     plan, m)
            observed = analysis.collect_observed(list(records.values()), dataset)
            constants = analysis.bound_constants(stab, epsilon_max, observed)
            report = analysis.regret_report(star, bench, dataset, plan, m, constants)
            report_rows.append({**vars(report), "lambda": constants.lam,
                                "C_bar": constants.C_bar, "E2": constants.E2})
            _write_json(run_dir / f"report_m{m}.json",
                        {**_plain(report), "turnpike": analysis.turnpike_errors(star, bench, m)})
            analysis_phases.append({"m": m, "wall_time_s": time.perf_counter() - t0})

    if report_rows:
        _write_csv(run_dir / "report.csv", BENCHMARK_COLUMNS, report_rows)
    _write_json(run_dir / "timings.json",
                {"phases": {"solve": solve_phases, "analysis": analysis_phases}})
    print(run_dir)
    # non-convergence is flagged inside the solution files, not via exit code;
    # hard numeric failures surface as exceptions (exit 3)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_fit_flags(p: argparse.ArgumentParser, lr: float) -> None:
    """The flags of ``train``, ``sweep`` and ``benchmark``; only ``--lr``'s default differs."""
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--input-cols", default="u", help="comma-separated input columns")
    p.add_argument("--target-cols", default="y", help="comma-separated target columns")
    p.add_argument("--cell", choices=["linear", "elman", "lstm"], default="linear",
                   help="recurrent cell kind")
    p.add_argument("--d-h", type=int, default=1, dest="d_h", help="hidden state width")
    p.add_argument("--activation", choices=["tanh", "relu", "identity"], default="tanh",
                   help="elman activation")
    p.add_argument("--stride", type=int, default=1, help="segment start spacing")
    p.add_argument("--lr", type=float, default=lr, help="step size")
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.add_argument("--rho", type=float, default=0.999,
                   help="spectral bound on the recurrent block; <=0 disables")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    _add_fit_flags(p, lr=0.01)
    p.add_argument("--batch", type=int, default=None,
                   help="mini-batch size (default 16; 1, the one segment, with --mode bptt)")
    p.add_argument("--opt", choices=training.OPTIMIZERS, default="adam", help="optimizer")
    p.add_argument("--epochs", type=int, default=200, help="epoch budget")
    p.add_argument("--mode", choices=list(_MODES), default="zero",
                   help="zero-initialized or state-passing windows, or full BPTT: "
                        "zero-initialized training on the one window N = T")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbptt",
        description="Train recurrent models on overlapping segments with a "
                    "tunable burn-in phase, and compare against benchmark "
                    "initializations.",
    )
    parser.add_argument("--out", default=None, help=f"output root (default ${OUT_ROOT_ENV} or ./runs)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic train/val/test CSVs")
    p.add_argument("--T", type=int, default=100, help="training length")
    p.add_argument("--T-val", type=int, default=0, dest="T_val", help="validation length")
    p.add_argument("--T-test", type=int, default=100, dest="T_test", help="test length")
    p.add_argument("--noise", type=float, default=0.05, help="output noise std")
    p.add_argument("--warmup", type=int, default=50, help="pre-recording steps")
    p.add_argument("--seed", type=int, default=1, help="generator seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="one training run")
    _add_train_flags(p)
    p.add_argument("--N", type=int, default=21, help="segment length")
    p.add_argument("--m", type=int, default=0, help="burn-in steps")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="train over a grid of (N, m) values")
    _add_train_flags(p)
    p.add_argument("--test", default=None, help="test CSV (normalized with training transforms)")
    p.add_argument("--N-list", default="21", dest="N_list", help="comma-separated window lengths")
    p.add_argument("--m-list", default="0", dest="m_list", help="comma-separated burn-in values")
    p.add_argument("--test-burn", type=int, default=-1, dest="test_burn",
                   help="fixed burn-in for test evaluation; -1 reuses each cell's m")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("benchmark", help="solve reference problems and report regrets")
    _add_fit_flags(p, lr=0.05)
    p.add_argument("--N", type=int, default=21, help="segment length")
    p.add_argument("--m-list", default="0", dest="m_list", help="comma-separated burn-in values")
    p.add_argument("--variants", default="tbptt,coupled,unconstrained",
                   help="comma-separated problem variants to solve")
    p.add_argument("--restarts", type=int, default=4, help="optimizer restarts")
    p.add_argument("--iters", type=int, default=8000, help="iteration budget per start")
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteError, TrainingError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
