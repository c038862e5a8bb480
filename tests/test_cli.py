import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from tbptt import analysis, cli, training
from tbptt.cli import main
from tbptt.data import load_csv
from tbptt.rnn_core import CellSpec, Params, forward, init_params
from tbptt.training import AdamConfig, TrainConfig, train


def run(*argv):
    return main([str(a) for a in argv])


def only_run_dir(root: Path, command: str) -> Path:
    dirs = list((root / command).iterdir())
    assert len(dirs) == 1
    return dirs[0]


def synth(tmp_path, name="a", **kw):
    out = tmp_path / name
    args = ["--out", out, "synth", "--T", 60, "--T-test", 30, "--seed", 5,
            "--noise", 0.02]
    for flag, value in kw.items():
        args += [f"--{flag}", value]
    assert run(*args) == 0
    return only_run_dir(out, "synth")


def test_synth_writes_expected_files(tmp_path):
    run_dir = synth(tmp_path)
    assert (run_dir / "train.csv").exists()
    assert (run_dir / "test.csv").exists()
    assert not (run_dir / "val.csv").exists()
    assert (run_dir / "generator.json").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["T"] == 60
    ds = load_csv(run_dir / "train.csv", ["u"], ["y"])
    assert ds.T == 60


def test_synth_byte_identical_reruns(tmp_path):
    d1 = synth(tmp_path, "a")
    d2 = synth(tmp_path, "b")
    for name in ("train.csv", "test.csv", "generator.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_synth_noiseless_flag(tmp_path):
    out = tmp_path / "clean"
    assert run("--out", out, "synth", "--T", 40, "--T-test", 0, "--noise", 0.0,
               "--warmup", 0, "--seed", 2) == 0
    run_dir = only_run_dir(out, "synth")
    gen = json.loads((run_dir / "generator.json").read_text())
    assert gen["noise_std"] == 0.0


TRAIN_FLAGS = ["--cell", "linear", "--d-h", 1, "--N", 12, "--m", 3,
               "--batch", 8, "--opt", "adam", "--lr", 0.03, "--epochs", 15,
               "--seed", 4]


def test_train_run_and_rerun_bit_identical(tmp_path):
    data_file = synth(tmp_path) / "train.csv"
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run("--out", out1, "train", "--data", data_file, *TRAIN_FLAGS) == 0
    assert run("--out", out2, "train", "--data", data_file, *TRAIN_FLAGS) == 0
    d1 = only_run_dir(out1, "train")
    d2 = only_run_dir(out2, "train")
    assert d1.name == d2.name  # same config hash
    for name in ("params.json", "log.jsonl", "summary.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_train_is_thin_shell_over_library(tmp_path):
    data_file = synth(tmp_path) / "train.csv"
    out = tmp_path / "run"
    assert run("--out", out, "train", "--data", data_file, *TRAIN_FLAGS) == 0
    run_dir = only_run_dir(out, "train")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    cfg = manifest["config"]

    dataset = load_csv(data_file, ["u"], ["y"])
    config = TrainConfig(
        spec=CellSpec.from_json_dict(cfg["spec"]),
        N=cfg["N"],
        m=cfg["m"],
        batch_size=cfg["batch_size"],
        optimizer=AdamConfig(lr=cfg["optimizer"]["lr"]),
        epochs=cfg["epochs"],
        stride=cfg["stride"],
        seed=cfg["seed"],
        spectral_bound=cfg["spectral_bound"],
        mode=cfg["mode"],
    )
    log = train(dataset, config)
    stored = Params.from_json((run_dir / "params.json").read_text())
    npt.assert_array_equal(stored.theta, log.params.theta)


def test_train_epochs_zero_keeps_initialization(tmp_path):
    data_file = synth(tmp_path) / "train.csv"
    out = tmp_path / "run"
    assert run("--out", out, "train", "--data", data_file, "--cell", "elman",
               "--d-h", 2, "--N", 10, "--m", 0, "--epochs", 0, "--seed", 7) == 0
    run_dir = only_run_dir(out, "train")
    stored = Params.from_json((run_dir / "params.json").read_text())
    expected = init_params(CellSpec("elman", 1, 2, 1), 7)
    npt.assert_array_equal(stored.theta, expected.theta)


def test_train_usage_error_on_bad_burn_in(tmp_path):
    data_file = synth(tmp_path) / "train.csv"
    code = run("--out", tmp_path / "x", "train", "--data", data_file,
               "--N", 10, "--m", 10, "--epochs", 1)
    assert code == 2


def test_train_missing_file_is_usage_error(tmp_path):
    code = run("--out", tmp_path / "x", "train", "--data", tmp_path / "nope.csv",
               "--epochs", 1)
    assert code == 2


def test_train_bptt_mode_ignores_window(tmp_path):
    data_file = synth(tmp_path) / "train.csv"
    out = tmp_path / "run"
    assert run("--out", out, "train", "--data", data_file, "--mode", "bptt",
               "--N", 7, "--stride", 5, "--m", 2, "--batch", 1,
               "--epochs", 3, "--seed", 1) == 0
    run_dir = only_run_dir(out, "train")
    lines = (run_dir / "log.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_bptt_mode_without_batch_runs_its_one_segment(tmp_path, command):
    # the default --batch 16 exceeded bptt's one segment and exited 2
    data_file = synth(tmp_path) / "train.csv"
    grid = ["--N-list", 8, "--m-list", 2] if command == "sweep" else ["--N", 8, "--m", 2]
    out = tmp_path / "run"
    assert run("--out", out, command, "--data", data_file, "--mode", "bptt",
               "--epochs", 2, *grid) == 0
    run_dir = only_run_dir(out, command)
    config = json.loads((run_dir / "manifest.json").read_text())["config"]
    assert config["batch_size" if command == "train" else "batch"] == 1
    if command == "sweep":
        with open(run_dir / "report.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert row["error"] == ""
    assert run("--out", tmp_path / "two", command, "--data", data_file, "--mode", "bptt",
               "--epochs", 2, "--batch", 2, *grid) == 2


def test_train_default_batch_keeps_config_digest(tmp_path):
    # outside bptt mode the default is still 16 windows, so run directories do not move
    data_file = synth(tmp_path) / "train.csv"
    flags = ["--data", data_file, "--N", 10, "--epochs", 1]
    assert run("--out", tmp_path / "a", "train", *flags) == 0
    assert run("--out", tmp_path / "b", "train", *flags, "--batch", 16) == 0
    assert (only_run_dir(tmp_path / "a", "train").name
            == only_run_dir(tmp_path / "b", "train").name)


def test_sweep_single_cell_matches_train(tmp_path):
    base = synth(tmp_path)
    out = tmp_path / "sweep"
    assert run("--out", out, "sweep", "--data", base / "train.csv",
               "--test", base / "test.csv", "--N-list", "12", "--m-list", "3",
               *TRAIN_FLAGS[:0], "--cell", "linear", "--d-h", 1,
               "--batch", 8, "--opt", "adam", "--lr", 0.03, "--epochs", 15,
               "--seed", 4) == 0
    run_dir = only_run_dir(out, "sweep")
    with open(run_dir / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["error"] == ""
    assert float(row["test_mse"]) > 0

    out2 = tmp_path / "single"
    assert run("--out", out2, "train", "--data", base / "train.csv", *TRAIN_FLAGS) == 0
    train_dir = only_run_dir(out2, "train")
    summary = json.loads((train_dir / "summary.json").read_text())
    assert float(row["train_mse"]) == summary["final_objective"]


def test_sweep_bptt_burn_in_beyond_window_matches_train(tmp_path):
    # bptt trains on the whole series, so N does not bound the burn-in
    base = synth(tmp_path)
    flags = ["--mode", "bptt", "--epochs", 2, "--batch", 1, "--seed", 3]
    out = tmp_path / "sweep"
    assert run("--out", out, "sweep", "--data", base / "train.csv",
               "--N-list", 8, "--m-list", "0,12", *flags) == 0
    with open(only_run_dir(out, "sweep") / "report.csv") as fh:
        rows = {r["m"]: r for r in csv.DictReader(fh)}
    assert rows["12"]["error"] == ""

    out2 = tmp_path / "single"
    assert run("--out", out2, "train", "--data", base / "train.csv",
               "--N", 8, "--m", 12, *flags) == 0
    summary = json.loads((only_run_dir(out2, "train") / "summary.json").read_text())
    assert float(rows["12"]["train_mse"]) == summary["final_objective"]


def test_sweep_without_epochs_leaves_train_mse_empty(tmp_path):
    base = synth(tmp_path)
    out = tmp_path / "sweep"
    assert run("--out", out, "sweep", "--data", base / "train.csv",
               "--N-list", 10, "--m-list", 2, "--epochs", 0) == 0
    with open(only_run_dir(out, "sweep") / "report.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == ""
    assert row["train_mse"] == ""
    assert float(row["P"]) > 0


def test_sweep_flags_invalid_cells_and_continues(tmp_path):
    base = synth(tmp_path)
    out = tmp_path / "sweep"
    code = run("--out", out, "sweep", "--data", base / "train.csv",
               "--N-list", "8", "--m-list", "0,8", "--epochs", 3,
               "--batch", 4)
    assert code == 0  # invalid pairs are flagged, not fatal
    run_dir = only_run_dir(out, "sweep")
    with open(run_dir / "report.csv") as fh:
        rows = {(r["N"], r["m"]): r for r in csv.DictReader(fh)}
    assert rows[("8", "0")]["error"] == ""
    assert "exceeds" in rows[("8", "8")]["error"]


def test_sweep_report_byte_identical_on_rerun(tmp_path):
    # wall times go to timings.json, one entry per grid cell, invalid ones too
    data_file = synth(tmp_path) / "train.csv"
    flags = ["sweep", "--data", data_file, "--N-list", "8,10", "--m-list", "0,8",
             "--epochs", 1, "--batch", 4]
    dirs = []
    for name in ("s1", "s2"):
        assert run("--out", tmp_path / name, *flags) == 0
        dirs.append(only_run_dir(tmp_path / name, "sweep"))
    report = (dirs[0] / "report.csv").read_bytes()
    assert report == (dirs[1] / "report.csv").read_bytes()
    with open(dirs[0] / "report.csv") as fh:
        cells = [(int(r["N"]), int(r["m"])) for r in csv.DictReader(fh)]
    assert cells == [(8, 0), (8, 8), (10, 0), (10, 8)]
    timings = json.loads((dirs[0] / "timings.json").read_text())["cells"]
    assert [(t["N"], t["m"]) for t in timings] == cells
    assert all(t["wall_time_s"] >= 0 for t in timings)


def lone_cell(dataset, test_set, args, N, m):
    """One sweep cell trained and evaluated on its own: the per-cell sweep
    that the stacked groups must reproduce byte for byte."""
    cell_args = argparse.Namespace(**vars(args))
    cell_args.N, cell_args.m = N, m
    config, log = cli._run_training(dataset, cell_args)
    params = log.params
    traj = forward(params, None, dataset.inputs)
    p_train = analysis.performance(traj, dataset, m)
    stab = analysis.estimate_stability(params, dataset, traj, num_pairs=16, seed=args.seed)
    row = {
        "N": N,
        "m": m,
        "train_mse": log.records[-1].objective if log.records else "",
        "test_mse": "",
        "P": p_train,
        "lambda": stab.lam,
        "error": "",
    }
    if test_set is not None:
        m_eval = args.test_burn if args.test_burn >= 0 else m
        row["test_mse"] = analysis.performance(forward(params, None, test_set.inputs),
                                               test_set, m_eval)
    return row


def lone_cell_sweep(argv, report):
    """The sweep run cell by cell into ``report``; returns its exit code."""
    args = cli.build_parser().parse_args(argv)
    cli._resolve_batch(args)
    dataset = cli._load_dataset(args, args.data)
    test_set = cli._load_dataset(args, args.test, transforms=(dataset.input_transforms,
                                                             dataset.target_transforms))
    rows = {}
    for N in cli._int_list(args.N_list):
        for m in cli._int_list(args.m_list):
            if m > N - 1 and args.mode != "bptt":
                rows[N, m] = cli._error_row(N, m, f"m={m} exceeds N-1")
            else:
                try:
                    rows[N, m] = lone_cell(dataset, test_set, args, N, m)
                except Exception as exc:
                    rows[N, m] = cli._error_row(N, m, str(exc))
    with open(report, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cli.SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for cell in sorted(rows):
            writer.writerow({k: rows[cell].get(k, "") for k in cli.SWEEP_COLUMNS})
    failed = [r["error"] for r in rows.values() if r["error"]]
    return 4 if any(not e.startswith("m=") for e in failed) else 0


@pytest.mark.parametrize("model", [("elman", "zero"), ("lstm", "stateful")],
                         ids=["elman-zero", "lstm-stateful"])
def test_sweep_report_equals_lone_cell_sweep(tmp_path, monkeypatch, model):
    base = synth(tmp_path)
    real_grad = training.weighted_loss_grad

    def failing_grad(params, h0, inputs, targets, weights):
        # the start with burn-in 3 at N = 10 gets a NaN gradient
        loss, d_theta, d_h0 = real_grad(params, h0, inputs, targets, weights)
        burn_in = np.sum(weights[..., 0, :] == 0.0, axis=-1)
        bad = (burn_in == 3) & (inputs.shape[1] == 10)
        return loss, np.where(bad[..., None], np.nan, d_theta), d_h0

    groups = []
    real_group = cli._sweep_group

    def counting_group(dataset, test_set, args, N, ms):
        groups.append((N, ms))
        return real_group(dataset, test_set, args, N, ms)

    monkeypatch.setattr(training, "weighted_loss_grad", failing_grad)
    monkeypatch.setattr(cli, "_sweep_group", counting_group)
    cell, mode = model
    flags = ["sweep", "--data", base / "train.csv", "--test", base / "test.csv",
             "--N-list", "8,10", "--m-list", "0,3,9,3", "--cell", cell, "--d-h", 3,
             "--mode", mode, "--epochs", 2, "--batch", 4, "--seed", 4]
    code = run("--out", tmp_path / "sweep", *flags)
    oracle = tmp_path / "oracle.csv"
    assert code == lone_cell_sweep([str(f) for f in flags], oracle) == 4
    report = (only_run_dir(tmp_path / "sweep", "sweep") / "report.csv").read_bytes()
    assert report == oracle.read_bytes()
    # m = 9 exceeds N - 1 = 7; the group of N = 10 fails and reruns cell by cell
    assert groups == [(8, (0, 3)), (10, (0, 3, 9)), (10, (0,)), (10, (3,)), (10, (9,))]
    with open(oracle) as fh:
        errors = {(r["N"], r["m"]): r["error"] for r in csv.DictReader(fh)}
    assert errors[("8", "9")] == "m=9 exceeds N-1"
    assert errors[("10", "3")].startswith("non-finite gradient at epoch 0")
    assert [cell for cell, e in errors.items() if e] == [("8", "9"), ("10", "3")]


def test_benchmark_evaluates_each_solution_once(tmp_path, monkeypatch):
    import tbptt.benchmark as benchmark

    base = synth(tmp_path)
    evaluated = []
    real_evaluate = benchmark.evaluate

    def counting_evaluate(sol, dataset, plan):
        evaluated.append(sol.variant)
        return real_evaluate(sol, dataset, plan)

    monkeypatch.setattr(benchmark, "evaluate", counting_evaluate)
    assert run("--out", tmp_path / "bench", "benchmark", "--data", base / "train.csv",
               "--N", 10, "--m-list", "0,2", "--restarts", 1, "--iters", 50) == 0
    assert evaluated == ["tbptt", "coupled", "unconstrained"] * 2


def test_benchmark_selected_variant_only(tmp_path):
    base = synth(tmp_path)
    out = tmp_path / "bench"
    assert run("--out", out, "benchmark", "--data", base / "train.csv",
               "--N", 10, "--m-list", "2", "--variants", "coupled",
               "--restarts", 1, "--iters", 500) == 0
    run_dir = only_run_dir(out, "benchmark")
    files = {p.name for p in run_dir.iterdir()}
    assert "solution_coupled_m2.json" in files
    assert not any(f.startswith("solution_tbptt") for f in files)
    assert "report.csv" not in files  # needs both star and bench


def test_benchmark_full_report(tmp_path):
    base = synth(tmp_path)
    out = tmp_path / "bench"
    assert run("--out", out, "benchmark", "--data", base / "train.csv",
               "--N", 10, "--m-list", "1,3", "--restarts", 1,
               "--iters", 1500) == 0
    run_dir = only_run_dir(out, "bench" "mark")
    with open(run_dir / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["m"] for r in rows] == ["1", "3"]
    report = json.loads((run_dir / "report_m1.json").read_text())
    assert {"V_star", "V_bench", "training_regret", "thm1_rhs"} <= set(report)
    turnpike = report["turnpike"]
    assert turnpike["reference"] == "coupled"
    assert (turnpike["m"], turnpike["N"]) == (1, 10)
    assert len(turnpike["e_j"]) == 10 - 1
    assert turnpike["sum_e"] == math.fsum(turnpike["e_j"])


def test_benchmark_rejects_bad_variant_and_burn_in(tmp_path):
    base = synth(tmp_path)
    assert run("--out", tmp_path / "z", "benchmark", "--data", base / "train.csv",
               "--variants", "sgd") == 2
    assert run("--out", tmp_path / "z", "benchmark", "--data", base / "train.csv",
               "--N", 10, "--m-list", "10") == 2


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("TBPTT_RUNS_DIR", str(tmp_path / "envruns"))
    assert run("synth", "--T", 20, "--T-test", 0, "--seed", 1) == 0
    assert (tmp_path / "envruns" / "synth").exists()


# --- bad input: exit 2, an error line, and no run directory -------------------


def assert_usage_error(capsys, out, command, *argv):
    code = run("--out", out, command, *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())
    assert not (out / command).exists()


@pytest.mark.parametrize("command", ["train", "sweep", "benchmark"])
def test_unknown_column_is_usage_error(tmp_path, capsys, command):
    data_file = synth(tmp_path) / "train.csv"
    assert_usage_error(capsys, tmp_path / "x", command, "--data", data_file,
                       "--input-cols", "nope")


@pytest.mark.parametrize("text", [
    "u,y\n0.5,1.0\nabc,2.0\n",
    "u,y\n" + "0.5,1.0\n" * 40 + "nan,2.0\n",  # long enough to train on
    "",
])
def test_unreadable_csv_is_usage_error(tmp_path, capsys, text):
    data_file = tmp_path / "bad.csv"
    data_file.write_text(text)
    assert_usage_error(capsys, tmp_path / "x", "train", "--data", data_file,
                       "--epochs", 1)


def test_benchmark_window_longer_than_series_is_usage_error(tmp_path, capsys):
    data_file = synth(tmp_path) / "train.csv"  # T = 60
    assert_usage_error(capsys, tmp_path / "x", "benchmark", "--data", data_file,
                       "--N", 100)


@pytest.mark.parametrize("flag, value", [("--restarts", 0), ("--iters", 0), ("--rho", 1.5),
                                         ("--m-list", -1), ("--m-list", "x")])
def test_benchmark_bad_budget_or_bound_is_usage_error(tmp_path, capsys, flag, value):
    data_file = synth(tmp_path) / "train.csv"
    assert_usage_error(capsys, tmp_path / "x", "benchmark", "--data", data_file,
                       "--N", 10, flag, value)


@pytest.mark.parametrize("flag, value", [("--d-h", 0), ("--batch", 0), ("--epochs", -1),
                                         ("--rho", 1.5), ("--stride", 0)])
def test_sweep_bad_shared_flag_is_usage_error(tmp_path, capsys, flag, value):
    # flags every cell shares fail the sweep up front, not cell by cell (exit 4)
    data_file = synth(tmp_path) / "train.csv"
    assert_usage_error(capsys, tmp_path / "x", "sweep", "--data", data_file,
                       "--N-list", 10, "--epochs", 1, flag, value)


@pytest.mark.parametrize("flag, value", [("--N-list", 0), ("--N-list", "10,61"),
                                         ("--m-list", -1), ("--m-list", 60),
                                         ("--test-burn", -2), ("--test-burn", 30)])
def test_sweep_grid_value_out_of_range_is_usage_error(tmp_path, capsys, flag, value):
    # T = 60, T_test = 30: a value no cell can run fails the sweep up front
    base = synth(tmp_path)
    argv = {"--N-list": 10, "--m-list": 0, "--test-burn": -1, flag: value}
    assert_usage_error(capsys, tmp_path / "x", "sweep", "--data", base / "train.csv",
                       "--test", base / "test.csv", "--epochs", 1,
                       *[a for item in argv.items() for a in item])


@pytest.mark.parametrize("argv", [
    ("--N-list", "3,10", "--stride", 5),  # N = 3 is shorter than the stride
    ("--N-list", 10, "--stride", 5),  # S = 11 segments, below the default --batch 16
    ("--N-list", 10, "--mode", "bptt", "--batch", 2),  # bptt trains on one segment
    ("--N-list", 50, "--m-list", 40, "--batch", 4),  # m = 40 >= T_test = 30 at --test-burn -1
])
def test_sweep_grid_no_cell_can_run_is_usage_error(tmp_path, capsys, argv):
    # T = 60, T_test = 30: each of these failed every affected cell and exited 4
    base = synth(tmp_path)
    assert_usage_error(capsys, tmp_path / "x", "sweep", "--data", base / "train.csv",
                       "--test", base / "test.csv", "--epochs", 1, *argv)


@pytest.mark.parametrize("flag, value", [("--T", 0), ("--T-val", -1), ("--T-test", -5),
                                         ("--noise", -1), ("--warmup", -3)])
def test_synth_bad_length_noise_or_warmup_is_usage_error(tmp_path, capsys, flag, value):
    assert_usage_error(capsys, tmp_path / "x", "synth", flag, value)


# --- repeated grid values ---------------------------------------------------


def test_sweep_runs_a_repeated_grid_value_once(tmp_path, monkeypatch):
    import tbptt.cli as cli

    base = synth(tmp_path)
    groups = []
    real_group = cli._sweep_group

    def counting_group(dataset, test_set, args, N, ms):
        groups.append((N, ms))
        return real_group(dataset, test_set, args, N, ms)

    monkeypatch.setattr(cli, "_sweep_group", counting_group)
    out = tmp_path / "sweep"
    assert run("--out", out, "sweep", "--data", base / "train.csv",
               "--N-list", "10,12,10", "--m-list", "0,0", "--epochs", 1,
               "--batch", 4) == 0
    assert groups == [(10, (0,)), (12, (0,))]
    with open(only_run_dir(out, "sweep") / "report.csv") as fh:
        assert [(r["N"], r["m"]) for r in csv.DictReader(fh)] == [("10", "0"), ("12", "0")]


def test_benchmark_solves_a_repeated_burn_in_or_variant_once(tmp_path, monkeypatch):
    import tbptt.benchmark as benchmark

    base = synth(tmp_path)
    solved = []
    real_solve = benchmark.solve_variant

    def counting_solve(variant, dataset, plan, m, spec, opt=None):
        solved.append((variant, m))
        return real_solve(variant, dataset, plan, m, spec, opt)

    monkeypatch.setattr(benchmark, "solve_variant", counting_solve)
    out = tmp_path / "bench"
    assert run("--out", out, "benchmark", "--data", base / "train.csv",
               "--N", 10, "--m-list", "5,5", "--variants", "tbptt,coupled,tbptt",
               "--restarts", 1, "--iters", 50) == 0
    assert solved == [("tbptt", 5), ("coupled", 5)]
    with open(only_run_dir(out, "benchmark") / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["m"] for r in rows] == ["5"]
