import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from helpers import read_params, read_solution
from tbptt import analysis, cli, data, rnn_core, training
from tbptt.cli import main
from tbptt.data import load_csv
from tbptt.rnn_core import CellSpec, forward, init_params
from tbptt.training import TrainConfig, train


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


@pytest.mark.parametrize("noise, warmup", [(0.02, 50), (0.0, 0), (0.0, 7)])
def test_synth_generator_describes_the_csvs(tmp_path, noise, warmup):
    run_dir = synth(tmp_path, noise=noise, warmup=warmup)  # T = 60, T_test = 30
    gen = json.loads((run_dir / "generator.json").read_text())
    assert set(gen) == {"a", "b", "c", "noise_std", "seed", "warmup", "state_at_start"}
    assert (gen["seed"], gen["warmup"], gen["noise_std"]) == (5, warmup, noise)
    csvs = [np.loadtxt(run_dir / f"{name}.csv", delimiter=",", skiprows=1)
            for name in ("train", "test")]
    # re-simulated from the file, the series is the one the CSVs hold, raw units
    u, y, again = data._simulate_raw(gen["seed"], sum(len(c) for c in csvs), gen["warmup"],
                                     gen["noise_std"])
    npt.assert_array_equal(np.concatenate(csvs), np.stack([u, y], axis=1))
    assert json.loads(cli.to_json(again)) == gen
    # the file's system, driven by the recorded inputs from its state at the
    # first sample, gives the recorded outputs up to the noise
    a, b, c = (np.array(gen[k]) for k in "abc")
    h = np.array(gen["state_at_start"])
    clean = []
    for u_t in csvs[0][:, 0]:
        h = a @ h + b * u_t
        clean.append(c @ h)
    residual = csvs[0][:, 1] - np.array(clean)
    if noise == 0.0:
        npt.assert_allclose(residual, 0.0, atol=1e-12)
    else:
        assert 0.5 * noise < np.std(residual) < 2.0 * noise


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
    cfg = manifest["config"]  # the run's flags
    assert (cfg["cell"], cfg["mode"], cfg["input_cols"], cfg["target_cols"]) == (
        "linear", "zero", "u", "y")

    dataset = load_csv(data_file, ["u"], ["y"])
    config = TrainConfig(
        spec=CellSpec("linear", 1, cfg["d_h"], 1, activation="identity", use_biases=False),
        N=cfg["N"],
        m=cfg["m"],
        batch_size=cfg["batch"],
        optimizer=cfg["opt"],
        lr=cfg["lr"],
        epochs=cfg["epochs"],
        stride=cfg["stride"],
        seed=cfg["seed"],
        spectral_bound=cfg["rho"],
        mode="zero_init",
    )
    log = train(dataset, config)
    stored = read_params((run_dir / "params.json").read_text())
    npt.assert_array_equal(stored.theta, log.params.theta)


def test_train_epochs_zero_keeps_initialization(tmp_path):
    data_file = synth(tmp_path) / "train.csv"
    out = tmp_path / "run"
    assert run("--out", out, "train", "--data", data_file, "--cell", "elman",
               "--d-h", 2, "--N", 10, "--m", 0, "--epochs", 0, "--seed", 7) == 0
    run_dir = only_run_dir(out, "train")
    stored = read_params((run_dir / "params.json").read_text())
    expected = init_params(CellSpec("elman", 1, 2, 1), 7)
    npt.assert_array_equal(stored.theta, expected.theta)


def test_train_usage_error_on_bad_burn_in(tmp_path):
    data_file = synth(tmp_path) / "train.csv"
    code = run("--out", tmp_path / "x", "train", "--data", data_file,
               "--N", 10, "--m", 10, "--epochs", 1)
    assert code == 2


def test_train_checks_its_output_root_before_training(tmp_path, capsys, monkeypatch):
    # an output root that is a file was reported only after the whole run
    data_file = synth(tmp_path) / "train.csv"
    trained = []
    monkeypatch.setattr(training, "train", lambda dataset, config: trained.append(config))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run("--out", blocker, "train", "--data", data_file, *TRAIN_FLAGS) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert trained == []


def test_train_missing_file_is_usage_error(tmp_path):
    code = run("--out", tmp_path / "x", "train", "--data", tmp_path / "nope.csv",
               "--epochs", 1)
    assert code == 2


def test_train_bptt_mode_ignores_window(tmp_path):
    # full BPTT is zero-init training on the one window N = T = 60, one segment per batch
    data_file = synth(tmp_path) / "train.csv"
    out = tmp_path / "run"
    assert run("--out", out, "train", "--data", data_file, "--mode", "bptt",
               "--N", 7, "--stride", 5, "--m", 2, "--epochs", 3, "--seed", 1) == 0
    run_dir = only_run_dir(out, "train")
    lines = (run_dir / "log.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3
    assert run("--out", tmp_path / "zero", "train", "--data", data_file, "--mode", "zero",
               "--N", 60, "--m", 2, "--batch", 1, "--epochs", 3, "--seed", 1) == 0
    zero_dir = only_run_dir(tmp_path / "zero", "train")
    for name in ("params.json", "log.jsonl"):
        assert (run_dir / name).read_bytes() == (zero_dir / name).read_bytes()


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
    assert config["batch"] == 1
    if command == "sweep":
        with open(run_dir / "report.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert row["error"] == ""
        assert row["N"] == "60"  # the one window N = T
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
    # wall times go to timings.json: each N's training and the one evaluation
    # under phases, the times the sweep measures
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
    timings = json.loads((dirs[0] / "timings.json").read_text())
    assert list(timings) == ["phases"]
    phases = timings["phases"]
    assert list(phases) == ["train", "evaluate"]
    assert [list(t) for t in phases["train"]] == [["N", "wall_time_s"]] * 2
    assert [t["N"] for t in phases["train"]] == [8, 10]
    assert list(phases["evaluate"]) == ["wall_time_s"]
    assert all(t["wall_time_s"] >= 0 for t in phases["train"])
    assert phases["evaluate"]["wall_time_s"] >= 0


def test_sweep_exit_code_ignores_error_text(tmp_path, monkeypatch):
    # a runnable cell whose error happens to read like an invalid cell's
    # still makes the sweep partial
    data_file = synth(tmp_path) / "train.csv"

    def failing_group(dataset, args, N, ms):
        raise ValueError("m=3 diverged")

    def failing_cell(dataset, test_set, args, N, m):
        raise ValueError("m=3 diverged")

    monkeypatch.setattr(cli, "_train_group", failing_group)
    monkeypatch.setitem(globals(), "lone_cell", failing_cell)
    flags = ["sweep", "--data", data_file, "--N-list", 10, "--m-list", "0,3", "--epochs", 1,
             "--batch", 4]
    assert run("--out", tmp_path / "sweep", *flags) == 4
    assert lone_cell_sweep([str(f) for f in flags], tmp_path / "oracle.csv") == 4


def test_run_files_keep_their_layout(tmp_path):
    # the ordered keys of every JSON run file, which no output digest sees
    base = synth(tmp_path)
    assert base.name == "8665a1ae864401cd"  # synth identities name perfbench's inputs
    assert run("--out", tmp_path / "train", "train", "--data", base / "train.csv",
               *TRAIN_FLAGS) == 0
    train_dir = only_run_dir(tmp_path / "train", "train")
    # the data enter the identity by content, so the name holds on any path
    assert train_dir.name == "8972e378c2eedb05"
    summary = json.loads((train_dir / "summary.json").read_text())
    assert list(summary) == ["final_objective", "epochs_run"]
    timings = json.loads((train_dir / "timings.json").read_text())
    assert list(timings) == ["phases"] and list(timings["phases"]) == ["train"]
    assert list(timings["phases"]["train"]) == ["wall_time_s"]
    config = json.loads((train_dir / "manifest.json").read_text())["config"]
    assert list(config) == ["inputs", "input_cols", "target_cols", "cell", "d_h", "activation",
                            "stride", "lr", "seed", "rho", "batch", "opt", "epochs", "mode",
                            "N", "m"]
    line = (train_dir / "log.jsonl").read_text().splitlines()[0]
    assert list(json.loads(line)) == ["epoch", "objective", "grad_norm"]
    spec_keys = ["kind", "d_x", "d_h", "d_y", "activation", "use_biases"]
    params = json.loads((train_dir / "params.json").read_text())
    assert list(params) == ["spec", "layout", "theta"]
    assert list(params["spec"]) == spec_keys
    generator = json.loads((base / "generator.json").read_text())
    assert list(generator) == ["a", "b", "c", "noise_std", "seed", "warmup", "state_at_start"]

    assert run("--out", tmp_path / "bench", "benchmark", "--data", base / "train.csv",
               "--N", 10, "--m-list", 2, "--restarts", 1, "--iters", 20) == 0
    bench_dir = only_run_dir(tmp_path / "bench", "benchmark")
    for variant in ("tbptt", "coupled", "unconstrained"):
        sol = json.loads((bench_dir / f"solution_{variant}_m2.json").read_text())
        assert list(sol) == ["variant", "objective", "converged", "grad_norm", "params",
                             "init_states", "diagnostics"]
        assert list(sol["params"]) == ["spec", "layout", "theta"]
        assert list(sol["params"]["spec"]) == spec_keys
        assert list(sol["diagnostics"]) == ["iterations", "starts", "failed_starts", "bounded",
                                            "state_output_peak"]
    report = json.loads((bench_dir / "report_m2.json").read_text())
    assert list(report) == ["V_star", "V_bench", "training_regret", "P_star", "P_bench",
                            "performance_regret", "thm1_rhs", "thm2_rhs", "thm1_violation",
                            "thm2_violation", "m", "N", "S", "o_min", "constants", "turnpike"]
    assert list(report["constants"]) == ["L_l", "h_bar", "C", "lam", "epsilon", "C_bar", "K",
                                         "c1", "c2", "E1", "E2", "finite"]
    assert list(report["turnpike"]) == ["e_j", "sum_e", "reference", "m", "N"]
    with open(bench_dir / "report.csv") as fh:
        assert next(csv.reader(fh)) == [
            "N", "m", "S", "o_min", "V_star", "V_bench", "training_regret", "P_star", "P_bench",
            "performance_regret", "thm1_rhs", "thm2_rhs", "thm1_violation", "thm2_violation",
            "lambda", "C_bar", "E2"]

    assert run("--out", tmp_path / "sweep", "sweep", "--data", base / "train.csv",
               "--N-list", 10, "--m-list", 2, "--epochs", 1, "--batch", 4) == 0
    with open(only_run_dir(tmp_path / "sweep", "sweep") / "report.csv") as fh:
        assert next(csv.reader(fh)) == ["N", "m", "train_mse", "test_mse", "P", "lambda",
                                        "error"]


# Base flags of each command, chosen so that every flag changes the run: an
# Elman cell, so that --activation counts, and a test file, so that
# --test-burn does. --data and --test are added where the data is made.
FIT_BASE = {"--input-cols": "u", "--target-cols": "y", "--cell": "elman", "--d-h": 1,
            "--activation": "tanh", "--stride": 1, "--lr": 0.03, "--seed": 4, "--rho": 0.999}
TRAINING_BASE = {**FIT_BASE, "--batch": 8, "--opt": "adam", "--epochs": 1, "--mode": "zero"}
IDENTITY_BASE = {
    "synth": {"--T": 60, "--T-val": 0, "--T-test": 30, "--noise": 0.02, "--warmup": 50,
              "--seed": 5},
    "train": {**TRAINING_BASE, "--N": 10, "--m": 3},
    "sweep": {**TRAINING_BASE, "--N-list": "10", "--m-list": "0,3", "--test-burn": -1},
    "benchmark": {**FIT_BASE, "--N": 10, "--m-list": "0,3", "--variants": "tbptt,coupled",
                  "--restarts": 1, "--iters": 3},
}
# another valid value of each flag; the columns keep their widths, so no
# other part of the config moves with them
OTHER_VALUE = {"--T": 61, "--T-val": 5, "--T-test": 31, "--noise": 0.03, "--warmup": 49,
               "--input-cols": "y", "--target-cols": "u", "--cell": "lstm", "--d-h": 2,
               "--activation": "relu", "--stride": 2, "--lr": 0.02, "--seed": 6, "--rho": 0.9,
               "--batch": 4, "--opt": "sgd", "--epochs": 2, "--mode": "stateful", "--N": 11,
               "--m": 2, "--N-list": "10,12", "--m-list": "0", "--test-burn": 1,
               "--variants": "tbptt", "--restarts": 2, "--iters": 4}


def subcommand_flags(command: str) -> set[str]:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.option_strings[-1] for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help"}


@pytest.mark.parametrize("command", list(IDENTITY_BASE))
def test_every_flag_but_out_is_part_of_the_run_identity(tmp_path, command):
    # a run that changes any one flag gets its own run directory
    a, b = synth(tmp_path, "a"), synth(tmp_path, "b", seed=6)
    base, other = dict(IDENTITY_BASE[command]), dict(OTHER_VALUE)
    if command != "synth":
        base["--data"], other["--data"] = a / "train.csv", b / "train.csv"
    if command == "sweep":
        base["--test"], other["--test"] = a / "test.csv", b / "test.csv"
    assert set(base) == subcommand_flags(command)

    def run_dir_name(flags: dict, root: Path) -> str:
        assert run("--out", root, command, *[x for item in flags.items() for x in item]) == 0
        return only_run_dir(root, command).name

    base_name = run_dir_name(base, tmp_path / "base")
    shared = [flag for flag in base
              if run_dir_name({**base, flag: other[flag]}, tmp_path / flag) == base_name]
    assert shared == []


@pytest.mark.parametrize("command, flags", [
    ("train", ["--N", 10, "--m", 2, "--epochs", 1]),
    ("sweep", ["--N-list", 10, "--m-list", "0,2", "--epochs", 1]),
    ("benchmark", ["--N", 10, "--m-list", 2, "--restarts", 1, "--iters", 5]),
])
def test_swapped_columns_keep_their_own_runs(tmp_path, command, flags):
    # a second run with the columns swapped must not overwrite the first
    argv = [command, "--data", synth(tmp_path) / "train.csv", *flags]
    columns = [["--input-cols", "u", "--target-cols", "y"],
               ["--input-cols", "y", "--target-cols", "u"]]
    both = tmp_path / "both"
    for cols in columns:
        assert run("--out", both, *argv, *cols) == 0
    assert len(list((both / command).iterdir())) == 2
    for i, cols in enumerate(columns):
        assert run("--out", tmp_path / f"alone{i}", *argv, *cols) == 0
        alone = only_run_dir(tmp_path / f"alone{i}", command)
        kept = both / command / alone.name
        assert sorted(f.name for f in kept.iterdir()) == sorted(f.name for f in alone.iterdir())
        for f in alone.iterdir():
            if f.name not in ("manifest.json", "timings.json"):
                assert (kept / f.name).read_bytes() == f.read_bytes(), f.name


def test_data_files_enter_the_run_identity_by_content(tmp_path, monkeypatch):
    # two paths to one file share a run; a file rewritten in place gets its own
    monkeypatch.chdir(tmp_path)
    data_file, out = tmp_path / "d.csv", tmp_path / "runs"
    data_file.write_bytes((synth(tmp_path, "a") / "train.csv").read_bytes())
    flags = ["--N", 10, "--m", 2, "--epochs", 1]
    assert run("--out", out, "train", "--data", "d.csv", *flags) == 0
    assert run("--out", out, "train", "--data", "./d.csv", *flags) == 0
    first = only_run_dir(out, "train")
    params = (first / "params.json").read_bytes()
    # the manifest lists the path as given, outside the hash
    assert json.loads((first / "manifest.json").read_text())["inputs"] == ["./d.csv"]

    data_file.write_bytes((synth(tmp_path, "b", seed=6) / "train.csv").read_bytes())
    assert run("--out", out, "train", "--data", "d.csv", *flags) == 0
    assert len(list((out / "train").iterdir())) == 2
    assert (first / "params.json").read_bytes() == params


def lone_cell(dataset, test_set, args, N, m):
    """One sweep cell trained and evaluated on its own: the per-cell sweep
    that the stacked groups must reproduce byte for byte."""
    log = training.train(dataset, cli._train_config(
        args, cli._cell_spec(args, dataset.d_x, dataset.d_y), N, m))
    params = log.params
    traj = forward(params, None, dataset.inputs)
    p_train = analysis.performance(traj, dataset, m)
    stab = analysis.estimate_stability(params, dataset, [traj], num_pairs=16, seed=args.seed)[0]
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
    """The sweep run cell by cell into ``report``; returns its exit code, 4
    when a cell with m <= N - 1 failed."""
    args = cli.build_parser().parse_args(argv)
    dataset = cli._load_dataset(args, args.data)
    test_set = None
    if args.test is not None:
        test_set = cli._load_dataset(args, args.test, transforms=(dataset.input_transforms,
                                                                 dataset.target_transforms))
    rows = {}
    failed = False
    for N in cli._resolve_windows(args, cli._int_list(args.N_list), dataset.T):
        for m in cli._int_list(args.m_list):
            if m > N - 1:
                rows[N, m] = cli._error_row(N, m, f"m={m} exceeds N-1")
            else:
                try:
                    rows[N, m] = lone_cell(dataset, test_set, args, N, m)
                except Exception as exc:
                    rows[N, m] = cli._error_row(N, m, str(exc))
                    failed = True
    with open(report, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cli.SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for cell in sorted(rows):
            writer.writerow({k: rows[cell].get(k, "") for k in cli.SWEEP_COLUMNS})
    return 4 if failed else 0


@pytest.mark.parametrize("model", [("elman", "zero"), ("lstm", "stateful")],
                         ids=["elman-zero", "lstm-stateful"])
def test_sweep_report_equals_lone_cell_sweep(tmp_path, monkeypatch, model):
    base = synth(tmp_path)
    real_grad = training.tape_loss_grad

    def failing_grad(tape, targets, weights):
        # the start with burn-in 3 at N = 10 gets a NaN gradient; every
        # training step, zero-init or stateful, takes its gradient here
        loss, d_theta, d_h0 = real_grad(tape, targets, weights)
        burn_in = np.sum(weights[..., 0, :] == 0.0, axis=-1)
        bad = (burn_in == 3) & (tape.inputs.shape[1] == 10)
        return loss, np.where(bad[..., None], np.nan, d_theta), d_h0

    groups = []
    real_group = cli._train_group

    def counting_group(dataset, args, N, ms):
        groups.append((N, ms))
        return real_group(dataset, args, N, ms)

    monkeypatch.setattr(training, "tape_loss_grad", failing_grad)
    monkeypatch.setattr(cli, "_train_group", counting_group)
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

    # the stacked evaluation of the grid's trained models fails too: the
    # zero-state pass of the model of cell (8, 3) goes non-finite, stacked or
    # alone, so each cell is evaluated alone and reports a lone cell's row
    args = cli.build_parser().parse_args([str(f) for f in flags])
    dataset = cli._load_dataset(args, args.data)
    spec = cli._cell_spec(args, dataset.d_x, dataset.d_y)
    poisoned = train(dataset, cli._train_config(args, spec, 8, 3)).params
    real_forward = rnn_core.batched_forward
    stacks = []

    def poisoned_forward(params, h0, inputs, keep_cache=False):
        states, outputs, cache = real_forward(params, h0, inputs, keep_cache)
        if inputs.shape[0] == 1:  # a one-row pass: a zero-state pass over a series
            stacks.append(params.theta.shape)
            outputs[np.all(params.theta == poisoned.theta, axis=-1)] = np.nan
            rnn_core.check_finite("forward pass", states[..., 1:, :], outputs)
        return states, outputs, cache

    monkeypatch.setattr(rnn_core, "batched_forward", poisoned_forward)
    monkeypatch.setattr(cli, "batched_forward", poisoned_forward)
    code = run("--out", tmp_path / "poisoned", *flags)
    n = poisoned.theta.size
    # one stacked pass of the four trained models over the training series,
    # then each model alone: (8, 3) fails on that series, the other three
    # pass over both series
    assert [shape for shape in stacks if shape != (n,)] == [(4, n)]
    assert stacks.count((n,)) == 1 + 2 * 3
    assert code == lone_cell_sweep([str(f) for f in flags], oracle) == 4
    report = (only_run_dir(tmp_path / "poisoned", "sweep") / "report.csv").read_bytes()
    assert report == oracle.read_bytes()
    with open(oracle) as fh:
        errors = {(r["N"], r["m"]): r["error"] for r in csv.DictReader(fh)}
    assert errors[("8", "3")] == "non-finite value in forward pass at time index 1"
    assert [cell for cell, e in errors.items() if e] == [("8", "3"), ("8", "9"), ("10", "3")]


@pytest.mark.parametrize("mode", ["zero", "stateful"])
def test_sweep_evaluates_only_what_it_reports(tmp_path, monkeypatch, mode):
    # no per-epoch gradient; the four models of the grid stacked for one
    # stability probe and one zero-state pass per series; and each train_mse
    # the final objective of the same train run
    base = synth(tmp_path)
    flags = ["sweep", "--data", base / "train.csv", "--test", base / "test.csv",
             "--N-list", "8,10", "--m-list", "0,3", "--cell", "lstm", "--d-h", 3,
             "--mode", mode, "--epochs", 3, "--batch", 4, "--seed", 4]
    gradients, probes, passes = [], [], []
    real_probe = analysis.estimate_stability
    real_passes = cli._zero_state_passes

    def counting_probe(params, dataset, traj, num_pairs=32, seed=0):
        probes.append(params.theta.shape)
        return real_probe(params, dataset, traj, num_pairs, seed)

    def counting_passes(params, dataset):
        passes.append((params.theta.shape, dataset.T))
        return real_passes(params, dataset)

    with monkeypatch.context() as patch:
        patch.setattr(training, "full_batch_gradient",
                      lambda *a, **k: gradients.append(1) or pytest.fail("gradient evaluated"))
        patch.setattr(analysis, "estimate_stability", counting_probe)
        patch.setattr(cli, "_zero_state_passes", counting_passes)
        assert run("--out", tmp_path / "sweep", *flags) == 0
    assert gradients == []

    args = cli.build_parser().parse_args([str(f) for f in flags])
    dataset = cli._load_dataset(args, args.data)
    cli._resolve_windows(args, cli._int_list(args.N_list), dataset.T)
    n = init_params(cli._cell_spec(args, dataset.d_x, dataset.d_y), 0).theta.size
    assert probes == [(4, n)]
    assert passes == [((4, n), dataset.T), ((4, n), cli._load_dataset(args, args.test).T)]
    with open(only_run_dir(tmp_path / "sweep", "sweep") / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["N"], r["m"]) for r in rows] == [("8", "0"), ("8", "3"), ("10", "0"), ("10", "3")]
    for row in rows:
        log = training.train(dataset, cli._train_config(
            args, cli._cell_spec(args, dataset.d_x, dataset.d_y), int(row["N"]), int(row["m"])))
        assert float(row["train_mse"]) == log.records[-1].objective
        assert row["train_mse"] == repr(log.records[-1].objective)


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


def test_benchmark_coupled_stability_radius_from_its_own_start(tmp_path, monkeypatch):
    # the coupled model's stability radius comes from its pass from its own
    # initial state, not from a zero-state pass
    base = synth(tmp_path)
    passes = []
    real_probe = analysis.estimate_stability

    def spying_probe(params, dataset, trajs, num_pairs=32, seed=0):
        passes.append(trajs)
        return real_probe(params, dataset, trajs, num_pairs, seed)

    monkeypatch.setattr(analysis, "estimate_stability", spying_probe)
    out = tmp_path / "bench"
    assert run("--out", out, "benchmark", "--data", base / "train.csv", "--cell", "elman",
               "--d-h", 2, "--N", 10, "--m-list", 2, "--variants", "tbptt,coupled",
               "--restarts", 1, "--iters", 50) == 0
    sol = read_solution((only_run_dir(out, "benchmark") / "solution_coupled_m2.json").read_text())
    (trajs,) = passes
    assert np.any(sol.init_states[0] != 0.0)
    npt.assert_array_equal(trajs[1].hidden[0], sol.init_states[0])


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
    phases = json.loads((run_dir / "timings.json").read_text())["phases"]
    assert [t["variant"] for t in phases["solve"]] == ["coupled"]
    assert phases["analysis"] == []  # and so does the analysis it would time


def test_benchmark_full_report(tmp_path):
    # wall times go to timings.json: each (m, variant) solve and each m's
    # analysis under phases; a rerun writes the same solution and report bytes
    base = synth(tmp_path)
    dirs = []
    for name in ("bench", "again"):
        assert run("--out", tmp_path / name, "benchmark", "--data", base / "train.csv",
                   "--N", 10, "--m-list", "1,3", "--restarts", 1,
                   "--iters", 1500) == 0
        dirs.append(only_run_dir(tmp_path / name, "benchmark"))
    run_dir = dirs[0]
    written = sorted(p.name for p in run_dir.iterdir())
    assert written == sorted(p.name for p in dirs[1].iterdir())
    for name in written:
        if name.startswith(("solution_", "report")):
            assert (run_dir / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    timings = json.loads((run_dir / "timings.json").read_text())
    assert list(timings) == ["phases"]
    phases = timings["phases"]
    assert list(phases) == ["solve", "analysis"]
    assert [list(t) for t in phases["solve"]] == [["m", "variant", "wall_time_s"]] * 6
    assert [(t["m"], t["variant"]) for t in phases["solve"]] == [
        (m, v) for m in (1, 3) for v in ("tbptt", "coupled", "unconstrained")]
    assert [list(t) for t in phases["analysis"]] == [["m", "wall_time_s"]] * 2
    assert [t["m"] for t in phases["analysis"]] == [1, 3]
    assert all(t["wall_time_s"] >= 0 for t in phases["solve"] + phases["analysis"])
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


def test_run_files_are_strict_json_when_the_bounds_are_infinite(tmp_path, monkeypatch):
    # a fitted lambda = 1 makes the bound constants infinite; the report wrote
    # its right-hand sides as Infinity, which a strict parser rejects
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    monkeypatch.setattr(analysis, "estimate_stability", lambda params, dataset, trajs, seed:
                        [analysis.StabilityEstimate(C=1.0, lam=1.0) for _ in trajs])
    base = synth(tmp_path)
    out = tmp_path / "bench"
    assert run("--out", out, "benchmark", "--data", base / "train.csv", "--N", 10,
               "--m-list", 2, "--restarts", 1, "--iters", 20) == 0
    run_dir = only_run_dir(out, "benchmark")
    for path in run_dir.glob("*.json"):
        json.loads(path.read_text(), parse_constant=reject)
    report = json.loads((run_dir / "report_m2.json").read_text())
    assert report["thm1_rhs"] == "inf"
    assert report["constants"]["C_bar"] == "inf"


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


@pytest.mark.parametrize("case", ["train-data-dir", "sweep-test-dir", "out-is-a-file"])
def test_bad_path_is_usage_error_without_traceback(tmp_path, case):
    # a directory read as a CSV, or a file as the output root, exited 1 with
    # a traceback; run as a process, so stderr is what a user sees
    base = synth(tmp_path)
    argv = {
        "train-data-dir": ["--out", tmp_path / "x", "train", "--data", tmp_path],
        "sweep-test-dir": ["--out", tmp_path / "x", "sweep", "--data", base / "train.csv",
                           "--test", tmp_path],
        "out-is-a-file": ["--out", base / "train.csv", "synth"],
    }[case]
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "tbptt.cli", *map(str, argv)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("command, flag, value", [
    *[(command, flag, value) for command in ("train", "sweep", "benchmark")
      for flag, value in [("--d-h", 0), ("--stride", 0), ("--rho", 1.5), ("--rho", "nan")]],
    *[(command, flag, value) for command in ("train", "sweep")
      for flag, value in [("--batch", 0), ("--epochs", -1)]],
])
def test_bad_shared_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    # one up-front check: a sweep failed cell by cell (exit 4) and a benchmark
    # raised a traceback on --rho nan
    data_file = synth(tmp_path) / "train.csv"
    argv = {
        "train": ["--N", 10, "--epochs", 1],
        "sweep": ["--N-list", 10, "--epochs", 1],
        "benchmark": ["--N", 10, "--restarts", 1, "--iters", 5],
    }[command]
    assert_usage_error(capsys, tmp_path / "x", command, "--data", data_file, *argv, flag, value)


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


def test_sweep_bptt_with_several_window_lengths_is_usage_error(tmp_path, capsys):
    # bptt ignores N, so every N would train the same model into equal rows
    data_file = synth(tmp_path) / "train.csv"
    assert_usage_error(capsys, tmp_path / "x", "sweep", "--data", data_file,
                       "--mode", "bptt", "--N-list", "8,10", "--epochs", 1)
    assert run("--out", tmp_path / "y", "sweep", "--data", data_file, "--mode", "bptt",
               "--N-list", "8,8", "--epochs", 1) == 0


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--m-list", ","), ("sweep", "--N-list", ","),
    ("benchmark", "--m-list", ","), ("benchmark", "--variants", ","),
    ("train", "--lr", -1), ("train", "--lr", 0), ("sweep", "--lr", "nan"),
    ("benchmark", "--lr", "nan"), ("benchmark", "--lr", "inf"), ("train", "--rho", "-inf"),
])
def test_flag_leaving_nothing_to_run_is_usage_error(tmp_path, capsys, command, flag, value):
    # T = 60, T_test = 30: an empty grid or variant list, or a step size that
    # is not finite and positive, ran nothing, failed or diverged; a --rho of
    # -inf trained unbounded and wrote Infinity into the manifest
    base = synth(tmp_path)
    argv = {
        "train": ["--N", 10, "--epochs", 1],
        "sweep": ["--test", base / "test.csv", "--N-list", 10, "--epochs", 1],
        "benchmark": ["--N", 10, "--restarts", 1, "--iters", 5],
    }[command]
    # in the --flag=value form, a value such as -inf is not read as a flag
    assert_usage_error(capsys, tmp_path / "x", command, "--data", base / "train.csv",
                       *argv, f"{flag}={value}")


@pytest.mark.parametrize("flag, value", [("--T", 0), ("--T-val", -1), ("--T-test", -5),
                                         ("--noise", -1), ("--noise", "inf"), ("--warmup", -3)])
def test_synth_bad_length_noise_or_warmup_is_usage_error(tmp_path, capsys, flag, value):
    assert_usage_error(capsys, tmp_path / "x", "synth", flag, value)


# --- repeated grid values ---------------------------------------------------


def test_sweep_runs_a_repeated_grid_value_once(tmp_path, monkeypatch):
    import tbptt.cli as cli

    base = synth(tmp_path)
    groups = []
    real_group = cli._train_group

    def counting_group(dataset, args, N, ms):
        groups.append((N, ms))
        return real_group(dataset, args, N, ms)

    monkeypatch.setattr(cli, "_train_group", counting_group)
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
