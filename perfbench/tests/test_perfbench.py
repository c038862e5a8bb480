"""Tests of the benchmark harness itself (tracer, wrapping, inputs, output check)."""

import json
import math
import sys
import threading
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed, layers, setup_inputs  # noqa: E402
from perfbench.run import END_TO_END_UNITS  # noqa: E402
from perfbench.tracer import Span, Tracer, summarize  # noqa: E402
from perfbench.workloads import WORKLOADS, compare_reference, read_outputs  # noqa: E402
from tbptt import benchmark, linalg, training  # noqa: E402
from tbptt.cli import main as cli_main  # noqa: E402


def test_self_time_on_hand_built_tree_with_two_threads():
    root = Span("cli", 0.0, 10.0, None, thread=1)
    a = Span("a", 1.0, 4.0, root, thread=2)
    inner = Span("x", 2.0, 3.0, a, thread=2)
    b = Span("b", 3.0, 6.0, root, thread=3)  # overlaps a on another thread
    a2 = Span("a", 8.0, 9.0, root, thread=1)
    rows = summarize([inner, a, b, a2, root])
    # root children cover [1, 6] and [8, 9]
    assert rows["cli"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
    assert rows["a"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert rows["x"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert rows["b"] == {"calls": 1, "s": 3.0, "self_s": 3.0}


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer()
    both_open = threading.Barrier(2, timeout=10)

    def work():
        outer = tracer.begin("outer")
        both_open.wait()  # both outer spans are open before either nests
        tracer.end(tracer.begin("inner"))
        tracer.end(outer)

    with tracer.root_span("cli") as root:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    inners = [s for s in tracer.spans if s.name == "inner"]
    outers = [s for s in tracer.spans if s.name == "outer"]
    assert len(inners) == 2 and len(outers) == 2
    for s in inners:
        assert s.parent.name == "outer" and s.parent.thread == s.thread
    assert all(s.parent is root for s in outers)


def test_host_speed_scaling():
    ref = hostspeed.REFERENCE_S
    assert math.isclose(hostspeed.scaled(1.5, ref, ref), 1.5)
    # a host at half speed: the kernel takes twice as long on average
    assert math.isclose(hostspeed.scaled(3.0, 1.5 * ref, 2.5 * ref), 1.5)
    assert hostspeed.kernel_seconds() > 0.0
    assert hostspeed.kernel_seconds(threads=2) > 0.0
    assert hostspeed.start_seconds() > 0.0


def test_wrappers_installed_then_originals_restored():
    bindings = [(owner, key)
                for module_name, attr, _, _ in layers.TARGETS
                for owner, key in layers._bindings(module_name, attr)]
    originals = [vars(owner)[key] for owner, key in bindings]
    # names bound by `from .x import y` are wrapped where they are looked up
    assert (training, "spectral_norm") in bindings
    assert (benchmark, "weighted_loss_grad") in bindings
    tracer = Tracer()
    with layers.installed(tracer):
        assert all(vars(o)[k] is not f for (o, k), f in zip(bindings, originals))
        training.spectral_norm(np.eye(3))
    assert [s.name for s in tracer.spans] == ["linalg.spectral_norm"]
    assert all(vars(o)[k] is f for (o, k), f in zip(bindings, originals))
    assert training.spectral_norm is linalg.spectral_norm


def _inputs(out_root: Path, seed: int) -> dict[str, bytes]:
    files = setup_inputs.make_input("bench-linear", seed, out_root)
    return {name: path.read_bytes() for name, path in files.items()}


def test_seed_fixes_input_bytes(tmp_path):
    first = _inputs(tmp_path / "a", 3)
    assert first == _inputs(tmp_path / "b", 3)
    assert first != _inputs(tmp_path / "c", 4)


def test_tampered_output_fails_check(tmp_path):
    out = tmp_path / "runs"
    assert cli_main(["--out", str(out), "synth", "--T", "60", "--T-test", "0",
                     "--seed", "2"]) == 0
    (synth_dir,) = (out / "synth").iterdir()
    assert cli_main(["--out", str(out), "train", "--data", str(synth_dir / "train.csv"),
                     "--N", "11", "--m", "2", "--epochs", "2", "--seed", "2"]) == 0
    (run_dir,) = (out / "train").iterdir()
    outputs = read_outputs("train", run_dir)
    reference = {"sha256": outputs.sha256, "headline": outputs.headline}
    assert compare_reference(outputs, reference) == ([], True)

    # timing is not part of the digest
    (run_dir / "timings.json").write_text('{"wall_time_s": 123.0}\n')
    assert read_outputs("train", run_dir).sha256 == outputs.sha256

    log = run_dir / "log.jsonl"
    lines = log.read_text().splitlines()
    last = json.loads(lines[-1])
    last["objective"] *= 1.001
    log.write_text("\n".join(lines[:-1] + [json.dumps(last)]) + "\n")
    problems, identical = compare_reference(read_outputs("train", run_dir), reference)
    assert not identical
    assert len(problems) == 1 and problems[0].startswith("final_objective")


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
