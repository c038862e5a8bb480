"""Which functions of ``tbptt`` the traced run wraps, and the per-layer
metrics derived from their spans.

A function imported with ``from .x import y`` is bound under its own name in
every importing module, so each module-level function is replaced in every
``tbptt`` module that holds it. Methods are replaced on their class.
``installed`` puts every original back when the traced run ends.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager

from .tracer import Tracer, child_calls, summarize

VARIANTS = ("tbptt", "coupled", "unconstrained")


def _segment_bytes(tracer, args, kwargs, result):
    tracer.count("data.segment_arrays.bytes", sum(a.nbytes for a in result))


def _forward_steps(tracer, args, kwargs, result):
    states = result[0]
    tracer.count("rnn_core.batched_forward.steps", states.shape[0] * (states.shape[1] - 1))


def _backprop_steps(tracer, args, kwargs, result):
    tape = args[0] if args else kwargs["tape"]
    tracer.count("autodiff.backprop.steps", tape.inputs.shape[0] * tape.inputs.shape[1])


def _clip(tracer, args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    if result is not params:
        tracer.count("training.project_stability.clipped")


def _starts(tracer, args, kwargs, result):
    tracer.count(f"benchmark.solve.{result.variant}.starts", result.diagnostics["starts"])


# (module, attribute or Class.method, span name, counter hook); a name with
# ``{variant}`` takes the variant of the problem passed as first argument
TARGETS = [
    ("data", "segment_arrays", "data.segment_arrays", _segment_bytes),
    ("data", "load_csv", "data.load_csv", None),
    ("rnn_core", "batched_forward", "rnn_core.batched_forward", _forward_steps),
    ("autodiff", "record", "autodiff.record", None),
    ("autodiff", "backprop", "autodiff.backprop", _backprop_steps),
    ("autodiff", "weighted_loss_grad", "autodiff.weighted_loss_grad", None),
    ("linalg", "spectral_norm", "linalg.spectral_norm", None),
    ("training", "sgd_step", "training.sgd_step", None),
    ("training", "project_stability", "training.project_stability", _clip),
    ("training", "AdamState.direction", "training.adam", None),
    ("training", "full_batch_gradient", "training.full_batch_gradient", None),
    ("training", "full_batch_objective", "training.full_batch_objective", None),
    ("training", "_stateful_inits", "training.stateful_inits", None),
    ("benchmark", "_Problem.value_grad", "benchmark.value_grad.{variant}", None),
    ("benchmark", "_Problem.project", "benchmark.project", None),
    ("benchmark", "_solve", "benchmark.solve.{variant}", _starts),
    ("benchmark", "_finish", "benchmark.finish", None),
    ("analysis", "estimate_stability", "analysis.estimate_stability", None),
    ("analysis", "performance", "analysis.performance", None),
    ("analysis", "epsilon_check", "analysis.epsilon_check", None),
    ("analysis", "collect_observed", "analysis.collect_observed", None),
    ("analysis", "regret_report", "analysis.regret_report", None),
]


def span_names() -> list[str]:
    names = []
    for _, _, name, _ in TARGETS:
        if "{variant}" in name:
            names.extend(name.format(variant=v) for v in VARIANTS)
        else:
            names.append(name)
    return names


def _bindings(module_name: str, attr: str) -> list[tuple[object, str]]:
    """Every (owner, attribute) through which the target is looked up."""
    module = sys.modules[f"tbptt.{module_name}"]
    if "." in attr:
        cls_name, method = attr.split(".")
        return [(getattr(module, cls_name), method)]
    original = getattr(module, attr)
    owners = [m for name, m in sorted(sys.modules.items())
              if (name == "tbptt" or name.startswith("tbptt.")) and m is not None]
    return [(m, name) for m in owners for name, value in vars(m).items()
            if value is original]


def _variant_name(template: str, args: tuple) -> str:
    return template.format(variant=args[0].variant)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    import tbptt.cli  # noqa: F401  (loads every module the targets live in)

    saved: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name, hook in TARGETS:
            if "{variant}" in name:
                name = functools.partial(_variant_name, name)
            for owner, key in _bindings(module_name, attr):
                original = vars(owner)[key]
                saved.append((owner, key, original))
                setattr(owner, key, tracer.wrap(original, name, hook))
        yield
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)


# per-layer metrics beyond calls / s / self_s, with their units
EXTRA_UNITS = {
    "data.segment_arrays.bytes": "B",
    "rnn_core.batched_forward.steps": "count",
    "rnn_core.batched_forward.ns_per_step": "ns",
    "autodiff.backprop.steps": "count",
    "autodiff.backprop.ns_per_step": "ns",
    "training.project_stability.clip_ratio": "ratio",
    "training.stateful_inits.forward_calls": "count",
    **{f"benchmark.value_grad.{v}.ms_per_call": "ms" for v in VARIANTS},
    **{f"benchmark.solve.{v}.starts": "count" for v in VARIANTS},
    "cli.s": "s",
    "cli.self_s": "s",
    "cli.trace_overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_UNITS)
    return units


def rep_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced repetition (root span named ``cli``)."""
    rows = summarize(tracer.spans)
    counters = tracer.counters
    out: dict[str, float] = {}
    for name in span_names():
        row = rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.s"] = row["s"]
        out[f"{name}.self_s"] = row["self_s"]

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator * scale / denominator if denominator else 0.0

    out["data.segment_arrays.bytes"] = counters["data.segment_arrays.bytes"]
    for name in ("rnn_core.batched_forward", "autodiff.backprop"):
        steps = counters[f"{name}.steps"]
        out[f"{name}.steps"] = steps
        out[f"{name}.ns_per_step"] = per(out[f"{name}.s"], steps, 1e9)
    out["training.project_stability.clip_ratio"] = per(
        counters["training.project_stability.clipped"],
        out["training.project_stability.calls"])
    out["training.stateful_inits.forward_calls"] = child_calls(
        tracer.spans, "training.stateful_inits", "rnn_core.batched_forward")
    for v in VARIANTS:
        out[f"benchmark.value_grad.{v}.ms_per_call"] = per(
            out[f"benchmark.value_grad.{v}.s"], out[f"benchmark.value_grad.{v}.calls"], 1e3)
        out[f"benchmark.solve.{v}.starts"] = counters[f"benchmark.solve.{v}.starts"]
    cli = rows["cli"]
    out["cli.s"] = cli["s"]
    out["cli.self_s"] = cli["self_s"]
    return out
