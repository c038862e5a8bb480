"""Oracles and fixtures that only tests use.

``pack`` assembles a theta from named blocks, the inverse of
``Params.unpack`` and the oracle of ``backprop``'s gradient assembly.
``fd_gradient`` is the central-difference gradient the exact one is checked
against. ``gen_synthetic`` builds a normalized recording of the system
``tbptt synth`` simulates, scaled by each column's largest magnitude, and
``realizing_params`` gives the linear cell that reproduces its noise-free
map. ``read_params`` and ``read_solution`` read back what ``params.json`` and
``solution_*.json`` hold.
"""

from __future__ import annotations

import json

import numpy as np

from tbptt.autodiff import segment_weights, weighted_loss
from tbptt.benchmark import LiftedSolution
from tbptt.data import ColumnTransform, LinearSISOGenerator, TimeSeriesDataset, _simulate_raw
from tbptt.linalg import DimensionError
from tbptt.rnn_core import CellSpec, Params, build_layout, num_params


def pack(spec: CellSpec, blocks) -> Params:
    """Inverse of unpack: assemble theta from named blocks, each with the
    same leading start shape (none, or (R,))."""
    layout = build_layout(spec)
    if set(blocks) != set(layout):
        raise ValueError(f"blocks {sorted(blocks)} do not match layout {sorted(layout)}")
    lead = np.shape(blocks["W_hh"])[:-2]
    theta = np.empty(lead + (num_params(spec),), dtype=np.float64)
    for name, (start, stop, shape) in layout.items():
        value = np.asarray(blocks[name], dtype=np.float64)
        if value.shape != lead + shape:
            raise DimensionError(f"block {name} has shape {lead + shape}, got {value.shape}")
        theta[..., start:stop] = value.reshape(lead + (-1,))
    return Params(theta, spec)


def fd_gradient(params: Params, inputs: np.ndarray, targets: np.ndarray, m: int,
                step: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient of one sequence's burn-in loss from the
    zero state.

    ``inputs`` (N, d_x) and ``targets`` (N, d_y) are one window. Returns
    (d_theta, d_h0 (1, state_dim)), the gradient ``weighted_loss_grad``
    computes exactly for the same row and ``segment_weights(N, m)``.
    """
    x = np.asarray(inputs, dtype=np.float64)[None]
    yd = np.asarray(targets, dtype=np.float64)[None]
    w = segment_weights(x.shape[1], m)
    h0 = np.zeros((1, params.spec.state_dim))

    def value(theta: np.ndarray, h: np.ndarray) -> float:
        return weighted_loss(Params(theta, params.spec), h, x, yd, w)

    def central(f, point: np.ndarray) -> np.ndarray:
        grad = np.zeros(point.size)
        for k in range(point.size):
            up = point.copy()
            dn = point.copy()
            up.flat[k] += step
            dn.flat[k] -= step
            grad[k] = (f(up) - f(dn)) / (2.0 * step)
        return grad.reshape(point.shape)

    d_theta = central(lambda theta: value(theta, h0), params.theta)
    d_h0 = central(lambda h: value(params.theta, h), h0)
    return d_theta, d_h0


def _maxabs_transform(column: np.ndarray) -> ColumnTransform:
    """The pure scaling sending [-max|x|, max|x|] to [-1, 1] (no offset)."""
    peak = float(np.max(np.abs(column)))
    return ColumnTransform(offset=0.0, scale=1.0 / peak if peak else 0.0)


def gen_synthetic(seed: int, T: int, noise_std: float = 0.05, warmup: int = 50):
    """Seeded noisy recording of ``_simulate_raw``'s system, each column
    scaled to [-1, 1] by its largest magnitude. Returns (dataset, generator)."""
    u, y, generator = _simulate_raw(seed, T, warmup, noise_std)
    tr_u, tr_y = _maxabs_transform(u), _maxabs_transform(y)
    dataset = TimeSeriesDataset(tr_u.apply(u)[:, None], tr_y.apply(y)[:, None],
                                input_transforms=[tr_u], target_transforms=[tr_y])
    return dataset, generator


def realizing_params(generator: LinearSISOGenerator, dataset: TimeSeriesDataset) -> Params:
    """Exact linear-cell parameters reproducing ``generator``'s noise-free
    map on ``dataset``, a recording normalized by pure scalings (no offsets)."""
    (tr_u,), (tr_y,) = dataset.input_transforms, dataset.target_transforms
    if tr_u.offset or tr_y.offset:
        raise ValueError("a linear cell without biases cannot realize an offset")
    spec = CellSpec(kind="linear", d_x=1, d_h=2, d_y=1,
                    activation="identity", use_biases=False)
    w_xh = generator.b[:, None] / tr_u.scale if tr_u.scale else generator.b[:, None]
    w_hy = (generator.c * (tr_y.scale if tr_y.scale else 1.0))[None, :]
    return pack(spec, {"W_hh": generator.a, "W_xh": w_xh, "W_hy": w_hy})


def _params_from(d: dict) -> Params:
    params = Params(np.array(d["theta"], dtype=np.float64), CellSpec(**d["spec"]))
    stored = [[name, start, stop] for name, (start, stop, _) in params.layout.items()]
    if stored != [list(row) for row in d["layout"]]:
        raise ValueError("stored layout does not match the spec-derived layout")
    return params


def read_params(text: str) -> Params:
    """The parameters a ``params.json`` holds, with the stored block layout
    checked against the one the spec derives."""
    return _params_from(json.loads(text))


def read_solution(text: str) -> LiftedSolution:
    """The solution a ``solution_*.json`` holds."""
    d = json.loads(text)
    params = _params_from(d["params"])
    states = np.array(d["init_states"], dtype=np.float64)
    if states.size == 0:
        states = states.reshape(0, params.spec.state_dim)
    return LiftedSolution(
        params=params,
        init_states=states,
        objective=float(d["objective"]),
        variant=d["variant"],
        converged=bool(d["converged"]),
        grad_norm=float(d["grad_norm"]),
        diagnostics=d.get("diagnostics", {}),
    )
