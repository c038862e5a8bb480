"""Oracles and fixtures that only tests use.

``pack`` assembles a theta from named blocks, the inverse of
``Params.unpack`` and the oracle of ``backprop``'s gradient assembly.
``fd_gradient`` is the central-difference gradient the exact one is checked
against, and ``exact_linear_loss_grad`` the weighted loss and gradient of a
bias-free linear cell in exact rational arithmetic, which
``assert_near_exact`` holds float values to. ``gen_synthetic``
builds a normalized recording of the system ``tbptt synth`` simulates,
scaled by each column's largest magnitude, and ``realizing_params`` gives
the linear cell that reproduces its noise-free map. ``read_params`` and
``read_solution`` read back what ``params.json`` and ``solution_*.json``
hold. ``scalar_shuffle`` is the one-draw-at-a-time Fisher-Yates that
``SplitMix64.shuffle`` vectorizes, and ``scalar_normal`` the one-value-at-a-time
Box-Muller that ``SplitMix64.normals`` vectorizes. ``scalar_linear_optimum`` is the exact
global optimum of each reference problem for a one-state linear cell.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from tbptt.autodiff import segment_weights, weighted_loss
from tbptt.benchmark import LiftedSolution, coupled_time_weights
from tbptt.data import (
    ColumnTransform, LinearSISOGenerator, SegmentationPlan, TimeSeriesDataset, _simulate_raw,
    segment_arrays,
)
from tbptt.linalg import DimensionError
from tbptt.rng import SplitMix64
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


def exact_linear_loss_grad(W_hh, W_xh, W_hy, h0, inputs, targets, weights):
    """The weighted squared-error sum of a bias-free linear cell over one
    sequence, and its gradient, exactly: every float64 is a dyadic
    rational, so the pass runs in ``Fraction``s from the same numbers.

    The blocks are (d_h, d_h), (d_h, d_x) and (d_y, d_h) arrays, ``h0`` is
    (d_h,), ``inputs`` (T', d_x), ``targets`` (T', d_y) and ``weights``
    (T',). Returns (loss, {block name: gradient}, d_h0) as Fractions in
    nested lists; the gradient is the reverse sweep's, exact too. It uses
    no code of the package, so it checks every float path."""
    def exact(a):
        return [exact(b) for b in a] if np.ndim(a) else Fraction(float(a))

    def times(m, v):
        return [sum(a * b for a, b in zip(row, v)) for row in m]

    def transpose(m):
        return [list(col) for col in zip(*m)]

    def add_outer(acc, u, v):
        for row, a in zip(acc, u):
            for j, b in enumerate(v):
                row[j] += a * b

    A, Bx, Cy = exact(W_hh), exact(W_xh), exact(W_hy)
    xs, ys, ws = exact(inputs), exact(targets), exact(weights)
    states, cograds = [exact(h0)], []
    loss = Fraction(0)
    for x, y, w in zip(xs, ys, ws):
        states.append([a + b for a, b in zip(times(A, states[-1]), times(Bx, x))])
        err = [a - b for a, b in zip(times(Cy, states[-1]), y)]
        loss += w * sum(e * e for e in err)
        cograds.append([2 * w * e for e in err])
    grads = {name: [[Fraction(0)] * len(m[0]) for _ in m]
             for name, m in (("W_hh", A), ("W_xh", Bx), ("W_hy", Cy))}
    adj = [Fraction(0)] * len(A)
    for t in range(len(xs) - 1, -1, -1):
        adj = [a + b for a, b in zip(times(transpose(A), adj), times(transpose(Cy), cograds[t]))]
        add_outer(grads["W_hy"], cograds[t], states[t + 1])
        add_outer(grads["W_hh"], adj, states[t])
        add_outer(grads["W_xh"], adj, xs[t])
    return loss, grads, times(transpose(A), adj)


def assert_near_exact(got, exact, rtol):
    """Every value of ``got`` within ``rtol`` of the ``exact`` ones, relative
    to their largest magnitude, with the difference taken exactly."""
    scale = max(abs(e) for e in exact)
    worst = max(abs(Fraction(float(g)) - e) for g, e in zip(got, exact))
    assert worst <= rtol * scale, float(worst / scale)


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


def scalar_shuffle(rng: SplitMix64, items: list) -> None:
    """In-place Fisher-Yates, one ``randrange`` draw per swap: item i, from
    the last down to the second, swaps with item ``rng.randrange(i + 1)``."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def scalar_normal(rng: SplitMix64, sigma: float = 1.0) -> float:
    """One Gaussian of ``rng``'s Box-Muller stream, one stream value at a
    time: the spare of the last pair, scaled by this call's sigma, when
    there is one, else the first value of a new pair, whose second it
    keeps in the same ``_spare_normal`` slot as ``SplitMix64.normals``."""
    if rng._spare_normal is not None:
        z = rng._spare_normal
        rng._spare_normal = None
        return sigma * z
    # u1 in (0, 1] so log() is finite
    u1 = ((rng.next_u64() >> 11) + 1) * 2.0**-53
    u2 = (rng.next_u64() >> 11) * 2.0**-53
    r = math.sqrt(-2.0 * math.log(u1))
    rng._spare_normal = r * math.sin(2.0 * math.pi * u2)
    return sigma * r * math.cos(2.0 * math.pi * u2)


def scalar_linear_optimum(variant: str, dataset: TimeSeriesDataset, plan: SegmentationPlan,
                          m: int, rho: float, grid: int = 2001):
    """The global optimum of ``variant``'s objective for a bias-free linear
    cell with d_h = d_x = d_y = 1 and |W_hh| <= ``rho``, found by variable
    projection (Golub & Pereyra 1973).

    h_t = a h_{t-1} + b x_t and y_t = c h_t, so at a fixed pole a every
    output is linear in g = c b and in k = c h0: y_j = g u_j(a) + k a^j, with
    u the zero-start response. ``tbptt`` has no k, ``coupled`` one k for the
    whole series and ``unconstrained`` one k per window. Each row's k is
    projected out of its weighted least squares in closed form, then g is a
    one-unknown fit, which gives V(a). Its minimum over a in [-rho, rho] is
    taken on a ``grid``-point grid, all points at once, and polished by a
    golden-section search between the best point's neighbours. Returns
    (V*, Params with W_hh = a, W_xh = g, W_hy = 1, the free states k)."""
    x, y = dataset.inputs[:, 0], dataset.targets[:, 0]
    if variant == "coupled":
        xs, ys = x[None], y[None]
        w = coupled_time_weights(plan, m, dataset.T)[None] * segment_weights(plan.N, m, plan.S)[0, -1]
    else:
        xs, ys = (a[..., 0] for a in segment_arrays(dataset, plan))
        w = segment_weights(plan.N, m, plan.S)

    def fit(a):  # a (G,) -> V (G,), g (G,), k (G, rows)
        u = np.empty((a.size, *xs.shape))
        h = np.zeros((a.size, xs.shape[0]))
        for j in range(xs.shape[1]):
            h = a[:, None] * h + xs[:, j]
            u[:, :, j] = h
        targets = np.broadcast_to(ys, u.shape)
        k_u = k_y = np.zeros(u.shape[:2])
        if variant != "tbptt":
            v = a[:, None, None] ** np.arange(1, xs.shape[1] + 1)  # (G, 1, n)
            vv = np.sum(w * v * v, axis=-1)
            # a = 0 leaves k no output to act on: it stays 0
            k_u, k_y = (np.divide(np.sum(w * z * v, axis=-1), vv, out=np.zeros(u.shape[:2]),
                                  where=vv > 0) for z in (u, targets))
            u, targets = u - k_u[..., None] * v, targets - k_y[..., None] * v
        g = np.sum(w * u * targets, axis=(1, 2)) / np.sum(w * u * u, axis=(1, 2))
        res = g[:, None, None] * u - targets
        return np.sum(w * res * res, axis=(1, 2)), g, k_y - g[:, None] * k_u

    def at(pole):
        return [out[0] for out in fit(np.array([pole]))]

    a = np.linspace(-rho, rho, grid)
    best = int(np.argmin(fit(a)[0]))
    lo, hi = a[max(best - 1, 0)], a[min(best + 1, grid - 1)]
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-13:
        p, q = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if at(p)[0] <= at(q)[0]:
            hi = q
        else:
            lo = p
    pole = (lo + hi) / 2.0
    value, g, k = at(pole)
    spec = CellSpec(kind="linear", d_x=1, d_h=1, d_y=1, activation="identity", use_biases=False)
    params = pack(spec, {"W_hh": [[pole]], "W_xh": [[g]], "W_hy": [[1.0]]})
    states = k[:, None] if variant != "tbptt" else np.zeros((0, 1))
    return float(value), params, states
