import numpy as np
import numpy.testing as npt
import pytest

from helpers import gen_synthetic, realizing_params
from tbptt.data import (
    ColumnTransform,
    TimeSeriesDataset,
    _simulate_raw,
    load_csv,
    make_plan,
    minmax_transform,
    segment_arrays,
    write_csv,
)
from tbptt.rnn_core import forward


# --- segmentation -----------------------------------------------------------


def test_make_plan_dense_case():
    plan = make_plan(100, 21, 1)
    assert plan.S == 80
    assert plan.starts == tuple(range(1, 81))
    assert set(plan.overlaps) == {20}
    assert plan.o_min == 20


def test_make_plan_single_segment_convention():
    plan = make_plan(10, 10, 1)
    assert plan.S == 1
    assert plan.overlaps == ()
    assert plan.o_min == 9


def test_make_plan_strided():
    plan = make_plan(10, 4, 3)
    assert plan.starts == (1, 4, 7)
    assert plan.overlaps == (1, 1)
    assert plan.o_min == 1


def test_make_plan_clips_final_start():
    plan = make_plan(10, 4, 4)
    assert plan.starts == (1, 5, 7)
    assert plan.overlaps == (0, 2)
    assert plan.o_min == 0


def test_make_plan_rejects_bad_window():
    with pytest.raises(ValueError):
        make_plan(5, 6, 1)
    with pytest.raises(ValueError):
        make_plan(10, 4, 5)


def test_plan_covers_whole_sequence():
    rng = np.random.default_rng(0)
    for _ in range(30):
        t = int(rng.integers(2, 60))
        n = int(rng.integers(1, t + 1))
        stride = int(rng.integers(1, n + 1))
        plan = make_plan(t, n, stride)
        covered = set()
        for s in plan.starts:
            covered.update(range(s, s + n))
        assert covered == set(range(1, t + 1))
        assert all(0 <= o <= n - 1 for o in plan.overlaps)
        assert list(plan.starts) == sorted(set(plan.starts))


def _toy_dataset(t=10):
    grid = np.arange(1.0, t + 1.0)
    return TimeSeriesDataset(grid[:, None], (10.0 * grid)[:, None])


def test_extract_prefix_and_indexing():
    ds = _toy_dataset()
    plan = make_plan(10, 4, 3)
    xs, ys = segment_arrays(ds, plan)
    assert xs.shape == (3, 4, 1) and ys.shape == (3, 4, 1)
    npt.assert_array_equal(xs[0, :, 0], [1, 2, 3, 4])
    npt.assert_array_equal(xs[1, :, 0], [4, 5, 6, 7])
    npt.assert_array_equal(ys[1, :, 0], [40, 50, 60, 70])
    # the last window is clipped to end exactly at T
    npt.assert_array_equal(xs[2, :, 0], [7, 8, 9, 10])


def test_adjacent_dense_segments_share_points():
    ds = _toy_dataset()
    plan = make_plan(10, 4, 1)
    xs, _ = segment_arrays(ds, plan)
    npt.assert_array_equal(xs[1, 1:], xs[2, :-1])


def test_segment_arrays_matches_extract():
    # window i (1-based) is samples s_i .. s_i + N - 1 of the series
    ds = _toy_dataset()
    plan = make_plan(10, 4, 3)
    xs, ys = segment_arrays(ds, plan)
    for i, s in enumerate(plan.starts):
        npt.assert_array_equal(xs[i], ds.inputs[s - 1 : s - 1 + plan.N])
        npt.assert_array_equal(ys[i], ds.targets[s - 1 : s - 1 + plan.N])


# --- synthetic generator ----------------------------------------------------


def test_gen_synthetic_deterministic():
    d1, g1 = gen_synthetic(seed=9, T=50, noise_std=0.1)
    d2, g2 = gen_synthetic(seed=9, T=50, noise_std=0.1)
    npt.assert_array_equal(d1.inputs, d2.inputs)
    npt.assert_array_equal(d1.targets, d2.targets)
    npt.assert_array_equal(g1.state_at_start, g2.state_at_start)


def test_noiseless_data_realized_by_generator_params():
    ds, gen = gen_synthetic(seed=7, T=80, noise_std=0.0)
    params = realizing_params(gen, ds)
    traj = forward(params, gen.state_at_start, ds.inputs)
    npt.assert_allclose(traj.outputs, ds.targets, atol=1e-12)


def test_warmup_zero_starts_at_rest():
    ds, gen = gen_synthetic(seed=7, T=40, noise_std=0.0, warmup=0)
    npt.assert_array_equal(gen.state_at_start, 0.0)
    traj = forward(realizing_params(gen, ds), None, ds.inputs)
    npt.assert_allclose(traj.outputs, ds.targets, atol=1e-12)


def test_output_variance_matches_analytic():
    # sample variance of the raw output ~ signal variance + noise variance
    noise = 0.1
    _, raw, gen = _simulate_raw(seed=12, total=10_000, warmup=50, noise_std=noise)
    # stationary variance of the noise-free output under unit white input,
    # from the truncated impulse-response series sum_k (c a^k b)^2
    signal_variance = 0.0
    ab = gen.b.copy()
    for _ in range(2000):
        signal_variance += float(gen.c @ ab) ** 2
        ab = gen.a @ ab
    expected = signal_variance + noise**2
    assert np.var(raw) == pytest.approx(expected, rel=0.10)


# --- CSV ingestion ----------------------------------------------------------


def test_load_csv_fixed_point(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("u,y\n-1.0,1.0\n1.0,-1.0\n")
    ds = load_csv(path, ["u"], ["y"])
    npt.assert_allclose(ds.inputs[:, 0], [-1.0, 1.0])
    npt.assert_allclose(ds.targets[:, 0], [1.0, -1.0])


def test_load_csv_constant_column_maps_to_zero(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("u,y\n2.0,7.5\n3.0,7.5\n")
    ds = load_csv(path, ["u"], ["y"])
    npt.assert_array_equal(ds.targets, 0.0)
    # the transform keeps the constant
    assert ds.target_transforms == [ColumnTransform(offset=7.5, scale=0.0)]


def test_load_csv_minmax_by_hand(tmp_path):
    path = tmp_path / "ramp.csv"
    path.write_text("u,y\n0,0\n5,1\n10,2\n")
    ds = load_csv(path, ["u"], ["y"])
    npt.assert_allclose(ds.inputs[:, 0], [-1.0, 0.0, 1.0])


def test_load_csv_crlf_and_roundtrip(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"u,y\r\n0.5,2.0\r\n1.5,4.0\r\n-0.5,6.0\r\n")
    ds = load_csv(path, ["u"], ["y"])
    raw = np.array([2.0, 4.0, 6.0])
    assert ds.target_transforms == [minmax_transform(raw)]
    npt.assert_array_equal(ds.targets[:, 0], minmax_transform(raw).apply(raw))


def test_load_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv", ["u"], ["y"])
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(empty, ["u"], ["y"])
    headers_only = tmp_path / "headers.csv"
    headers_only.write_text("u,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(headers_only, ["u"], ["y"])
    missing_col = tmp_path / "cols.csv"
    missing_col.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_csv(missing_col, ["u"], ["y"])
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("u,y\n1.0,2.0\n1.5,oops\n")
    with pytest.raises(ValueError, match=r"row 3.*'y'"):
        load_csv(bad_cell, ["u"], ["y"])


def test_write_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(2)
    u = rng.normal(size=17)
    y = rng.normal(size=17) * 1e-7
    path = tmp_path / "series.csv"
    write_csv(path, {"u": u, "y": y})
    # identity transforms read the stored doubles back unchanged
    identity = [ColumnTransform(offset=0.0, scale=1.0)]
    ds = load_csv(path, ["u"], ["y"], transforms=(identity, identity))
    npt.assert_array_equal(ds.inputs[:, 0], u)
    npt.assert_array_equal(ds.targets[:, 0], y)


def test_dataset_validation():
    with pytest.raises(ValueError):
        TimeSeriesDataset(np.ones((3, 1)), np.ones((4, 1)))
