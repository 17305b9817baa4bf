"""State reconstruction and the two-mode inseparability analysis."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sqzsim import homodyne, tomography
from sqzsim.dsp import ModeScan, make_mode
from sqzsim.homodyne import DetectorModel
from sqzsim.opa import SqueezerTrajectory
from sqzsim.quantum import split_slices, variance_at_phase
from sqzsim.tomography import (
    TomographyInput,
    duan_prediction_scan,
    ellipse_angle_difference_deg,
    ml_gaussian_tomography,
    stream_epr_analysis,
    wigner_ellipse,
)
from oracles import squeezed_state, vacuum_state
from stack_slices import blocks, sample_moments, synthesize, vacuum


def test_wigner_ellipse_of_vacuum_is_unit_circle():
    ell = wigner_ellipse(vacuum_state())
    assert ell.semi_axes == pytest.approx((1.0, 1.0), abs=1e-12)
    assert ell.angle_deg == 0.0
    assert ell.center == (0.0, 0.0)


def test_wigner_ellipse_axes_and_angle():
    state = squeezed_state(0.5, 0.3)
    ell = wigner_ellipse(state)
    assert ell.semi_axes[0] == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert ell.semi_axes[1] == pytest.approx(math.exp(0.5), abs=1e-12)
    assert ell.angle_deg == pytest.approx(math.degrees(0.3), abs=1e-9)


def test_ellipse_angle_difference_wraps():
    assert ellipse_angle_difference_deg(89.0, -89.0) == pytest.approx(-2.0)
    assert ellipse_angle_difference_deg(-89.0, 89.0) == pytest.approx(2.0)
    assert ellipse_angle_difference_deg(10.0, 4.0) == pytest.approx(6.0)
    assert ellipse_angle_difference_deg(0.0, 180.0) == pytest.approx(0.0)


def _synthetic_input(r, theta, loss, mean=(0.0, 0.0), n_per_phase=4000, n_phases=12, seed=0):
    rng = np.random.default_rng(seed)
    phases = [k * math.pi / n_phases for k in range(n_phases)]
    groups = []
    for phi in phases:
        v = variance_at_phase(r, theta, loss, phi)
        mu = mean[0] * math.cos(phi) + mean[1] * math.sin(phi)
        groups.append(sample_moments(mu + math.sqrt(v) * rng.standard_normal(n_per_phase)))
    return TomographyInput(phases, groups)


def test_tomography_round_trip():
    r, theta, loss = 0.45, 0.35, 0.12
    data = _synthetic_input(r, theta, loss, mean=(0.8, -0.4), seed=3)
    result = ml_gaussian_tomography(data)
    want = squeezed_state(r, theta, loss)
    err = np.maximum(result.cov_stderr, 1e-6)
    assert np.all(np.abs(result.state.cov - want.cov) <= 5.0 * err)
    assert np.all(
        np.abs(result.state.mean - [0.8, -0.4]) <= 5.0 * np.maximum(result.mean_stderr, 1e-6)
    )
    assert abs(ellipse_angle_difference_deg(result.ellipse.angle_deg, math.degrees(theta))) < 5.0


def test_tomography_projection_restores_physicality():
    # samples drawn below the vacuum floor in every quadrature
    rng = np.random.default_rng(1)
    phases = [k * math.pi / 8.0 for k in range(8)]
    data = TomographyInput(phases, [sample_moments(0.9 * rng.standard_normal(3000)) for _ in phases])
    free = ml_gaussian_tomography(data)
    assert not free.state.physical
    assert not free.projected
    fixed = ml_gaussian_tomography(data, project=True)
    assert fixed.projected
    assert fixed.state.physical
    assert np.linalg.det(fixed.state.cov) == pytest.approx(1.0, abs=1e-9)


def test_tomography_projection_is_noop_for_physical_states():
    data = _synthetic_input(0.3, 0.0, 0.2, seed=4)
    result = ml_gaussian_tomography(data, project=True)
    assert not result.projected
    assert np.linalg.det(result.state.cov) > 1.0


def test_tomography_result_serializes():
    result = ml_gaussian_tomography(_synthetic_input(0.2, 0.1, 0.1, n_per_phase=500))
    d = json.loads(json.dumps(result.to_dict()))
    assert np.allclose(d["cov"], result.state.cov)
    assert d["physical"] == result.state.physical
    assert "stderr" in d and "cov" in d["stderr"]


def test_tomography_input_validation():
    rng = np.random.default_rng(0)
    s = sample_moments(rng.standard_normal(200))
    with pytest.raises(ValueError, match="distinct"):
        TomographyInput([0.0, math.pi, 0.1], [s, s, s])
    with pytest.raises(ValueError, match="span"):
        TomographyInput([0.0, 0.2, 0.4], [s, s, s])
    with pytest.raises(ValueError, match="one-to-one"):
        TomographyInput([0.0, 1.0], [s])
    # 50 samples: enough for the 10 split variances, too few for a phase group
    few = sample_moments(rng.standard_normal(50))
    with pytest.raises(ValueError, match=">= 100 samples, got 50"):
        TomographyInput([0.0, 1.0, 2.0], [s, s, few])
    bad = sample_moments(np.append(rng.standard_normal(200), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        TomographyInput([0.0, 1.0, 2.0], [s, s, bad])


def test_tomography_input_holds_the_split_moments_of_each_phase():
    rng = np.random.default_rng(2)
    phases = [0.0, 0.6, 1.2, 1.8]
    samples = [rng.standard_normal(n) for n in (100, 257, 999, 1000)]
    data = TomographyInput(phases, [sample_moments(x) for x in samples])
    assert data.phases == tuple(phases)
    for m, x in zip(data.moments, samples):
        assert m.mean.shape == (10, 1)
        assert m.count.tolist() == [sl.stop - sl.start for sl in split_slices(x.size)]
        n, mean, m2 = m.merged()
        assert n == x.size
        assert mean[0] == pytest.approx(x.mean(), rel=1e-12, abs=1e-15)
        assert m2[0] / n == pytest.approx(x.var(), rel=1e-12)
        for k, sl in enumerate(split_slices(x.size)):
            assert m.m2[k, 0] / m.count[k] == pytest.approx(x[sl].var(), rel=1e-12)


def _group_moments(seed, n_per_phase=1000, n_phases=12):
    """(phases, counts, means, variances) of one synthetic squeezed state's groups."""
    rng = np.random.default_rng(seed)
    phases = np.arange(n_phases) * math.pi / n_phases
    samples = [
        0.05 + math.sqrt(variance_at_phase(0.4, 0.3, 0.1, phi)) * rng.standard_normal(n_per_phase)
        for phi in phases
    ]
    counts = np.full(n_phases, float(n_per_phase))
    means = np.array([s.mean() for s in samples])
    return phases, counts, means, np.array([s.var() for s in samples])


def _nll_oracle(theta, phases, counts, means, variances):
    """The grouped Gaussian negative log-likelihood, written out per group."""
    total = 0.0
    for phi, n, m, s2 in zip(phases, counts, means, variances):
        c, s = math.cos(phi), math.sin(phi)
        mu = theta[0] * c + theta[1] * s
        v = theta[2] * c * c + theta[3] * s * s + 2.0 * theta[4] * s * c
        total += n * (0.5 * math.log(v) + (s2 + (m - mu) ** 2) / (2.0 * v))
    return total


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_likelihood_derivatives_match_central_differences(seed):
    stats = _group_moments(seed)
    lik = tomography._GroupedLikelihood(*stats)
    rng = np.random.default_rng(100 + seed)
    # a random point near the data, with a positive definite covariance
    theta = lik.start() * (1.0 + 0.1 * rng.standard_normal(5))
    assert lik.nll(theta) == pytest.approx(_nll_oracle(theta, *stats), rel=1e-12)
    grad, hess = lik.gradient_hessian(theta)
    h = 1e-5
    for i in range(5):
        e = np.zeros(5)
        e[i] = h
        fd_grad = (_nll_oracle(theta + e, *stats) - _nll_oracle(theta - e, *stats)) / (2.0 * h)
        assert grad[i] == pytest.approx(fd_grad, rel=1e-6, abs=1e-4), i
        g_plus, _ = lik.gradient_hessian(theta + e)
        g_minus, _ = lik.gradient_hessian(theta - e)
        for j in range(5):
            f = np.zeros(5)
            f[j] = h
            fd_hess = (
                _nll_oracle(theta + e + f, *stats) - _nll_oracle(theta + e - f, *stats)
                - _nll_oracle(theta - e + f, *stats) + _nll_oracle(theta - e - f, *stats)
            ) / (4.0 * h * h)
            assert hess[i, j] == pytest.approx(fd_hess, rel=1e-4, abs=1e-1), (i, j)
        # the Hessian is the Jacobian of the analytic gradient too
        np.testing.assert_allclose(hess[i], (g_plus - g_minus) / (2.0 * h), rtol=1e-6, atol=1e-4)


def test_fit_is_stable_under_last_bit_perturbations():
    phases, counts, means, variances = _group_moments(3)
    theta = tomography._fit_moments(phases, counts, means, variances)
    rng = np.random.default_rng(4)
    for _ in range(20):
        nudged = [x * (1.0 + 1e-16 * rng.choice([-1.0, 1.0], x.size)) for x in (means, variances)]
        moved = tomography._fit_moments(phases, counts, *nudged)
        assert np.max(np.abs(moved[2:] - theta[2:])) < 1e-12 * np.max(np.abs(theta[2:]))


@pytest.mark.parametrize("seed", [5, 6])
def test_fit_ends_at_a_stationary_point(seed):
    stats = _group_moments(seed, n_per_phase=5000)
    lik = tomography._GroupedLikelihood(*stats)
    theta = tomography._fit_moments(*stats)
    grad, _ = lik.gradient_hessian(theta)
    start_grad, _ = lik.gradient_hessian(lik.start())
    # the gradient's scale: its terms are of order count / variance
    scale = float(np.sum(stats[1] / np.abs(lik.a @ theta[2:])))
    assert np.max(np.abs(grad)) <= 1e-12 * scale
    assert np.max(np.abs(grad)) < 1e-6 * np.max(np.abs(start_grad))


def _epr_pieces(n_frames=200, bandwidth=None, seed=0, dt=1e-9):
    # 50 ns quadrature alternation inside a 1000 ns window, vacuum outside
    lead, dur = 160, 1000
    n = lead + dur + lead
    k = np.arange(n)
    inside = (k >= lead) & (k < lead + dur)
    odd_segment = ((k - lead) // 50) % 2 == 1
    theta = np.where(inside & odd_segment, math.pi / 2.0, 0.0)
    r = np.where(inside, 0.312, 0.0)
    traj = SqueezerTrajectory(dt=dt, r=r, theta=theta, loss=0.183)
    det = DetectorModel(bandwidth=bandwidth, sample_rate=1.0 / dt)
    fs_x = synthesize(traj, det, 0.0, n_frames, seed=seed)
    fs_p = synthesize(traj, det, math.pi / 2.0, n_frames, seed=seed + 1)
    ref = vacuum(det, n, n_frames, seed=seed + 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t_c = (lead + dur / 2.0) * dt - dt / 2.0
        kw = dict(dt=dt, t_c=t_c, gamma=5e6, t_w=dur * dt, period=1e-7)
        g1 = make_mode("g1", **kw)
        g2 = make_mode("g2", **kw)
    return traj, det, fs_x, fs_p, ref, g1, g2


def _epr_analysis(fs_x, fs_p, g1, g2, ref, scan_halfwidth):
    """:func:`stream_epr_analysis` over slices of the three whole stacks."""
    x_blocks, p_blocks, vac_blocks = (blocks(frames) for frames in (fs_x, fs_p, ref))
    lags = tomography.epr_scan_lags(g1, g2, g1.dt, fs_x.shape[1], scan_halfwidth)
    return stream_epr_analysis(
        x_blocks, p_blocks, vac_blocks, len(fs_x), g1, g2,
        g1.dt, fs_x.shape[1], lags,
    )


def test_epr_analysis_reports_entanglement():
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=400)
    result = _epr_analysis(fs_x, fs_p, g1, g2, ref, scan_halfwidth=10e-9)
    assert result.duan < 4.0
    assert result.entangled
    assert result.duan_stderr > 0.0
    assert result.effective_db == pytest.approx(10.0 * math.log10(4.0 / result.duan), abs=1e-12)
    assert result.scan_offsets.size == result.scan_duan.size
    assert result.scan_duan.min() == pytest.approx(result.duan, abs=1e-12)
    # the scan grid brackets the nominal center
    assert result.scan_offsets[0] < 0.0 < result.scan_offsets[-1]


def test_epr_analysis_matches_prediction():
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=600, seed=5)
    result = _epr_analysis(fs_x, fs_p, g1, g2, ref, scan_halfwidth=5e-9)
    best = min(
        duan_prediction_scan(traj, det, g1.shifted(off), g2.shifted(off), [0.0])[0]
        for off in result.scan_offsets
    )
    assert abs(result.duan - best) <= 5.0 * result.duan_stderr


def test_epr_stderr_includes_reference_scale_noise():
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=400, seed=9)
    result = _epr_analysis(fs_x, fs_p, g1, g2, ref, scan_halfwidth=2e-9)
    # the scale term alone bounds the error from below
    assert result.duan_stderr >= result.duan / math.sqrt(len(ref) - 1)


def _dot_products(frames, mode, lags):
    """Each frame's integral against ``mode`` shifted by each lag, as plain dot products."""
    columns = []
    for k in lags:
        shifted = mode.shifted(int(k) * mode.dt)
        start = int(round(shifted.t0 / mode.dt))
        columns.append(frames[:, start : start + mode.n_samples] @ (mode.weights * mode.dt))
    return np.column_stack(columns)


def test_epr_scan_matches_the_projection_route():
    # the route the moments replaced: integrate every frame against every
    # shifted mode, divide by the vacuum scales, and take two-pass variances
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=300, bandwidth=200e6, seed=2)
    result = _epr_analysis(fs_x, fs_p, g1, g2, ref, scan_halfwidth=8e-9)
    lags = np.arange(-8, 9)
    scales = [math.sqrt(np.var(_dot_products(ref, g, [0])[:, 0], ddof=1)) for g in (g1, g2)]
    x1, x2, p1, p2 = (
        _dot_products(frames, g, lags) / s
        for frames in (fs_x, fs_p)
        for g, s in ((g1, scales[0]), (g2, scales[1]))
    )
    diff, total = x1 - x2, p1 + p2
    two_pass = np.var(diff, axis=0, ddof=1) + np.var(total, axis=0, ddof=1)
    np.testing.assert_allclose(result.scan_duan, two_pass, rtol=1e-12, atol=0.0)
    best = int(np.argmin(two_pass))
    per_split = [
        np.var(diff[sl, best], ddof=1) + np.var(total[sl, best], ddof=1)
        for sl in split_slices(300)
    ]
    se = math.hypot(np.std(per_split, ddof=1) / math.sqrt(10), two_pass[best] / math.sqrt(299))
    assert result.duan_stderr == pytest.approx(se, rel=1e-12, abs=0.0)


def test_epr_analysis_rejects_oversized_scan():
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=200)
    with pytest.raises(ValueError):
        _epr_analysis(fs_x, fs_p, g1, g2, ref, scan_halfwidth=500e-9)


@pytest.mark.parametrize("shift", [0.5e-9, 400e-9], ids=["off_grid", "off_record"])
def test_every_route_places_a_mode_with_one_message(shift):
    # the mode scan, the gate-scan lags and the prediction all place a mode
    # through TemporalMode.indices, so each refuses a bad mode alike
    dt, n = 1e-9, 256
    traj = SqueezerTrajectory(dt=dt, r=np.full(n, 0.3), theta=np.zeros(n), loss=0.1)
    det = DetectorModel(bandwidth=200e6, sample_rate=1.0 / dt)
    bad = make_mode("tf_mode", dt, t_c=128e-9 + shift, gamma=2.5e8, t_w=30e-9)
    good = make_mode("tf_mode", dt, t_c=64e-9, gamma=2.5e8, t_w=30e-9)
    routes = [
        lambda: ModeScan([bad, good], np.eye(2), [0], dt, n),
        lambda: tomography.epr_scan_lags(bad, good, dt, n, 0.0),
        lambda: duan_prediction_scan(traj, det, bad, good, [0.0]),
    ]
    messages = []
    for route in routes:
        with pytest.raises(ValueError) as err:
            route()
        messages.append(str(err.value))
    assert messages == [messages[0]] * 3
    assert ("between record samples" if shift < dt else "record window") in messages[0]


def test_duan_prediction_instantaneous_anchor():
    """Half-period quadrature alternation with an ideal chain recovers the
    balanced-splitter value 4 S."""
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=200)
    ideal = DetectorModel(bandwidth=None, sample_rate=det.sample_rate)
    r = 0.312
    s = variance_at_phase(r, 0.0, 0.183, 0.0)
    pred = duan_prediction_scan(traj, ideal, g1, g2, [0.0])[0]
    assert pred == pytest.approx(4.0 * s, rel=1e-6)


def test_duan_prediction_detector_filtering_degrades_value():
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(bandwidth=200e6)
    ideal = DetectorModel(bandwidth=None, sample_rate=det.sample_rate)
    filtered, unfiltered = (duan_prediction_scan(traj, d, g1, g2, [0.0])[0] for d in (det, ideal))
    assert filtered > unfiltered


@pytest.mark.parametrize("bandwidth", [None, 200e6])
def test_duan_prediction_scan_equals_per_offset_loop(bandwidth):
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=100, bandwidth=bandwidth)
    offsets = np.arange(-6, 7) * det.dt
    scan = duan_prediction_scan(traj, det, g1, g2, offsets)
    loop = [duan_prediction_scan(traj, det, g1.shifted(off), g2.shifted(off), [0.0])[0]
            for off in offsets]
    assert scan.shape == offsets.shape
    assert scan.tolist() == loop


@pytest.mark.parametrize("bandwidth", [None, 200e6, 2e6])
def test_duan_prediction_scan_over_several_offset_tiles_equals_per_offset_loop(bandwidth):
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=20, bandwidth=bandwidth)
    offsets = np.arange(-40, 41) * det.dt
    row = det.n_burn + traj.n_samples
    assert offsets.size > 2 * homodyne._tile_rows(row)
    scan = duan_prediction_scan(traj, det, g1, g2, offsets)
    loop = [duan_prediction_scan(traj, det, g1.shifted(off), g2.shifted(off), [0.0])[0]
            for off in offsets]
    assert scan.tolist() == loop


def test_duan_prediction_scan_memory_is_a_few_offset_tiles():
    # the epr_scan benchmark's geometry: 121 offsets over 1320-sample
    # records at 200 MHz; the whole (offsets, burn-in + samples) stack
    # peaked at 12.7 MB traced, tiles of 32 offsets at 2.0 MB
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=20, bandwidth=200e6)
    offsets = np.arange(-60, 61) * det.dt
    tracemalloc.start()
    try:
        duan_prediction_scan(traj, det, g1, g2, offsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, peak
