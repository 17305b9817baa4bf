"""State reconstruction and the two-mode inseparability analysis."""

import json
import math
import warnings

import numpy as np
import pytest

from sqzsim.dsp import make_mode, project, vacuum_quadrature_scales
from sqzsim.homodyne import DetectorModel, simulate_frames, simulate_vacuum_reference
from sqzsim.opa import SqueezerTrajectory
from sqzsim.quantum import split_slices, squeezed_state, variance_at_phase
from sqzsim.tomography import (
    PhaseGroup,
    TomographyInput,
    duan_prediction,
    duan_prediction_scan,
    ellipse_angle_difference_deg,
    ml_gaussian_tomography,
    stream_epr_analysis,
    wigner_ellipse,
)
from stack_slices import blocks


def test_wigner_ellipse_of_vacuum_is_unit_circle():
    from sqzsim.quantum import vacuum_state

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


def test_wigner_ellipse_level_rescales_axes():
    state = squeezed_state(0.4, 0.0)
    base = wigner_ellipse(state)
    tight = wigner_ellipse(state, level=math.exp(-2.0))
    # contour at level exp(-2) sits at 2 sigma
    assert tight.semi_axes[0] == pytest.approx(2.0 * math.exp(-0.4), abs=1e-12)
    assert base.semi_axes[0] == pytest.approx(math.exp(-0.4), abs=1e-12)
    with pytest.raises(ValueError):
        wigner_ellipse(state, level=1.5)


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
        groups.append((phi, mu + math.sqrt(v) * rng.standard_normal(n_per_phase)))
    return TomographyInput.from_arrays([p for p, _ in groups], [s for _, s in groups])


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


def test_tomography_accepts_phase_sample_pairs():
    data = [(k * math.pi / 6.0, np.random.default_rng(k).standard_normal(500)) for k in range(6)]
    result = ml_gaussian_tomography(data)
    assert result.state.cov.shape == (2, 2)
    assert len(result.phases) == 6


def test_tomography_projection_restores_physicality():
    # samples drawn below the vacuum floor in every quadrature
    rng = np.random.default_rng(1)
    phases = [k * math.pi / 8.0 for k in range(8)]
    samples = [0.9 * rng.standard_normal(3000) for _ in phases]
    free = ml_gaussian_tomography(TomographyInput.from_arrays(phases, samples))
    assert not free.state.physical
    assert not free.projected
    fixed = ml_gaussian_tomography(TomographyInput.from_arrays(phases, samples), project=True)
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
    s = rng.standard_normal(200)
    with pytest.raises(ValueError, match="distinct"):
        TomographyInput.from_arrays([0.0, math.pi, 0.1], [s, s, s])
    with pytest.raises(ValueError, match="span"):
        TomographyInput.from_arrays([0.0, 0.2, 0.4], [s, s, s])
    with pytest.raises(ValueError, match="one-to-one"):
        TomographyInput.from_arrays([0.0, 1.0], [s])
    with pytest.raises(ValueError, match="samples"):
        PhaseGroup(0.0, np.ones(3))


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
    fs_x = simulate_frames(traj, det, 0.0, n_frames, seed=seed)
    fs_p = simulate_frames(traj, det, math.pi / 2.0, n_frames, seed=seed + 1)
    ref = simulate_vacuum_reference(det, n, n_frames, seed=seed + 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t_c = (lead + dur / 2.0) * dt - dt / 2.0
        kw = dict(dt=dt, t_c=t_c, gamma=5e6, t_w=dur * dt, period=1e-7)
        g1 = make_mode("g1", **kw)
        g2 = make_mode("g2", **kw)
    return traj, det, fs_x, fs_p, ref, g1, g2


def _epr_analysis(fs_x, fs_p, g1, g2, ref, scan_halfwidth):
    """:func:`stream_epr_analysis` over slices of the three whole stacks."""
    x_blocks, p_blocks, vac_blocks = (blocks(fs.frames) for fs in (fs_x, fs_p, ref))
    return stream_epr_analysis(
        x_blocks, p_blocks, vac_blocks, fs_x.n_frames, ref.n_frames, g1, g2,
        fs_x.t0, fs_x.dt, fs_x.n_samples, scan_halfwidth,
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
        duan_prediction(traj, det, g1.shifted(off), g2.shifted(off))
        for off in result.scan_offsets
    )
    assert abs(result.duan - best) <= 5.0 * result.duan_stderr


def test_epr_stderr_includes_reference_scale_noise():
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=400, seed=9)
    result = _epr_analysis(fs_x, fs_p, g1, g2, ref, scan_halfwidth=2e-9)
    # the scale term alone bounds the error from below
    assert result.duan_stderr >= result.duan / math.sqrt(ref.n_frames - 1)


def test_epr_scan_matches_the_projection_route():
    # the route the moments replaced: project every shifted mode, divide
    # by the vacuum scales, and take two-pass variances
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=300, bandwidth=200e6, seed=2)
    result = _epr_analysis(fs_x, fs_p, g1, g2, ref, scan_halfwidth=8e-9)
    lags = np.arange(-8, 9)
    scales = vacuum_quadrature_scales(ref, [g1, g2])
    x1, x2, p1, p2 = (
        project(fs, [g.shifted(int(k) * det.dt) for k in lags]) / s
        for fs in (fs_x, fs_p)
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


def test_duan_prediction_instantaneous_anchor():
    """Half-period quadrature alternation with an ideal chain recovers the
    balanced-splitter value 4 S."""
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=200)
    ideal = DetectorModel(bandwidth=None, sample_rate=det.sample_rate)
    r = 0.312
    s = variance_at_phase(r, 0.0, 0.183, 0.0)
    pred = duan_prediction(traj, ideal, g1, g2)
    assert pred == pytest.approx(4.0 * s, rel=1e-6)


def test_duan_prediction_detector_filtering_degrades_value():
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(bandwidth=200e6)
    ideal = DetectorModel(bandwidth=None, sample_rate=det.sample_rate)
    assert duan_prediction(traj, det, g1, g2) > duan_prediction(traj, ideal, g1, g2)


@pytest.mark.parametrize("bandwidth", [None, 200e6])
def test_duan_prediction_scan_equals_per_offset_loop(bandwidth):
    traj, det, fs_x, fs_p, ref, g1, g2 = _epr_pieces(n_frames=100, bandwidth=bandwidth)
    offsets = np.arange(-6, 7) * det.dt
    scan = duan_prediction_scan(traj, det, g1, g2, offsets)
    loop = [duan_prediction(traj, det, g1.shifted(off), g2.shifted(off)) for off in offsets]
    assert scan.shape == offsets.shape
    assert scan.tolist() == loop
