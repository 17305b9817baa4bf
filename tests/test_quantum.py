"""Covariance-level state model: variances, dB scales, loss, Duan sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzsim.dsp import pointwise_variance
from sqzsim.homodyne import FrameSet
from sqzsim.quantum import (
    DuanResult,
    GaussianState,
    SqueezeParams,
    TwoModeGaussianState,
    apply_loss,
    db_from_variance,
    duan_from_covariance,
    duan_value,
    effective_squeezing_db,
    pure_db_from_r,
    r_from_pure_db,
    split_slices,
    squeezed_state,
    vacuum_state,
    variance_at_phase,
    variance_from_db,
)
from sqzsim.tomography import ml_gaussian_tomography

R_271 = 0.3120002801006932  # r for a 2.71 dB lossless squeezing level
LOSS = 0.183


def test_r_from_pure_db_anchor():
    assert r_from_pure_db(2.71) == pytest.approx(R_271, abs=1e-15)


def test_pure_db_round_trip():
    assert pure_db_from_r(r_from_pure_db(2.71)) == pytest.approx(2.71, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=25.0))
def test_pure_db_round_trip_property(db):
    assert pure_db_from_r(r_from_pure_db(db)) == pytest.approx(db, abs=1e-9)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_db_variance_round_trip(db):
    assert db_from_variance(variance_from_db(db)) == pytest.approx(db, abs=1e-9)


def test_variance_anchor_squeezed():
    s = variance_at_phase(R_271, 0.0, LOSS, 0.0)
    assert s == pytest.approx(0.6207458691884, abs=1e-12)
    assert db_from_variance(s) == pytest.approx(-2.0708616181713997, abs=1e-12)


def test_variance_anchor_antisqueezed():
    a = variance_at_phase(R_271, 0.0, LOSS, math.pi / 2.0)
    assert a == pytest.approx(1.7078322074119252, abs=1e-12)
    assert db_from_variance(a) == pytest.approx(2.3244519950594054, abs=1e-12)


def test_vacuum_variance_is_one_for_any_loss():
    for loss in (0.0, 0.3, 0.9):
        assert variance_at_phase(0.0, 0.0, loss, 1.234) == pytest.approx(1.0, abs=1e-12)


def test_variance_at_phase_broadcasts():
    phi = np.linspace(0.0, 2.0 * math.pi, 17)
    v = variance_at_phase(0.4, 0.1, 0.05, phi)
    assert v.shape == phi.shape
    # pi-periodic in phi
    v2 = variance_at_phase(0.4, 0.1, 0.05, phi + math.pi)
    assert np.allclose(v, v2, atol=1e-12)


def test_variance_extremes_at_quadratures():
    phi = np.linspace(0.0, math.pi, 721)
    v = variance_at_phase(0.5, 0.3, 0.1, phi)
    lo = variance_at_phase(0.5, 0.3, 0.1, 0.3)
    hi = variance_at_phase(0.5, 0.3, 0.1, 0.3 + math.pi / 2.0)
    assert np.all(v >= lo - 1e-12)
    assert np.all(v <= hi + 1e-12)


def test_variance_validation():
    with pytest.raises(ValueError):
        variance_at_phase(-0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        variance_at_phase(0.1, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        r_from_pure_db(-0.5)
    with pytest.raises(ValueError):
        db_from_variance(0.0)


def test_squeeze_params_folds_theta():
    p = SqueezeParams(r=0.2, theta=math.pi + 0.25)
    assert p.theta == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        SqueezeParams(r=-1.0)
    with pytest.raises(ValueError):
        SqueezeParams(r=0.1, loss=1.0)


def test_vacuum_state_is_identity():
    v = vacuum_state()
    assert np.array_equal(v.cov, np.eye(2))
    assert v.physical


def test_squeezed_state_matches_variance_at_phase():
    r, theta, loss = 0.45, 0.7, 0.12
    state = squeezed_state(r, theta, loss)
    for phi in np.linspace(0.0, math.pi, 13):
        want = variance_at_phase(r, theta, loss, float(phi))
        assert state.quadrature_variance(float(phi)) == pytest.approx(want, abs=1e-12)


def test_lossless_squeezed_state_is_minimum_uncertainty():
    state = squeezed_state(0.8, 0.2)
    assert np.linalg.det(state.cov) == pytest.approx(1.0, abs=1e-12)
    assert state.physical


def test_apply_loss_composes():
    base = squeezed_state(0.6, 0.35)
    twice = apply_loss(apply_loss(base, 0.1), 0.07)
    combined = 1.0 - (1.0 - 0.1) * (1.0 - 0.07)
    direct = squeezed_state(0.6, 0.35, combined)
    assert np.allclose(twice.cov, direct.cov, atol=1e-12)


def test_apply_loss_scales_mean():
    state = GaussianState(np.array([2.0, -1.0]), np.eye(2))
    out = apply_loss(state, 0.19)
    assert np.allclose(out.mean, math.sqrt(0.81) * state.mean, atol=1e-12)


def test_rotated_frame_shifts_quadrature_phase():
    state = squeezed_state(0.5, 0.4, 0.05)
    a = 0.7
    rot = state.rotated(a)
    for phi in (0.0, 0.3, 1.1):
        assert rot.quadrature_variance(phi) == pytest.approx(
            state.quadrature_variance(phi + a), abs=1e-12
        )


def test_unphysical_covariance_is_flagged():
    state = GaussianState(np.zeros(2), 0.5 * np.eye(2))
    assert not state.physical


def test_gaussian_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_two_mode_reduction():
    cov = np.diag([0.5, 2.0, 3.0, 0.4])
    tm = TwoModeGaussianState(np.array([1.0, 2.0, 3.0, 4.0]), cov)
    m1 = tm.mode(0)
    assert np.allclose(m1.cov, np.diag([0.5, 2.0]))
    assert np.allclose(m1.mean, [1.0, 2.0])
    with pytest.raises(ValueError):
        tm.mode(2)


def _epr_covariance(r: float, loss: float) -> np.ndarray:
    """Two squeezed modes (x- and p-squeezed) mixed on a balanced splitter."""
    s = variance_at_phase(r, 0.0, loss, 0.0)
    a = variance_at_phase(r, 0.0, loss, math.pi / 2.0)
    cov_in = np.diag([s, a, a, s])
    h = 1.0 / math.sqrt(2.0)
    bs = np.block([[h * np.eye(2), h * np.eye(2)], [-h * np.eye(2), h * np.eye(2)]])
    return bs @ cov_in @ bs.T


def test_duan_from_covariance_epr_anchor():
    cov = _epr_covariance(R_271, LOSS)
    duan = duan_from_covariance(cov)
    assert duan == pytest.approx(2.4829834767536, abs=1e-12)
    assert duan == pytest.approx(4.0 * variance_at_phase(R_271, 0.0, LOSS, 0.0), abs=1e-12)


def test_duan_from_covariance_vacuum_is_four():
    assert duan_from_covariance(np.eye(4)) == pytest.approx(4.0, abs=1e-12)


def test_duan_value_matches_covariance_route():
    rng = np.random.default_rng(7)
    n = 200000
    cov = _epr_covariance(R_271, LOSS)
    samples = rng.multivariate_normal(np.zeros(4), cov, size=n)
    res = duan_value(samples[:, 0], samples[:, 1], samples[:, 2], samples[:, 3])
    assert isinstance(res, DuanResult)
    want = duan_from_covariance(cov)
    assert abs(res.value - want) <= 5.0 * res.stderr
    assert res.stderr > 0.0
    assert res.entangled


def test_duan_value_vacuum_sits_at_four():
    rng = np.random.default_rng(11)
    q = rng.standard_normal((4, 50000))
    res = duan_value(*q)
    assert abs(res.value - 4.0) <= 5.0 * res.stderr
    # the flag is the point comparison; significance is the caller's job
    assert res.entangled == (res.value < 4.0)


def test_duan_value_column_stacks_match_per_column_calls():
    rng = np.random.default_rng(3)
    # 1003 rows: the 10 split_slices subsets are unequal in size
    x1, p1, x2, p2 = rng.standard_normal((4, 1003, 7)) * np.linspace(0.5, 2.0, 7)
    res = duan_value(x1, p1, x2, p2)
    assert res.value.shape == res.stderr.shape == res.entangled.shape == (7,)
    for j in range(7):
        one = duan_value(x1[:, j], p1[:, j], x2[:, j], p2[:, j])
        assert isinstance(one.value, float) and isinstance(one.entangled, bool)
        assert res.value[j] == pytest.approx(one.value, rel=1e-12, abs=0.0)
        assert res.stderr[j] == pytest.approx(one.stderr, rel=1e-12, abs=0.0)
        assert bool(res.entangled[j]) == one.entangled
    with pytest.raises(ValueError, match="equal sample counts"):
        duan_value(x1, p1, x2[:, :6], p2)


def test_split_errors_share_one_subset_convention():
    # 1013 = 10 * 101 + 3 samples: split_slices spreads the 3 extra samples
    # where np.array_split would put them in the first three subsets, and
    # every subset keeps the 100 samples duan_value and PhaseGroup need
    n = 1013
    slices = split_slices(n)
    sizes = [sl.stop - sl.start for sl in slices]
    assert sizes == [101, 101, 101, 102, 101, 101, 102, 101, 101, 102]
    rng = np.random.default_rng(13)

    def split_stderr(per_split):
        return np.std(per_split, axis=0, ddof=1) / math.sqrt(len(slices))

    q = rng.standard_normal((4, n)) * np.array([[0.6], [1.5], [0.7], [1.3]])
    want = split_stderr([duan_value(*q[:, sl]).value for sl in slices])
    assert duan_value(*q).stderr == pytest.approx(want, rel=1e-12)

    frames = rng.standard_normal((n, 8)) * np.linspace(0.5, 2.0, 8)
    sig = FrameSet(1e-9, frames, np.zeros(n), "signal", -1)
    ref_frames = rng.standard_normal((50, 8))
    ref = FrameSet(1e-9, ref_frames, np.zeros(50), "vacuum_reference", -1)
    shot = float(np.mean(np.var(ref_frames, axis=0, ddof=1)))
    want = split_stderr([np.var(frames[sl], axis=0, ddof=1) / shot for sl in slices])
    np.testing.assert_allclose(pointwise_variance(sig, ref).stderr, want, rtol=1e-12, atol=0.0)

    phases = [0.0, math.pi / 4.0, math.pi / 2.0]
    samples = [rng.standard_normal(n) * s for s in (0.7, 1.0, 1.4)]
    res = ml_gaussian_tomography(list(zip(phases, samples)))
    fits = [ml_gaussian_tomography([(p, s[sl]) for p, s in zip(phases, samples)]) for sl in slices]
    want_mean = split_stderr([fit.state.mean for fit in fits])
    want_cov = split_stderr([fit.state.cov for fit in fits])
    np.testing.assert_allclose(res.mean_stderr, want_mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(res.cov_stderr, want_cov, rtol=1e-12, atol=0.0)


# declared tolerance of the moments route against two-pass np.var
DUAN_RTOL = 1e-12


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("n", [100, 1013, 4800])
def test_duan_value_holds_the_tolerance_against_two_pass_var(n, offset):
    # 4800 samples put two 256-sample blocks into every split; the offset
    # survives x1 - x2 and p1 + p2, where a one-pass sum of squares fails
    rng = np.random.default_rng(n)
    x1, p1, x2, p2 = rng.standard_normal((4, n, 5)) * np.linspace(0.5, 2.0, 5)
    x1 += offset
    p1 += offset
    res = duan_value(x1, p1, x2, p2)
    diff, total = x1 - x2, p1 + p2
    want = np.var(diff, axis=0, ddof=1) + np.var(total, axis=0, ddof=1)
    per_split = [
        np.var(diff[sl], axis=0, ddof=1) + np.var(total[sl], axis=0, ddof=1)
        for sl in split_slices(n)
    ]
    stderr = np.std(per_split, axis=0, ddof=1) / math.sqrt(10)
    np.testing.assert_allclose(res.value, want, rtol=DUAN_RTOL, atol=0.0)
    np.testing.assert_allclose(res.stderr, stderr, rtol=DUAN_RTOL, atol=0.0)
    one = duan_value(x1[:, 0], p1[:, 0], x2[:, 0], p2[:, 0])
    assert one.value == pytest.approx(want[0], rel=DUAN_RTOL, abs=0.0)


def test_duan_value_rejects_short_records():
    x = np.zeros(99)
    with pytest.raises(ValueError):
        duan_value(x, x, x, x)


def test_effective_squeezing_db_anchor():
    assert effective_squeezing_db(2.79) == pytest.approx(1.5645578805436484, abs=1e-12)
    assert effective_squeezing_db(4.0) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30)
@given(
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=0.9),
)
def test_loss_never_breaks_uncertainty_bound(r, theta, loss):
    state = squeezed_state(r, theta, loss)
    assert np.linalg.det(state.cov) >= 1.0 - 1e-9
