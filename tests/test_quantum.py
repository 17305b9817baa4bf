"""Covariance-level state model: variances, dB scales, loss, Duan sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzsim.dsp import split_moments, variance_ratio
from sqzsim.quantum import (
    GaussianState,
    N_SPLITS,
    db_from_variance,
    duan_from_moments,
    effective_squeezing_db,
    r_from_pure_db,
    split_slices,
    variance_at_phase,
)
from sqzsim.tomography import TomographyInput, ml_gaussian_tomography
from oracles import SqueezeParams, apply_loss, pure_db_from_r, squeezed_state, vacuum_state
from stack_slices import blocks, sample_moments

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
    assert db_from_variance(10.0 ** (db / 10.0)) == pytest.approx(db, abs=1e-9)


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
        u = np.array([math.cos(phi), math.sin(phi)])
        assert float(u @ state.cov @ u) == pytest.approx(want, abs=1e-12)


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


def test_unphysical_covariance_is_flagged():
    state = GaussianState(np.zeros(2), 0.5 * np.eye(2))
    assert not state.physical


def test_gaussian_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))


def _epr_covariance(r: float, loss: float) -> np.ndarray:
    """Two squeezed modes (x- and p-squeezed) mixed on a balanced splitter."""
    s = variance_at_phase(r, 0.0, loss, 0.0)
    a = variance_at_phase(r, 0.0, loss, math.pi / 2.0)
    cov_in = np.diag([s, a, a, s])
    h = 1.0 / math.sqrt(2.0)
    bs = np.block([[h * np.eye(2), h * np.eye(2)], [-h * np.eye(2), h * np.eye(2)]])
    return bs @ cov_in @ bs.T


def _duan_from_covariance(cov: np.ndarray) -> float:
    """Oracle: Var(x1 - x2) + Var(p1 + p2) of a covariance in (x1, p1, x2, p2) order."""
    return float(cov[0, 0] + cov[2, 2] - 2.0 * cov[0, 2] + cov[1, 1] + cov[3, 3] + 2.0 * cov[1, 3])


def _duan(x1, p1, x2, p2) -> tuple[np.ndarray, np.ndarray]:
    """The streamed Duan value and error of sample columns, over slices of the whole columns."""
    n = len(x1)
    return duan_from_moments(split_moments(n, blocks(x1 - x2)), split_moments(n, blocks(p1 + p2)))


def test_duan_from_covariance_epr_anchor():
    cov = _epr_covariance(R_271, LOSS)
    duan = _duan_from_covariance(cov)
    assert duan == pytest.approx(2.4829834767536, abs=1e-12)
    assert duan == pytest.approx(4.0 * variance_at_phase(R_271, 0.0, LOSS, 0.0), abs=1e-12)


def test_duan_from_covariance_vacuum_is_four():
    assert _duan_from_covariance(np.eye(4)) == pytest.approx(4.0, abs=1e-12)


def test_duan_from_moments_matches_covariance_route():
    rng = np.random.default_rng(7)
    n = 200000
    cov = _epr_covariance(R_271, LOSS)
    samples = rng.multivariate_normal(np.zeros(4), cov, size=n)
    value, stderr = _duan(samples[:, [0]], samples[:, [1]], samples[:, [2]], samples[:, [3]])
    want = _duan_from_covariance(cov)
    assert abs(value[0] - want) <= 5.0 * stderr[0]
    assert stderr[0] > 0.0
    assert value[0] < 4.0


def test_duan_from_moments_vacuum_sits_at_four():
    rng = np.random.default_rng(11)
    q = rng.standard_normal((4, 50000, 1))
    value, stderr = _duan(*q)
    assert abs(value[0] - 4.0) <= 5.0 * stderr[0]


def test_split_errors_share_one_subset_convention():
    # 1013 = 10 * 101 + 3 samples: split_slices spreads the 3 extra samples
    # where np.array_split would put them in the first three subsets, and
    # every subset keeps the 100 samples the Duan statistic needs
    n = 1013
    slices = split_slices(n)
    sizes = [sl.stop - sl.start for sl in slices]
    assert sizes == [101, 101, 101, 102, 101, 101, 102, 101, 101, 102]
    rng = np.random.default_rng(13)

    def split_stderr(per_split):
        return np.std(per_split, axis=0, ddof=1) / math.sqrt(len(slices))

    q = rng.standard_normal((4, n, 1)) * np.array([[[0.6]], [[1.5]], [[0.7]], [[1.3]]])
    diff, total = q[0] - q[2], q[1] + q[3]
    want = split_stderr([np.var(diff[sl], ddof=1) + np.var(total[sl], ddof=1) for sl in slices])
    assert _duan(*q)[1][0] == pytest.approx(want, rel=1e-12)

    frames = rng.standard_normal((n, 8)) * np.linspace(0.5, 2.0, 8)
    ref_frames = rng.standard_normal((50, 8))
    shot = float(np.mean(np.var(ref_frames, axis=0, ddof=1)))
    want = split_stderr([np.var(frames[sl], axis=0, ddof=1) / shot for sl in slices])
    sig, ref = (split_moments(len(f), blocks(f)) for f in (frames, ref_frames))
    trace = variance_ratio(sig, ref)
    np.testing.assert_allclose(trace.stderr, want, rtol=1e-12, atol=0.0)

    phases = [0.0, math.pi / 4.0, math.pi / 2.0]
    samples = [rng.standard_normal(n) * s for s in (0.7, 1.0, 1.4)]
    res = ml_gaussian_tomography(TomographyInput(phases, [sample_moments(s) for s in samples]))
    fits = [
        ml_gaussian_tomography(TomographyInput(phases, [sample_moments(s[sl]) for s in samples]))
        for sl in slices
    ]
    want_mean = split_stderr([fit.state.mean for fit in fits])
    want_cov = split_stderr([fit.state.cov for fit in fits])
    np.testing.assert_allclose(res.mean_stderr, want_mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(res.cov_stderr, want_cov, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape", [(N_SPLITS,), (N_SPLITS, 3, 2)])
def test_split_stderr_is_the_split_scatter_over_root_n_splits(shape):
    # every 10-way split error of the package is this one expression
    from sqzsim.quantum import split_stderr

    per_split = np.random.default_rng(5).standard_normal(shape)
    want = per_split.std(axis=0, ddof=1) / math.sqrt(N_SPLITS)
    assert np.asarray(split_stderr(per_split)).tobytes() == np.asarray(want).tobytes()


# declared tolerance of the moments route against two-pass np.var
DUAN_RTOL = 1e-12


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("n", [100, 1013, 4800])
def test_duan_from_moments_holds_the_tolerance_against_two_pass_var(n, offset):
    # 4800 samples put two 256-sample blocks into every split; the offset
    # survives x1 - x2 and p1 + p2, where a one-pass sum of squares fails
    rng = np.random.default_rng(n)
    x1, p1, x2, p2 = rng.standard_normal((4, n, 5)) * np.linspace(0.5, 2.0, 5)
    x1 += offset
    p1 += offset
    value, value_stderr = _duan(x1, p1, x2, p2)
    diff, total = x1 - x2, p1 + p2
    want = np.var(diff, axis=0, ddof=1) + np.var(total, axis=0, ddof=1)
    per_split = [
        np.var(diff[sl], axis=0, ddof=1) + np.var(total[sl], axis=0, ddof=1)
        for sl in split_slices(n)
    ]
    stderr = np.std(per_split, axis=0, ddof=1) / math.sqrt(10)
    np.testing.assert_allclose(value, want, rtol=DUAN_RTOL, atol=0.0)
    np.testing.assert_allclose(value_stderr, stderr, rtol=DUAN_RTOL, atol=0.0)


def test_duan_from_moments_rejects_short_records():
    x = np.zeros((99, 1))
    with pytest.raises(ValueError, match="at least 100 samples"):
        _duan(x, x, x, x)


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
