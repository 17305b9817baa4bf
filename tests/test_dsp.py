"""Spectral estimation, variance traces, temporal modes, mode projection."""

import decimal
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.fft
from scipy import signal

from sqzsim import dsp, homodyne
from sqzsim.dsp import (
    SpectrumEstimate,
    band_average,
    estimate_pure_squeezing_and_loss,
    fir_taps,
    make_mode,
)
from sqzsim.homodyne import DetectorModel, block_bounds, iter_frame_chunks
from sqzsim.opa import constant_trajectory
from sqzsim.quantum import split_slices
from sqzsim.scenarios import ScenarioConfig, run_scenario
from oracles import mode_spectrum, overlap
from stack_slices import blocks, synthesize, vacuum

S_DB = -2.0708616181713997
A_DB = 2.3244519950594054


def test_spectrum_of_reference_against_itself_is_zero_db():
    det = DetectorModel()
    ref = vacuum(det, 256, 400, seed=0)
    vac = dsp.periodogram_split_means(400, blocks(ref))
    spec = dsp.spectrum_ratio(vac, vac, 256, det.dt)
    assert np.allclose(spec.level_db, 0.0, atol=1e-12)
    assert np.allclose(spec.stderr_db, 0.0, atol=1e-12)


def test_vacuum_spectrum_is_flat_at_zero_db():
    det = DetectorModel()
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=512)
    sig = synthesize(traj, det, 0.0, 600, seed=1)
    ref = vacuum(det, 512, 600, seed=2)
    spec = dsp.spectrum_ratio(
        dsp.periodogram_split_means(600, blocks(sig)),
        dsp.periodogram_split_means(600, blocks(ref)),
        512,
        det.dt,
    )
    level, stderr = band_average(spec, 1e6, 100e6)
    assert abs(level) <= 5.0 * stderr
    assert stderr < 0.1


def test_squeezed_spectrum_band_levels():
    det = DetectorModel()
    traj = constant_trajectory(0.3120002801006932, 0.0, 0.183, dt=1e-9, n_samples=1024)
    sig = synthesize(traj, det, 0.0, 800, seed=3)
    anti = synthesize(traj, det, math.pi / 2.0, 800, seed=4)
    ref = vacuum(det, 1024, 800, seed=5)
    vac = dsp.periodogram_split_means(800, blocks(ref))

    def band(frames):
        split_means = dsp.periodogram_split_means(800, blocks(frames))
        return band_average(dsp.spectrum_ratio(split_means, vac, 1024, det.dt))

    s_level, s_err = band(sig)
    a_level, a_err = band(anti)
    assert abs(s_level - S_DB) <= 5.0 * s_err
    assert abs(a_level - A_DB) <= 5.0 * a_err


def _split_means_loop(frames):
    """Reference: the periodogram split means as one loop over a whole stack.

    Each block is transformed by SciPy in float64, the route of
    :func:`dsp.periodogram_split_means` for records of any dtype.
    """
    n_frames, n_samples = frames.shape
    sums = np.zeros((10, n_samples // 2 + 1))
    edges = np.linspace(0, n_frames, 11).astype(int)
    for s_idx, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        for lo in range(a, b, 256):
            spec = scipy.fft.rfft(frames[lo : min(lo + 256, b)].astype(np.float64), axis=1)
            p = np.square(spec.real, dtype=np.float64)
            p += np.square(spec.imag, dtype=np.float64)
            sums[s_idx] += p.sum(axis=0)
    return sums / np.diff(edges).astype(float)[:, None]


@pytest.mark.parametrize("n_frames", [10, 37, 999, 3001])
def test_streamed_split_means_equal_the_whole_stack_loop(n_frames):
    # 37 and 999 frames give splits shorter than one 256-frame rfft
    # block, 3001 gives splits of 300 frames; none is a multiple of 10
    traj = constant_trajectory(0.3, 0.0, 0.1, dt=1e-9, n_samples=33)
    det = DetectorModel()
    frames = synthesize(traj, det, 0.0, n_frames, seed=2)
    want = _split_means_loop(frames)
    blocks = iter_frame_chunks(traj, det, 0.0, 2, range(n_frames))
    assert dsp.periodogram_split_means(n_frames, blocks).tobytes() == want.tobytes()
    sliced = (frames[lo:hi] for _, lo, hi in block_bounds(n_frames))
    assert dsp.periodogram_split_means(n_frames, sliced).tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_samples", [33, 64, 4096])
def test_periodogram_is_scipy_rfft_of_the_float64_cast(n_samples, dtype):
    # 37 frames: a first block of 3 rows, then blocks of 4 in reused buffers
    frames = np.random.default_rng(n_samples).standard_normal((37, n_samples)).astype(dtype)
    got = dsp.periodogram_split_means(37, blocks(frames))
    assert got.tobytes() == _split_means_loop(frames).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_multi_tile_periodogram_blocks_equal_the_whole_stack_loop(dtype):
    # 1000 frames: splits of 100 frames, each block at least 3 whole tiles and a partial one
    frames = np.random.default_rng(9).standard_normal((1000, 4096)).astype(dtype)
    assert max(hi - lo for _, lo, hi in block_bounds(1000)) > 3 * homodyne._TILE_ROWS
    got = dsp.periodogram_split_means(1000, blocks(frames))
    assert got.tobytes() == _split_means_loop(frames).tobytes()


def test_next_fast_len_is_scipy_next_fast_len():
    sizes = range(1, 2**17 + 1)
    want = [scipy.fft.next_fast_len(n, True) for n in sizes]
    assert [dsp._next_fast_len(n) for n in sizes] == want


def test_periodogram_blocks_stay_inside_splits():
    bounds = list(block_bounds(3001))
    # (split, start, stop): the first split of 300 frames is cut at 256
    assert bounds[:2] == [(0, 0, 256), (0, 256, 300)] and bounds[-1] == (9, 2956, 3001)
    assert all(a[2] == b[1] for a, b in zip(bounds[:-1], bounds[1:]))


def test_streamed_spectrum_equals_whole_stack_spectrum():
    det = DetectorModel()
    traj = constant_trajectory(0.3, 0.0, 0.1, dt=1e-9, n_samples=128)
    vac_traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=128)
    frames = synthesize(traj, det, 0.5, 61, seed=3)
    ref = vacuum(det, 128, 61, seed=4)
    sig_blocks = iter_frame_chunks(traj, det, 0.5, 3, range(61))
    vac_blocks = iter_frame_chunks(vac_traj, det, 0.0, 4, range(61))
    sig = dsp.periodogram_split_means(61, sig_blocks)
    vac = dsp.periodogram_split_means(61, vac_blocks)
    got = dsp.spectrum_ratio(sig, vac, 128, det.dt)
    want = dsp.spectrum_ratio(
        _split_means_loop(frames), _split_means_loop(ref), 128, det.dt
    )
    assert got.freqs[0] == 0.0
    for name in ("freqs", "level_db", "stderr_db"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_periodogram_reducer_validation():
    frames = np.zeros((12, 8))
    with pytest.raises(ValueError, match="at least 10 frames"):
        block_bounds(9)
    with pytest.raises(ValueError, match="block of frames"):
        dsp.periodogram_split_means(12, [frames[:1]] * 9)
    with pytest.raises(ValueError, match="block of frames"):
        dsp.periodogram_split_means(12, [frames[:1]] * 10 + [frames[:1]])
    with pytest.raises(ValueError, match="more blocks"):
        blocks = [frames[lo:hi] for _, lo, hi in block_bounds(12)]
        dsp.periodogram_split_means(12, blocks * 2)


def test_band_average_validation():
    spec = SpectrumEstimate(
        freqs=np.array([0.0, 1e6, 2e6]),
        level_db=np.array([1.0, 2.0, 3.0]),
        stderr_db=np.array([0.1, 0.1, 0.1]),
    )
    level, stderr = band_average(spec, 0.5e6, 2.5e6)
    assert level == pytest.approx(2.5)
    assert stderr == pytest.approx(math.hypot(0.1, 0.1) / 2.0)
    with pytest.raises(ValueError):
        band_average(spec, 2e6, 1e6)
    with pytest.raises(ValueError):
        band_average(spec, 5e6, 6e6)


def test_loss_inversion_exact_anchor():
    est = estimate_pure_squeezing_and_loss(S_DB, A_DB)
    assert est.pure_db == pytest.approx(2.71, abs=1e-9)
    assert est.loss == pytest.approx(0.183, abs=1e-9)
    assert not est.low_confidence
    assert est.pure_db_stderr is None


def test_loss_inversion_propagates_errors():
    est = estimate_pure_squeezing_and_loss(S_DB, A_DB, 0.05, 0.05)
    assert est.pure_db_stderr is not None and est.pure_db_stderr > 0.0
    assert est.loss_stderr is not None and est.loss_stderr > 0.0


def _levels(r: float, loss: float) -> tuple[float, float]:
    """The squeezed and antisqueezed levels (dB) of squeezing r after loss."""
    s = (1.0 - loss) * math.exp(-2.0 * r) + loss
    a = (1.0 - loss) * math.exp(2.0 * r) + loss
    return 10.0 * math.log10(s), 10.0 * math.log10(a)


@pytest.mark.parametrize("r", [0.05, 0.312, 1.0])
def test_loss_inversion_of_lossless_pairs_with_errors(r):
    est = estimate_pure_squeezing_and_loss(*_levels(r, 0.0), 0.05, 0.05)
    assert est.pure_db == pytest.approx(20.0 * r / math.log(10.0), abs=1e-13)
    assert est.loss == pytest.approx(0.0, abs=1e-14)
    assert 0.0 < est.pure_db_stderr < math.inf
    assert 0.0 < est.loss_stderr < math.inf


def test_loss_inversion_grid():
    # the closed form round-trips to rounding
    for r in np.linspace(0.05, 1.0, 8):
        for loss in np.linspace(0.0, 0.5, 6):
            est = estimate_pure_squeezing_and_loss(*_levels(r, loss))
            assert abs(est.pure_db - 20.0 * r / math.log(10.0)) <= 1e-13
            assert abs(est.loss - loss) <= 1e-13


def test_loss_inversion_errors_match_a_high_precision_delta_method():
    # independent route: central differences of the closed form in
    # 60-digit decimal arithmetic, whose step and rounding errors sit far
    # below double precision
    ctx = decimal.Context(prec=60)
    ten, h = ctx.create_decimal(10), ctx.create_decimal("1e-25")

    def estimate(s_db, a_db):
        s, a = (ctx.power(ten, x / 10) for x in (s_db, a_db))
        pure_db = 10 * ctx.log10((a - 1) / (1 - s))
        return pure_db, (s * a - 1) / (s + a - 2)

    def slope(s_db, a_db, ds, da):
        up, down = estimate(s_db + ds, a_db + da), estimate(s_db - ds, a_db - da)
        return [(u - d) / (2 * h) for u, d in zip(up, down)]

    pairs = [(*_levels(r, loss), 0.07, 0.05) for r in (0.1, 0.5, 1.0) for loss in (0.05, 0.3)]
    pairs.append((-2.085261037312479, 2.3920069631463345, 0.0722098099, 0.0698753719))
    with decimal.localcontext(ctx):
        for s_db, a_db, s_se, a_se in pairs:
            est = estimate_pure_squeezing_and_loss(s_db, a_db, s_se, a_se)
            s_db, a_db, s_se, a_se = map(ctx.create_decimal, (s_db, a_db, s_se, a_se))
            d_s, d_a = slope(s_db, a_db, h, 0), slope(s_db, a_db, 0, h)
            for got, ds, da in zip((est.pure_db_stderr, est.loss_stderr), d_s, d_a):
                want = float((ds * ds * s_se**2 + da * da * a_se**2).sqrt())
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_loss_inversion_rejects_non_squeezed_input():
    with pytest.raises(ValueError, match="no squeezing"):
        estimate_pure_squeezing_and_loss(0.5, 2.0)
    with pytest.raises(ValueError, match="no squeezing"):
        estimate_pure_squeezing_and_loss(-0.5, -0.1)


def test_loss_inversion_vacuum_pair_is_low_confidence():
    # a hair below the pure-state boundary: reports the L = 0 fit
    est = estimate_pure_squeezing_and_loss(-1e-4, 1e-4)
    assert est.low_confidence
    assert abs(est.pure_db) <= 1e-3
    assert est.loss == 0.0
    # exactly shot noise on both sides
    est0 = estimate_pure_squeezing_and_loss(0.0, 0.0)
    assert est0.low_confidence
    assert est0.pure_db == 0.0
    assert est0.loss == 0.0


def test_loss_inversion_rejects_infeasible_pair():
    with pytest.raises(ValueError, match="infeasible"):
        estimate_pure_squeezing_and_loss(-3.0, 1.0)


def test_loss_inversion_errors_of_a_band_pair_at_the_loss_pole_are_infeasible():
    # S = 1 - 2^-20 and A = 1 + 2^-20 exactly: S A is inside the noise
    # band below 1 and S + A = 2, the pole of the loss gradient
    s_db, a_db = 10.0 * math.log10(1.0 - 2.0**-20), 10.0 * math.log10(1.0 + 2.0**-20)
    est = estimate_pure_squeezing_and_loss(s_db, a_db)
    assert est.low_confidence and est.loss == 0.0
    with pytest.raises(ValueError, match="infeasible"):
        estimate_pure_squeezing_and_loss(s_db, a_db, 0.01, 0.01)


def test_fir_taps_properties():
    h = fir_taps(1e-9)
    assert h.size == 255
    assert abs(h.sum() - 1.0) <= 1e-12
    assert np.allclose(h, h[::-1], atol=0.0)
    # two-sided noise bandwidth of the default design, frozen
    assert float(np.sum(h**2)) == pytest.approx(0.1969345272248921, rel=1e-9)
    with pytest.raises(ValueError):
        fir_taps(1e-9, taps=10)


@pytest.mark.parametrize("dt", [1e-9, 0.5e-9])
@pytest.mark.parametrize("taps, cutoff", [(255, 100e6), (31, 1e6), (1001, 330e6), (3, 100e6)])
def test_fir_taps_are_scipy_firwin_byte_for_byte(taps, cutoff, dt):
    h = fir_taps(dt, taps=taps, cutoff=cutoff)
    assert h.dtype == np.float64
    assert h.tobytes() == signal.firwin(taps, cutoff, fs=1.0 / dt).tobytes()


def test_fir_filter_compensates_group_delay():
    n = 2048
    t = np.arange(n) * 1e-9
    bump = np.exp(-0.5 * ((t - 1000e-9) / 40e-9) ** 2)
    out = dsp.fir_filter(bump[None, :].repeat(12, axis=0), fir_taps(1e-9))
    # the valid output's sample j is centred on frame sample j + 127
    assert abs(int(np.argmax(out[0])) + 127 - int(np.argmax(bump))) <= 1
    assert out[0].max() == pytest.approx(bump.max(), rel=1e-3)


def test_fir_filter_suppresses_out_of_band_tone():
    n = 4096
    t = np.arange(n) * 1e-9
    tone = np.cos(2.0 * math.pi * 300e6 * t)
    out = dsp.fir_filter(tone[None, :].repeat(12, axis=0), fir_taps(1e-9, cutoff=100e6))
    # every tap covers every valid sample, so no edge transient is left
    assert float(np.abs(out[0]).max()) < 0.01


@pytest.mark.parametrize(
    "n_frames, n_samples, taps, cutoff",
    [(40, 1300, 255, 100e6), (1, 1300, 255, 100e6), (7, 1301, 255, 100e6),
     (5, 255, 255, 100e6), (9, 640, 101, 50e6), (3, 17, 3, 300e6)],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fir_filter_equals_fftconvolve_bytes(n_frames, n_samples, taps, cutoff, dtype):
    frames = np.random.default_rng(n_samples).standard_normal((n_frames, n_samples)).astype(dtype)
    h = fir_taps(1e-9, taps=taps, cutoff=cutoff)
    want = signal.fftconvolve(np.asarray(frames, float), h[None, :], mode="valid", axes=1)
    got = dsp.fir_filter(frames, h)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_fir_filter_rejects_frames_shorter_than_the_taps():
    with pytest.raises(ValueError, match="shorter than the 255 taps"):
        dsp.fir_filter(np.zeros((5, 254)), fir_taps(1e-9))


def _variance_trace(sig, ref):
    """The streamed variance trace over slices of two whole stacks."""
    moments = [dsp.split_moments(len(frames), blocks(frames)) for frames in (sig, ref)]
    return dsp.variance_ratio(*moments)


def test_variance_ratio_of_vacuum_is_flat_unity():
    det = DetectorModel()
    sig = vacuum(det, 300, 2000, seed=6)
    ref = vacuum(det, 300, 2000, seed=7)
    trace = _variance_trace(sig, ref)
    assert trace.variance.mean() == pytest.approx(1.0, abs=0.05)
    assert np.all(np.abs(trace.variance - 1.0) <= 6.0 * np.maximum(trace.stderr, 0.01))


@pytest.mark.parametrize("n_frames", [13, 19])
def test_split_moments_need_two_frames_per_split(n_frames):
    det = DetectorModel()
    sig = vacuum(det, 40, n_frames, seed=3)
    ref = vacuum(det, 40, 20, seed=4)
    with pytest.raises(ValueError, match="n_frames"):
        _variance_trace(sig, ref)


def test_variance_ratio_stderr_is_finite_at_twenty_frames():
    det = DetectorModel()
    sig = vacuum(det, 40, 20, seed=3)
    ref = vacuum(det, 40, 20, seed=4)
    trace = _variance_trace(sig, ref)
    assert np.all(np.isfinite(trace.stderr)) and np.all(trace.stderr > 0.0)


def test_variance_trace_csv_includes_extra_columns(tmp_path):
    # the waveforms scenario writes each VarianceTrace with its quasi-static target
    run = run_scenario(ScenarioConfig("waveforms", seed=1, n_frames=20, output_dir=str(tmp_path)))
    lines = (tmp_path / "square_variance.csv").read_text().splitlines()
    assert lines[:3] == [
        "# scenario=waveforms", "# seed=1", f"# config_sha256={run.manifest['config_sha256']}"
    ]
    header = lines[3].split(",")
    assert header == ["time_s", "variance", "stderr", "quasi_static_variance"]
    # the 1300-sample frames less the 127-sample FIR edge at each end
    assert len(lines) == 4 + 1300 - 2 * 127


# Declared tolerance of the streamed variance reduction: the Chan merge of
# block moments reorders the sums of the two-pass np.var
VARIANCE_RTOL = 1e-12

# 37 and 999 frames are not multiples of 10; 4800 frames put two
# 256-frame blocks into every split, so blocks merge inside a split
STREAM_FRAME_COUNTS = [20, 37, 999, 4800]


# 4096-sample frames put 15 rows in a tile instead of 32; 4800 of them
# would hold about 0.6 GB of stacks and FFT buffers, so they stop at 999
FIR_BLOCK_SHAPES = [(n, s) for n in STREAM_FRAME_COUNTS for s in (64, 65)]
FIR_BLOCK_SHAPES += [(n, 4096) for n in (20, 37, 999)]


@pytest.mark.parametrize("n_frames, n_samples", FIR_BLOCK_SHAPES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fir_filter_blocks_equal_whole_stack_rows(dtype, n_frames, n_samples):
    frames = np.random.default_rng(n_frames).standard_normal((n_frames, n_samples)).astype(dtype)
    h = fir_taps(1e-9, taps=31, cutoff=100e6)
    whole = dsp.fir_filter(frames, h)
    # the whole stack in one fftconvolve call gives the same bytes
    want = signal.fftconvolve(np.asarray(frames, float), h[None, :], mode="valid", axes=1)
    assert whole.tobytes() == want.tobytes()
    for _, lo, hi in block_bounds(n_frames):
        block = dsp.fir_filter(frames[lo:hi], h)
        assert block.dtype == whole.dtype
        assert block.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


def _two_pass(frames, ref_frames):
    """Reference: the per-sample variances by np.var over whole stacks."""
    frames = np.asarray(frames, dtype=float)
    shot = float(np.mean(np.var(np.asarray(ref_frames, dtype=float), axis=0, ddof=1)))
    per_split = np.stack([np.var(frames[sl], axis=0, ddof=1) for sl in split_slices(len(frames))])
    return np.var(frames, axis=0, ddof=1), per_split, shot


@pytest.mark.parametrize("n_frames", STREAM_FRAME_COUNTS)
def test_streamed_split_moments_match_two_pass_variance(n_frames):
    det = DetectorModel()
    traj = constant_trajectory(0.4, 0.3, 0.1, dt=det.dt, n_samples=48)
    vac_traj = constant_trajectory(0.0, 0.0, 0.0, dt=det.dt, n_samples=48)
    sig = dsp.split_moments(n_frames, iter_frame_chunks(traj, det, 0.2, 5, range(n_frames)))
    vac = dsp.split_moments(n_frames, iter_frame_chunks(vac_traj, det, 0.0, 6, range(n_frames)))
    frames = synthesize(traj, det, 0.2, n_frames, seed=5)
    ref = vacuum(det, 48, n_frames, seed=6)
    var, per_split, shot = _two_pass(frames, ref)

    assert sig.count.tolist() == [sl.stop - sl.start for sl in split_slices(n_frames)]
    np.testing.assert_allclose(sig.variance(), var, rtol=VARIANCE_RTOL, atol=0.0)
    np.testing.assert_allclose(sig.split_variances(), per_split, rtol=VARIANCE_RTOL, atol=0.0)
    assert float(np.mean(vac.variance())) == pytest.approx(shot, rel=VARIANCE_RTOL, abs=0.0)

    trace = dsp.variance_ratio(sig, vac)
    stderr = (per_split / shot).std(axis=0, ddof=1) / math.sqrt(10)
    np.testing.assert_allclose(trace.variance, var / shot, rtol=VARIANCE_RTOL, atol=0.0)
    np.testing.assert_allclose(trace.stderr, stderr, rtol=VARIANCE_RTOL, atol=0.0)


@pytest.mark.parametrize("n_frames", [20, 999, 4800])
def test_split_moments_hold_the_tolerance_off_zero_mean(n_frames):
    # a large common offset is where a one-pass sum of squares would fail
    rng = np.random.default_rng(n_frames)
    frames = 1e3 + rng.standard_normal((n_frames, 16)) * np.linspace(0.5, 2.0, 16)
    blocks = (frames[lo:hi] for _, lo, hi in block_bounds(n_frames))
    got = dsp.split_moments(n_frames, blocks)
    var, per_split, _ = _two_pass(frames, frames)
    np.testing.assert_allclose(got.variance(), var, rtol=VARIANCE_RTOL, atol=0.0)
    np.testing.assert_allclose(got.split_variances(), per_split, rtol=VARIANCE_RTOL, atol=0.0)


@pytest.mark.parametrize("n_samples, n_frames", [(64, 700), (4160, 400)])
def test_one_block_split_m2_is_the_whole_block_sum(n_samples, n_frames):
    # splits of 70 and 40 frames, one block each, over 32- and 15-row
    # tiles: the tiled squared deviations add in the order of one sum
    # over the whole float64 block
    assert all(sl.stop - sl.start <= homodyne._BLOCK_ROWS for sl in split_slices(n_frames))
    frames = 3.0 + np.random.default_rng(n_samples).standard_normal((n_frames, n_samples))
    frames = frames.astype(np.float32)
    got = dsp.split_moments(n_frames, blocks(frames))
    for s_idx, sl in enumerate(split_slices(n_frames)):
        x = frames[sl].astype(np.float64)
        want = np.sum(np.square(x - x.mean(0)), axis=0)
        assert got.m2[s_idx].tobytes() == want.tobytes(), s_idx


def test_split_moments_validation():
    frames = np.zeros((24, 8))
    blocks = [frames[lo:hi] for _, lo, hi in block_bounds(24)]
    with pytest.raises(ValueError, match="n_frames >= 20"):
        dsp.split_moments(19, (frames[lo:hi] for _, lo, hi in block_bounds(19)))
    with pytest.raises(ValueError, match="block of frames"):
        dsp.split_moments(24, blocks[:-1])
    with pytest.raises(ValueError, match="block of frames"):
        dsp.split_moments(24, blocks[:3] + [frames[:5]] + blocks[4:])
    with pytest.raises(ValueError, match="more blocks"):
        dsp.split_moments(24, blocks + blocks[:1])
    assert dsp.split_moments(24, blocks).count.sum() == 24


def _one_at_a_time(arrays):
    """Yield ``arrays`` in turn, asserting that each is dead before the next is asked for."""
    arrays = iter(arrays)
    held = None
    while True:
        if held is not None and held() is not None:
            pytest.fail("a block is still held as the next is asked for")
        array = next(arrays, None)
        if array is None:
            return
        held = weakref.ref(array)
        yield array
        del array


def _fresh_blocks(frames):
    """A fresh copy of each block of ``frames``, one at a time."""
    return _one_at_a_time(frames[lo:hi].copy() for _, lo, hi in block_bounds(len(frames)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stream_reducers_hold_one_block_at_a_time(dtype):
    # 2600 frames: a split of 260 frames is a block of 256 and one of 4
    frames, modes = _projection_pieces(2600, dtype=dtype)
    got = dsp.periodogram_split_means(2600, _fresh_blocks(frames))
    assert got.tobytes() == dsp.periodogram_split_means(2600, blocks(frames)).tobytes()
    got = dsp.split_moments(2600, _fresh_blocks(frames))
    want = dsp.split_moments(2600, blocks(frames))
    assert got.m2.tobytes() == want.m2.tobytes()
    # the scan drops each frame block, and the reducer each block of integrals
    scan = dsp.ModeScan(modes, np.eye(len(modes)), np.arange(-6, 7), DT, 160)
    got = dsp.split_moments(2600, _one_at_a_time(map(scan, _fresh_blocks(frames))))
    want = dsp.split_moments(2600, map(scan, blocks(frames)))
    assert got.m2.tobytes() == want.m2.tobytes()


def test_mode_normalization_all_families():
    for family, period in (("tf_mode", None), ("g1", 1e-7), ("g2", 1e-7)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mode = make_mode(family, 1e-9, t_c=5e-7, gamma=5e6, t_w=1e-6, period=period)
        assert float(np.sum(mode.weights**2) * mode.dt) == pytest.approx(1.0, abs=1e-12)


def test_sum_difference_modes_are_orthogonal():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kw = dict(dt=1e-9, t_c=5e-7, gamma=5e6, t_w=1e-6, period=1e-7)
        g1 = make_mode("g1", **kw)
        g2 = make_mode("g2", **kw)
    assert abs(overlap(g1, g2)) <= 1e-12
    # the gated halves (g1 -/+ g2)/sqrt(2) have disjoint support: |g1| = |g2|
    assert np.abs(g2.weights).tobytes() == g1.weights.tobytes()


def test_mode_frequency_separation_warning_threshold():
    with pytest.warns(UserWarning, match="separated"):
        make_mode("g1", 1e-9, t_c=5e-7, gamma=5e6, t_w=1e-6, period=1e-7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_mode("g1", 1e-9, t_c=5e-7, gamma=1e6, t_w=1e-6, period=1e-8)


def test_make_mode_validation():
    with pytest.raises(ValueError, match="family"):
        make_mode("g3", 1e-9, t_c=0.0, gamma=1e6, t_w=1e-6, period=1e-7)
    with pytest.raises(ValueError, match="period"):
        make_mode("g2", 1e-9, t_c=0.0, gamma=1e6, t_w=1e-6)
    with pytest.raises(ValueError):
        make_mode("tf_mode", 1e-9, t_c=0.0, gamma=1e6, t_w=2e-9)


def test_tf_mode_is_odd_about_center():
    mode = make_mode("tf_mode", 1e-9, t_c=100e-9, gamma=2.5e8, t_w=30e-9)
    w = mode.weights
    assert w.size % 2 == 1
    assert np.allclose(w, -w[::-1], atol=1e-15)
    assert w[w.size // 2] == 0.0


def test_mode_shift_moves_support():
    mode = make_mode("tf_mode", 1e-9, t_c=100e-9, gamma=2.5e8, t_w=30e-9)
    moved = mode.shifted(5e-9)
    assert moved.t0 == pytest.approx(mode.t0 + 5e-9)
    assert np.array_equal(moved.weights, mode.weights)


def test_mode_spectrum_energy_and_anchors():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g2 = make_mode("g2", 1e-9, t_c=5e-7, gamma=5e6, t_w=1e-6, period=1e-7)
    spec = mode_spectrum(g2)
    assert float(np.sum(spec.power)) == pytest.approx(1.0, abs=1e-9)
    assert spec.center_freq == pytest.approx(10e6, abs=0.2e6)
    assert spec.hwhm == pytest.approx(1.3e6, abs=0.1e6)
    assert spec.out_of_band_fraction(5e6) < 1e-6


def test_mode_spectrum_dc_mode():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g1 = make_mode("g1", 1e-9, t_c=5e-7, gamma=5e6, t_w=1e-6, period=1e-7)
    spec = mode_spectrum(g1)
    assert spec.center_freq == 0.0
    assert spec.out_of_band_fraction(5e6) < 1e-6


DT = 1e-9


def _quadratures(frames, modes):
    """Each frame's integral against each mode: one lag-0 scan, identity coefficients."""
    return dsp.ModeScan(modes, np.eye(len(modes)), [0], DT, frames.shape[1])(frames)


def _vacuum_scales(det, modes, n_samples, n_frames, seed):
    """The shot-noise unit of each mode, streamed from a vacuum reference."""
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=det.dt, n_samples=n_samples)
    ref_blocks = iter_frame_chunks(traj, det, 0.0, seed, range(n_frames))
    scan = dsp.ModeScan(modes, np.eye(len(modes)), [0], det.dt, n_samples)
    return np.sqrt(dsp.split_moments(n_frames, map(scan, ref_blocks)).variance())


def test_mode_scan_is_linear():
    rng = np.random.default_rng(0)
    f1 = rng.standard_normal(200)
    f2 = rng.standard_normal(200)
    mode = make_mode("tf_mode", DT, t_c=100e-9, gamma=2.5e8, t_w=30e-9)
    qa, qb, qc = (_quadratures(f[None, :], [mode])[0, 0] for f in (f1, f2, 2.0 * f1 + 3.0 * f2))
    assert qc == pytest.approx(2.0 * qa + 3.0 * qb, rel=1e-12)


def test_shot_noise_unit_normalizes_vacuum_to_unity():
    det = DetectorModel(bandwidth=None)
    mode = make_mode("tf_mode", DT, t_c=200e-9, gamma=2.5e8, t_w=30e-9)
    (scale,) = _vacuum_scales(det, [mode], 400, 3000, seed=8)
    q = _quadratures(vacuum(det, 400, 3000, seed=9), [mode])[:, 0] / scale
    v = float(np.var(q, ddof=1))
    # both the scale and the check set carry chi-squared noise
    assert abs(v - 1.0) <= 5.0 * math.sqrt(4.0 / (q.size - 1))


def test_mode_scan_rejects_misaligned_modes():
    frames = vacuum(DetectorModel(), 100, 5, seed=0)
    outside = make_mode("tf_mode", DT, t_c=300e-9, gamma=2.5e8, t_w=30e-9)
    with pytest.raises(ValueError, match="record"):
        _quadratures(frames, [outside])
    off_grid = make_mode("tf_mode", DT, t_c=50.4e-9, gamma=2.5e8, t_w=30e-9)
    with pytest.raises(ValueError, match="align"):
        _quadratures(frames, [off_grid])


def _projection_pieces(n_frames: int, dtype=np.float32):
    frames = vacuum(DetectorModel(bandwidth=None), 160, n_frames, seed=4).astype(dtype)
    # modes 0-2 overlap each other, mode 3 is disjoint from them
    modes = [
        make_mode("tf_mode", DT, t_c=t_c, gamma=2.5e8, t_w=30e-9)
        for t_c in (40e-9, 50e-9, 52e-9, 130e-9)
    ]
    return frames, modes


def _direct(frames, mode):
    """A mode's integral over every frame as a plain dot product; records start at 0."""
    start = int(round(mode.t0 / DT))
    block = np.asarray(frames[:, start : start + mode.n_samples], dtype=float)
    return block @ (mode.weights * mode.dt)


def test_mode_scan_matches_per_mode_dot_products():
    frames, modes = _projection_pieces(300)
    q = _quadratures(frames, modes)
    assert q.shape == (300, len(modes))
    direct = np.column_stack([_direct(frames, m) for m in modes])
    scale = np.abs(direct).max()
    assert np.max(np.abs(q - direct)) <= 1e-12 * scale
    # disjoint supports alone and in the other order give the same columns
    assert np.max(np.abs(_quadratures(frames, modes[::-1])[:, ::-1] - q)) <= 1e-12 * scale
    disjoint = _quadratures(frames, [modes[0], modes[3]])
    assert np.max(np.abs(disjoint - q[:, [0, 3]])) <= 1e-12 * scale


def test_mode_scan_blocks_do_not_change_the_result():
    frames, modes = _projection_pieces(53, dtype=np.float64)
    whole = _quadratures(frames, modes)
    # blocks of 7 frames, 53 = 7 * 7 + 4: each frame's integrals are its
    # own dot products, so the bytes do not depend on the block size
    chunked = np.concatenate([_quadratures(frames[lo : lo + 7], modes) for lo in range(0, 53, 7)])
    direct = np.column_stack([_direct(frames, m) for m in modes])
    assert chunked.tobytes() == whole.tobytes()
    assert np.max(np.abs(chunked - direct)) <= 1e-12 * np.abs(direct).max()


def test_mode_scan_single_frame():
    frames, modes = _projection_pieces(1)
    q = _quadratures(frames, modes)
    assert q.shape == (1, len(modes))
    for j, mode in enumerate(modes):
        assert q[0, j] == pytest.approx(float(_direct(frames, mode)[0]), rel=1e-12)


def test_mode_scan_rejects_bad_modes():
    frames, modes = _projection_pieces(5)
    outside = make_mode("tf_mode", DT, t_c=300e-9, gamma=2.5e8, t_w=30e-9)
    with pytest.raises(ValueError, match="record window"):
        _quadratures(frames, modes + [outside])
    off_grid = make_mode("tf_mode", DT, t_c=50.4e-9, gamma=2.5e8, t_w=30e-9)
    with pytest.raises(ValueError, match="align"):
        _quadratures(frames, [off_grid] + modes)
    with pytest.raises(ValueError, match="at least one mode"):
        _quadratures(frames, [])


def test_shot_noise_units_match_single_mode_units():
    det = DetectorModel(bandwidth=None)
    _, modes = _projection_pieces(1)
    scales = _vacuum_scales(det, modes, 160, 400, seed=6)
    single = [_vacuum_scales(det, [m], 160, 400, seed=6)[0] for m in modes]
    assert scales == pytest.approx(single, rel=1e-12)
    # the two-pass rms of each mode's quadrature over the same reference
    ref = vacuum(det, 160, 400, seed=6)
    two_pass = [math.sqrt(np.var(_direct(ref, m), ddof=1)) for m in modes]
    assert scales == pytest.approx(two_pass, rel=1e-12)


# 13 and 12 lags (odd and even scan widths), every fourth sample, and the
# one-lag case, which takes direct dot products instead of the FFT
SCAN_LAGS = [np.arange(-6, 7), np.arange(-6, 6), np.arange(-12, 13, 4), np.array([3])]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lags", SCAN_LAGS, ids=["odd", "even", "step4", "one"])
def test_mode_scan_matches_direct_dot_products_at_every_lag(lags, dtype):
    frames, modes = _projection_pieces(264, dtype=dtype)
    modes = [modes[0], modes[1], modes[3]]  # overlapping and disjoint supports
    coeffs = np.array([[0.7, -1.3, 0.4], [1.1, 0.2, -0.9]])
    scan = dsp.ModeScan(modes, coeffs, lags, DT, 160)
    # (frames, lags, modes): each shifted mode's plain dot products
    per_mode = np.stack(
        [np.column_stack([_direct(frames, m.shifted(int(k) * DT)) for m in modes]) for k in lags],
        axis=1,
    )
    want = np.einsum("fjm,km->fkj", per_mode, coeffs).reshape(len(frames), -1)
    # blocks of 1, 7 and 256 frames
    for lo, hi in [(0, 1), (1, 8), (8, 264)]:
        got = scan(frames[lo:hi])
        assert got.shape == (hi - lo, 2 * lags.size)
        scale = np.abs(want[lo:hi]).max(axis=0)
        assert np.all(np.abs(got - want[lo:hi]).max(axis=0) <= 1e-12 * scale), (lo, hi)


def _long_scan_pieces():
    """A wide scan over 3000-sample records, whose FFT tile does not divide 256 rows."""
    frames = vacuum(DetectorModel(bandwidth=None), 3000, 264, seed=5)
    modes = [make_mode("tf_mode", DT, t_c=t_c, gamma=2.5e8, t_w=30e-9) for t_c in (1400e-9, 1420e-9)]
    return frames, dsp.ModeScan(modes, [[0.7, -1.3], [1.1, 0.2]], np.arange(-1200, 1201, 100), DT, 3000)


def _short_scan_pieces():
    frames, modes = _projection_pieces(264)
    return frames, dsp.ModeScan(modes, np.eye(len(modes)), np.arange(-6, 7), DT, 160)


@pytest.mark.parametrize("pieces", [_short_scan_pieces, _long_scan_pieces], ids=["short", "long"])
def test_multi_lag_scan_rows_do_not_depend_on_the_block(pieces):
    frames, scan = pieces()
    tile = homodyne._tile_rows(scan.size)
    # the long scan's 256-row block spans more than two tiles and ends in a partial one
    assert pieces is _short_scan_pieces or (256 > 2 * tile and 256 % tile)
    alone = np.concatenate([scan(frames[k : k + 1]) for k in range(len(frames))])
    for lo, hi in [(0, 1), (1, 8), (8, 264)]:
        assert scan(frames[lo:hi]).tobytes() == alone[lo:hi].tobytes(), (lo, hi)


def test_mode_scan_validation():
    frames, modes = _projection_pieces(4)
    with pytest.raises(ValueError, match="lags"):
        dsp.ModeScan(modes, np.eye(4), [], DT, 160)
    with pytest.raises(ValueError, match="coeffs"):
        dsp.ModeScan(modes, np.eye(3), [0], DT, 160)
    # the first mode starts 26 samples after the record does, the last
    # ends 15 samples before it
    for lags in ([-27, 0], [0, 16]):
        with pytest.raises(ValueError, match="record window"):
            dsp.ModeScan(modes, np.eye(4), lags, DT, 160)
    scan = dsp.ModeScan(modes, np.eye(4), [-26, 15], DT, 160)
    with pytest.raises(ValueError, match="160-sample frames"):
        scan(frames[:, :-1])


def test_spectrum_estimate_csv(tmp_path):
    # the spectrum scenario writes each SpectrumEstimate as three columns
    cfg = ScenarioConfig(
        "spectrum", n_frames=20, output_dir=str(tmp_path), overrides={"n_samples": "1024"}
    )
    run = run_scenario(cfg)
    lines = (tmp_path / "squeezed_spectrum.csv").read_text().splitlines()
    assert lines[:3] == [
        "# scenario=spectrum", "# seed=0", f"# config_sha256={run.manifest['config_sha256']}"
    ]
    assert lines[3] == "freq_hz,level_db,stderr_db"
    rows = np.array([[float(v) for v in row.split(",")] for row in lines[4:]])
    # one row per rfft bin; %.17g gives the frequencies back exactly
    assert np.array_equal(rows[:, 0], np.fft.rfftfreq(1024, d=1e-9))
