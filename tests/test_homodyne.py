"""Homodyne record synthesis: detector model, determinism, streamed blocks."""

import json
import math
import os
import platform
import signal as os_signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import signal

import sqzsim
from sqzsim import homodyne
from sqzsim.homodyne import DetectorModel, _substream_states, block_bounds, iter_frame_chunks
from sqzsim.dsp import make_mode
from sqzsim.opa import SqueezerTrajectory, constant_trajectory
from sqzsim.quantum import variance_at_phase
from sqzsim.tomography import duan_prediction_scan
from stack_slices import synthesize, vacuum


def test_detector_filters_are_power_complementary():
    det = DetectorModel(bandwidth=200e6)
    b_lp, b_hp, a = det.filters()
    w = np.linspace(0.0, math.pi, 2048)
    _, h_lp = signal.freqz(b_lp, a, worN=w)
    _, h_hp = signal.freqz(b_hp, a, worN=w)
    total = np.abs(h_lp) ** 2 + np.abs(h_hp) ** 2
    assert np.allclose(total, 1.0, atol=1e-9)


def test_ideal_detector_has_no_filters():
    det = DetectorModel(bandwidth=None)
    assert det.filters() is None


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorModel(bandwidth=600e6, sample_rate=1e9)
    # only None means an ideal detector; NaN and +-inf are no bandwidth at all
    for bandwidth in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="bandwidth"):
            DetectorModel(bandwidth=bandwidth)


def test_simulation_is_seed_deterministic():
    traj = constant_trajectory(0.3, 0.0, 0.1, dt=1e-9, n_samples=256)
    det = DetectorModel()
    a = synthesize(traj, det, 0.0, 20, seed=42)
    b = synthesize(traj, det, 0.0, 20, seed=42)
    c = synthesize(traj, det, 0.0, 20, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_vacuum_reference_variance_is_unity():
    frames = vacuum(DetectorModel(), n_samples=512, n_frames=4000, seed=9)
    var = float(frames.var())
    # chi-squared spread of the pooled variance estimate
    assert abs(var - 1.0) <= 5.0 * math.sqrt(2.0 / frames.size) * 3.0


def test_ideal_detector_record_matches_analytic_variance():
    r, loss = 0.3120002801006932, 0.183
    traj = constant_trajectory(r, 0.0, loss, dt=1e-9, n_samples=400)
    frames = synthesize(traj, DetectorModel(bandwidth=None), 0.0, 3000, seed=4)
    want = variance_at_phase(r, 0.0, loss, 0.0)
    got = float(frames.var())
    se = want * math.sqrt(2.0 / frames.size)
    assert abs(got - want) <= 5.0 * se


def test_lo_phase_selects_quadrature():
    traj = constant_trajectory(0.5, 0.0, 0.0, dt=1e-9, n_samples=300)
    det = DetectorModel(bandwidth=None)
    squeezed = synthesize(traj, det, 0.0, 500, seed=1)
    anti = synthesize(traj, det, math.pi / 2.0, 500, seed=1)
    assert float(squeezed.var()) < float(anti.var())


def test_float32_output_dtype():
    traj = constant_trajectory(0.2, 0.0, 0.0, dt=1e-9, n_samples=64)
    blocks = list(iter_frame_chunks(traj, DetectorModel(), 0.0, 0, range(10)))
    assert [block.dtype for block in blocks] == [np.float32] * 10


def _oracle_frames(traj, det, lo, seed, start, stop):
    """Frames ``start:stop`` built one at a time, straight from the model.

    Frame k draws from PCG64 seeded by SeedSequence(seed, spawn_key=(k,)).
    An ideal detector scales its draws by the std template.  A filtered
    one whose variance template is one constant V != 1 draws one row
    over the burn-in and the record, filters it by ``lfilter(b, a)``
    with b the spectral factor of V, and keeps it after the burn-in.
    Any other filtered set (vacuum, or a varying template) draws two
    rows, scales the first by the std template, low-passes it,
    high-passes the second (the vacuum complement) and keeps the sum
    after the burn-in; the two filters are SciPy's, each with its own
    denominator.
    """
    template = det.record_variance(traj, lo)
    std = np.sqrt(template).astype(np.float32)
    n_burn = std.size - traj.n_samples
    constant = template[0] != 1.0 and np.all(template == template[0])
    rows = []
    for k in range(start, stop):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
        if det.filters() is None:
            row = gen.standard_normal(std.size, dtype=np.float32) * std
        elif constant:
            b_lp, b_hp, a = det.filters()
            b = homodyne._spectral_factor(float(template[0]), b_lp, b_hp)
            z = gen.standard_normal(std.size, dtype=np.float32)
            row = signal.lfilter(b, a, z.astype(np.float64))[n_burn:].astype(np.float32)
        else:
            b_lp, a_lp = signal.butter(2, det.bandwidth, fs=det.sample_rate)
            b_hp, a_hp = signal.butter(2, det.bandwidth, btype="high", fs=det.sample_rate)
            z = gen.standard_normal((2, std.size), dtype=np.float32)
            raw = (z[0] * std).astype(np.float64)
            total = signal.lfilter(b_lp, a_lp, raw) + signal.lfilter(b_hp, a_hp, z[1].astype(float))
            row = total[n_burn:].astype(np.float32)
        rows.append(row)
    return np.stack(rows)


def _ramp_trajectory(n_samples):
    """A trajectory whose squeezing and angle change along the frame."""
    t = np.arange(n_samples)
    return SqueezerTrajectory(dt=1e-9, r=0.4 * t / n_samples, theta=0.01 * t, loss=0.1)


def _trajectory(kind, n_samples):
    """A constant trajectory (one draw row per filtered frame) or a ramp (two)."""
    if kind == "ramp":
        return _ramp_trajectory(n_samples)
    return constant_trajectory(0.3, 0.2, 0.1, dt=1e-9, n_samples=n_samples)


# one fill of every frame, uneven fills, and one fill per frame
ORACLE_FILLS = [[(0, 53)], [(0, 3), (3, 17), (17, 53), (40, 41)], [(k, k + 1) for k in range(53)]]


@pytest.mark.parametrize(
    ("bandwidth", "constant"),
    [(None, False), (200e6, False), (200e6, True)],
    # the ramp draws two rows per filtered frame, the constant set one
    ids=["ideal", "200MHz", "200MHz-constant"],
)
def test_frame_chunks_equal_simulated_rows(bandwidth, constant):
    traj = _trajectory("constant" if constant else "ramp", 96)
    det = DetectorModel(bandwidth=bandwidth)
    want = _oracle_frames(traj, det, 0.7, 8, 0, 53)
    whole = np.concatenate(list(iter_frame_chunks(traj, det, 0.7, 8, range(53))))
    assert whole.dtype == want.dtype == np.float32
    if bandwidth is None:
        assert whole.tobytes() == want.tobytes()
    else:
        # the block kernel rounds otherwise than lfilter: 1 ulp at most
        ulp = np.spacing(np.maximum(np.abs(whole), np.abs(want)))
        assert np.all(np.abs(whole - want) <= ulp)
    # the streamed rows are byte-equal to the same rows filled in any blocks
    synth = homodyne._Synthesis(traj, det, 0.7, 8)
    for fills in ORACLE_FILLS:
        for lo, hi in fills:
            block = np.empty((hi - lo, 96), dtype=np.float32)
            synth.fill(block, lo)
            assert block.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


def test_filtered_vacuum_frames_keep_the_two_row_stream():
    # vacuum (V == 1 exactly) draws the low-pass row and its high-pass complement
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=96)
    det = DetectorModel()
    assert homodyne._Synthesis(traj, det, 0.0, 8).kernel.n_channels == 2
    want = _oracle_frames(traj, det, 0.0, 8, 0, 23)
    got = np.concatenate(list(iter_frame_chunks(traj, det, 0.0, 8, range(23))))
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert np.all(np.abs(got - want) <= ulp)


@pytest.mark.parametrize("sample_rate", [0.5e9, 1e9, 2e9, 1.0])
def test_butterworth_pair_is_scipy_butter_byte_for_byte(sample_rate):
    rng = np.random.default_rng(11)
    for bandwidth in rng.uniform(0.0, sample_rate / 2.0, 200):
        det = DetectorModel(bandwidth=float(bandwidth), sample_rate=sample_rate)
        b_lp, b_hp, a = det.filters()
        want_lp = signal.butter(2, bandwidth, btype="low", fs=sample_rate)
        want_hp = signal.butter(2, bandwidth, btype="high", fs=sample_rate)
        # the shared denominator is the low-pass one
        for g, w in ((b_lp, want_lp[0]), (a, want_lp[1]), (b_hp, want_hp[0])):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), bandwidth
        # SciPy's high-pass denominator differs from it by rounding: at most
        # 1 eps on these 800 bandwidths (2 eps at 20 MHz on 1 GS/s)
        assert np.abs(want_hp[1] - a).max() <= np.finfo(float).eps, bandwidth


# declared tolerance of the block kernel against lfilter, per unit record rms
KERNEL_TOLERANCE = 1e-12


# 512, 513 and 1025 samples are 16, 17 and 33 chunks: the carried start
# states (every chunk's but the first) fill one group less one state,
# exactly one group and exactly two groups
@pytest.mark.parametrize("n_samples", [5, 512, 513, 544, 1025, 1384, 4160, 16384])
@pytest.mark.parametrize("bandwidth", [2e6, 20e6, 200e6, 450e6])
def test_block_filter_matches_lfilter(bandwidth, n_samples):
    b_lp, b_hp, a = DetectorModel(bandwidth=bandwidth).filters()
    # the oracles are SciPy's two filters, each with its own denominator
    _, a_hp = signal.butter(2, bandwidth, btype="high", fs=1e9)
    x = np.random.default_rng(3).standard_normal((2, 6, n_samples))
    tol = KERNEL_TOLERANCE * float(np.sqrt(np.mean(x**2)))
    for b, a_ref in ((b_lp, a), (b_hp, a_hp)):
        kernel = homodyne._BlockFilter([b], a, n_samples)
        # forward, and backward as duan_prediction_scan runs it
        assert np.abs(kernel(x[0]) - signal.lfilter(b, a_ref, x[0], axis=1)).max() <= tol
        backward = kernel(x[0][:, ::-1])[:, ::-1]
        want = signal.lfilter(b, a_ref, x[0][:, ::-1], axis=1)[:, ::-1]
        assert np.abs(backward - want).max() <= tol
    # the synthesis pair: one record low-passed, the other high-passed
    pair = homodyne._BlockFilter([b_lp, b_hp], a, n_samples)
    want = signal.lfilter(b_lp, a, x[0], axis=1) + signal.lfilter(b_hp, a_hp, x[1], axis=1)
    assert np.abs(pair(x[0], x[1]) - want).max() <= tol


@pytest.mark.parametrize("n_samples", [513, 544, 4160])
def test_block_filter_rows_do_not_depend_on_the_block(n_samples):
    b_lp, b_hp, a = DetectorModel().filters()
    kernel = homodyne._BlockFilter([b_lp, b_hp], a, n_samples)
    x = np.random.default_rng(4).standard_normal((2, 400, n_samples))
    alone = np.concatenate([kernel(x[0, k : k + 1], x[1, k : k + 1]) for k in range(400)])
    for size in (1, 5, 7, 256, 385):
        for lo in (0, 400 - size):
            block = kernel(x[0, lo : lo + size], x[1, lo : lo + size])
            assert block.tobytes() == alone[lo : lo + size].tobytes(), (size, lo)


# the spectral factor over narrow to wide detectors and V from 0.01 to 100
FACTOR_BANDWIDTHS = [2e6, 20e6, 200e6, 450e6]
FACTOR_VARIANCES = [0.01, 0.1, 0.5, 0.999, 2.0, 10.0, 100.0]


@pytest.mark.parametrize("bandwidth", FACTOR_BANDWIDTHS)
def test_spectral_factor_reproduces_the_two_filter_spectrum(bandwidth):
    b_lp, b_hp, a = DetectorModel(bandwidth=bandwidth).filters()
    w = np.linspace(0.0, math.pi, 4097)
    _, h_lp = signal.freqz(b_lp, a, worN=w)
    _, h_hp = signal.freqz(b_hp, a, worN=w)
    for v in FACTOR_VARIANCES:
        b = homodyne._spectral_factor(v, b_lp, b_hp)
        _, h = signal.freqz(b, a, worN=w)
        _, numerator = signal.freqz(b, [1.0], worN=w)
        want = v * np.abs(h_lp) ** 2 + np.abs(h_hp) ** 2
        # 1e-12 relative, or the float64 floor where it is larger: rounding
        # b's three coefficients and their sum moves |b|^2 by up to
        # 2 eps sum|b_k| / |b| relative, 1.1e-10 at DC for 2 MHz and
        # V = 0.01, where |b(1)| = 1.6e-5 and sum|b_k| = 4
        floor = 2.0 * np.finfo(float).eps * np.abs(b).sum() / np.abs(numerator)
        tol = np.maximum(1e-12, floor) * want
        assert np.all(np.abs(np.abs(h) ** 2 - want) <= tol), v


@pytest.mark.parametrize("bandwidth", FACTOR_BANDWIDTHS)
def test_spectral_factor_is_minimum_phase(bandwidth):
    b_lp, b_hp, a = DetectorModel(bandwidth=bandwidth).filters()
    for v in FACTOR_VARIANCES:
        assert np.abs(np.roots(homodyne._spectral_factor(v, b_lp, b_hp))).max() < 1.0, v
    # vacuum's factor is the denominator: its record would be white
    assert np.abs(homodyne._spectral_factor(1.0, b_lp, b_hp) - a).max() <= 1e-14


@pytest.mark.parametrize("bandwidth", FACTOR_BANDWIDTHS)
def test_first_record_sample_of_a_constant_set_has_the_stationary_variance(bandwidth):
    det = DetectorModel(bandwidth=bandwidth)
    b_lp, b_hp, a = det.filters()
    n_burn = det.n_burn
    # impulse responses 20 burn-ins long, decayed far below float64 rounding
    impulse = np.zeros(20 * n_burn)
    impulse[0] = 1.0
    lp_energy = math.fsum(signal.lfilter(b_lp, a, impulse) ** 2)
    hp_energy = math.fsum(signal.lfilter(b_hp, a, impulse) ** 2)
    for v in FACTOR_VARIANCES:
        h = signal.lfilter(homodyne._spectral_factor(v, b_lp, b_hp), a, impulse)
        # record sample 0 is sample n_burn of a zero-state filter of white draws
        first = math.fsum(h[: n_burn + 1] ** 2)
        stationary = v * lp_energy + hp_energy
        assert abs(first - stationary) <= 1e-12 * stationary, v


def _filled(traj, det, start, n_rows, halves=False):
    """Frames [start, start + n_rows) of a run at LO phase 0.7, seed 8, in one block.

    With ``halves`` the block is split as a filtered stream splits it,
    a worker of its own filling the second half of the rows.
    """
    synth = homodyne._Synthesis(traj, det, 0.7, 8)
    rows = np.empty((n_rows, traj.n_samples), dtype=np.float32)
    if halves:
        with ThreadPoolExecutor(max_workers=1) as pool:
            homodyne._fill_halves(pool, synth, rows, start)
    else:
        synth.fill(rows, start)
    return rows


def _one_frame_blocks(traj, det, n_frames):
    """The frames of a run at LO phase 0.7, synthesized one frame per fill."""
    return np.concatenate([_filled(traj, det, k, 1) for k in range(n_frames)])


def _record_fills(monkeypatch):
    """Record the (start, rows, thread) of every fill."""
    fills = []
    fill = homodyne._Synthesis.fill

    def recorded(self, out, start):
        fills.append((start, out.shape[0], threading.current_thread()))
        fill(self, out, start)

    monkeypatch.setattr(homodyne._Synthesis, "fill", recorded)
    return fills


def _named(fills):
    """``fills`` sorted, with each thread named.

    This thread is "caller" and every other thread "worker i", numbered
    in the order of its first fill, so the workers of two streams get
    two names.  ``fills`` holds the threads themselves, so a later
    thread that reuses an ended one's id is not mistaken for it.
    """
    names = {threading.current_thread(): "caller"}
    for *_, thread in fills:
        names.setdefault(thread, f"worker {len(names) - 1}")
    return sorted((start, rows, names[thread]) for start, rows, thread in fills)


@pytest.mark.parametrize(
    ("bandwidth", "kind"),
    [(200e6, "ramp"), (200e6, "constant"), (None, "ramp")],
    ids=["200MHz", "200MHz-constant", "ideal"],
)
def test_fill_starts_no_worker_thread(monkeypatch, bandwidth, kind):
    # 300 frames, streamed in 30-row blocks, then filled in one call of
    # 300 rows on this thread alone
    traj = _trajectory(kind, 96)
    det = DetectorModel(bandwidth=bandwidth)
    streamed = np.concatenate(list(iter_frame_chunks(traj, det, 0.7, 8, range(300))))

    def no_pool(*args, **kwargs):
        raise AssertionError("a fill started a worker")

    monkeypatch.setattr(homodyne, "ThreadPoolExecutor", no_pool)
    assert _filled(traj, det, 0, 300).tobytes() == streamed.tobytes()


# the one-row and the two-row filtered synthesis
KINDS = ["constant", "ramp"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_rows", [3, 4, 5, 7, 255, 257])
def test_split_blocks_equal_one_frame_blocks(monkeypatch, kind, n_rows):
    traj = _trajectory(kind, 40)
    det = DetectorModel()
    n_rows_drawn = homodyne._Synthesis(traj, det, 0.7, 8).kernel.n_channels
    assert n_rows_drawn == (1 if kind == "constant" else 2)
    mid = n_rows // 2
    n_frames = 3 + n_rows
    ref = _one_frame_blocks(traj, det, n_frames)
    assert ref.dtype == np.float32

    fills = _record_fills(monkeypatch)
    # the rows from the first frame, and the same count three frames later
    first = _filled(traj, det, 0, n_rows, halves=True)
    block = _filled(traj, det, 3, n_rows, halves=True)
    assert first.tobytes() == ref[:n_rows].tobytes()
    assert block.tobytes() == ref[3:].tobytes()
    # each split block has a worker of its own
    want = [(0, mid, "caller"), (mid, n_rows - mid, "worker 0"),
            (3, mid, "caller"), (3 + mid, n_rows - mid, "worker 1")]
    assert _named(fills) == sorted(want)


@pytest.mark.parametrize("kind", KINDS)
def test_multi_tile_blocks_equal_one_frame_blocks(kind):
    # 189 rows of 4096-sample frames, whose tiles hold 15 rows: the whole
    # fill and each half span at least 6 tiles and end in a partial one
    n_rows = 6 * homodyne._TILE_ROWS - 3
    traj = _trajectory(kind, 4096)
    det = DetectorModel()
    ref = _one_frame_blocks(traj, det, n_rows + 2)
    for halves in (False, True):
        block = _filled(traj, det, 2, n_rows, halves)
        assert block.dtype == np.float32
        assert block.tobytes() == ref[2:].tobytes(), halves


def _consume_within_60_s(consume):
    runner = ThreadPoolExecutor(max_workers=1)
    try:
        # a hang fails here instead of blocking the suite
        runner.submit(consume).result(timeout=60)
    finally:
        runner.shutdown(wait=False)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_share_fault_surfaces_after_both_shares_end(monkeypatch, failing):
    events = []
    consumer = []
    fill = homodyne._Synthesis.fill

    def faulty(self, out, start):
        # the caller's share runs on the thread that consumes the stream
        share = "caller" if threading.current_thread() in consumer else "worker"
        if share != failing:
            # the other share is slow, so a caller that did not wait for
            # the worker would raise while the worker still writes
            time.sleep(0.2)
            fill(self, out, start)
            events.append(f"{share} done")
            return
        raise RuntimeError(f"planted fault in the {share} share")

    monkeypatch.setattr(homodyne._Synthesis, "fill", faulty)
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=32)
    # 40 frames: blocks of 4 rows, each split in two shares
    blocks = iter_frame_chunks(traj, DetectorModel(), 0.0, 0, range(40))

    def consume():
        consumer.append(threading.current_thread())
        with pytest.raises(RuntimeError, match=f"planted fault in the {failing} share"):
            next(blocks)
        events.append("raised")
        # the generator is finished: no further block is filled
        assert next(blocks, None) is None

    _consume_within_60_s(consume)
    time.sleep(0.3)
    healthy = "worker" if failing == "caller" else "caller"
    assert events == [f"{healthy} done", "raised"]


# uneven: splits of 4 and 5 frames; one-block: one full block per split;
# one-row: one frame per block; phase-edge: phase group 1 of a streamed
# run of 20-frame groups
STREAM_RANGES = pytest.mark.parametrize(
    "frames",
    [range(43), range(2560), range(10), range(20, 40)],
    ids=["uneven", "one-block", "one-row", "phase-edge"],
)


@STREAM_RANGES
def test_filtered_stream_splits_every_block_in_halves(monkeypatch, frames):
    traj = _ramp_trajectory(96)
    det = DetectorModel()
    want = synthesize(traj, det, 0.7, frames.stop, seed=8)
    fills = _record_fills(monkeypatch)
    blocks = iter_frame_chunks(traj, det, 0.7, 8, frames)
    bounds = [(frames.start + lo, frames.start + hi) for _, lo, hi in block_bounds(len(frames))]
    halves = []
    for (lo, hi), block in zip(bounds, blocks, strict=True):
        assert block.tobytes() == want[lo:hi].tobytes()
        mid = (hi - lo) // 2
        # a one-row block leaves the caller's half empty; the stream's
        # one worker fills every second half
        halves += [(lo, mid, "caller"), (lo + mid, hi - lo - mid, "worker 0")]
    assert _named(fills) == sorted(halves)


@STREAM_RANGES
def test_ideal_prefetched_blocks_equal_simulated_rows(monkeypatch, frames):
    traj = _ramp_trajectory(96)
    det = DetectorModel(bandwidth=None)
    want = _oracle_frames(traj, det, 0.7, 8, 0, frames.stop)
    fills = _record_fills(monkeypatch)
    blocks = iter_frame_chunks(traj, det, 0.7, 8, frames)
    bounds = [(frames.start + lo, frames.start + hi) for _, lo, hi in block_bounds(len(frames))]
    for (lo, hi), block in zip(bounds, blocks, strict=True):
        assert block.dtype == np.float32
        assert block.tobytes() == want[lo:hi].tobytes()
    threads = {start: name for start, _, name in _named(fills)}
    assert sorted(threads) == [lo for lo, _ in bounds]
    assert threads.pop(frames.start) == "caller"
    # every later block was filled on the stream's one worker
    assert set(threads.values()) == {"worker 0"}


def test_ideal_prefetch_fault_surfaces_at_its_block(monkeypatch):
    failed = threading.Event()
    starts = []
    fill = homodyne._Synthesis.fill
    # 24 frames: blocks of 2 or 3 frames
    second = list(block_bounds(24))[1][1]

    def faulty(self, out, start):
        starts.append(start)
        if start == second:
            failed.set()
            raise RuntimeError("planted fault in block 1")
        fill(self, out, start)

    monkeypatch.setattr(homodyne._Synthesis, "fill", faulty)
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=32)
    blocks = iter_frame_chunks(traj, DetectorModel(bandwidth=None), 0.0, 0, range(24))

    def consume():
        first = next(blocks)
        # block 1 has failed on the worker, yet block 0 came back whole
        assert failed.wait(30)
        assert first.shape == (second, 32) and np.all(np.isfinite(first))
        with pytest.raises(RuntimeError, match="planted fault in block 1"):
            next(blocks)
        # the generator is finished: no further block is filled
        assert next(blocks, None) is None

    _consume_within_60_s(consume)
    assert sorted(starts) == [0, second]


def test_closing_an_ideal_stream_waits_for_the_prefetched_fill(monkeypatch):
    events = []
    fill = homodyne._Synthesis.fill

    def slow(self, out, start):
        if start > 0:
            # a close that did not wait would return while this sleeps
            time.sleep(0.2)
        fill(self, out, start)
        events.append(f"filled {start}")

    monkeypatch.setattr(homodyne._Synthesis, "fill", slow)
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=32)
    blocks = iter_frame_chunks(traj, DetectorModel(bandwidth=None), 0.0, 0, range(24))
    second = list(block_bounds(24))[1][1]

    def consume():
        next(blocks)
        blocks.close()
        events.append("closed")

    _consume_within_60_s(consume)
    time.sleep(0.3)
    assert events == ["filled 0", f"filled {second}", "closed"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_worker():
    # the parent's worker thread does not exist in a forked child, so a
    # child that reused the parent's pool would wait for it forever
    traj = constant_trajectory(0.3, 0.0, 0.1, dt=1e-9, n_samples=64)

    def stream():
        return np.concatenate(list(iter_frame_chunks(traj, DetectorModel(), 0.0, 1, range(40))))

    want = stream()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = stream()
            code = 0 if got.tobytes() == want.tobytes() else 1
        finally:
            # the child never returns into the test runner
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, os_signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


# streams one stream of the case named by argv[1] and prints the names
# of the threads alive after it and not before, and before it and not after
_THREADS_AROUND_A_STREAM = """
import json, sys, threading
from sqzsim import homodyne
from sqzsim.homodyne import DetectorModel, iter_frame_chunks
from sqzsim.opa import constant_trajectory

case = sys.argv[1]
fill = homodyne._Synthesis.fill

def faulty(self, out, start):
    if start > 0:
        raise RuntimeError("planted fault")
    fill(self, out, start)

if case.endswith("fault"):
    homodyne._Synthesis.fill = faulty
traj = constant_trajectory(0.3, 0.0, 0.1, dt=1e-9, n_samples=64)
det = DetectorModel(bandwidth=None if case.startswith("ideal") else 200e6)
before = set(threading.enumerate())
blocks = iter_frame_chunks(traj, det, 0.0, 1, range(40))
if case == "ideal-closed":
    next(blocks)
    blocks.close()
else:
    try:
        for block in blocks:
            pass
    except RuntimeError:
        assert case.endswith("fault")
after = set(threading.enumerate())
print(json.dumps([sorted(t.name for t in after - before), sorted(t.name for t in before - after)]))
"""


@pytest.mark.parametrize("case", ["filtered", "ideal", "ideal-closed", "filtered-fault", "ideal-fault"])
def test_no_thread_outlives_a_stream(case):
    # a fresh interpreter, so that no thread an earlier stream left
    # alive hides one that this stream leaves
    env = dict(os.environ)
    src = str(Path(sqzsim.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _THREADS_AROUND_A_STREAM, case],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]


def test_frame_chunks_reject_bad_bounds(monkeypatch):
    def no_fill(self, out, start):
        raise AssertionError(f"a block at frame {start} was filled")

    # every range is checked before any block is filled
    monkeypatch.setattr(homodyne._Synthesis, "fill", no_fill)
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=16)
    bad = {
        "step-1 range": [range(0, 20, 2), range(-1, 20), range(2**32 - 20, 2**32 + 1), [(0, 10)]],
        "at least 10 frames": [range(5, 5), range(3, 12)],
    }
    for message, ranges in bad.items():
        for frames in ranges:
            for bandwidth in (None, 200e6):
                with pytest.raises(ValueError, match=message):
                    next(iter_frame_chunks(traj, DetectorModel(bandwidth), 0.0, 0, frames))


@pytest.mark.parametrize("bandwidth", [None, 200e6], ids=["ideal", "200MHz"])
def test_a_frame_range_streams_those_rows_of_the_whole_run(bandwidth):
    # a multi-phase run streams phase group j as range(j n, (j + 1) n)
    traj = _ramp_trajectory(96)
    det = DetectorModel(bandwidth=bandwidth)
    whole = np.concatenate(list(iter_frame_chunks(traj, det, 0.7, 8, range(61))))
    for start in (20, 41, 51):
        part = np.concatenate(list(iter_frame_chunks(traj, det, 0.7, 8, range(start, 61))))
        assert part.tobytes() == whole[start:].tobytes(), start


@pytest.mark.parametrize("dt", [2e-9, 1e-9 * (1.0 + 1e-9)])
@pytest.mark.parametrize("bandwidth", [None, 200e6])
def test_off_grid_trajectory_is_rejected_as_the_prediction_rejects_it(dt, bandwidth):
    # nothing resamples: synthesis and the deterministic model of the
    # record refuse a trajectory off the detector grid with one message
    traj = constant_trajectory(0.3, 0.0, 0.1, dt=dt, n_samples=64)
    det = DetectorModel(bandwidth=bandwidth)
    with pytest.raises(ValueError) as synthesis:
        next(iter_frame_chunks(traj, det, 0.0, 0, range(10)))
    mode = make_mode("tf_mode", det.dt, t_c=32e-9, gamma=2.5e8, t_w=20e-9)
    with pytest.raises(ValueError) as prediction:
        duan_prediction_scan(traj, det, mode, mode, [0.0])
    assert str(synthesis.value) == str(prediction.value)
    assert "detector grid" in str(synthesis.value)


def test_ideal_detector_frames_keep_the_paired_draw_stream():
    # one row of draws per frame equals row 0 of the (2, n) draws that
    # the filtered detector takes, so ideal records stay unchanged
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=33)
    frames = synthesize(traj, DetectorModel(bandwidth=None), 0.0, 4, seed=6)
    for k, row in enumerate(frames):
        ss = np.random.SeedSequence(entropy=6, spawn_key=(k,))
        want = np.random.Generator(np.random.PCG64(ss)).standard_normal((2, 33), dtype=np.float32)[0]
        assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100])
def test_substream_states_match_numpy_seeding(seed):
    # blocks that start at 0 and elsewhere, around the uint32 word edges
    # of the spawn key; 2**100 fills all four entropy words of the pool
    blocks = [(0, 2), (255, 257), (65535, 65536), (2**31, 2**31 + 1), (2**32 - 1, 2**32)]
    for start, stop in blocks:
        got = _substream_states(seed, start, stop)
        assert len(got) == stop - start
        for k, (state, inc) in zip(range(start, stop), got):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(k,))
            want = np.random.PCG64(ss).state["state"]
            assert (state, inc) == (want["state"], want["inc"]), (seed, k)


def test_substream_states_reject_what_seed_sequence_rejects():
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy=-1, spawn_key=(0,))
    with pytest.raises(ValueError, match="seed"):
        _substream_states(-1, 0, 1)


def test_schedules_beyond_the_spawn_key_range_are_rejected():
    # a run's frame range is checked before any frame is allocated
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=4)
    det = DetectorModel(bandwidth=None)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        next(iter_frame_chunks(traj, det, 0.0, 0, range(2**32 - 10, 2**32 + 1)))
    # the last frames of the largest run keep their own substreams
    frames = np.concatenate(list(iter_frame_chunks(traj, det, 0.0, 0, range(2**32 - 10, 2**32))))
    for k, row in zip(range(2**32 - 10, 2**32), frames, strict=True):
        ss = np.random.SeedSequence(entropy=0, spawn_key=(k,))
        want = np.random.Generator(np.random.PCG64(ss)).standard_normal(4, dtype=np.float32)
        assert row.tobytes() == want.tobytes(), k


# prints the sha256 of the frames of a vacuum, a constant and a
# time-varying set through each detector, and NumPy's CPU features
_FRAME_HASHES = """
import hashlib, json
import numpy as np
from numpy._core import _multiarray_umath as umath
from sqzsim.homodyne import DetectorModel, iter_frame_chunks
from sqzsim.opa import SqueezerTrajectory, constant_trajectory

t = np.arange(544)
sets = {
    "vacuum": constant_trajectory(0.0, 0.0, 0.0, 1e-9, t.size),
    "constant": constant_trajectory(0.3, 0.2, 0.1, 1e-9, t.size),
    "ramp": SqueezerTrajectory(dt=1e-9, r=0.4 * t / t.size, theta=0.01 * t, loss=0.1),
}
hashes = {}
for bandwidth in (None, 200e6, 2e6):
    for name, traj in sets.items():
        digest = hashlib.sha256()
        for block in iter_frame_chunks(traj, DetectorModel(bandwidth), 0.7, 5, range(300)):
            digest.update(block.tobytes())
        hashes[f"{bandwidth}-{name}"] = digest.hexdigest()
enabled = sorted(k for k, v in umath.__cpu_features__.items() if v)
print(json.dumps({"hashes": hashes, "enabled": enabled, "baseline": list(umath.__cpu_baseline__)}))
"""


def _frame_hashes(**env_vars) -> dict:
    env = dict(os.environ)
    for key in ("NPY_ENABLE_CPU_FEATURES", "NPY_DISABLE_CPU_FEATURES"):
        env.pop(key, None)
    src = str(Path(sqzsim.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _FRAME_HASHES], capture_output=True,
                          text=True, env=env | env_vars, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="names x86 CPU features")
def test_frames_do_not_depend_on_numpys_simd_dispatch():
    # NumPy picks SIMD kernels at run time; the frames' bytes must not
    # follow that pick.  Enabling the baseline alone (X86_V2 on NumPy 2.4;
    # the names differ between releases) turns every dispatched kernel off
    default = _frame_hashes()
    baseline = _frame_hashes(NPY_ENABLE_CPU_FEATURES=",".join(default["baseline"]))
    assert set(baseline["enabled"]) <= set(default["enabled"])
    assert baseline["hashes"] == default["hashes"]
