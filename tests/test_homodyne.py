"""Homodyne record synthesis: detector model, determinism, streamed blocks."""

import math
import os
import signal as os_signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import signal

from sqzsim import homodyne
from sqzsim.homodyne import DetectorModel, _substream_states, iter_frame_chunks
from sqzsim.dsp import make_mode
from sqzsim.opa import SqueezerTrajectory, constant_trajectory
from sqzsim.quantum import variance_at_phase
from sqzsim.tomography import duan_prediction_scan
from stack_slices import synthesize, vacuum


def test_detector_filters_are_power_complementary():
    det = DetectorModel(bandwidth=200e6)
    b_lp, a_lp, b_hp, a_hp = det.filters()
    w = np.linspace(0.0, math.pi, 2048)
    _, h_lp = signal.freqz(b_lp, a_lp, worN=w)
    _, h_hp = signal.freqz(b_hp, a_hp, worN=w)
    total = np.abs(h_lp) ** 2 + np.abs(h_hp) ** 2
    assert np.allclose(total, 1.0, atol=1e-9)


def test_ideal_detector_has_no_filters():
    det = DetectorModel(bandwidth=None)
    assert det.filters() is None
    det_inf = DetectorModel(bandwidth=math.inf)
    assert det_inf.bandwidth is None


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorModel(bandwidth=600e6, sample_rate=1e9)
    # only +inf means an ideal detector; NaN is no bandwidth at all
    for bandwidth in (math.nan, -math.inf):
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
    (block,) = iter_frame_chunks(traj, DetectorModel(), 0.0, 3, 0, np.float32, [(0, 3)])
    assert block.dtype == np.float32


def _oracle_frames(traj, det, lo, seed, dtype, start, stop):
    """Frames ``start:stop`` built one at a time, straight from the model.

    Frame k draws from PCG64 seeded by SeedSequence(seed, spawn_key=(k,)).
    An ideal detector scales its draws by the std template.  A filtered
    one draws two rows over the burn-in and the record, scales the first
    by the std template, low-passes it, high-passes the second (the
    vacuum complement) and keeps the sum after the burn-in.
    """
    dtype = np.dtype(dtype)
    var = np.atleast_1d(variance_at_phase(traj.r, traj.theta, traj.loss, lo))
    std = np.sqrt(det.burn_in(var)).astype(dtype)
    n_burn = std.size - var.size
    rows = []
    for k in range(start, stop):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
        if det.filters() is None:
            row = gen.standard_normal(var.size, dtype=dtype) * std
        else:
            b_lp, a_lp, b_hp, a_hp = det.filters()
            z = gen.standard_normal((2, std.size), dtype=dtype)
            raw = (z[0] * std).astype(np.float64)
            total = signal.lfilter(b_lp, a_lp, raw) + signal.lfilter(b_hp, a_hp, z[1].astype(float))
            row = total[n_burn:].astype(dtype)
        rows.append(row)
    return np.stack(rows)


def _ramp_trajectory(n_samples):
    """A trajectory whose squeezing and angle change along the frame."""
    t = np.arange(n_samples)
    return SqueezerTrajectory(dt=1e-9, r=0.4 * t / n_samples, theta=0.01 * t, loss=0.1)


# uneven blocks, one block of every frame, and one block per frame
ORACLE_BOUNDS = [[(0, 3), (3, 17), (17, 53), (40, 41)], [(0, 53)], [(k, k + 1) for k in range(53)]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bandwidth", [None, 200e6], ids=["ideal", "200MHz"])
def test_frame_chunks_equal_simulated_rows(dtype, bandwidth):
    traj = _ramp_trajectory(96)
    det = DetectorModel(bandwidth=bandwidth)
    want = _oracle_frames(traj, det, 0.7, 8, dtype, 0, 53)
    for bounds in ORACLE_BOUNDS:
        blocks = iter_frame_chunks(traj, det, 0.7, 53, 8, dtype, bounds)
        for (lo, hi), block in zip(bounds, blocks, strict=True):
            assert block.dtype == want.dtype
            assert block.tobytes() == want[lo:hi].tobytes(), (lo, hi)


def _one_frame_blocks(traj, det, n_frames, dtype):
    """The frames of a run at LO phase 0.7, synthesized one frame per block.

    A one-frame block is never split, so this is the serial reference.
    """
    bounds = [(k, k + 1) for k in range(n_frames)]
    return np.concatenate(list(iter_frame_chunks(traj, det, 0.7, n_frames, 8, dtype, bounds)))


def _record_shares(monkeypatch):
    """Record the (start + lo, start + hi) frame range of every filled share."""
    shares = []
    fill = homodyne._Synthesis._fill_filtered

    def recorded(self, out, start, lo, hi):
        shares.append((start + lo, start + hi))
        fill(self, out, start, lo, hi)

    monkeypatch.setattr(homodyne._Synthesis, "_fill_filtered", recorded)
    return shares


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_rows", [3, 4, 5, 7, 255, 257])
def test_split_blocks_equal_one_frame_blocks(monkeypatch, dtype, n_rows):
    traj = constant_trajectory(0.3, 0.2, 0.1, dt=1e-9, n_samples=40)
    det = DetectorModel()
    mid = n_rows // 2
    n_frames = 3 + n_rows
    ref = _one_frame_blocks(traj, det, n_frames, dtype)

    shares = _record_shares(monkeypatch)
    # the rows from the first frame, and the same count three frames later
    (first,) = iter_frame_chunks(traj, det, 0.7, n_frames, 8, dtype, [(0, n_rows)])
    (block,) = iter_frame_chunks(traj, det, 0.7, n_frames, 8, dtype, [(3, 3 + n_rows)])
    assert first.tobytes() == ref[:n_rows].tobytes()
    assert block.tobytes() == ref[3:].tobytes()
    if n_rows < 4 or homodyne._share_pool() is None:
        assert shares == [(0, n_rows), (3, 3 + n_rows)]
    else:
        want = [(0, mid), (mid, n_rows), (3, 3 + mid), (3 + mid, 3 + n_rows)]
        assert sorted(shares) == sorted(want)


def _consume_within_60_s(consume):
    runner = ThreadPoolExecutor(max_workers=1)
    try:
        # a hang fails here instead of blocking the suite
        runner.submit(consume).result(timeout=60)
    finally:
        runner.shutdown(wait=False)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_share_fault_surfaces_after_both_shares_end(monkeypatch, failing):
    if homodyne._share_pool() is None:
        pytest.skip("one CPU: blocks are filled serially")
    events = []
    fill = homodyne._Synthesis._fill_filtered

    def faulty(self, out, start, lo, hi):
        share = "worker" if lo > 0 else "caller"
        if share != failing:
            # the other share is slow, so a caller that did not wait for
            # the worker would raise while the worker still writes
            time.sleep(0.2)
            fill(self, out, start, lo, hi)
            events.append(f"{share} done")
            return
        raise RuntimeError(f"planted fault in the {share} share")

    monkeypatch.setattr(homodyne._Synthesis, "_fill_filtered", faulty)
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=32)
    blocks = iter_frame_chunks(traj, DetectorModel(), 0.0, 16, 0, np.float64, [(0, 8), (8, 16)])

    def consume():
        with pytest.raises(RuntimeError, match=f"planted fault in the {failing} share"):
            next(blocks)
        events.append("raised")
        # the generator is finished: no further block is filled
        assert next(blocks, None) is None

    _consume_within_60_s(consume)
    time.sleep(0.3)
    healthy = "worker" if failing == "caller" else "caller"
    assert events == [f"{healthy} done", "raised"]


def _record_fills(monkeypatch):
    """Record the (start, thread id) of every block fill."""
    fills = []
    fill = homodyne._Synthesis.fill

    def recorded(self, out, start):
        fills.append((start, threading.get_ident()))
        fill(self, out, start)

    monkeypatch.setattr(homodyne._Synthesis, "fill", recorded)
    return fills


@pytest.mark.parametrize("pooled", [True, False], ids=["pool", "serial"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "bounds",
    [
        [(0, 3), (3, 17), (17, 40)],
        [(0, 40)],
        [(k, k + 1) for k in range(40)],
        [(0, 13), (13, 27), (27, 40)],
    ],
    # phase-edge: blocks that end where the phase groups of a streamed
    # multi-phase run, ranges of one frame stream, would
    ids=["uneven", "one-block", "one-row", "phase-edge"],
)
def test_ideal_prefetched_blocks_equal_simulated_rows(monkeypatch, pooled, dtype, bounds):
    if not pooled:
        monkeypatch.setattr(homodyne, "_share_pool", lambda: None)
    traj = _ramp_trajectory(96)
    det = DetectorModel(bandwidth=None)
    want = _oracle_frames(traj, det, 0.7, 8, dtype, 0, 40)
    fills = _record_fills(monkeypatch)
    blocks = iter_frame_chunks(traj, det, 0.7, 40, 8, dtype, bounds)
    for (lo, hi), block in zip(bounds, blocks, strict=True):
        assert block.dtype == want.dtype
        assert block.tobytes() == want[lo:hi].tobytes()
    caller = threading.get_ident()
    threads = dict(fills)
    assert sorted(threads) == [lo for lo, _ in bounds]
    assert threads.pop(0) == caller
    if homodyne._share_pool() is None:
        assert set(threads.values()) <= {caller}
    else:
        # every later block was filled on the pooled worker
        assert caller not in threads.values()


def test_ideal_prefetch_fault_surfaces_at_its_block(monkeypatch):
    if homodyne._share_pool() is None:
        pytest.skip("one CPU: blocks are filled serially")
    failed = threading.Event()
    starts = []
    fill = homodyne._Synthesis.fill

    def faulty(self, out, start):
        starts.append(start)
        if start == 8:
            failed.set()
            raise RuntimeError("planted fault in block 1")
        fill(self, out, start)

    monkeypatch.setattr(homodyne._Synthesis, "fill", faulty)
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=32)
    bounds = [(0, 8), (8, 16), (16, 24)]
    blocks = iter_frame_chunks(traj, DetectorModel(bandwidth=None), 0.0, 24, 0, np.float64, bounds)

    def consume():
        first = next(blocks)
        # block 1 has failed on the worker, yet block 0 came back whole
        assert failed.wait(30)
        assert first.shape == (8, 32) and np.all(np.isfinite(first))
        with pytest.raises(RuntimeError, match="planted fault in block 1"):
            next(blocks)
        # the generator is finished: no further block is filled
        assert next(blocks, None) is None

    _consume_within_60_s(consume)
    assert sorted(starts) == [0, 8]


def test_closing_an_ideal_stream_waits_for_the_prefetched_fill(monkeypatch):
    if homodyne._share_pool() is None:
        pytest.skip("one CPU: blocks are filled serially")
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
    bounds = [(0, 8), (8, 16), (16, 24)]
    blocks = iter_frame_chunks(traj, DetectorModel(bandwidth=None), 0.0, 24, 0, np.float64, bounds)

    def consume():
        next(blocks)
        blocks.close()
        events.append("closed")

    _consume_within_60_s(consume)
    time.sleep(0.3)
    assert events == ["filled 0", "filled 8", "closed"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_worker():
    # the parent's worker thread does not exist in a forked child, so a
    # child that reused the parent's pool would wait for it forever
    traj = constant_trajectory(0.3, 0.0, 0.1, dt=1e-9, n_samples=64)
    want = synthesize(traj, DetectorModel(), 0.0, 40, seed=1)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = synthesize(traj, DetectorModel(), 0.0, 40, seed=1)
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


def test_frame_chunks_reject_bad_bounds():
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=16)
    for bounds in ([(0, 0)], [(-1, 2)], [(5, 11)], [(3, 2)]):
        with pytest.raises(ValueError, match="frame block"):
            next(iter_frame_chunks(traj, DetectorModel(), 0.0, 10, 0, np.float64, bounds))


@pytest.mark.parametrize("dt", [2e-9, 1e-9 * (1.0 + 1e-9)])
@pytest.mark.parametrize("bandwidth", [None, 200e6])
def test_off_grid_trajectory_is_rejected_as_the_prediction_rejects_it(dt, bandwidth):
    # nothing resamples: synthesis and the deterministic model of the
    # record refuse a trajectory off the detector grid with one message
    traj = constant_trajectory(0.3, 0.0, 0.1, dt=dt, n_samples=64)
    det = DetectorModel(bandwidth=bandwidth)
    with pytest.raises(ValueError) as synthesis:
        next(iter_frame_chunks(traj, det, 0.0, 10, 0, np.float64, [(0, 10)]))
    mode = make_mode("tf_mode", det.dt, t_c=32e-9, gamma=2.5e8, t_w=20e-9)
    with pytest.raises(ValueError) as prediction:
        duan_prediction_scan(traj, det, mode, mode, [0.0])
    assert str(synthesis.value) == str(prediction.value)
    assert "detector grid" in str(synthesis.value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ideal_detector_frames_keep_the_paired_draw_stream(dtype):
    # one row of draws per frame equals row 0 of the (2, n) draws that
    # the filtered detector takes, so ideal records stay unchanged
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=33)
    frames = synthesize(traj, DetectorModel(bandwidth=None), 0.0, 4, seed=6, dtype=dtype)
    for k, row in enumerate(frames):
        ss = np.random.SeedSequence(entropy=6, spawn_key=(k,))
        want = np.random.Generator(np.random.PCG64(ss)).standard_normal((2, 33), dtype=dtype)[0]
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
    # a run's frame count is checked before any frame is allocated
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=4)
    det = DetectorModel(bandwidth=None)
    with pytest.raises(ValueError, match="n_frames"):
        next(iter_frame_chunks(traj, det, 0.0, 2**32 + 1, 0, np.float64, [(0, 1)]))
    # the last frame of the largest run keeps its own substream
    (last,) = iter_frame_chunks(traj, det, 0.0, 2**32, 0, np.float64, [(2**32 - 1, 2**32)])
    ss = np.random.SeedSequence(entropy=0, spawn_key=(2**32 - 1,))
    want = np.random.Generator(np.random.PCG64(ss)).standard_normal(4)
    assert last[0].tobytes() == want.tobytes()
