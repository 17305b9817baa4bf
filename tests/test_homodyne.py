"""Homodyne record synthesis: detector model, determinism, persistence."""

import math

import numpy as np
import pytest
from scipy import signal

from sqzsim.homodyne import (
    DetectorModel,
    FrameSet,
    LoEntry,
    LoSchedule,
    frameset_from_csv,
    frameset_to_csv,
    iter_frame_chunks,
    load_frameset,
    save_frameset,
    simulate_frames,
    simulate_vacuum_reference,
    _substream_states,
)
from sqzsim.opa import constant_trajectory
from sqzsim.quantum import variance_at_phase


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
    with pytest.raises(ValueError):
        DetectorModel(gain=0.0)


def test_simulation_is_seed_deterministic():
    traj = constant_trajectory(0.3, 0.0, 0.1, dt=1e-9, n_samples=256)
    det = DetectorModel()
    a = simulate_frames(traj, det, lo=0.0, n_frames=20, seed=42)
    b = simulate_frames(traj, det, lo=0.0, n_frames=20, seed=42)
    c = simulate_frames(traj, det, lo=0.0, n_frames=20, seed=43)
    assert np.array_equal(a.frames, b.frames)
    assert not np.array_equal(a.frames, c.frames)
    assert a.rng_seed == 42


def test_vacuum_reference_variance_is_unity():
    det = DetectorModel()
    ref = simulate_vacuum_reference(det, n_samples=512, n_frames=4000, seed=9)
    var = float(ref.frames.var())
    n = ref.frames.size
    # chi-squared spread of the pooled variance estimate
    assert abs(var - 1.0) <= 5.0 * math.sqrt(2.0 / n) * 3.0
    assert ref.kind == "vacuum_reference"
    assert np.all(ref.phase_tags == 0.0)


def test_ideal_detector_record_matches_analytic_variance():
    r, loss = 0.3120002801006932, 0.183
    traj = constant_trajectory(r, 0.0, loss, dt=1e-9, n_samples=400)
    det = DetectorModel(bandwidth=None)
    fs = simulate_frames(traj, det, lo=0.0, n_frames=3000, seed=4)
    want = variance_at_phase(r, 0.0, loss, 0.0)
    got = float(fs.frames.var())
    se = want * math.sqrt(2.0 / fs.frames.size)
    assert abs(got - want) <= 5.0 * se


def test_lo_phase_selects_quadrature():
    traj = constant_trajectory(0.5, 0.0, 0.0, dt=1e-9, n_samples=300)
    det = DetectorModel(bandwidth=None)
    squeezed = simulate_frames(traj, det, lo=0.0, n_frames=500, seed=1)
    anti = simulate_frames(traj, det, lo=math.pi / 2.0, n_frames=500, seed=1)
    assert float(squeezed.frames.var()) < float(anti.frames.var())


def test_detector_gain_scales_record():
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=128)
    unit = simulate_frames(traj, DetectorModel(gain=1.0), 0.0, n_frames=10, seed=2)
    doubled = simulate_frames(traj, DetectorModel(gain=2.0), 0.0, n_frames=10, seed=2)
    assert np.allclose(doubled.frames, 2.0 * unit.frames, rtol=1e-6, atol=1e-7)


def test_lo_schedule():
    sched = LoSchedule(entries=(LoEntry(0.0, 3), LoEntry(0.5, 2)))
    assert list(sched.frame_phases(5)) == [0.0, 0.0, 0.0, 0.5, 0.5]
    single = LoSchedule.single(0.25)
    assert list(single.frame_phases(2)) == [0.25, 0.25]


def test_schedule_simulation_tags_phases():
    traj = constant_trajectory(0.2, 0.0, 0.0, dt=1e-9, n_samples=64)
    det = DetectorModel(bandwidth=None)
    sched = LoSchedule(entries=(LoEntry(0.0, 2), LoEntry(1.0, 3)))
    fs = simulate_frames(traj, det, sched, n_frames=5, seed=0)
    assert np.allclose(fs.phase_tags, [0.0, 0.0, 1.0, 1.0, 1.0])


def test_frameset_validation_and_immutability():
    frames = np.zeros((3, 8))
    with pytest.raises(ValueError):
        FrameSet(dt=1e-9, frames=frames, phase_tags=np.zeros(2), kind="signal", rng_seed=0)
    with pytest.raises(ValueError):
        FrameSet(dt=1e-9, frames=frames, phase_tags=np.zeros(3), kind="other", rng_seed=0)
    fs = FrameSet(dt=1e-9, frames=frames, phase_tags=np.zeros(3), kind="signal", rng_seed=0)
    with pytest.raises(ValueError):
        fs.frames[0, 0] = 1.0


def test_frameset_npz_round_trip(tmp_path):
    traj = constant_trajectory(0.3, 0.2, 0.1, dt=2e-9, n_samples=32)
    fs = simulate_frames(traj, DetectorModel(), 0.4, n_frames=6, seed=77)
    path = tmp_path / "frames.npz"
    save_frameset(fs, path)
    back = load_frameset(path)
    assert np.array_equal(back.frames, fs.frames)
    assert np.array_equal(back.phase_tags, fs.phase_tags)
    assert back.dt == fs.dt
    assert back.kind == fs.kind
    assert back.rng_seed == fs.rng_seed
    assert back.t0 == fs.t0


def test_frameset_csv_round_trip(tmp_path):
    traj = constant_trajectory(0.1, 0.0, 0.0, dt=1e-9, n_samples=16)
    fs = simulate_frames(traj, DetectorModel(bandwidth=None), 0.0, n_frames=4, seed=5)
    path = tmp_path / "frames.csv"
    frameset_to_csv(fs, path)
    back = frameset_from_csv(path)
    assert np.array_equal(back.frames, fs.frames)
    assert np.array_equal(back.phase_tags, fs.phase_tags)
    assert back.dt == fs.dt


def test_float32_output_dtype():
    traj = constant_trajectory(0.2, 0.0, 0.0, dt=1e-9, n_samples=64)
    fs = simulate_frames(traj, DetectorModel(), 0.0, n_frames=3, seed=0, dtype=np.float32)
    assert fs.frames.dtype == np.float32


def test_vacuum_reference_t0_offset():
    ref = simulate_vacuum_reference(DetectorModel(), 32, 5, seed=0, t0=4e-9)
    assert ref.t0 == 4e-9
    assert ref.times[0] == pytest.approx(4e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bandwidth", [None, 200e6], ids=["ideal", "200MHz"])
def test_frame_chunks_equal_simulated_rows(dtype, bandwidth):
    traj = constant_trajectory(0.3, 0.2, 0.1, dt=1e-9, n_samples=96)
    det = DetectorModel(bandwidth=bandwidth, gain=2.0)
    sched = LoSchedule(entries=(LoEntry(0.0, 5), LoEntry(0.7, 20), LoEntry(2.1, 28)))
    whole = simulate_frames(traj, det, sched, seed=8, dtype=dtype).frames
    bounds = [(0, 3), (3, 17), (17, 53), (40, 41)]
    blocks = iter_frame_chunks(traj, det, sched, seed=8, dtype=dtype, bounds=bounds)
    for (lo, hi), block in zip(bounds, blocks, strict=True):
        assert block.dtype == whole.dtype
        assert block.tobytes() == whole[lo:hi].tobytes()


def test_frame_chunks_reject_bad_bounds():
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=16)
    for bounds in ([(0, 0)], [(-1, 2)], [(5, 11)], [(3, 2)]):
        with pytest.raises(ValueError, match="frame block"):
            next(iter_frame_chunks(traj, DetectorModel(), 0.0, 10, bounds=bounds))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ideal_detector_frames_keep_the_paired_draw_stream(dtype):
    # one row of draws per frame equals row 0 of the (2, n) draws that
    # the filtered detector takes, so ideal records stay unchanged
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=33)
    fs = simulate_frames(traj, DetectorModel(bandwidth=None), 0.0, n_frames=4, seed=6, dtype=dtype)
    for k, row in enumerate(fs.frames):
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
    # checked from the entry counts, before any frame is allocated
    traj = constant_trajectory(0.0, 0.0, 0.0, dt=1e-9, n_samples=4)
    sched = LoSchedule(entries=(LoEntry(0.0, 2**31), LoEntry(1.0, 2**31 + 1)))
    with pytest.raises(ValueError, match="n_frames"):
        simulate_frames(traj, DetectorModel(bandwidth=None), sched)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loaders_reject_non_finite_samples(tmp_path, bad):
    frames = np.zeros((3, 5))
    frames[1, 3] = bad
    frames[2, 0] = bad
    fs = FrameSet(dt=1e-9, frames=frames, phase_tags=np.zeros(3), kind="signal", rng_seed=-1)
    npz, csv_path = tmp_path / "frames.npz", tmp_path / "frames.csv"
    save_frameset(fs, npz)
    frameset_to_csv(fs, csv_path)
    for load, path in ((load_frameset, npz), (frameset_from_csv, csv_path)):
        bad_sample = r"frames\.(npz|csv): frame 1, sample 3 is -?(nan|inf)"
        with pytest.raises(ValueError, match=bad_sample):
            load(path)
