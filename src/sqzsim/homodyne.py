"""Homodyne record synthesis.

Model: the quadrature noise is quasi-static.  At LO phase phi each
output sample starts as an independent Gaussian draw whose variance is
the instantaneous squeezed-light variance V(t) from the trajectory, in
shot-noise units.  The detector's finite bandwidth then acts as a
per-sideband efficiency: the record is low-pass filtered and the lost
high-frequency content is replaced by vacuum through the
power-complementary high-pass of the same filter.  A vacuum input
therefore stays exactly shot-noise white, while squeezing (and
anti-squeezing) visible in the spectrum rolls toward 0 dB above the
detector cutoff, as a real detector shows after shot-noise
normalization.

Grid: every record starts at t = 0, sample k of a frame at t = k dt on
the detector grid.  Nothing resamples: a trajectory must lie on that
grid, which :meth:`DetectorModel.record_variance` checks.

Synthesis has one entry, :func:`iter_frame_chunks`, which yields the
frames of a run block by block at one LO phase, so an analysis reduces
its frames as they come instead of holding them.

Determinism: frame k of a run seeded with s draws from PCG64 seeded
by NumPy's SeedSequence with entropy s and spawn key (k,), so reruns
are bit-identical and frames are independent of chunking or evaluation
order.  :func:`_substream_states` computes those PCG64 states for a
whole block of frames in one vectorized pass, a port of NumPy's
seeding that a test checks against NumPy itself; a run may therefore
hold at most 2**32 frames, one 32-bit spawn-key word each.  Since no
frame's bytes depend on another's, synthesis shares the work with one
pooled worker thread.  A filtered-detector block is split into two
contiguous shares of its rows, the caller filling one and the worker
the other.  An ideal-detector stream has the worker fill the next block
while the caller reduces the current one.  On one CPU, or for a
filtered block of fewer than 4 rows, the fill is serial.

Only the filtered detector needs ``scipy.signal``: its Butterworth pair
(:meth:`DetectorModel.filters`), the filtered fill and the backward
filter of :func:`sqzsim.tomography.duan_prediction_scan` reach it
through :func:`scipy_signal`, which imports it on first call.  An
ideal-detector run never imports it, nor does ``calibrate``.  The
command line calls :func:`scipy_signal` before a run with a filtered
detector starts, so that run imports nothing once it is under way.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from sqzsim.opa import SqueezerTrajectory
from sqzsim.quantum import variance_at_phase

__all__ = [
    "DetectorModel",
    "iter_frame_chunks",
    "scipy_signal",
]


@functools.cache
def scipy_signal():
    """The ``scipy.signal`` module, imported on the first call.

    Its import is more than half of the package's start-up, and only
    the IIR filters of a finite-bandwidth detector use it.
    """
    from scipy import signal

    return signal


@dataclass(frozen=True)
class DetectorModel:
    """Homodyne detector: sampling grid and bandwidth.

    ``bandwidth=None`` (or +inf) models an ideal (infinite-bandwidth)
    detector; a NaN bandwidth is rejected.
    """

    bandwidth: float | None = 200e6
    sample_rate: float = 1e9

    def __post_init__(self) -> None:
        if self.sample_rate <= 0.0:
            raise ValueError("sample_rate must be > 0")
        if self.bandwidth == math.inf:
            object.__setattr__(self, "bandwidth", None)
        if self.bandwidth is not None:
            if not 0.0 < self.bandwidth < self.sample_rate / 2.0:
                raise ValueError(
                    "bandwidth must satisfy 0 < bw < sample_rate / 2, "
                    f"got {self.bandwidth} at {self.sample_rate} S/s"
                )

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    def filters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """(b_lp, a_lp, b_hp, a_hp) or None for an ideal detector.

        The 2nd-order Butterworth low/high-pass pair at the bandwidth is
        power complementary, |H_lp|^2 + |H_hp|^2 = 1, which is what
        makes the filtered vacuum exactly white.
        """
        if self.bandwidth is None:
            return None
        signal = scipy_signal()
        b_lp, a_lp = signal.butter(2, self.bandwidth, btype="low", fs=self.sample_rate)
        b_hp, a_hp = signal.butter(2, self.bandwidth, btype="high", fs=self.sample_rate)
        return b_lp, a_lp, b_hp, a_hp

    def burn_in(self, values) -> np.ndarray:
        """``values`` (along the last axis) preceded by the filter burn-in.

        The simulator starts every frame this many samples early, with
        the first variance held, so the detector filters forget their
        zero initial state before the record begins; models of the
        filtered record pad the same way.  An ideal detector has none.
        """
        values = np.asarray(values)
        n = _settle_samples(self.filters())
        return np.concatenate([np.repeat(values[..., :1], n, axis=-1), values], axis=-1)

    def record_variance(self, traj: SqueezerTrajectory, phi: float) -> np.ndarray:
        """Variance of each sample of a ``traj`` frame at LO phase ``phi``, burn-in first."""
        if abs(traj.dt - self.dt) > 1e-12 * self.dt:
            raise ValueError("trajectory must live on the detector grid")
        return self.burn_in(variance_at_phase(traj.r, traj.theta, traj.loss, phi))


def _settle_samples(filters) -> int:
    if filters is None:
        return 0
    _, a_lp, _, _ = filters
    poles = np.abs(np.roots(a_lp))
    top = float(poles.max()) if poles.size else 0.0
    if top <= 0.0 or top >= 1.0:
        return 64
    n = int(math.ceil(math.log(1e-12) / math.log(top)))
    return int(min(max(n, 64), 8192))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and
# the 128-bit multiplier of PCG64's LCG step
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1


class _HashMix:
    """SeedSequence's ``hashmix`` with its running hash constant."""

    def __init__(self, init: int, mult: int) -> None:
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _substream_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of frames ``start <= k < stop``.

    Entry k - start holds the ``state`` and ``inc`` of a PCG64 seeded by
    the SeedSequence with entropy ``seed`` and spawn key ``(k,)``.  The
    pool mix and ``generate_state(4, uint64)`` run as uint32 arithmetic
    over all k at once; PCG64's set-seq seeding then runs on Python ints.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    # the seed's words, padded to the pool size, then the spawn key k
    entropy = np.empty((len(words) + 1, stop - start), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(start, stop, dtype=np.uint64)
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    # generate_state(4, uint64): 8 words cycled from the pool, paired low first
    hashmix = _HashMix(_INIT_B, _MULT_B)
    half = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    words64 = np.stack([half[2 * i] | half[2 * i + 1] << np.uint64(32) for i in range(4)], axis=1)
    states = []
    for w0, w1, w2, w3 in words64.tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        states.append((((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


class _Synthesis:
    """The synthesis of one run: LO phase, std template and detector filters.

    :meth:`fill` writes any frame range into caller-owned rows, so every
    block of a stream comes from the one synthesis loop.
    """

    def __init__(self, traj, det, lo, n_frames, seed, dtype) -> None:
        if not np.isfinite(lo):
            raise ValueError("LO phase must be finite")
        # frame k's substream takes k as one uint32 spawn-key word
        if not 1 <= n_frames <= 2**32:
            raise ValueError(f"n_frames must lie in [1, 2**32], got {n_frames}")
        self.filters = det.filters()
        # looked up once, on the caller's thread, for both shares of a block
        self.lfilter = None if self.filters is None else scipy_signal().lfilter
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError("dtype must be float32 or float64")
        self.std = np.sqrt(det.record_variance(traj, float(lo))).astype(self.dtype)
        self.n_samples = traj.n_samples
        self.n_total = self.std.size
        self.n_burn = self.n_total - self.n_samples
        self.seed = seed
        self.work = np.empty((2, 0, self.n_total))

    def _substreams(self, start: int, stop: int) -> Iterator[np.random.Generator]:
        """One generator, set in turn to the substream of each frame in [start, stop)."""
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        pcg = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        for pcg["state"], pcg["inc"] in _substream_states(self.seed, start, stop):
            bitgen.state = state
            yield gen

    def fill(self, out: np.ndarray, start: int) -> None:
        """Write frames [start, start + len(out)) into ``out``."""
        stop = start + out.shape[0]
        if self.filters is None:
            # an ideal detector needs no vacuum complement: draw one row
            # per frame in place, then scale the rows by the std template
            for row, gen in zip(out, self._substreams(start, stop)):
                gen.standard_normal(dtype=self.dtype, out=row)
            out *= self.std
        else:
            # float64 working rows, kept across blocks: lfilter computes in
            # float64 anyway, and rows freed after every block would have
            # their pages returned to the OS and faulted in again by the next
            n = stop - start
            if self.work.shape[1] < n:
                self.work = np.empty((2, n, self.n_total))
            pool = _share_pool() if n >= 4 else None
            if pool is None:
                self._fill_filtered(out, start, 0, n)
            else:
                # every frame has its own substream and lfilter treats each
                # row on its own, so two shares of the rows give the bytes of
                # one pass; the worker writes into out and self.work, so it
                # is waited for before this returns or raises
                mid = n // 2
                worker = pool.submit(self._fill_filtered, out, start, mid, n)
                try:
                    self._fill_filtered(out, start, 0, mid)
                finally:
                    wait((worker,))
                worker.result()

    def _fill_filtered(self, out: np.ndarray, start: int, lo: int, hi: int) -> None:
        """Rows [lo, hi) of the filtered block at ``start``, made in rows [lo, hi) of self.work."""
        raw, comp = self.work[:, lo:hi]
        z = np.empty((2, self.n_total), dtype=self.dtype)
        for j, gen in enumerate(self._substreams(start + lo, start + hi)):
            gen.standard_normal(dtype=self.dtype, out=z)
            # the product is taken in self.dtype, then cast to float64
            np.multiply(z[0], self.std, out=raw[j], dtype=self.dtype)
            comp[j] = z[1]
        b_lp, a_lp, b_hp, a_hp = self.filters
        filtered = self.lfilter(b_lp, a_lp, raw, axis=1)
        filtered += self.lfilter(b_hp, a_hp, comp, axis=1)
        out[lo:hi] = filtered[:, self.n_burn :]


@functools.cache
def _share_pool() -> ThreadPoolExecutor | None:
    """The worker that fills the second share of each filtered block
    and the next block of an ideal-detector stream.

    None when this process may run on one CPU only, so blocks are filled
    serially.  Made on first use: importing the module starts no thread.
    """
    try:
        n_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        n_cpus = os.cpu_count() or 1
    return ThreadPoolExecutor(max_workers=1) if n_cpus > 1 else None


if hasattr(os, "register_at_fork"):
    # a forked child has no worker thread: it makes its own pool on first use
    os.register_at_fork(after_in_child=_share_pool.cache_clear)


def iter_frame_chunks(
    traj: SqueezerTrajectory,
    det: DetectorModel,
    lo: float,
    n_frames: int,
    seed: int,
    dtype,
    bounds: Iterable[tuple[int, int]],
) -> Iterator[np.ndarray]:
    """Synthesize the homodyne frames of one run, one block at a time.

    Parameters
    ----------
    traj : SqueezerTrajectory
        On the detector grid: frame sample k is trajectory sample k.
    det : DetectorModel
    lo : float
        LO phase (radians) of every frame.
    n_frames : int
        Frames in the run, at most 2**32; frame k uses the (seed, k)
        substream, so a range of frames is the same whatever else is
        synthesized.
    seed : int
        Root seed.
    dtype : numpy dtype
        float64 or float32.
    bounds : sequence of (start, stop)
        Frame ranges inside [0, n_frames), in the order they are yielded.

    Yields
    ------
    numpy.ndarray
        For each range, a fresh ``(stop - start, n_samples)`` array of
        frames ``start:stop``, each covering the times of the
        trajectory, so a caller reduces a long run block by block
        without holding its frame stack.  Every range is checked before
        the first block is filled; a fault in filling a block is raised
        by the ``next()`` that would return it.
    """
    synth = _Synthesis(traj, det, lo, n_frames, seed, dtype)
    bounds = list(bounds)
    for start, stop in bounds:
        if not 0 <= start < stop <= n_frames:
            raise ValueError(f"frame block [{start}, {stop}) is empty or outside [0, {n_frames})")

    def block(start: int, stop: int) -> np.ndarray:
        out = np.empty((stop - start, synth.n_samples), dtype=synth.dtype)
        synth.fill(out, start)
        return out

    pool = _share_pool() if synth.filters is None else None
    if pool is None or len(bounds) < 2:
        for start, stop in bounds:
            yield block(start, stop)
        return
    # The pooled worker fills the next ideal block while the caller
    # reduces this one; the ideal fill never submits to the pool, so the
    # worker never waits on itself.  Measured on `waveforms_ideal` and
    # `spectrum_long` (2 vCPUs) and rejected: splitting the ideal rows as
    # the filtered fill does (no wall gain, CPU +15-24 %: the per-frame
    # state setting holds the GIL and a 1300-sample draw is short);
    # prefetching filtered blocks instead of splitting them
    # (`spectrum_long` 1.28-1.35 -> 1.65-1.80 s); and on top of the split
    # (wall time within noise, `epr_scan` peak RSS +4.6 %).
    pending = pool.submit(block, *bounds[1])
    try:
        yield block(*bounds[0])
        for nxt in bounds[2:]:
            ready = pending.result()
            pending = pool.submit(block, *nxt)
            yield ready
        yield pending.result()
    finally:
        # a consumer that raises or closes early leaves no fill running
        wait((pending,))

