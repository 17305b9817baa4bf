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

Shortcut: with a constant variance V the record
x = LP(sqrt(V) z0) + HP(z1) is a stationary Gaussian process.  The
Butterworth pair shares its denominator A, so x is exactly b/A applied
to one white row, with b the minimum-phase factor of
V |B_lp|^2 + |B_hp|^2 (:func:`_spectral_factor`, in closed form).  A
filtered set whose variance template is one constant V != 1 is drawn
that way: one draw and one order-2 filter per sample instead of two of
each.  Vacuum (V == 1 exactly, where b = A and the record is white) and
every set whose variance varies keep the two-row synthesis, so the
vacuum references keep their stream: some checks against vacuum still
have fixed bounds that ignore the noise, and a redrawn vacuum stream
fails them at their pinned seeds.

Grid: every record starts at t = 0, sample k of a frame at t = k dt on
the detector grid.  Nothing resamples: a trajectory must lie on that
grid, which :meth:`DetectorModel.record_variance` checks.

Synthesis has one entry, :func:`iter_frame_chunks`, which yields a
range of frames at one LO phase as float32 blocks, so an analysis
reduces its frames as they come instead of holding them.  One layout,
:func:`block_bounds`, cuts every stream: each of the 10 error splits
into blocks of at most ``_BLOCK_ROWS`` frames, so a reducer knows the
split of each block it takes.

Determinism: frame k of a run seeded with s draws from PCG64 seeded
by NumPy's SeedSequence with entropy s and spawn key (k,), so reruns
are bit-identical and frames are independent of chunking or evaluation
order.  A filtered frame draws two float32 rows from it, or one (the
first of the two) for a set of constant squeezing; an ideal frame
draws one.  :func:`_substream_states` computes those PCG64 states for a
whole block of frames in one vectorized pass, a port of NumPy's
seeding that a test checks against NumPy itself; a run may therefore
hold at most 2**32 frames, one 32-bit spawn-key word each.  Since no
frame's bytes depend on another's, each stream shares the work with a
worker thread of its own, on any number of CPUs.  :meth:`_Synthesis.fill`
fills any range of frames on the calling thread, and
:func:`iter_frame_chunks` alone shares a stream: the caller fills the
first half of the rows of a filtered-detector block while the worker
fills the second, and an ideal-detector stream has the worker fill the
next block while the caller reduces the current one.  The worker ends
with its stream, once any fill it runs is done.

Memory: a fill draws, scales and filters its rows a tile at a time,
``_tile_rows(burn-in + samples)`` rows of about 2**16 samples in all.
Each filtered fill makes one float32 draw tile, of shape
``(rows, channels, burn-in + samples)``, and each filter call makes its
own work, products and carried states, so nothing outlives the call
that fills it and the two halves of a block share only their rows of
the block.  Each frame's draws fill its row of the tile; with two
channels the raw draws are scaled in place, and the channels go
straight into the filter.  The block layout is walked lazily, block by
block.  So a filtered stream holds its yielded block and a few tiles,
however many frames or rows a block has, and however many blocks a
stream has; a consumer that drops each block before it asks for the
next holds one block at a time.

The filtered detector runs on NumPy alone.  Its Butterworth pair is a
port of SciPy's ``butter(2, ...)``, byte-equal to it, and shares one
denominator A, the low-pass one (SciPy's high-pass one differs by
rounding only).  :class:`_BlockFilter` runs a two-row record
(B_lp z0' + B_hp z1) / A, or a one-row b z / A, through one state pair
by matrix products over chunks of each record (Burrus' block
realization), and carries the chunks' start states 16 chunks at a time
by powers of the state map that the recursion itself computes.  It
differs from SciPy's ``lfilter`` of each row, each with its own
denominator, by rounding only: a test holds the difference within
1e-12 of the record rms for bandwidths from 2 MHz to 0.45 of the sample
rate.  A frame's bits do not depend on the block or half it is filled
in, since every frame gets the same matrix products however many rows
share a call.  So no run imports SciPy, whose ``butter`` and
``lfilter`` serve the tests as oracles.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import numpy.random

from sqzsim.opa import SqueezerTrajectory
from sqzsim.quantum import N_SPLITS, split_slices, variance_at_phase

__all__ = [
    "DetectorModel",
    "block_bounds",
    "iter_frame_chunks",
]


@dataclass(frozen=True)
class DetectorModel:
    """Homodyne detector: sampling grid and bandwidth.

    ``bandwidth=None`` models an ideal (infinite-bandwidth) detector; a
    NaN or infinite bandwidth is rejected.
    """

    bandwidth: float | None = 200e6
    sample_rate: float = 1e9

    def __post_init__(self) -> None:
        # a rate too small for a finite 1 / sample_rate is as unusable as 0
        if not (0.0 < self.sample_rate < math.inf and self.dt < math.inf):
            raise ValueError(
                f"sample_rate must be finite and > 0 with a finite dt, got {self.sample_rate}"
            )
        if self.bandwidth is not None:
            if not 0.0 < self.bandwidth < self.sample_rate / 2.0:
                raise ValueError(
                    "bandwidth must satisfy 0 < bw < sample_rate / 2, "
                    f"got {self.bandwidth} at {self.sample_rate} S/s"
                )

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    def filters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(b_lp, b_hp, a) or None for an ideal detector.

        The 2nd-order Butterworth low/high-pass pair at the bandwidth
        shares the denominator a and is power complementary,
        |B_lp|^2 + |B_hp|^2 = |A|^2, which makes the filtered vacuum white.
        """
        if self.bandwidth is None:
            return None
        b_lp, a = _butter2(self.bandwidth, self.sample_rate, highpass=False)
        b_hp, _ = _butter2(self.bandwidth, self.sample_rate, highpass=True)
        return b_lp, b_hp, a

    @property
    def n_burn(self) -> int:
        """Burn-in samples, 0 if ideal: the slowest pole decays by 1e-12, in 64 to 8192."""
        filters = self.filters()
        if filters is None:
            return 0
        poles = np.abs(np.roots(filters[2]))
        top = float(poles.max()) if poles.size else 0.0
        if top <= 0.0 or top >= 1.0:
            return 64
        n = int(math.ceil(math.log(1e-12) / math.log(top)))
        return int(min(max(n, 64), 8192))

    def record_variance(self, traj: SqueezerTrajectory, phi: float) -> np.ndarray:
        """Variance of each sample of a ``traj`` frame at LO phase ``phi``, burn-in first.

        A frame starts :attr:`n_burn` samples early, the first variance
        held, so the filter forgets its zero state before the record.
        """
        if abs(traj.dt - self.dt) > 1e-12 * self.dt:
            raise ValueError("trajectory must live on the detector grid")
        var = variance_at_phase(traj.r, traj.theta, traj.loss, phi)
        return np.pad(var, (self.n_burn, 0), mode="edge")


def _butter2(cutoff: float, sample_rate: float, highpass: bool) -> tuple[np.ndarray, np.ndarray]:
    """SciPy's ``butter(2, cutoff, btype, fs=sample_rate)``, byte for byte.

    SciPy's route: the analog prototype (``buttap``), the cutoff
    pre-warped at fs = 2, the low- or high-pass transform
    (``lp2lp_zpk``, ``lp2hp_zpk``), the bilinear map (``bilinear_zpk``)
    and the expansion into polynomials (``zpk2tf``).
    """
    zeros = np.empty(0)
    poles = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4)
    wo = float(2 * 2.0 * np.tan(np.pi * (cutoff / (sample_rate / 2)) / 2.0))
    if highpass:
        gain = np.real(np.prod(-zeros) / np.prod(-poles))
        zeros, poles = np.zeros(2), wo / poles
    else:
        gain, poles = wo**2, wo * poles
    gain = gain * np.real(np.prod(4.0 - zeros) / np.prod(4.0 - poles))
    zeros = np.concatenate([(4.0 + zeros) / (4.0 - zeros), -np.ones(2 - zeros.size)])
    poles = (4.0 + poles) / (4.0 - poles)
    return gain * np.poly(zeros), np.poly(poles).real


# Samples per chunk of _BlockFilter: of 16, 24, 32, 48 and 64 the
# fastest on 544- to 4160-sample records, with the start states carried
# chunk by chunk and again by groups.  A 32-row tile of two channels on
# one thread of a 2-vCPU Xeon takes 0.11, 0.24 and 0.84-1.11 ms at 544,
# 1384 and 4160 samples
_CHUNK = 32

# Chunks per group of _BlockFilter's state carry: its Python loop runs
# once per group, 9 times on a 4160-sample record, and each group's
# in-group product takes (2 * _GROUP)**2 multiply-adds per row, whatever
# the number of channels
_GROUP = 16


class _BlockFilter:
    """Order-2 IIR filtering of rows of one or more inputs from zero state, by matrix products.

    Row r of the output is y = (sum over c of B_c x_c[r]) / A: each
    channel c has its own numerator B_c and all share the denominator A,
    so one transposed direct-form-II state pair carries them all, and
    ``lfilter(b_c, a, x_c[r])`` summed over c gives y up to rounding.
    The block realization (C. S. Burrus, IEEE Trans. Audio Electroacoust.
    20, 230 (1972)) cuts each row into chunks of m samples, after zero
    padding in front (zero input from a zero state stays exactly zero).
    A chunk's outputs are its inputs times the m x m impulse-response
    matrix of each channel plus its start state times the state-to-output
    map, and the next chunk's start state is its inputs times the
    input-to-state map (its push) plus its start state times the state
    map T.

    The start states are carried ``_GROUP`` chunks at a time.  One
    product of the pushes with a block-lower-triangular matrix of the
    powers T^0 .. T^(G-1) gives every state of a group from a zero group
    start; a loop over the groups carries each group's entry state to
    the next by T^G; and one more product adds each entry state times
    T^1 .. T^G to its group.  Every map, the powers included, is a slice
    of one run of the recursion itself (:func:`_responses`), not a
    product of T, whose rounding grows with the power where T is
    ill-conditioned (a narrow detector).

    A work array holds, per row and chunk, the m inputs of each channel
    and then the 2 start states.  Every product runs as a stacked matmul
    with rows outermost, the same matrix products for every row, so a
    row's bits do not depend on how many rows share the call.
    """

    def __init__(self, numerators, a, n_samples: int) -> None:
        m = self.m = _CHUNK
        p = self.n_channels = len(numerators)
        self.n_chunks = -(-n_samples // m)
        self.pad = self.n_chunks * m - n_samples
        # the states of chunks 1 .. n_chunks - 1, _GROUP to a group
        self.n_groups = -(-(self.n_chunks - 1) // _GROUP)
        y, z = _responses(numerators, a, _GROUP * m)
        # an input at chunk sample j gives its impulse response from j on and
        # leaves the state m - j samples after the impulse; every map is
        # C-contiguous, as matmul's bits depend on the layout
        self.to_output = np.zeros((p * m + 2, m))
        for c in range(p):
            for j in range(m):
                self.to_output[c * m + j, j:] = y[: m - j, c]
        self.to_output[p * m :] = y[:m, p:].T
        self.to_state = np.ascontiguousarray(z[m:0:-1, :, :p].transpose(2, 0, 1)).reshape(p * m, 2)
        # powers[i] maps a start state to the state i chunks of zero input on
        powers = np.ascontiguousarray(z[::m, :, p:].transpose(0, 2, 1))
        # the pushes of a group's chunks j to the start states of its chunks t + 1 >= j + 1
        in_group = np.zeros((_GROUP, 2, _GROUP, 2))
        for j in range(_GROUP):
            for t in range(j, _GROUP):
                in_group[j, :, t] = powers[t - j]
        self.in_group = in_group.reshape(2 * _GROUP, 2 * _GROUP)
        # a group's entry state to the start states of its chunks, and to the next entry
        self.from_entry = powers[1:].transpose(1, 0, 2).reshape(2, 2 * _GROUP)
        self.across = powers[_GROUP]

    def __call__(self, *rows: np.ndarray) -> np.ndarray:
        """y of the channels ``rows[c]``, each ``(n_rows, n_samples)``."""
        m, p, n_chunks, n_groups = self.m, self.n_channels, self.n_chunks, self.n_groups
        n_rows, width = rows[0].shape[0], p * m
        # per row and chunk of work: each channel's m inputs, then the 2 start states
        work = np.empty((n_rows, n_chunks, width + 2))
        for c, x in enumerate(rows):
            inputs = work[..., c * m : (c + 1) * m]
            inputs[:, 0, : self.pad] = 0.0
            inputs[:, 0, self.pad :] = x[:, : m - self.pad]
            inputs[:, 1:] = x[:, m - self.pad :].reshape(n_rows, n_chunks - 1, m)
        # the pushes of every chunk but the last, _GROUP chunks to a group,
        # then every start state from a zero group start; the last group's
        # tail is zeroed, since a NaN left there would reach every state
        # of its group through the zeros of the in-group matrix
        grouped = np.empty((n_rows, n_groups * _GROUP, 2))
        self._products(work[:, :-1, :width], self.to_state, grouped[:, : n_chunks - 1])
        grouped[:, n_chunks - 1 :] = 0.0
        grouped = grouped.reshape(n_rows, n_groups, 2 * _GROUP)
        in_group = self._products(grouped, self.in_group, np.empty(grouped.shape))
        # the entry states, carried from group to group, then added to their groups
        entries = np.empty((n_rows, n_groups, 2))
        entries[:, :1] = 0.0
        for g in range(1, n_groups):
            np.matmul(entries[:, g - 1 : g], self.across, out=entries[:, g : g + 1])
            entries[:, g] += in_group[:, g - 1, -2:]
        in_group += self._products(entries, self.from_entry, grouped)
        work[:, 0, width:] = 0.0
        work[:, 1:, width:] = in_group.reshape(n_rows, n_groups * _GROUP, 2)[:, : n_chunks - 1]
        out = self._products(work, self.to_output, np.empty((n_rows, n_chunks, m)))
        return out.reshape(n_rows, -1)[:, self.pad :]

    @staticmethod
    def _products(x: np.ndarray, maps: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``x @ maps`` for ``(rows, chunks or groups, k)`` x into ``out``, a few per product.

        OpenBLAS runs a product of more than 2**18 multiply-adds on
        several threads, which made 16384-sample frames 1.7 times slower
        to fill, so each product takes at most that many.
        """
        span = max(1, 2**18 // maps.size)
        for lo in range(0, x.shape[1], span):
            np.matmul(x[:, lo : lo + span], maps, out=out[:, lo : lo + span])
        return out


def _responses(numerators, a, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Outputs and states of ``lfilter(b_c, a)`` over n samples, by the recursion itself.

    Column c < p (p numerators) starts from zero state with a unit
    impulse at sample 0 through numerator c; columns p and p + 1 start
    from the unit states z_0 and z_1 with zero input.  Returns the
    ``(n, p + 2)`` outputs and the ``(n + 1, 2, p + 2)`` states, entry k
    the state after k samples.
    """
    _, a1, a2 = (float(v) for v in a)
    # each column's numerator, first input and start state
    starts = [(*(float(v) for v in b), 1.0, 0.0, 0.0) for b in numerators]
    starts += [(0.0, 0.0, 0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)]
    y, z = np.empty((n, len(starts))), np.empty((n + 1, 2, len(starts)))
    # a column at a time in Python floats, which round as float64 does and
    # step faster than NumPy operations on rows of p + 2
    for c, (b0, b1, b2, x, z0, z1) in enumerate(starts):
        outputs, states = [], [(z0, z1)]
        for _ in range(n):
            outputs.append(b0 * x + z0)
            z0, z1 = b1 * x - a1 * outputs[-1] + z1, b2 * x - a2 * outputs[-1]
            states.append((z0, z1))
            x = 0.0
        y[:, c], z[:, :, c] = outputs, states
    return y, z


def _spectral_factor(v: float, b_lp: np.ndarray, b_hp: np.ndarray) -> np.ndarray:
    """The minimum-phase numerator b of a record of constant variance ``v``.

    The record x = LP(sqrt(v) z0) + HP(z1) of white z0, z1 has the
    spectrum (v |B_lp|^2 + |B_hp|^2) / |A|^2: the Butterworth pair shares
    its denominator A, and B_lp = g_l (1 + 1/z)^2, B_hp = g_h (1 - 1/z)^2.
    So lfilter(b, A) of one white row is the same Gaussian process when
    |b|^2 = v |B_lp|^2 + |B_hp|^2 on the unit circle.  There
    1 + 1/z = 2 c e^{-iw/2} and 1 - 1/z = 2i s e^{-iw/2}, with c, s the
    cosine and sine of w/2, so

        b = p (1 + 1/z)^2 + q (1 - 1/z^2) + g_h (1 - 1/z)^2

    has |b|^2 = 16 ((p c^2 - g_h s^2)^2 + q^2 c^2 s^2), which is
    16 (v g_l^2 c^4 + g_h^2 s^4) for p = sqrt(v) g_l and q^2 = 2 p g_h.
    With q > 0 the zeros are a conjugate pair (the discriminant is
    -8 p g_h) whose product b[2] / b[0] lies in (0, 1): inside the unit
    circle.  The closed form keeps its precision where the zeros crowd
    z = 1 (a narrow detector, v << 1), which the roots of the degree-4
    numerator lose.  At v = 1 it is A itself, up to rounding.
    """
    g_h = float(b_hp[0])
    p = math.sqrt(v) * float(b_lp[0])
    q = math.sqrt(2.0 * p * g_h)
    return np.array([p + q + g_h, 2.0 * (p - g_h), p - q + g_h])


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


# Rows per tile: the buffers of a filtered fill and of the block
# reductions in dsp hold _tile_rows(n) rows of n samples, not a block of
# up to 256 frames.  A tile holds about _TILE_SAMPLES samples and at most
# _TILE_ROWS rows: 15 rows at the 4160 samples of a 4096-sample frame with
# its burn-in, 32 rows from 2048 samples down.  Measured on 2 vCPUs:
# - `spectrum`, 2000 frames of 4096 samples, 12 alternating runs per size:
#   peak RSS 97.7 MB with block-sized buffers, 52.5, 59.1, 65.8 and
#   72.3 MB with tiles of 16, 32, 48 and 64 rows.
# - Since the grouped carry, a flat 16-row tile runs `spectrum_long` as
#   fast as 32 rows (medians 0.98 and 0.99 s, peak RSS 55.1 and 60.2 MB),
#   but made `epr_scan` slower in 4 of 4 benchmark rounds, 0.74-0.84 s
#   against 0.64-0.73 s: on its 1384-sample frames the per-tile cost of a
#   smaller tile does not pay.  So the row count follows the frame length.
# - This rule, with every stream consumer holding one block at a time:
#   `spectrum_long` peak RSS 61.4 -> 51.3 MB (medians, lower in 10 of 10
#   benchmark pairs), wall and CPU time within the runs' spread.
# A row's bits do not depend on its tile, so the tile never changes bytes.
_TILE_ROWS = 32
_TILE_SAMPLES = 2**16


def _tile_rows(n_samples: int) -> int:
    """Rows per tile of ``n_samples``-sample rows, 1 to ``_TILE_ROWS``."""
    return min(_TILE_ROWS, max(1, _TILE_SAMPLES // n_samples))


# Frames per block of a stream, at most; the reducers in dsp take a
# block a tile at a time
_BLOCK_ROWS = 256

# Frames a run may hold: frame k's substream takes k as one uint32 spawn-key word
_MAX_FRAMES = 2**32


def block_bounds(n_frames: int) -> Iterator[tuple[int, int, int]]:
    """The ``(split, start, stop)`` of each block of a stream of ``n_frames`` frames, in order.

    Each of the 10 splits of :func:`sqzsim.quantum.split_slices` is cut
    into blocks of at most ``_BLOCK_ROWS`` frames counted from the split
    start, so no block crosses a split edge.  The count is checked on the
    call; the blocks are walked lazily, so a stream of 2**32 frames starts
    without a layout of 2**24 blocks.
    """
    if n_frames < N_SPLITS:
        raise ValueError(f"need at least {N_SPLITS} frames for error estimation")
    return (
        (s_idx, lo, min(lo + _BLOCK_ROWS, sl.stop))
        for s_idx, sl in enumerate(split_slices(n_frames))
        for lo in range(sl.start, sl.stop, _BLOCK_ROWS)
    )


class _Synthesis:
    """The synthesis of one run: LO phase, std template and detector filters.

    :meth:`fill` writes any frame range into caller-owned float32 rows,
    so every block of a stream comes from the one synthesis loop.
    """

    def __init__(self, traj, det, lo, seed) -> None:
        if not np.isfinite(lo):
            raise ValueError("LO phase must be finite")
        filters = det.filters()
        var = det.record_variance(traj, float(lo))
        self.std = np.sqrt(var).astype(np.float32)
        self.n_samples = traj.n_samples
        self.n_total = self.std.size
        self.n_burn = self.n_total - self.n_samples
        self.seed = seed
        if filters is None:
            self.kernel = None
        else:
            b_lp, b_hp, a = filters
            if var[0] != 1.0 and np.all(var == var[0]):
                # constant squeezing: one draw row through its spectral factor
                numerators = [_spectral_factor(float(var[0]), b_lp, b_hp)]
            else:
                # the raw draws through the low-pass, their complement through the high-pass
                numerators = [b_lp, b_hp]
            self.kernel = _BlockFilter(numerators, a, self.n_total)

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
        """Write frames [start, start + len(out)) into ``out``, on the calling thread.

        A filtered fill draws every tile of rows into one float32 tile of
        its own, so two fills of one block's rows share nothing but ``out``.
        """
        gens = self._substreams(start, start + out.shape[0])
        if self.kernel is None:
            # an ideal detector needs no vacuum complement: draw one row
            # per frame in place, then scale the rows by the std template
            for row, gen in zip(out, gens):
                gen.standard_normal(dtype=np.float32, out=row)
            out *= self.std
            return
        tile = _tile_rows(self.n_total)
        channels = self.kernel.n_channels
        draws = np.empty((min(tile, out.shape[0]), channels, self.n_total), dtype=np.float32)
        for first in range(0, out.shape[0], tile):
            n = min(tile, out.shape[0] - first)
            for row, gen in zip(draws[:n], gens):
                gen.standard_normal(dtype=np.float32, out=row)
            if channels == 2:
                # the raw draws scaled in float32; the kernel casts every
                # float32 channel to float64 exactly
                draws[:n, 0] *= self.std
            filtered = self.kernel(*draws[:n].transpose(1, 0, 2))
            out[first : first + n] = filtered[:, self.n_burn :]


def _fill_halves(pool: ThreadPoolExecutor, synth: _Synthesis, out: np.ndarray, start: int) -> None:
    """Fill the block ``out`` of frames from ``start`` in two halves of its rows.

    The worker of ``pool`` fills the second half while the caller fills
    the first.  Every frame has its own substream and the filter treats
    each row on its own, so the halves give the bytes of one fill.  The
    worker writes into ``out``, so the pool's exit waits for it whatever
    the caller's half raises.
    """
    mid = out.shape[0] // 2
    worker = pool.submit(synth.fill, out[mid:], start + mid)
    synth.fill(out[:mid], start)
    worker.result()


def iter_frame_chunks(
    traj: SqueezerTrajectory,
    det: DetectorModel,
    lo: float,
    seed: int,
    frames: range,
) -> Iterator[np.ndarray]:
    """Synthesize a range of the homodyne frames of one run, one block at a time.

    Parameters
    ----------
    traj : SqueezerTrajectory
        On the detector grid: frame sample k is trajectory sample k.
    det : DetectorModel
    lo : float
        LO phase (radians) of every frame.
    seed : int
        Root seed.
    frames : range
        The frames to synthesize, a step-1 range inside [0, 2**32) of at
        least 10 frames.  Frame k uses the (seed, k) substream, so a
        range of frames is the same whatever else is synthesized.

    Yields
    ------
    numpy.ndarray
        A fresh float32 ``(stop - start, n_samples)`` array for each
        block of ``block_bounds(len(frames))``, counted from
        ``frames.start``, each frame covering the times of the
        trajectory, so a caller reduces a long run block by block
        without holding its frame stack.  The range is checked before
        the first block is filled; a fault in filling a block is raised
        by the ``next()`` that would return it.
    """
    if not (isinstance(frames, range) and frames.step == 1
            and 0 <= frames.start and frames.stop <= _MAX_FRAMES):
        raise ValueError(f"frames must be a step-1 range inside [0, 2**32), got {frames!r}")
    bounds = ((frames.start + a, frames.start + b) for _, a, b in block_bounds(len(frames)))
    synth = _Synthesis(traj, det, lo, seed)

    def block(start: int, stop: int) -> np.ndarray:
        out = np.empty((stop - start, synth.n_samples), dtype=np.float32)
        if synth.kernel is None:
            synth.fill(out, start)
        else:
            _fill_halves(pool, synth, out, start)
        return out

    # the stream's own worker; the pool's exit waits for any fill still
    # running, so a consumer that raises or closes early leaves none
    with ThreadPoolExecutor(max_workers=1) as pool:
        if synth.kernel is not None:
            for start, stop in bounds:
                yield block(start, stop)
            return
        # The worker fills the next ideal block while the caller
        # reduces this one.  Measured on 2 vCPUs and rejected, each against
        # this pair of schedules: splitting the ideal rows as a filtered
        # block is split (`waveforms_ideal` 0.67-0.75 -> 1.01-1.19 s: the
        # per-frame state setting holds the GIL and a 1300-sample draw is
        # short), and prefetching filtered blocks instead of splitting them
        # (`spectrum_long` 0.82-0.88 -> 0.98-1.12 s and 50.5 -> 57.0 MB,
        # `epr_scan` 0.48-0.53 -> 0.63-0.71 s).
        first = next(bounds)
        pending = pool.submit(block, *next(bounds))
        yield block(*first)
        for nxt in bounds:
            ready = pending.result()
            pending = pool.submit(block, *nxt)
            yield ready
            del ready
        yield pending.result()
