"""Analysis of homodyne records.

Everything here is normalized against a vacuum reference taken through
the same detector, so detector gain and filter shape drop out of the
reported quantities.  Standard errors follow one convention throughout
the package: the data are split into 10 contiguous subsets by
:func:`sqzsim.quantum.split_slices`, the statistic is evaluated per
subset, and the error is the subset standard deviation over sqrt(10).
Pure squeezing and loss invert the loss model in closed form, with
errors from its exact gradient (:func:`estimate_pure_squeezing_and_loss`).

Every analysis is a reduction over frame blocks as
:func:`sqzsim.homodyne.iter_frame_chunks` yields them, cut by
:func:`sqzsim.homodyne.block_bounds`, so no run holds its frame stack.
Spectra come from :func:`periodogram_split_means`; variances and the
moments of mode quadratures from :func:`split_moments`, and
:func:`variance_ratio` scales a variance trace to shot noise, one
value per column, whose times the caller keeps.  :func:`fir_filter`
keeps the samples of a block that every FIR tap covers.  Temporal-mode
quadratures come from :class:`ModeScan`, the one projection path: it
integrates each frame of a block against combinations of modes, at one
sample lag by direct dot products or slid over many lags with one FFT
correlation per block.  The shot-noise unit of a mode is the square
root of the variance of its quadrature over a vacuum reference.

Each reduction takes a block a tile of rows at a time, through buffers
of one tile that the call makes for itself, so a block of up to
``homodyne._BLOCK_ROWS`` frames needs no block-sized temporary.  A tile
holds ``homodyne._tile_rows(n)`` rows of n samples, fewer rows for
longer frames, as synthesis does.  Two routines hold the tile loops:
:func:`_sum_rows` sums a transform of a block's rows one row after
another across tiles, as one sum over the whole block would, and
:func:`_fft_rows` filters rows through FFT products.  A row's bytes do
not depend on its tile.  A stream reducer drops each block before it
asks for the next, so it holds one block at a time.

Every transform is ``numpy.fft``, whose float64 transforms give the
bytes of ``scipy.fft`` from NumPy 2.0 on; spectra of float32 records
are transformed in float64.  :func:`_next_fast_len` is SciPy's
``next_fast_len`` for real input, so no module imports SciPy.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
import numpy.fft

from sqzsim.homodyne import _tile_rows, block_bounds
from sqzsim.quantum import N_SPLITS, split_slices, split_stderr

__all__ = [
    "SpectrumEstimate",
    "periodogram_split_means",
    "spectrum_ratio",
    "band_average",
    "PureSqueezingEstimate",
    "estimate_pure_squeezing_and_loss",
    "fir_taps",
    "fir_filter",
    "VarianceTrace",
    "SplitMoments",
    "split_moments",
    "variance_ratio",
    "TemporalMode",
    "make_mode",
    "ModeScan",
]

def _blocks_by_split(
    n_frames: int, blocks: Iterable[np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """Each block of ``blocks`` with the index of its split.

    The blocks must hold the frames of the ranges of
    :func:`sqzsim.homodyne.block_bounds`, in order; a missing, mis-sized
    or surplus block raises.
    """
    blocks = iter(blocks)
    n_blocks = 0
    for n_blocks, (s_idx, lo, hi) in enumerate(block_bounds(n_frames), 1):
        block = next(blocks, None)
        if block is None or block.shape[0] != hi - lo:
            raise ValueError(f"expected a block of frames [{lo}, {hi})")
        yield s_idx, block
        # dropped before the next block is asked for, as the consumer drops it
        del block
    if next(blocks, None) is not None:
        raise ValueError(f"more blocks than the {n_blocks} of block_bounds({n_frames})")


def periodogram_split_means(n_frames: int, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Mean |rfft|^2 per 10-way split, reduced block by block in float64.

    ``blocks`` yields the frames of each range of
    :func:`sqzsim.homodyne.block_bounds` in order, for instance from
    :func:`sqzsim.homodyne.iter_frame_chunks` or as slices of a frame
    stack; only one block is held at a time.  Every block is cast to
    float64 before its rfft, whatever its dtype: NumPy's float32 rfft is
    slower than its float64 one.  A block's power rows are summed by
    :func:`_sum_rows`, in the order of a sum over the whole block.
    Rectangular window; no per-bin normalization (it cancels in the
    signal-to-vacuum ratio).
    """
    counts = np.array([sl.stop - sl.start for sl in split_slices(n_frames)], dtype=float)
    sums = [0.0] * N_SPLITS
    for s_idx, block in _blocks_by_split(n_frames, blocks):
        sums[s_idx] = sums[s_idx] + _sum_rows(block, _power, block.shape[1] // 2 + 1)
        del block
    return np.stack(sums) / counts[:, None]


def _power(x: np.ndarray, out: np.ndarray) -> None:
    """|rfft|^2 of each row of ``x``, cast to float64, into ``out``."""
    spectrum = np.fft.rfft(np.asarray(x, dtype=np.float64), axis=1)
    # re^2 + im^2: squared in place on the interleaved float64 view
    parts = np.square(spectrum.view(np.float64), out=spectrum.view(np.float64))
    np.add(parts[:, 0::2], parts[:, 1::2], out=out)


def _sum_rows(x: np.ndarray, transform, width: int) -> np.ndarray:
    """The sum over the rows of ``x`` of ``transform``, a tile of rows at a time.

    ``transform(rows, out)`` writes ``width`` values for each row of a
    tile into the rows of ``out``.  Row 0 of the tile buffer carries the
    running sum into each tile after the first, so the tiles add one row
    after another, in the order, and to the bits, of one sum over axis 0
    of the whole block.
    """
    tile = _tile_rows(x.shape[1])
    buffer = np.empty((min(tile, x.shape[0]) + 1, width))
    total = np.empty(width)
    for lo in range(0, x.shape[0], tile):
        rows = min(tile, x.shape[0] - lo)
        transform(x[lo : lo + rows], buffer[1 : rows + 1])
        if lo:
            buffer[0] = total
        np.sum(buffer[0 if lo else 1 : rows + 1], axis=0, out=total)
    return total


@dataclass(frozen=True)
class SpectrumEstimate:
    """Shot-noise-normalized noise spectrum in dB with standard errors."""

    freqs: np.ndarray
    level_db: np.ndarray
    stderr_db: np.ndarray


def spectrum_ratio(sig: np.ndarray, vac: np.ndarray, n_samples: int, dt: float) -> SpectrumEstimate:
    """Spectrum in dB relative to shot noise from two sets of split means.

    ``sig`` and ``vac`` come from :func:`periodogram_split_means` of a
    signal run and of its vacuum reference, on frames of ``n_samples``
    samples at interval ``dt``.
    """
    level = 10.0 * np.log10(sig.mean(axis=0) / vac.mean(axis=0))
    per_split = 10.0 * np.log10(sig / vac)
    stderr = split_stderr(per_split)
    freqs = np.fft.rfftfreq(n_samples, d=dt)
    return SpectrumEstimate(freqs=freqs, level_db=level, stderr_db=stderr)


def band_average(spec: SpectrumEstimate, f_lo: float = 1e6, f_hi: float = 10e6) -> tuple[float, float]:
    """Mean dB level over [f_lo, f_hi] and its propagated standard error."""
    if f_hi <= f_lo:
        raise ValueError("need f_hi > f_lo")
    mask = (spec.freqs >= f_lo) & (spec.freqs <= f_hi)
    n = int(np.count_nonzero(mask))
    if n == 0:
        raise ValueError(f"no spectrum bins fall inside [{f_lo:g}, {f_hi:g}] Hz")
    level = float(spec.level_db[mask].mean())
    stderr = float(np.sqrt(np.sum(spec.stderr_db[mask] ** 2)) / n)
    return level, stderr


@dataclass(frozen=True)
class PureSqueezingEstimate:
    """Decomposition of measured squeezing into a pure level plus loss."""

    pure_db: float
    loss: float
    pure_db_stderr: float | None = None
    loss_stderr: float | None = None
    low_confidence: bool = False


def estimate_pure_squeezing_and_loss(
    s_db: float,
    a_db: float,
    s_stderr_db: float | None = None,
    a_stderr_db: float | None = None,
) -> PureSqueezingEstimate:
    """Infer the lossless squeezing level and the optical loss.

    The linear levels S = (1 - L)/x + L and A = (1 - L) x + L, with
    x = e^{2r}, give (S - L)(A - L) = (1 - L)^2, so in closed form
    L = (S A - 1)/(S + A - 2) and x = (A - 1)/(1 - S).

    Parameters
    ----------
    s_db, a_db : float
        Measured squeezed and anti-squeezed noise levels in dB relative
        to shot noise (s_db negative, a_db positive).
    s_stderr_db, a_stderr_db : float, optional
        Standard errors of the inputs; when both are given the output
        errors follow from the closed form by the delta method.  They
        raise for a pair of the noise band below with S + A <= 2, the
        pole of the gradient of L.

    Returns
    -------
    PureSqueezingEstimate
        ``pure_db`` is the squeezing level before loss (positive dB),
        ``loss`` the inferred end-to-end efficiency deficit.  Pairs
        statistically indistinguishable from vacuum come back with
        ``low_confidence`` set instead of raising: S A in [1 - 1e-6, 1),
        within noise of the pure-state boundary, gets the L = 0 fit
        x = sqrt(A/S), and r below 1e-9 the zero estimate.
    """
    s_lin = 10.0 ** (float(s_db) / 10.0)
    a_lin = 10.0 ** (float(a_db) / 10.0)
    if s_lin >= 1.0 or a_lin <= 1.0:
        if abs(s_db) < 1e-3 and abs(a_db) < 1e-3:
            return PureSqueezingEstimate(pure_db=0.0, loss=0.0, low_confidence=True)
        raise ValueError(
            "inputs show no squeezing: need s_db < 0 < a_db, got "
            f"({s_db:+.4g}, {a_db:+.4g}) dB"
        )
    product = s_lin * a_lin
    if product < 1.0 - 1e-6:
        raise ValueError(
            "infeasible squeezing pair: S*A = "
            f"{product:.6g} < 1 would require negative loss"
        )
    if product < 1.0:
        r, loss, low_confidence = 0.25 * math.log(a_lin / s_lin), 0.0, True
    else:
        r = 0.5 * math.log((a_lin - 1.0) / (1.0 - s_lin))
        loss = (product - 1.0) / (s_lin + a_lin - 2.0)
        low_confidence = r < 1e-9
        if low_confidence:
            r = loss = 0.0
    pure_db = 20.0 * r / math.log(10.0)

    pure_se = loss_se = None
    if s_stderr_db is not None and a_stderr_db is not None:
        excess = s_lin + a_lin - 2.0
        if excess <= 0.0:
            raise ValueError(f"infeasible squeezing pair: S + A - 2 = {excess:.3g} <= 0")
        # d(S, A)/d(s_db, a_db) = (S, A) ln(10) / 10
        s_se, a_se = s_lin * s_stderr_db, a_lin * a_stderr_db
        pure_se = math.hypot(s_se / (1.0 - s_lin), a_se / (a_lin - 1.0))
        loss_se = (math.log(10.0) / 10.0) * math.hypot(
            (a_lin - 1.0) ** 2 * s_se, (1.0 - s_lin) ** 2 * a_se
        ) / excess**2
    return PureSqueezingEstimate(
        pure_db=pure_db,
        loss=loss,
        pure_db_stderr=pure_se,
        loss_stderr=loss_se,
        low_confidence=low_confidence or pure_db < 0.01,
    )


def fir_taps(dt: float, taps: int = 255, cutoff: float = 100e6) -> np.ndarray:
    """Windowed-sinc linear-phase low-pass taps (unit DC gain).

    The taps of SciPy's ``firwin(taps, cutoff, fs=1 / dt)``, byte
    for byte, in SciPy's own order of operations: the sinc terms, its
    Hamming window as a cosine sum on ``linspace(-pi, pi, taps)``, then
    the division by the DC sum.  A textbook Hamming window differs from
    SciPy's by up to 4e-17.
    """
    if taps < 3 or taps % 2 == 0:
        raise ValueError(f"taps must be an odd integer >= 3, got {taps}")
    nyquist = 0.5 / dt
    if not 0.0 < cutoff < nyquist:
        raise ValueError(
            f"cutoff must lie inside (0, {nyquist:g}) Hz, below Nyquist, got {cutoff:g}"
        )
    # 0.5 / dt is firwin's 0.5 * (1 / dt) exactly: halving commutes with rounding
    right = cutoff / nyquist
    m = np.arange(taps, dtype=np.float64) - 0.5 * (taps - 1)
    h = right * np.sinc(right * m)
    h *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, taps))
    return h / np.sum(h)


def _next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, as ``scipy.fft.next_fast_len(n, True)``."""
    if n <= 6:
        return n
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # the smallest power-of-two multiple of f35 that is >= n
            best = min(best, f35 << ((n - 1) // f35).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def fir_filter(frames: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The valid part of every row of ``frames`` convolved with the taps ``h``.

    Each float64 row holds the n - len(h) + 1 outputs that every tap
    covers, so for odd-length linear-phase taps its sample j is centred
    on sample j + (len(h) - 1)/2 of the frame; a frame shorter than the
    taps raises.  These are the FFT calls of ``fftconvolve(mode="valid",
    axes=1)``, made by :func:`_fft_rows` a tile of rows at a time.  A
    row's bytes do not depend on the other rows, so the blocks of a
    stream filter to the rows of the whole stack.
    """
    n = frames.shape[1]
    if n < h.size:
        raise ValueError(f"{n}-sample frames are shorter than the {h.size} taps")
    size = _next_fast_len(n + h.size - 1)
    out = np.empty((frames.shape[0], n - h.size + 1))
    _fft_rows(frames, np.fft.rfft(h, size)[None], size, slice(h.size - 1, n), out[:, None])
    return out


def _fft_rows(x: np.ndarray, spectra: np.ndarray, size: int, columns, out: np.ndarray) -> None:
    """``irfft(rfft(row, size) * spectra[k], size)[columns]`` of each row of ``x``, into ``out[:, k]``.

    The rows go a tile at a time through one zero-padded float64 tile and
    its rfft, which a single kernel spectrum multiplies in place.  A row's
    bytes do not depend on the other rows.
    """
    tile = _tile_rows(size)
    # the zeros past the row stay zero from tile to tile
    padded = np.zeros((min(tile, x.shape[0]), size))
    for lo in range(0, x.shape[0], tile):
        rows = min(tile, x.shape[0] - lo)
        padded[:rows, : x.shape[1]] = x[lo : lo + rows]
        spectrum = np.fft.rfft(padded[:rows], axis=1)
        for k, kernel in enumerate(spectra):
            product = np.multiply(spectrum, kernel, out=spectrum if len(spectra) == 1 else None)
            out[lo : lo + rows, k] = np.fft.irfft(product, size, axis=1)[:, columns]


@dataclass(frozen=True)
class VarianceTrace:
    """Per-time-sample variance across frames, in shot-noise units."""

    variance: np.ndarray
    stderr: np.ndarray


def _chan_merge(a: tuple, b: tuple) -> tuple:
    """(count, mean, M2) of the union of two disjoint sets of frames.

    The pairwise update of Chan, Golub & LeVeque, Am. Stat. 37(3), 1983.
    """
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + np.square(delta) * (n_a * n_b / n)


@dataclass(frozen=True)
class SplitMoments:
    """Frame count, mean and summed squared deviation per split and column.

    ``count`` has one entry per 10-way split; ``mean`` and ``m2`` have one
    row per split and one column per reduced quantity: a time sample of
    the records, or a mode quadrature.
    """

    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray

    def split_variances(self) -> np.ndarray:
        """Variance across frames (ddof=1) of each split at each sample."""
        return self.m2 / (self.count[:, None] - 1.0)

    def merged(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(count, mean, M2) over all frames, the splits merged."""
        return functools.reduce(_chan_merge, zip(self.count, self.mean, self.m2))

    def variance(self) -> np.ndarray:
        """Variance across all frames (ddof=1) at each sample, the splits merged."""
        n, _, m2 = self.merged()
        return m2 / (n - 1.0)


def split_moments(n_frames: int, blocks: Iterable[np.ndarray]) -> SplitMoments:
    """Per-split moments of every time sample over frames, in float64.

    ``blocks`` yields the frames of each range of
    :func:`sqzsim.homodyne.block_bounds` in order, as for
    :func:`periodogram_split_means`; only one block is held at a time.
    Each block's mean and M2 are taken in two passes and merged into its
    split with the Chan update: the mean of the whole block first, then
    the squared deviations a tile of rows at a time.  Every split
    needs two frames for its variance, so ``n_frames`` must be at least 20.
    """
    if n_frames < 2 * N_SPLITS:
        raise ValueError(
            f"need n_frames >= {2 * N_SPLITS}, two frames for each of the "
            f"{N_SPLITS} split variances, got {n_frames}"
        )
    splits: list = [None] * N_SPLITS
    for s_idx, block in _blocks_by_split(n_frames, blocks):
        x = np.asarray(block, dtype=float)
        mean = x.mean(axis=0)

        def deviations(rows, out):
            np.square(np.subtract(rows, mean, out=out), out=out)

        part = (float(x.shape[0]), mean, _sum_rows(x, deviations, x.shape[1]))
        splits[s_idx] = part if splits[s_idx] is None else _chan_merge(splits[s_idx], part)
        del block, x
    count, mean, m2 = zip(*splits)
    return SplitMoments(count=np.array(count), mean=np.stack(mean), m2=np.stack(m2))


def variance_ratio(sig: SplitMoments, vac: SplitMoments) -> VarianceTrace:
    """Variance trace in shot-noise units from two sets of split moments.

    ``sig`` and ``vac`` come from :func:`split_moments` of a signal run
    and of its vacuum reference.  The unit is the time-averaged
    pointwise variance of the reference, so the trace of a vacuum set is
    flat at 1; the error is the scatter of the split variances.
    """
    shot = float(np.mean(vac.variance()))
    if shot <= 0.0:
        raise ValueError("vacuum reference has zero variance")
    stderr = split_stderr(sig.split_variances() / shot)
    return VarianceTrace(variance=sig.variance() / shot, stderr=stderr)


@dataclass(frozen=True)
class TemporalMode:
    """Discrete temporal-mode weights on a uniform grid.

    Normalized so sum(weights^2) * dt = 1; weights therefore carry
    units of 1/sqrt(s) and mode overlaps sum(w1 w2) * dt are
    dimensionless.  ``t0`` is the time of the first weight on the record
    grid, which starts at t = 0, and the mode's only position:
    :meth:`shifted` moves it, and a caller that needs the center it
    asked :func:`make_mode` for keeps that number itself.
    """

    dt: float
    t0: float
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("weights must be a 1-D array with >= 2 samples")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite values")
        norm = np.sum(w * w) * self.dt
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("weights must be normalized: sum(w^2) dt = 1")
        object.__setattr__(self, "weights", w)
        self.weights.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.weights.size

    def indices(self, dt: float, n_samples: int) -> slice:
        """The one placement of the mode: its samples on a record of ``n_samples`` at ``dt``."""
        offset = self.t0 / dt
        idx0 = round(offset)
        if abs(offset - idx0) > 1e-6:
            raise ValueError("mode samples fall between record samples: align the mode "
                             "center with the record grid")
        if abs(self.dt - dt) > 1e-12 * dt:
            raise ValueError("mode and record sample intervals differ")
        if idx0 < 0 or idx0 + self.n_samples > n_samples:
            end = self.t0 + self.n_samples * self.dt
            raise ValueError(
                f"mode support [{self.t0:.3g}, {end:.3g}] s is not fully inside the record window"
            )
        return slice(idx0, idx0 + self.n_samples)

    def shifted(self, delta_t: float) -> "TemporalMode":
        return TemporalMode(dt=self.dt, t0=self.t0 + delta_t, weights=self.weights)


def _normalize(w: np.ndarray, dt: float) -> np.ndarray:
    norm = math.sqrt(float(np.sum(w * w)) * dt)
    if norm <= 0.0:
        raise ValueError("mode weights are identically zero")
    return w / norm


def _gaussian(gamma: float, tau: np.ndarray) -> np.ndarray:
    """exp(-(gamma tau)^2), taken as its limit 0 where the square overflows."""
    with np.errstate(over="ignore"):
        return np.exp(-((gamma * tau) ** 2))


def make_mode(
    family: str,
    dt: float,
    t_c: float,
    gamma: float,
    t_w: float,
    period: float | None = None,
) -> TemporalMode:
    """Build one of the pulsed temporal-mode families.

    Parameters
    ----------
    family : str
        "tf_mode": w(tau) proportional to tau exp(-gamma^2 tau^2), the
        odd mode matched to a single squeezed pulse.
        "g1" / "g2": sum and difference modes of a Gaussian envelope
        gated by the complementary halves of a square wave of
        ``period``, [n T, n T + T/2) and the rest; g1 is the bare
        envelope, g2 the envelope times -1 on the first halves and +1
        on the second, so it oscillates at 1/period.
    dt : float
        Sample interval of the records the mode will be applied to.
    t_c : float
        Mode center time.  tf_mode samples on grid offsets that are
        integer multiples of dt from t_c; the g families sample at
        half-sample offsets so the square-wave gating is exactly
        mirror-symmetric about t_c.
    gamma : float
        Envelope decay rate (1/s).
    t_w : float
        Total window width; weights are zero outside |tau| <= t_w / 2.
    period : float, optional
        Square-wave period T, required for g1/g2.

    Notes
    -----
    The g modes separate cleanly in frequency only when gamma * T / pi
    is small; a UserWarning is emitted at >= 0.1.
    """
    if dt <= 0.0 or t_w <= 0.0 or gamma <= 0.0:
        raise ValueError("dt, t_w and gamma must all be > 0")
    if t_w < 4.0 * dt:
        raise ValueError("mode window must span at least 4 samples")

    if family == "tf_mode":
        n_half = int(math.floor(t_w / (2.0 * dt)))
        tau = np.arange(-n_half, n_half + 1) * dt
        w = tau * _gaussian(gamma, tau)
        return TemporalMode(dt=dt, t0=t_c - n_half * dt, weights=_normalize(w, dt))

    if family not in ("g1", "g2"):
        raise ValueError(f"unknown mode family {family!r}")
    if period is None or period <= 0.0:
        raise ValueError(f"family {family!r} requires a positive square-wave period")
    if gamma * period / math.pi >= 0.1:
        warnings.warn(
            "gamma * period / pi = "
            f"{gamma * period / math.pi:.3g} >= 0.1: the sum/difference modes are no "
            "longer well separated in frequency",
            UserWarning,
            stacklevel=2,
        )
    n_w = int(round(t_w / dt))
    if n_w % 2 == 1:
        n_w += 1
    # half-sample offsets: every +tau sample has an exact -tau mirror
    tau = (np.arange(n_w) - 0.5 * n_w + 0.5) * dt
    w = _gaussian(gamma, tau)
    if family == "g2":
        # 1 where tau falls in [n T, n T + T/2), else 0
        first_half = (np.floor(2.0 * tau / period).astype(np.int64) % 2 == 0).astype(float)
        w = w * (1.0 - 2.0 * first_half)
    return TemporalMode(dt=dt, t0=t_c + tau[0], weights=_normalize(w, dt))


class ModeScan:
    """Mode integrals of frame blocks with the modes slid over sample lags.

    Kernel k is ``sum_i coeffs[k][i] * modes[i]``.  Column
    ``k * len(lags) + j`` of a block's result holds each frame's
    integral sum_t x(t) w(t) dt against kernel k shifted by ``lags[j]``
    samples, in raw record units; identity coefficients at lag 0 give
    the plain quadrature of every mode.  The records hold ``n_samples``
    samples at interval ``dt`` from t = 0, the grid of
    :mod:`sqzsim.homodyne`; every shifted mode must lie on it, as
    :meth:`TemporalMode.indices` places it.
    With one lag a block's integrals are direct dot products.  With more,
    the kernel spectra are built once, and a block costs one rfft of the
    window the shifted kernels cover, one product and one irfft per
    kernel: a cross-correlation in float64.  Neither route calls BLAS.
    """

    def __init__(self, modes: Sequence[TemporalMode], coeffs, lags, dt: float,
                 n_samples: int) -> None:
        lags = np.asarray(lags, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=float)
        if not modes:
            raise ValueError("need at least one mode to project onto")
        if lags.ndim != 1 or lags.size == 0:
            raise ValueError("lags must be a non-empty 1-D sequence of sample offsets")
        if coeffs.ndim != 2 or coeffs.shape[1] != len(modes):
            raise ValueError("coeffs needs one row per kernel and one column per mode")
        lo_lag, hi_lag = int(lags.min()), int(lags.max())
        # the modes at both ends of the scan must lie inside the record
        first = [m.shifted(lo_lag * dt).indices(dt, n_samples) for m in modes]
        for m in modes:
            m.shifted(hi_lag * dt).indices(dt, n_samples)
        start = min(sl.start for sl in first)
        kernels = np.zeros((coeffs.shape[0], max(sl.stop for sl in first) - start))
        for mode, sl, c in zip(modes, first, coeffs.T):
            kernels[:, sl.start - start : sl.stop - start] += np.outer(c, mode.weights * mode.dt)
        self.kernels = kernels
        self.window = slice(start, start + kernels.shape[1] + hi_lag - lo_lag)
        self.size = _next_fast_len(self.window.stop - start)
        self.spectra = np.conj(np.fft.rfft(kernels, self.size, axis=1))
        self.lags = lags - lo_lag
        self.n_samples = n_samples

    def __call__(self, block: np.ndarray) -> np.ndarray:
        """The (frames, kernels * lags) integrals of one block of frames."""
        if block.ndim != 2 or block.shape[1] != self.n_samples:
            raise ValueError(f"expected a block of {self.n_samples}-sample frames")
        window = block[:, self.window]
        if self.lags.size == 1:
            # c_einsum, not the BLAS matmul
            return np.einsum("ij,kj->ik", window, self.kernels, dtype=float)
        out = np.empty((block.shape[0], self.spectra.shape[0], self.lags.size))
        _fft_rows(window, self.spectra, self.size, self.lags, out)
        return out.reshape(block.shape[0], -1)
