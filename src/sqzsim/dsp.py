"""Analysis of homodyne records.

Everything here is normalized against a vacuum reference taken through
the same detector, so detector gain and filter shape drop out of the
reported quantities.  Standard errors follow one convention throughout
the package: the data are split into 10 contiguous subsets by
:func:`sqzsim.quantum.split_slices`, the statistic is evaluated per
subset, and the error is the subset standard deviation over sqrt(10).

Every analysis is a reduction over frame blocks as
:func:`sqzsim.homodyne.iter_frame_chunks` yields them, so no run holds
its frame stack.  Spectra come from :func:`periodogram_split_means`;
variances and the moments of mode quadratures from
:func:`split_moments`; :func:`fir_filter` filters a block.  Temporal-mode
quadratures come from :class:`ModeScan`, the one projection path: it
integrates each frame of a block against combinations of modes, at one
sample lag by direct dot products or slid over many lags with one FFT
correlation per block.  The shot-noise unit of a mode is the square
root of the variance of its quadrature over a vacuum reference.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from sqzsim.quantum import N_SPLITS, split_slices, split_stderr

__all__ = [
    "SpectrumEstimate",
    "periodogram_bounds",
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
    "ModeSpectrum",
    "mode_spectrum",
    "ModeScan",
]

_FFT_CHUNK = 256


def periodogram_bounds(n_frames: int) -> list[tuple[int, int]]:
    """Frame blocks of :func:`periodogram_split_means`, in reduction order.

    Each of the 10 splits is cut into blocks of at most 256 frames
    counted from the split start, so no block crosses a split edge.
    """
    if n_frames < N_SPLITS:
        raise ValueError(f"need at least {N_SPLITS} frames for error estimation")
    return [
        (lo, min(lo + _FFT_CHUNK, sl.stop))
        for sl in split_slices(n_frames)
        for lo in range(sl.start, sl.stop, _FFT_CHUNK)
    ]


def _blocks_by_split(
    n_frames: int, blocks: Iterable[np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """Each block of ``blocks`` with the index of its split.

    The blocks must hold the frames of the ranges of
    :func:`periodogram_bounds`, in order; a missing, mis-sized or
    surplus block raises.
    """
    bounds = periodogram_bounds(n_frames)
    slices = split_slices(n_frames)
    # the split each block lies in
    split_of = np.searchsorted([sl.stop for sl in slices], [lo for lo, _ in bounds], side="right")
    blocks = iter(blocks)
    for (lo, hi), s_idx in zip(bounds, split_of):
        block = next(blocks, None)
        if block is None or block.shape[0] != hi - lo:
            raise ValueError(f"expected a block of frames [{lo}, {hi})")
        yield int(s_idx), block
    if next(blocks, None) is not None:
        raise ValueError(f"more blocks than the {len(bounds)} of periodogram_bounds({n_frames})")


def periodogram_split_means(n_frames: int, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Mean |rfft|^2 per 10-way split, reduced block by block in float64.

    ``blocks`` yields the frames of each range of
    :func:`periodogram_bounds` in order, for instance from
    :func:`sqzsim.homodyne.iter_frame_chunks` or as slices of a frame
    stack; only one block is held at a time.  Rectangular window; no
    per-bin normalization (it cancels in the signal-to-vacuum ratio).
    """
    counts = np.array([sl.stop - sl.start for sl in split_slices(n_frames)], dtype=float)
    sums = None
    for s_idx, block in _blocks_by_split(n_frames, blocks):
        spec = scipy.fft.rfft(block, axis=1)
        p = np.square(spec.real, dtype=np.float64)
        p += np.square(spec.imag, dtype=np.float64)
        if sums is None:
            sums = np.zeros((N_SPLITS, p.shape[1]))
        sums[s_idx] += p.sum(axis=0)
    return sums / counts[:, None]


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


def _invert_levels(s_lin: float, a_lin: float) -> tuple[float, float, bool]:
    """Solve S = (1-L) e^{-2r} + L, A = (1-L) e^{2r} + L for (r, L).

    Eliminating L gives tanh(r) = (A + S - 2) / (A - S); the root is
    found by bisection (the left side is strictly increasing in r).
    """
    product = s_lin * a_lin
    if product < 1.0 - 1e-6:
        raise ValueError(
            "infeasible squeezing pair: S*A = "
            f"{product:.6g} < 1 would require negative loss"
        )
    low_confidence = False
    if product < 1.0:
        # within noise of the pure-state boundary; report the L = 0 fit
        r = 0.25 * math.log(a_lin / s_lin)
        return r, 0.0, True
    target = (a_lin + s_lin - 2.0) / (a_lin - s_lin)
    if target >= 1.0:
        raise ValueError("squeezing pair is inconsistent with 0 <= loss < 1")
    lo, hi = 0.0, 1.0
    while math.tanh(hi) < target:
        hi *= 2.0
        if hi > 1e3:
            raise ValueError("failed to bracket the squeezing parameter")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if math.tanh(mid) < target:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    if r < 1e-9:
        return 0.0, 0.0, True
    loss = 1.0 - (a_lin - s_lin) / (2.0 * math.sinh(2.0 * r))
    loss = min(max(loss, 0.0), 1.0 - 1e-15)
    return r, loss, low_confidence


def estimate_pure_squeezing_and_loss(
    s_db: float,
    a_db: float,
    s_stderr_db: float | None = None,
    a_stderr_db: float | None = None,
) -> PureSqueezingEstimate:
    """Infer the lossless squeezing level and the optical loss.

    Parameters
    ----------
    s_db, a_db : float
        Measured squeezed and anti-squeezed noise levels in dB relative
        to shot noise (s_db negative, a_db positive).
    s_stderr_db, a_stderr_db : float, optional
        Standard errors of the inputs; when both are given the output
        errors are propagated by central finite differences.

    Returns
    -------
    PureSqueezingEstimate
        ``pure_db`` is the squeezing level before loss (positive dB),
        ``loss`` the inferred end-to-end efficiency deficit.  Pairs
        statistically indistinguishable from vacuum come back with
        ``low_confidence`` set instead of raising.
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
    r, loss, low_confidence = _invert_levels(s_lin, a_lin)
    pure_db = 20.0 * r / math.log(10.0)
    if pure_db < 0.01:
        low_confidence = True

    pure_se = loss_se = None
    if s_stderr_db is not None and a_stderr_db is not None:
        h = 1e-5

        def solve(sd: float, ad: float) -> tuple[float, float]:
            rr, ll, _ = _invert_levels(10.0 ** (sd / 10.0), 10.0 ** (ad / 10.0))
            return 20.0 * rr / math.log(10.0), ll

        dp_ds, dl_ds = [(x - y) / (2 * h) for x, y in zip(solve(s_db + h, a_db), solve(s_db - h, a_db))]
        dp_da, dl_da = [(x - y) / (2 * h) for x, y in zip(solve(s_db, a_db + h), solve(s_db, a_db - h))]
        pure_se = math.hypot(dp_ds * s_stderr_db, dp_da * a_stderr_db)
        loss_se = math.hypot(dl_ds * s_stderr_db, dl_da * a_stderr_db)
    return PureSqueezingEstimate(
        pure_db=pure_db,
        loss=loss,
        pure_db_stderr=pure_se,
        loss_stderr=loss_se,
        low_confidence=low_confidence,
    )


def fir_taps(dt: float, taps: int = 255, cutoff: float = 100e6) -> np.ndarray:
    """Windowed-sinc linear-phase low-pass taps (unit DC gain).

    The taps of ``scipy.signal.firwin(taps, cutoff, fs=1 / dt)``, byte
    for byte, in SciPy's own order of operations: the sinc terms, its
    Hamming window as a cosine sum on ``linspace(-pi, pi, taps)``, then
    the division by the DC sum.  A textbook Hamming window differs from
    SciPy's by up to 4e-17.
    """
    if taps < 3 or taps % 2 == 0:
        raise ValueError("taps must be an odd integer >= 3")
    nyquist = 0.5 / dt
    if not 0.0 < cutoff < nyquist:
        raise ValueError(f"cutoff must be inside (0, {nyquist:g}) Hz")
    # 0.5 / dt is firwin's 0.5 * (1 / dt) exactly: halving commutes with rounding
    right = cutoff / nyquist
    m = np.arange(taps, dtype=np.float64) - 0.5 * (taps - 1)
    h = right * np.sinc(right * m)
    h *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, taps))
    return h / np.sum(h)


def fir_filter(frames: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Every row of ``frames`` convolved with the odd-length taps ``h``.

    The float64 result has the shape of ``frames``, with the group delay
    of (len(h) - 1)/2 samples compensated.  These are the FFT calls of
    ``fftconvolve(mode="same", axes=1)``, without its float64 copy and
    zero-padded copy of the frames.  A row's bytes do not depend on the
    other rows, so the blocks of a stream filter to the rows of the
    whole stack.
    """
    n = frames.shape[1]
    size = scipy.fft.next_fast_len(n + h.size - 1, True)
    padded = np.zeros((frames.shape[0], size))
    padded[:, :n] = frames
    spectrum = scipy.fft.rfft(padded, axis=1)
    del padded
    spectrum *= scipy.fft.rfft(h, size)
    start = (h.size - 1) // 2
    return scipy.fft.irfft(spectrum, size, axis=1)[:, start : start + n]


@dataclass(frozen=True)
class VarianceTrace:
    """Per-time-sample variance across frames, in shot-noise units."""

    times: np.ndarray
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
    :func:`periodogram_bounds` in order, as for
    :func:`periodogram_split_means`; only one block is held at a time.
    Each block's mean and M2 are taken in two passes and merged into its
    split with the Chan update.  Every split needs two frames for its
    variance, so ``n_frames`` must be at least 20.
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
        d = x - mean
        part = (float(x.shape[0]), mean, np.square(d, out=d).sum(axis=0))
        splits[s_idx] = part if splits[s_idx] is None else _chan_merge(splits[s_idx], part)
    count, mean, m2 = zip(*splits)
    return SplitMoments(count=np.array(count), mean=np.stack(mean), m2=np.stack(m2))


def variance_ratio(sig: SplitMoments, vac: SplitMoments, times: np.ndarray) -> VarianceTrace:
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
    return VarianceTrace(times=times, variance=sig.variance() / shot, stderr=stderr)


@dataclass(frozen=True)
class TemporalMode:
    """Discrete temporal-mode weights on a uniform grid.

    Normalized so sum(weights^2) * dt = 1; weights therefore carry
    units of 1/sqrt(s) and mode overlaps sum(w1 w2) * dt are
    dimensionless.  ``t0`` is the time of the first weight on the record
    grid, which starts at t = 0.
    """

    dt: float
    t0: float
    weights: np.ndarray
    family: str
    params: dict = field(default_factory=dict)

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

    def overlap(self, other: "TemporalMode") -> float:
        """Inner product sum(w1 w2) dt; modes must share their grid."""
        if abs(self.dt - other.dt) > 1e-12 * self.dt or self.n_samples != other.n_samples:
            raise ValueError("modes must share the same grid to take an overlap")
        if abs(self.t0 - other.t0) > 1e-6 * self.dt:
            raise ValueError("modes must share the same time origin to take an overlap")
        return float(np.dot(self.weights, other.weights) * self.dt)

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
        return TemporalMode(
            dt=self.dt,
            t0=self.t0 + delta_t,
            weights=self.weights,
            family=self.family,
            params={**self.params, "t_c": self.params.get("t_c", 0.0) + delta_t},
        )


def _normalize(w: np.ndarray, dt: float) -> np.ndarray:
    norm = math.sqrt(float(np.sum(w * w)) * dt)
    if norm <= 0.0:
        raise ValueError("mode weights are identically zero")
    return w / norm


def _square_wave_first_half(tau: np.ndarray, period: float) -> np.ndarray:
    """1 where tau falls in [n T, n T + T/2), else 0."""
    return (np.floor(2.0 * tau / period).astype(np.int64) % 2 == 0).astype(float)


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
        "f1" / "f2": Gaussian envelope gated by complementary halves of
        a square wave of ``period``; f1 covers [n T, n T + T/2).
        "g1" / "g2": sum and difference modes (f1 + f2)/sqrt(2) and
        (-f1 + f2)/sqrt(2); g1 is the bare envelope, g2 oscillates at
        1/period.
    dt : float
        Sample interval of the records the mode will be applied to.
    t_c : float
        Mode center time.  tf_mode samples on grid offsets that are
        integer multiples of dt from t_c; the f/g families sample at
        half-sample offsets so the square-wave gating is exactly
        mirror-symmetric about t_c.
    gamma : float
        Envelope decay rate (1/s).
    t_w : float
        Total window width; weights are zero outside |tau| <= t_w / 2.
    period : float, optional
        Square-wave period T, required for f1/f2/g1/g2.

    Notes
    -----
    The f/g construction separates cleanly in frequency only when
    gamma * T / pi is small; a UserWarning is emitted at >= 0.1.
    """
    if dt <= 0.0 or t_w <= 0.0 or gamma <= 0.0:
        raise ValueError("dt, t_w and gamma must all be > 0")
    if t_w < 4.0 * dt:
        raise ValueError("mode window must span at least 4 samples")
    params = {"gamma": gamma, "t_w": t_w, "t_c": t_c}

    if family == "tf_mode":
        n_half = int(math.floor(t_w / (2.0 * dt)))
        tau = np.arange(-n_half, n_half + 1) * dt
        w = tau * np.exp(-(gamma * tau) ** 2)
        return TemporalMode(
            dt=dt, t0=t_c - n_half * dt, weights=_normalize(w, dt), family=family, params=params
        )

    if family not in ("f1", "f2", "g1", "g2"):
        raise ValueError(f"unknown mode family {family!r}")
    if period is None or period <= 0.0:
        raise ValueError(f"family {family!r} requires a positive square-wave period")
    params["period"] = period
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
    envelope = np.exp(-(gamma * tau) ** 2)
    gate1 = _square_wave_first_half(tau, period)
    if family == "f1":
        w = envelope * gate1
    elif family == "f2":
        w = envelope * (1.0 - gate1)
    elif family == "g1":
        w = envelope
    else:
        w = envelope * (1.0 - 2.0 * gate1)
    return TemporalMode(
        dt=dt, t0=t_c + tau[0], weights=_normalize(w, dt), family=family, params=params
    )


@dataclass(frozen=True)
class ModeSpectrum:
    """One-sided energy spectrum of a temporal mode.

    ``power`` integrates to 1 over the uniform bins ``freqs``; the
    center frequency is the dominant-lobe location and ``hwhm`` the
    half-width at half maximum of the amplitude spectrum, the usual
    linewidth convention for such modes.
    """

    freqs: np.ndarray
    power: np.ndarray
    center_freq: float
    hwhm: float

    def out_of_band_fraction(self, f_cut: float) -> float:
        """Energy fraction on the wrong side of f_cut for this mode.

        Below f_cut if the mode is centered above it, above f_cut
        otherwise.
        """
        total = float(np.sum(self.power))
        if self.center_freq <= f_cut:
            wrong = float(np.sum(self.power[self.freqs > f_cut]))
        else:
            wrong = float(np.sum(self.power[self.freqs < f_cut]))
        return wrong / total


def mode_spectrum(mode: TemporalMode, n_fft: int | None = None) -> ModeSpectrum:
    """Energy spectrum of a mode with sub-bin center and width estimates."""
    n = mode.n_samples
    if n_fft is None:
        n_fft = 1 << max(12, int(math.ceil(math.log2(64 * n))))
    elif n_fft < n:
        raise ValueError("n_fft must be >= the number of mode samples")
    spec = scipy.fft.rfft(mode.weights, n_fft) * mode.dt
    df = 1.0 / (n_fft * mode.dt)
    density = spec.real**2 + spec.imag**2
    power = density * df
    # fold to one-sided so the energy sums to sum(w^2) dt = 1
    power[1:] *= 2.0
    if n_fft % 2 == 0:
        power[-1] *= 0.5
    freqs = np.fft.rfftfreq(n_fft, d=mode.dt)

    # peak/width geometry uses the unfolded density: the one-sided
    # factor 2 would push a DC-centered peak to the first interior bin
    amplitude = np.sqrt(density)
    peak = int(np.argmax(density))
    if peak == 0:
        center = 0.0
    else:
        mask = density >= 0.5 * density[peak]
        lo = peak
        while lo > 0 and mask[lo - 1]:
            lo -= 1
        hi = peak
        while hi < density.size - 1 and mask[hi + 1]:
            hi += 1
        lobe = slice(lo, hi + 1)
        center = float(np.sum(freqs[lobe] * density[lobe]) / np.sum(density[lobe]))

    half = 0.5 * amplitude[peak]

    def cross(start: int, step: int) -> float | None:
        k = start
        while 0 <= k + step < amplitude.size:
            if amplitude[k + step] < half:
                a0, a1 = amplitude[k], amplitude[k + step]
                frac = (a0 - half) / (a0 - a1)
                return freqs[k] + step * frac * df
            k += step
        return None

    right = cross(peak, +1)
    left = cross(peak, -1) if peak > 0 else None
    if right is None:
        hwhm = math.nan
    elif left is None:
        hwhm = right - freqs[peak] if peak > 0 else right
    else:
        hwhm = 0.5 * (right - left)
    return ModeSpectrum(freqs=freqs, power=power, center_freq=center, hwhm=float(hwhm))


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
        self.size = scipy.fft.next_fast_len(self.window.stop - start, True)
        self.spectra = np.conj(scipy.fft.rfft(kernels, self.size, axis=1))
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
        padded = np.zeros((block.shape[0], self.size))
        padded[:, : window.shape[1]] = window
        spectrum = scipy.fft.rfft(padded, axis=1)
        out = np.empty((block.shape[0], self.spectra.shape[0], self.lags.size))
        for k, kernel_spectrum in enumerate(self.spectra):
            out[:, k] = scipy.fft.irfft(spectrum * kernel_spectrum, self.size, axis=1)[:, self.lags]
        return out.reshape(block.shape[0], -1)

