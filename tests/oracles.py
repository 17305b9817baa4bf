"""Closed-form references the tests hold the simulated chain to.

No pipeline runs these; they are the independent routes the tests
compare against.  The quantum states follow the package's hbar = 2
convention: the vacuum variance of either quadrature is exactly 1.
The mode overlap and mode spectrum check the geometry of the temporal
modes that :func:`sqzsim.dsp.make_mode` builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sqzsim.dsp import TemporalMode
from sqzsim.quantum import GaussianState

HBAR = 2.0
VACUUM_VARIANCE = 1.0


@dataclass(frozen=True)
class SqueezeParams:
    """Squeezing parameter r, squeezing angle theta (radians), and loss L."""

    r: float
    theta: float = 0.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.r) or self.r < 0.0:
            raise ValueError(f"squeezing parameter r must be finite and >= 0, got {self.r}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must satisfy 0 <= L < 1, got {self.loss}")
        if not np.isfinite(self.theta):
            raise ValueError("squeezing angle must be finite")
        # fold the angle into [0, pi); variances are pi-periodic in theta
        object.__setattr__(self, "theta", float(self.theta) % math.pi)


def pure_db_from_r(r: float) -> float:
    """Lossless squeezing level in dB for squeezing parameter r."""
    if r < 0.0:
        raise ValueError("squeezing parameter r must be >= 0")
    return 20.0 * r / math.log(10.0)


def vacuum_state() -> GaussianState:
    """The vacuum: zero mean, identity covariance."""
    return GaussianState(np.zeros(2), np.eye(2))


def squeezed_state(r: float, theta: float = 0.0, loss: float = 0.0) -> GaussianState:
    """Zero-mean squeezed state with optional loss applied."""
    p = SqueezeParams(r=r, theta=theta, loss=loss)
    c, s = math.cos(p.theta), math.sin(p.theta)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([math.exp(-2.0 * p.r), math.exp(2.0 * p.r)]) @ rot.T
    state = GaussianState(np.zeros(2), cov)
    if p.loss > 0.0:
        state = apply_loss(state, p.loss)
    return state


def apply_loss(state: GaussianState, loss: float) -> GaussianState:
    """Pure-loss channel: cov -> (1-L) cov + L I, mean -> sqrt(1-L) mean.

    Models a beam splitter of transmission (1-L) with vacuum in the
    open port.
    """
    if not 0.0 <= loss < 1.0:
        raise ValueError(f"loss must satisfy 0 <= L < 1, got {loss}")
    cov = (1.0 - loss) * state.cov + loss * np.eye(2)
    mean = math.sqrt(1.0 - loss) * state.mean
    return GaussianState(mean, cov)


def overlap(mode: TemporalMode, other: TemporalMode) -> float:
    """Inner product sum(w1 w2) dt; modes must share their grid."""
    if abs(mode.dt - other.dt) > 1e-12 * mode.dt or mode.n_samples != other.n_samples:
        raise ValueError("modes must share the same grid to take an overlap")
    if abs(mode.t0 - other.t0) > 1e-6 * mode.dt:
        raise ValueError("modes must share the same time origin to take an overlap")
    return float(np.dot(mode.weights, other.weights) * mode.dt)


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


def mode_spectrum(mode: TemporalMode) -> ModeSpectrum:
    """Energy spectrum of a mode with sub-bin center and width estimates.

    The weights are zero-padded to a power of two of at least 4096
    points and 64 times the mode length, so the bins resolve its lobe.
    """
    n_fft = 1 << max(12, int(math.ceil(math.log2(64 * mode.n_samples))))
    spec = np.fft.rfft(mode.weights, n_fft) * mode.dt
    df = 1.0 / (n_fft * mode.dt)
    density = spec.real**2 + spec.imag**2
    power = density * df
    # fold to one-sided so the energy sums to sum(w^2) dt = 1
    power[1:] *= 2.0
    # n_fft is even: the last bin is the unpaired Nyquist one
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
