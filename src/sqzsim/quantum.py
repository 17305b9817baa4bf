"""Gaussian quantum state primitives for squeezed-light simulation.

Conventions used throughout the package:

* hbar = 2, so the vacuum variance of either quadrature is exactly 1
  ("shot-noise units").  All variances are stored and passed in these
  linear units; decibel values appear only at presentation boundaries.
* A squeezing parameter r >= 0 with squeezing angle theta means the
  quadrature measured at local-oscillator phase phi has variance

      V(phi) = (1 - L) * (exp(-2 r) cos^2(phi - theta)
                          + exp(+2 r) sin^2(phi - theta)) + L

  after an optical loss L.  By this convention theta is the phase of
  minimum noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Eigenvalue tolerance used by every physicality check in the package.
# Estimated covariances that fail by more than this are reported with
# physical=False rather than silently adjusted.
PD_TOLERANCE = 1e-9

# Standard errors across the package are the scatter of a statistic over
# this many contiguous subsets of the data, cut by split_slices.
N_SPLITS = 10

# Fewest samples the Duan statistic accepts.
DUAN_MIN_SAMPLES = 100

__all__ = [
    "PD_TOLERANCE",
    "N_SPLITS",
    "DUAN_MIN_SAMPLES",
    "split_slices",
    "split_stderr",
    "GaussianState",
    "variance_at_phase",
    "db_from_variance",
    "r_from_pure_db",
    "DuanResult",
    "duan_from_moments",
    "effective_squeezing_db",
]


def split_slices(n: int) -> list[slice]:
    """The package's one cut of ``n`` samples into ``N_SPLITS`` contiguous subsets.

    The edges are ``linspace(0, n, N_SPLITS + 1)`` truncated to
    integers; when ``n`` is not a multiple of ``N_SPLITS`` the subsets
    differ in size by at most one.
    """
    edges = np.linspace(0, n, N_SPLITS + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def split_stderr(per_split) -> np.ndarray:
    """The package's one split error: std(ddof=1) over the splits (axis 0) / sqrt(N_SPLITS)."""
    return np.std(per_split, axis=0, ddof=1) / math.sqrt(N_SPLITS)


def variance_at_phase(r: float, theta: float, loss: float, phi) -> np.ndarray | float:
    """Quadrature variance at LO phase phi for a lossy squeezed state.

    Accepts scalar or array phi (and broadcastable r/theta arrays) and
    returns shot-noise-unit variances.  Vacuum (r = 0) gives exactly 1
    for any loss, because the loss channel mixes in vacuum.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("squeezing parameter r must be >= 0")
    loss = float(loss)
    if not 0.0 <= loss < 1.0:
        raise ValueError(f"loss must satisfy 0 <= L < 1, got {loss}")
    delta = np.asarray(phi, dtype=float) - np.asarray(theta, dtype=float)
    c2 = np.cos(delta) ** 2
    s2 = np.sin(delta) ** 2
    v = (1.0 - loss) * (np.exp(-2.0 * r) * c2 + np.exp(2.0 * r) * s2) + loss
    if v.ndim == 0:
        return float(v)
    return v


def db_from_variance(v) -> np.ndarray | float:
    """10 log10 of a shot-noise-normalized variance.

    Negative values mean noise below shot noise.  Quoted "squeezing
    levels" are the magnitude of the negative value.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("variance must be > 0 to convert to dB")
    out = 10.0 * np.log10(v)
    return float(out) if out.ndim == 0 else out


def r_from_pure_db(db: float) -> float:
    """Squeezing parameter giving a lossless squeezing level of ``db`` dB.

    A pure squeezed state has minimum variance exp(-2 r), so a quoted
    level of db > 0 corresponds to r = ln(10^(db/10)) / 2.
    """
    db = float(db)
    if db < 0.0:
        raise ValueError("pure squeezing level must be quoted as a non-negative dB value")
    return math.log(10.0 ** (db / 10.0)) / 2.0


# the symplectic form of one mode in (x, p) order
_OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _check_cov(cov: np.ndarray) -> tuple[np.ndarray, bool]:
    """Validate shape/symmetry and evaluate the uncertainty bound.

    Returns the symmetrized covariance and a physicality flag.  Blatant
    problems (wrong shape, non-finite, grossly asymmetric) raise; a
    covariance violating the uncertainty bound by more than
    PD_TOLERANCE only clears the flag, so estimation noise near the
    vacuum boundary never hard-fails.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2):
        raise ValueError(f"covariance must have shape (2, 2), got {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(cov))))
    if np.max(np.abs(cov - cov.T)) > 1e-8 * scale:
        raise ValueError("covariance must be symmetric")
    cov = 0.5 * (cov + cov.T)
    # uncertainty bound: cov + i*Omega >= 0 (hbar = 2 units)
    eigs = np.linalg.eigvalsh(cov + 1j * _OMEGA)
    physical = bool(eigs.min() >= -PD_TOLERANCE)
    if np.linalg.eigvalsh(cov).min() < -PD_TOLERANCE:
        physical = False
    return cov, physical


@dataclass(frozen=True)
class GaussianState:
    """Single-mode Gaussian state: mean (x, p) and 2x2 covariance.

    ``physical`` records whether the covariance satisfies the
    uncertainty bound det(cov) >= 1 (within PD_TOLERANCE).  States
    built from estimated data may carry physical=False.
    """

    mean: np.ndarray
    cov: np.ndarray
    physical: bool = field(init=False)

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (2,):
            raise ValueError(f"mean must have shape (2,), got {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean contains non-finite entries")
        cov, physical = _check_cov(self.cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "physical", physical)
        self.mean.setflags(write=False)
        self.cov.setflags(write=False)


@dataclass(frozen=True)
class DuanResult:
    """Duan inseparability value with its standard error.

    Fields are arrays, one entry per column of mode pairs.
    """

    value: np.ndarray
    stderr: np.ndarray
    entangled: np.ndarray


def duan_from_moments(x, p) -> DuanResult:
    """Duan criterion Var(x1 - x2) + Var(p1 + p2) from split moments.

    ``x`` holds the :class:`sqzsim.dsp.SplitMoments` of ``x1 - x2`` and
    ``p`` those of ``p1 + p2``, one column per pair of modes, over at
    least :data:`DUAN_MIN_SAMPLES` samples each.  In hbar = 2 units two
    independent vacua give 4, and any value below 4 witnesses
    entanglement of the two modes.  The value adds the whole-run
    variances; the standard error is the scatter of the summed split
    variances over sqrt(N_SPLITS).
    """
    n = int(x.count.sum())
    if n < DUAN_MIN_SAMPLES:
        raise ValueError(f"need at least {DUAN_MIN_SAMPLES} samples, got {n}")
    value = x.variance() + p.variance()
    per_split = x.split_variances() + p.split_variances()
    stderr = split_stderr(per_split)
    return DuanResult(value=value, stderr=stderr, entangled=value < 4.0)


def effective_squeezing_db(duan: float) -> float:
    """Two-mode squeezing level equivalent to a Duan value: 10 log10(4 / duan)."""
    if duan <= 0.0:
        raise ValueError("Duan value must be > 0")
    return 10.0 * math.log10(4.0 / duan)
