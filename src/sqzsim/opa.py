"""Parametric amplifier model: pump power to squeezing parameter.

The amplifier is treated as instantaneous: at every sample the
squeezing parameter follows the pump power through the calibration's
gain law r = g sqrt(P), and the squeezing angle is half the pump
phase.  All dynamics slower than that (modulator response, detection
bandwidth) are modeled elsewhere in the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sqzsim.pump import Calibration, PowerTrace

__all__ = [
    "fit_gain_curve",
    "SqueezerTrajectory",
    "trajectory_from_pump",
    "constant_trajectory",
]


def fit_gain_curve(points) -> tuple[float, float]:
    """Least-squares fit of the gain law r = gain_coeff sqrt(P) to measured gains.

    Parameters
    ----------
    points : array_like, shape (n, 2)
        Rows of (power_mw, gain): the parametric gain G = exp(2 r) at
        each pump power.  Powers must be positive and distinct; gains
        must be positive.  A single point determines the one-parameter
        fit exactly.

    Returns
    -------
    (gain_coeff, residual)
        The fitted coefficient, finite and > 0, and the rms misfit in r.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a non-empty (n, 2) array of (power_mw, gain) rows")
    power, gain = pts[:, 0], pts[:, 1]
    if np.any(power <= 0.0):
        raise ValueError("pump powers must be > 0")
    # sorted neighbours, not np.unique, which imports numpy.ma on first use
    if np.any(np.diff(np.sort(power)) == 0.0):
        raise ValueError("pump powers must be distinct")
    if np.any(gain <= 0.0):
        raise ValueError("parametric gains must be > 0")
    r = 0.5 * np.log(gain)
    root_p = np.sqrt(power)
    coeff = float(np.dot(root_p, r) / np.dot(root_p, root_p))
    if coeff <= 0.0:
        raise ValueError("fit is degenerate: measured gains show no squeezing")
    if not math.isfinite(coeff):
        raise ValueError(f"fit gives a non-finite gain coefficient, {coeff}")
    residual = float(np.sqrt(np.mean((r - coeff * root_p) ** 2)))
    return coeff, residual


@dataclass(frozen=True)
class SqueezerTrajectory:
    """Time series of squeezing parameter and angle, plus a loss.

    ``theta`` is the squeezing angle in [0, pi); the loss applies
    uniformly to the whole record.  Sample k sits at t = k dt.
    """

    dt: float
    r: np.ndarray
    theta: np.ndarray
    loss: float

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must satisfy 0 <= L < 1, got {self.loss}")
        r = np.asarray(self.r, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("r must be a non-empty 1-D array")
        if theta.shape != r.shape:
            raise ValueError("theta must have the same shape as r")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(theta))):
            raise ValueError("trajectory contains non-finite values")
        if np.any(r < 0.0):
            raise ValueError("squeezing parameter r must be >= 0")
        theta = np.mod(theta, math.pi)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)
        self.r.setflags(write=False)
        self.theta.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.r.size


def trajectory_from_pump(
    power: PowerTrace,
    pump_phase: np.ndarray,
    cal: Calibration,
    loss: float,
) -> SqueezerTrajectory:
    """Map a pump power trace and pump phase to a squeezing trajectory.

    The squeezing parameter follows the calibration's gain law
    :meth:`~sqzsim.pump.Calibration.r_of_power`.  The squeezing angle is
    half the pump phase, so flipping the drive sign (pump phase 0 -> pi)
    rotates the squeezed quadrature by 90 degrees.
    """
    phase = np.asarray(pump_phase, dtype=float)
    if phase.shape != power.power_mw.shape:
        raise ValueError("pump_phase must match the power trace sample for sample")
    r = cal.r_of_power(power.power_mw)
    return SqueezerTrajectory(dt=power.dt, r=r, theta=0.5 * phase, loss=loss)


def constant_trajectory(
    r: float,
    theta: float,
    loss: float,
    dt: float,
    n_samples: int,
) -> SqueezerTrajectory:
    """Trajectory with fixed squeezing, for reference runs and tests."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return SqueezerTrajectory(
        dt=dt,
        r=np.full(n_samples, float(r)),
        theta=np.full(n_samples, float(theta)),
        loss=loss,
    )

