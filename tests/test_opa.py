"""Pump-power-to-squeezing map and gain-curve fitting."""

import math

import numpy as np
import pytest

from sqzsim.opa import (
    SqueezerTrajectory,
    constant_trajectory,
    fit_gain_curve,
    trajectory_from_pump,
)
from sqzsim.pump import Calibration, PowerTrace

GAIN_COEFF = 0.12237657819075765  # r(6.5 mW) = 0.3120002801006932


def test_fit_recovers_exact_square_root_law():
    powers = np.linspace(0.5, 6.5, 9)
    pts = [(p, math.exp(2.0 * GAIN_COEFF * math.sqrt(p))) for p in powers]
    coeff, residual = fit_gain_curve(pts)
    assert coeff == pytest.approx(GAIN_COEFF, rel=1e-12)
    assert residual <= 1e-12


def test_fit_single_point_is_exact():
    coeff, _ = fit_gain_curve([(6.5, math.exp(2.0 * 0.3120002801006932))])
    assert coeff * math.sqrt(6.5) == pytest.approx(0.3120002801006932, rel=1e-12)


def test_fit_is_least_squares_in_r():
    rng = np.random.default_rng(5)
    powers = np.linspace(1.0, 6.0, 20)
    r_true = GAIN_COEFF * np.sqrt(powers)
    noisy_r = r_true + 1e-3 * rng.standard_normal(powers.size)
    pts = list(zip(powers, np.exp(2.0 * noisy_r)))
    coeff, residual = fit_gain_curve(pts)
    # normal-equation solution on the same data
    want = float(np.dot(np.sqrt(powers), noisy_r) / powers.sum())
    assert coeff == pytest.approx(want, rel=1e-12)
    assert residual > 0.0


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_gain_curve([])
    with pytest.raises(ValueError):
        fit_gain_curve([(0.0, 1.1)])
    with pytest.raises(ValueError):
        fit_gain_curve([(1.0, 1.1), (1.0, 1.2)])
    with pytest.raises(ValueError):
        fit_gain_curve([(1.0, -2.0)])
    # a gain that overflowed a float gives no finite coefficient
    with pytest.raises(ValueError, match="non-finite gain coefficient"):
        fit_gain_curve([(1.0, math.inf)])


def test_r_of_power():
    # the amplifier's gain law is the calibration's
    cal = Calibration(gain_coeff=GAIN_COEFF)
    assert cal.r_of_power(6.5) == pytest.approx(0.3120002801006932, abs=1e-15)
    assert cal.r_of_power(0.0) == 0.0
    arr = cal.r_of_power(np.array([1.0, 4.0]))
    assert np.allclose(arr, GAIN_COEFF * np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        cal.r_of_power(-1.0)


def test_trajectory_from_pump():
    cal = Calibration(gain_coeff=GAIN_COEFF)
    power = PowerTrace(dt=1e-9, power_mw=np.array([6.5, 0.0, 6.5]))
    phase = np.array([0.0, 0.0, math.pi])
    traj = trajectory_from_pump(power, phase, cal, loss=0.183)
    assert np.allclose(traj.r, [0.3120002801006932, 0.0, 0.3120002801006932])
    assert np.allclose(traj.theta, [0.0, 0.0, math.pi / 2.0])
    assert traj.loss == 0.183
    with pytest.raises(ValueError):
        trajectory_from_pump(power, phase[:2], cal, loss=0.0)


def test_constant_trajectory():
    traj = constant_trajectory(0.3, 0.1, 0.05, dt=1e-9, n_samples=64)
    assert traj.n_samples == 64
    assert np.all(traj.r == 0.3)
    assert np.all(traj.theta == 0.1)


def test_trajectory_folds_theta_and_validates():
    traj = SqueezerTrajectory(
        dt=1e-9, r=np.array([0.1]), theta=np.array([math.pi + 0.2]), loss=0.0
    )
    assert traj.theta[0] == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ValueError):
        SqueezerTrajectory(dt=1e-9, r=np.array([-0.1]), theta=np.array([0.0]), loss=0.0)
    with pytest.raises(ValueError):
        SqueezerTrajectory(dt=1e-9, r=np.array([0.1]), theta=np.array([0.0]), loss=1.0)

