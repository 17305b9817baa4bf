"""Pump drive programming: AWG programs, calibration, modulator response.

The pump chain being modeled is: an arbitrary waveform generator drives
an amplitude modulator, whose output power pumps the parametric
amplifier.  Drive voltage maps to pump power quadratically up to a
linear-operation limit and through a measured lookup table beyond it.
The sign of the drive voltage flips the pump phase by pi, which later
selects the squeezed quadrature.

Power is the quantity the response model filters; the binary pump phase
rides along unfiltered.  A sign flip at constant magnitude therefore
leaves the power trace untouched, which makes quadrature switching
effectively instantaneous in this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AwgProgram",
    "Calibration",
    "ModulatorResponse",
    "PulseSlot",
    "PulseTrainSpec",
    "PowerTrace",
    "compile_pulse_train",
    "slot_mode_centers",
    "ideal_pump_power",
    "apply_modulator_response",
    "pump_phase_trace",
]

# 10-90 rise of a one-pole step response is tau * ln 9
_FIRST_ORDER_RISE_PER_TAU = math.log(9.0)


@dataclass(frozen=True)
class AwgProgram:
    """Sampled drive voltage program.

    Attributes
    ----------
    sample_rate_hz : float
        Output rate of the generator.
    samples_v : np.ndarray
        Drive voltage per sample.  Sign encodes the pump phase.

    The first sample sits at the acquisition trigger, t = 0.
    """

    sample_rate_hz: float
    samples_v: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.sample_rate_hz) or self.sample_rate_hz <= 0.0:
            raise ValueError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        samples = np.asarray(self.samples_v, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples_v must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples_v contains non-finite values")
        object.__setattr__(self, "samples_v", samples)
        self.samples_v.setflags(write=False)

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate_hz

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples_v.size) / self.sample_rate_hz


def _default_quad_coeff() -> float:
    # Synthetic default: chosen so the 160 mV linear limit maps exactly
    # to the 6.5 mW pump ceiling.  Replace with a measured value for a
    # specific instrument.
    return 6.5 / 0.16**2


def _default_gain_coeff() -> float:
    # Anchored to a single measured point: 6.5 mW pump sustains a 2.71 dB
    # lossless squeezing level, i.e. r = 0.3120 at 6.5 mW.
    return 0.3120002801006932 / math.sqrt(6.5)


@dataclass(frozen=True)
class Calibration:
    """Drive-to-pump calibration shared by compilation and analysis.

    Attributes
    ----------
    quad_coeff : float
        Pump power per squared drive voltage (mW / V^2) in the linear
        modulation region.
    linear_limit : float
        Largest |voltage| for which the quadratic law holds.
    extended_lut : np.ndarray | None
        Optional (|voltage|, power_mw) pairs extending the calibration
        beyond the linear limit, both columns strictly increasing.
    gain_coeff : float
        Squeezing parameter per sqrt(pump power), r = gain_coeff sqrt(P).
    max_pump_power : float
        Largest pump power (mW) the source sustains.

    :meth:`to_dict` and :meth:`from_dict` hold the one serialized form,
    the unit-suffixed keys of ``calibration.json``.
    """

    quad_coeff: float = field(default_factory=_default_quad_coeff)
    linear_limit: float = 0.160
    extended_lut: np.ndarray | None = None
    gain_coeff: float = field(default_factory=_default_gain_coeff)
    max_pump_power: float = 6.5

    def __post_init__(self) -> None:
        for key in ("quad_coeff", "linear_limit", "gain_coeff", "max_pump_power"):
            value = getattr(self, key)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{key} must be finite and > 0, got {value}")
        if self.extended_lut is not None:
            lut = np.asarray(self.extended_lut, dtype=float)
            if lut.ndim != 2 or lut.shape[1] != 2 or lut.shape[0] < 2:
                raise ValueError("extended_lut must be an (n, 2) array with n >= 2")
            if np.any(np.diff(lut[:, 0]) <= 0.0) or np.any(np.diff(lut[:, 1]) <= 0.0):
                raise ValueError("extended_lut columns must be strictly increasing")
            if lut[0, 0] < self.linear_limit:
                raise ValueError("extended_lut must start at or above the linear limit")
            # continuity with the quadratic region within 1 percent
            p_model = self.quad_coeff * lut[0, 0] ** 2
            if abs(lut[0, 1] - p_model) > 0.01 * p_model:
                raise ValueError(
                    "extended_lut is discontinuous with the quadratic region: "
                    f"LUT gives {lut[0, 1]:.4g} mW at {lut[0, 0]:.4g} V, model gives {p_model:.4g} mW"
                )
            object.__setattr__(self, "extended_lut", lut)
            self.extended_lut.setflags(write=False)

    @property
    def voltage_ceiling(self) -> float:
        """Largest |voltage| the calibration can translate to power."""
        if self.extended_lut is not None:
            return float(self.extended_lut[-1, 0])
        return self.linear_limit

    def power_for_voltage(self, volts) -> np.ndarray:
        """Pump power (mW) for drive voltage(s); sign is ignored."""
        v = np.abs(np.asarray(volts, dtype=float))
        if np.any(v > self.voltage_ceiling * (1.0 + 1e-12)):
            raise ValueError(
                f"|voltage| exceeds the calibrated ceiling of {self.voltage_ceiling:.4g} V"
            )
        power = self.quad_coeff * v**2
        if self.extended_lut is not None:
            above = v > self.linear_limit
            if np.any(above):
                power = np.where(
                    above,
                    np.interp(v, self.extended_lut[:, 0], self.extended_lut[:, 1]),
                    power,
                )
        return power

    def voltage_for_power(self, power_mw: float) -> float:
        """Drive voltage magnitude producing ``power_mw`` (inverse map)."""
        if power_mw < 0.0:
            raise ValueError("power must be >= 0")
        if power_mw == 0.0:
            return 0.0
        v_quad = math.sqrt(power_mw / self.quad_coeff)
        if v_quad <= self.linear_limit:
            return v_quad
        if self.extended_lut is None:
            raise ValueError(
                f"{power_mw:.4g} mW needs a drive beyond the {self.linear_limit:.4g} V "
                "linear limit and no extended lookup table is calibrated"
            )
        lut = self.extended_lut
        if power_mw > lut[-1, 1]:
            raise ValueError(f"{power_mw:.4g} mW exceeds the lookup table range")
        return float(np.interp(power_mw, lut[:, 1], lut[:, 0]))

    def to_dict(self) -> dict:
        """The calibration as JSON-ready data with unit-suffixed keys."""
        return {
            "quad_coeff_mw_per_v2": float(self.quad_coeff),
            "linear_limit_v": float(self.linear_limit),
            "gain_coeff_per_sqrt_mw": float(self.gain_coeff),
            "max_pump_power_mw": float(self.max_pump_power),
            "extended_lut": None if self.extended_lut is None else self.extended_lut.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Calibration":
        """Inverse of :meth:`to_dict`; a non-finite entry raises ValueError naming its key."""

        def finite(key: str) -> np.ndarray:
            value = np.asarray(d[key], dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{key} must hold finite numbers, got {d[key]!r}")
            return value

        return cls(
            quad_coeff=float(finite("quad_coeff_mw_per_v2")),
            linear_limit=float(finite("linear_limit_v")),
            gain_coeff=float(finite("gain_coeff_per_sqrt_mw")),
            max_pump_power=float(finite("max_pump_power_mw")),
            extended_lut=None if d.get("extended_lut") is None else finite("extended_lut"),
        )

    def __eq__(self, other) -> bool:
        # the generated field-wise == cannot compare lookup-table arrays
        if not isinstance(other, Calibration):
            return NotImplemented
        return self.to_dict() == other.to_dict()


@dataclass(frozen=True)
class ModulatorResponse:
    """Finite-bandwidth model of the drive-to-pump-power transfer.

    The power trace is filtered with a causal one-pole kernel whose
    10-90 step rise time equals ``rise_time_10_90``.
    """

    rise_time_10_90: float = 7e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.rise_time_10_90 < math.inf:
            raise ValueError(
                f"rise_time_10_90 must be finite and > 0, got {self.rise_time_10_90}"
            )

    @property
    def settling_time(self) -> float:
        """Time after an edge for the output to be settled within ~1%.

        Used by the compiler to check that slot margins really isolate
        the mode windows.
        """
        return 3.0 * self.rise_time_10_90


@dataclass(frozen=True)
class PulseSlot:
    """One slot of a pulse train: a squeezing target plus timing.

    ``squeezing_db`` is the lossless squeezing level to sustain during
    the mode window; 0 dB means the pump stays off (vacuum).
    ``quadrature`` is "x_squeezed" or "p_squeezed" and selects the pump
    phase sign.  Each slot occupies margin + mode_width seconds, the
    margin first so the drive settles before the window.
    """

    squeezing_db: float = 0.0
    quadrature: str = "x_squeezed"
    mode_width: float = 30e-9
    margin: float = 50e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.squeezing_db < math.inf:
            raise ValueError(
                "slot squeezing_db must be finite and >= 0 (quote levels as positive dB), "
                f"got {self.squeezing_db}"
            )
        if self.quadrature not in ("x_squeezed", "p_squeezed"):
            raise ValueError(f"unknown quadrature {self.quadrature!r}")
        for key in ("mode_width", "margin"):
            value = getattr(self, key)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{key} must be finite and > 0, got {value}")

    @property
    def period(self) -> float:
        return self.margin + self.mode_width

    def n_samples(self, sample_rate_hz: float) -> int:
        """Samples of the slot in a program at ``sample_rate_hz``."""
        return int(round(self.period * sample_rate_hz))


@dataclass(frozen=True)
class PulseTrainSpec:
    """Ordered sequence of pulse slots."""

    slots: tuple[PulseSlot, ...]

    def __post_init__(self) -> None:
        slots = tuple(self.slots)
        if len(slots) == 0:
            raise ValueError("a pulse train needs at least one slot")
        object.__setattr__(self, "slots", slots)


def slot_mode_centers(spec: PulseTrainSpec) -> np.ndarray:
    """Center time of each slot's mode window, the train starting at t = 0."""
    centers = []
    t = 0.0
    for slot in spec.slots:
        centers.append(t + slot.margin + 0.5 * slot.mode_width)
        t += slot.period
    return np.array(centers)


def compile_pulse_train(
    spec: PulseTrainSpec,
    cal: Calibration,
    resp: ModulatorResponse,
    sample_rate_hz: float,
) -> AwgProgram:
    """Compile a pulse-train spec into a piecewise-constant AWG program.

    Each slot is filled with the constant voltage whose settled pump
    power sustains the slot's squeezing target, positive for
    x_squeezed, negative for p_squeezed.  Raises ValueError naming the
    offending slot when a target needs more than the maximum pump
    power, when the drive would leave the calibrated voltage range, or
    when the margin is too short for the response to settle.
    """
    from sqzsim.quantum import r_from_pure_db  # local import avoids a cycle at module load

    dt = 1.0 / sample_rate_hz
    chunks = []
    for k, slot in enumerate(spec.slots):
        if slot.margin < resp.settling_time:
            raise ValueError(
                f"slot {k}: margin {slot.margin * 1e9:.1f} ns is shorter than the "
                f"{resp.settling_time * 1e9:.1f} ns settling time of the modulator response"
            )
        if slot.squeezing_db == 0.0:
            volts = 0.0
        else:
            r = r_from_pure_db(slot.squeezing_db)
            power = (r / cal.gain_coeff) ** 2
            if power > cal.max_pump_power * (1.0 + 1e-9):
                raise ValueError(
                    f"slot {k}: {slot.squeezing_db:.3g} dB needs {power:.3g} mW pump, "
                    f"above the {cal.max_pump_power:.3g} mW maximum"
                )
            volts = cal.voltage_for_power(power)
            if slot.quadrature == "p_squeezed":
                volts = -volts
        n = slot.n_samples(sample_rate_hz)
        if n < 1:
            raise ValueError(f"slot {k}: period shorter than one sample at {sample_rate_hz:g} Hz")
        chunks.append(np.full(n, volts))
    return AwgProgram(sample_rate_hz=sample_rate_hz, samples_v=np.concatenate(chunks))


@dataclass(frozen=True)
class PowerTrace:
    """Uniformly sampled pump power in mW, the first sample at t = 0."""

    dt: float
    power_mw: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        power = np.asarray(self.power_mw, dtype=float)
        if power.ndim != 1 or power.size < 1:
            raise ValueError("power_mw must be a non-empty 1-D array")
        if not np.all(np.isfinite(power)):
            raise ValueError("power_mw contains non-finite values")
        if np.any(power < 0.0):
            raise ValueError("power_mw must be non-negative")
        object.__setattr__(self, "power_mw", power)
        self.power_mw.setflags(write=False)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.power_mw.size) * self.dt


def ideal_pump_power(prog: AwgProgram, cal: Calibration) -> PowerTrace:
    """Instantaneous pump power for a program, before any response model.

    The voltage sign does not enter the power; it is reported separately
    by :func:`pump_phase_trace`.
    """
    power = cal.power_for_voltage(prog.samples_v)
    return PowerTrace(dt=prog.dt, power_mw=power)


def rise_time_10_90(trace: PowerTrace) -> float:
    """10-90% rise time of a single low-to-high power step.

    The low and high levels are the first and last samples, which must
    both sit on settled plateaus.  Crossing times are linearly
    interpolated between samples, so the result is not quantized to the
    sample grid.
    """
    p = trace.power_mw
    lo, hi = float(p[0]), float(p[-1])
    if hi <= lo:
        raise ValueError("trace must end higher than it starts")
    t_cross = []
    for frac in (0.1, 0.9):
        level = lo + frac * (hi - lo)
        above = np.nonzero(p >= level)[0]
        if above.size == 0 or above[0] == 0:
            raise ValueError("trace does not cross the threshold inside the record")
        k = int(above[0])
        t_cross.append((k - 1) + (level - p[k - 1]) / (p[k] - p[k - 1]))
    return float((t_cross[1] - t_cross[0]) * trace.dt)


def pump_phase_trace(prog: AwgProgram) -> np.ndarray:
    """Pump phase per sample: 0 where the drive is >= 0, pi where negative."""
    return np.where(prog.samples_v < 0.0, math.pi, 0.0)


def _first_order_filter(x: np.ndarray, dt: float, rise: float) -> np.ndarray:
    """``lfilter([alpha], [1, alpha - 1], x, zi=lfiltic(..., y=[x0], x=[x0]))``, byte for byte.

    The one-pole recursion runs in ``lfilter``'s transposed
    direct-form-II order: output ``y = z + b0 x``, then state
    ``z = 0 x - a1 y``.  A pump program is a few thousand samples, so
    the loop costs well under a millisecond and spares SciPy's signal
    module.
    """
    tau = rise / _FIRST_ORDER_RISE_PER_TAU
    b0 = 1.0 - math.exp(-dt / tau)
    a1 = b0 - 1.0
    samples = np.asarray(x, dtype=np.float64).tolist()
    # start from steady state at the initial sample so a program that
    # begins on a plateau shows no artificial turn-on transient
    z = 0.0 - a1 * samples[0]
    y = []
    for v in samples:
        out = z + b0 * v
        z = v * 0.0 - out * a1
        y.append(out)
    return np.array(y)


def apply_modulator_response(trace: PowerTrace, resp: ModulatorResponse) -> PowerTrace:
    """Filter a power trace with the modulator's causal step response.

    A one-pole filter of non-negative power stays non-negative, so the
    result needs no clamp.
    """
    if trace.dt > resp.rise_time_10_90 / 4.0:
        raise ValueError(
            f"sample interval {trace.dt:.3g} s cannot resolve a "
            f"{resp.rise_time_10_90:.3g} s rise time (need >= 4 samples per rise)"
        )
    y = _first_order_filter(trace.power_mw, trace.dt, resp.rise_time_10_90)
    return PowerTrace(dt=trace.dt, power_mw=y)
