"""Scenario pipelines: deterministic end-to-end runs with file outputs.

Each scenario assembles the compile -> pump -> squeezer -> homodyne ->
analysis chain for one standard demonstration, writes machine-readable
CSV/JSON artifacts plus a ``manifest.json``, and evaluates built-in
consistency checks.  Every output file embeds the seed and the SHA-256
fingerprint of the resolved configuration; rerunning with an equal
configuration gives byte-identical files (no timestamps anywhere).

``n_frames`` counts homodyne frames per acquisition: per LO phase for
``tm_squeezing``, per frame set (squeezed / anti-squeezed / vacuum,
or x / p / vacuum) for the others.  ``calibrate`` uses no frames.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import platform
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import numpy.fft
import numpy.random

import sqzsim
from sqzsim import dsp, opa, pump, quantum, tomography
from sqzsim.homodyne import (
    _BLOCK_ROWS, _MAX_FRAMES, DetectorModel, _settle_samples, iter_frame_chunks,
)
from sqzsim.pump import AwgProgram, Calibration, ModulatorResponse, PulseSlot, PulseTrainSpec

SCENARIOS = ("spectrum", "waveforms", "tm_squeezing", "epr", "calibrate")

DEFAULT_LOSS = 0.183


class UsageError(ValueError):
    """Configuration problem the caller must fix (CLI exit code 2)."""


# Flat per-scenario parameter maps.  --set key=value overrides exactly
# these keys; values are coerced to the type of the default.
SCENARIO_DEFAULTS: dict[str, dict] = {
    "spectrum": {
        "pump_power_mw": 6.5,
        "loss": DEFAULT_LOSS,
        "n_samples": 4096,
        "sample_rate_hz": 1e9,
        "detector_bandwidth_hz": 200e6,
        "band_lo_hz": 1e6,
        "band_hi_hz": 10e6,
    },
    "waveforms": {
        "amplitude_v": 0.16,
        "loss": DEFAULT_LOSS,
        "sample_rate_hz": 1e9,
        "detector_bandwidth_hz": 200e6,
        "rise_time_s": 7e-9,
        "fir_cutoff_hz": 100e6,
        "fir_taps": 255,
        "duration_s": 1000e-9,
        "square_half_period_s": 200e-9,
        "sine_frequency_hz": 10e6,
        "gauss_fwhms_ns": "40,20,10",
        "step_time_s": 300e-9,
    },
    "tm_squeezing": {
        "loss": DEFAULT_LOSS,
        "sample_rate_hz": 1e9,
        "detector_bandwidth_hz": 200e6,
        "rise_time_s": 7e-9,
        "margin_s": 50e-9,
        "mode_width_s": 30e-9,
        "mode_gamma_hz": 2.5e8,
        "n_phases": 12,
        "project": True,
        "slot_dbs": "2.71,1.5,0,2.71,1.5,2.0",
        "slot_quadratures": "x,x,x,p,p,x",
    },
    "epr": {
        "amplitude_v": 0.16,
        "loss": DEFAULT_LOSS,
        "sample_rate_hz": 1e9,
        "detector_bandwidth_hz": 200e6,
        "rise_time_s": 7e-9,
        "segment_s": 50e-9,
        "duration_s": 1000e-9,
        "lead_s": 160e-9,
        "tail_s": 160e-9,
        "mode_gamma_hz": 5e6,
        "mode_width_s": 1000e-9,
        "bin_period_s": 100e-9,
        "scan_halfwidth_s": 60e-9,
    },
    "calibrate": {
        "power_min_mw": 0.5,
        "power_max_mw": 6.5,
        "n_gain_points": 12,
        "n_voltage_points": 16,
    },
}


def _is_integer(value) -> bool:
    # bool is an int subclass, but True frames or seeds are a config mistake
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved inputs of one scenario run."""

    scenario: str
    seed: int = 0
    n_frames: int = 5000
    calibration_path: str | None = None
    output_dir: str = "."
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise UsageError(
                f"unknown scenario {self.scenario!r}; choose one of {', '.join(SCENARIOS)}"
            )
        if not _is_integer(self.n_frames) or self.n_frames < 1:
            raise UsageError(f"n_frames must be an integer >= 1, got {self.n_frames!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.calibration_path, (str, type(None))):
            raise UsageError(
                f"calibration_path must be a string or null, got {self.calibration_path!r}"
            )


@dataclass(frozen=True)
class ScenarioRun:
    """Outcome of a scenario: manifest contents plus the exit code."""

    manifest: dict
    output_dir: Path
    exit_code: int


def _number(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {value!r}")
    return number


def _coerce(scenario: str, key: str, value) -> object:
    defaults = SCENARIO_DEFAULTS[scenario]
    if key not in defaults:
        raise UsageError(
            f"unknown parameter {key!r} for scenario {scenario!r}; "
            f"known keys: {', '.join(sorted(defaults))}"
        )
    default = defaults[key]
    try:
        if isinstance(default, bool):
            if isinstance(value, bool):
                return value
            text = str(value).strip().lower()
            if text in ("true", "1", "yes", "on"):
                return True
            if text in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if isinstance(default, int):
            return int(str(value))
        if isinstance(default, float):
            return _number(value)
        return str(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for {key!r}: {exc}") from exc


def resolve_params(scenario: str, overrides: dict) -> dict:
    if scenario not in SCENARIO_DEFAULTS:
        raise UsageError(
            f"unknown scenario {scenario!r}; choose one of {', '.join(SCENARIOS)}"
        )
    params = dict(SCENARIO_DEFAULTS[scenario])
    for key, value in overrides.items():
        params[key] = _coerce(scenario, key, value)
    return params


def load_calibration(path: str | Path) -> Calibration:
    """Read a calibration JSON written by the calibrate scenario."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"unreadable calibration file {path}: {exc}") from exc
    try:
        return Calibration.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid calibration file {path}: {exc}") from exc


def config_fingerprint(cfg: ScenarioConfig, params: dict, cal: Calibration) -> str:
    payload = {
        "scenario": cfg.scenario,
        "seed": int(cfg.seed),
        "n_frames": int(cfg.n_frames),
        "params": params,
        "calibration": cal.to_dict(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _child_seeds(seed: int, n: int) -> list[int]:
    """Independent per-stream seeds derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)]


def _positive(params: dict, key: str) -> float:
    value = float(params[key])
    if value <= 0.0:
        raise UsageError(f"{key} must be > 0, got {value:g}")
    return value


def _width(value) -> float:
    width = _number(value)
    if width <= 0.0:
        raise ValueError(f"not a width > 0: {value!r}")
    return width


def _quadrature(value: str) -> str:
    if value not in ("x", "p"):
        raise ValueError(f"a slot quadrature is 'x' or 'p', got {value!r}")
    return f"{value}_squeezed"


@contextlib.contextmanager
def _fed_by(*keys: str):
    """Re-raise a library error in the block as a usage error naming ``keys``.

    ``keys`` are the parameters that fed the block; a ``ValueError``, or an
    ``OverflowError`` from a float too large to count, is caught.
    """
    try:
        yield
    except UsageError:
        raise
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad value for {' or '.join(map(repr, keys))}: {exc}") from exc


def _list_param(params: dict, key: str, parse) -> list:
    """The comma-separated entries of ``params[key]``, each through ``parse``."""
    with _fed_by(key):
        return [parse(entry.strip()) for entry in str(params[key]).split(",")]


def _detector(params: dict) -> DetectorModel:
    """The detector of ``params``; a bandwidth of 0 is the ideal detector."""
    bw = float(params["detector_bandwidth_hz"])
    if bw < 0.0:
        raise UsageError(f"bad value for 'detector_bandwidth_hz': {bw:g} is negative; "
                         "0 means an ideal detector")
    with _fed_by("detector_bandwidth_hz", "sample_rate_hz"):
        return DetectorModel(None if bw == 0.0 else bw, float(params["sample_rate_hz"]))


def _require_frames(cfg: ScenarioConfig, minimum: int, reason: str, n_phases: int = 1) -> None:
    """Reject, before any work, a frame count below the scenario's minimum,
    or ``n_phases`` times that many frames beyond the substreams of a seed."""
    if cfg.n_frames < minimum:
        raise UsageError(
            f"{cfg.scenario} needs n_frames >= {minimum}, {reason}, got {cfg.n_frames}"
        )
    if n_phases * cfg.n_frames > _MAX_FRAMES:
        keys = "'n_frames'" if n_phases == 1 else "'n_frames' or 'n_phases'"
        raise UsageError(f"bad value for {keys}: {n_phases * cfg.n_frames} frames are above "
                         f"the {_MAX_FRAMES} frame substreams of a seed")


# The work budget: the most elements one array of a plan may hold, 2 GiB
# of float64.  Planning rejects a larger array before allocating anything.
_MAX_ARRAY_ELEMENTS = 2**28


def _budget(elements: int, what: str, *keys: str) -> None:
    """Reject a plan whose ``what`` holds more than the budgeted elements, naming ``keys``."""
    if elements > _MAX_ARRAY_ELEMENTS:
        raise UsageError(
            f"bad value for {' or '.join(map(repr, keys))}: {what} would hold {elements} "
            f"elements, above the work budget of {_MAX_ARRAY_ELEMENTS}"
        )


def _budget_stream(det: DetectorModel, n_samples: int, *keys: str) -> None:
    """Reject a frame stream whose largest array exceeds the work budget.

    That array is a block of up to ``_BLOCK_ROWS`` frames of the record
    with its burn-in; the tile buffers of the synthesis and of the
    reductions, FFT rows included, hold fewer elements.  Memory is flat in the frame
    count, so the count is not budgeted.
    """
    row = n_samples + _settle_samples(det.filters())
    _budget(_BLOCK_ROWS * row, f"a block of {_BLOCK_ROWS} frames", *keys)


def _pump_chain(prog: AwgProgram, cal: Calibration, resp: ModulatorResponse, loss: float):
    """The pump CSV table, shaped pump power and squeezer trajectory of ``prog``."""
    ideal = pump.ideal_pump_power(prog, cal)
    with _fed_by("rise_time_s", "sample_rate_hz", "loss"):
        shaped = pump.apply_modulator_response(ideal, resp)
        phase = pump.pump_phase_trace(prog)
        traj = opa.trajectory_from_pump(shaped, phase, cal, loss)
    table = {
        "time_s": prog.times,
        "drive_v": prog.samples_v,
        "ideal_power_mw": ideal.power_mw,
        "power_mw": shaped.power_mw,
    }
    return table, shaped, traj


# ---------------------------------------------------------------------------
# Each _plan_<scenario>(cfg, params, cal) checks every parameter and builds
# the deterministic model, then returns a closure that streams and reduces
# the frame sets.  It returns (files, checks): each manifest key's file name
# and content (named columns for .csv, a payload for .json), and each check
# name's (passed, detail).
#
# spectrum


def _plan_spectrum(cfg, params, cal):
    _require_frames(
        cfg, quantum.N_SPLITS, f"one for each of the {quantum.N_SPLITS} error-estimate splits"
    )
    det = _detector(params)
    dt = det.dt
    n_samples = int(params["n_samples"])
    loss = float(params["loss"])
    _budget_stream(det, n_samples, "n_samples")
    power = float(params["pump_power_mw"])
    if not 0.0 < power <= cal.max_pump_power * (1.0 + 1e-9):
        raise UsageError(f"bad value for 'pump_power_mw': {power:g} mW is outside "
                         f"(0, {cal.max_pump_power:g}] mW, what the source sustains")
    r = cal.r_of_power(power)
    seeds = _child_seeds(cfg.seed, 4)

    with _fed_by("loss", "n_samples"):
        traj = opa.constant_trajectory(r, 0.0, loss, dt, n_samples)
    vac_traj = opa.constant_trajectory(0.0, 0.0, 0.0, dt, n_samples)
    lo, hi = float(params["band_lo_hz"]), float(params["band_hi_hz"])
    nyquist = 0.5 / dt
    # the band must hold rfft bins, or the report would state a band it never averaged
    if not 0.0 <= lo < hi:
        raise UsageError(
            f"band_lo_hz must satisfy 0 <= band_lo_hz < band_hi_hz, got {lo:g} and {hi:g}"
        )
    if hi > nyquist:
        raise UsageError(
            f"band_hi_hz must not exceed the {nyquist:g} Hz Nyquist frequency, got {hi:g}"
        )
    freqs = np.fft.rfftfreq(n_samples, d=det.dt)
    if not np.any((freqs >= lo) & (freqs <= hi)):
        raise UsageError(
            f"n_samples={n_samples} puts no spectrum bin in [{lo:g}, {hi:g}] Hz; its bins lie "
            f"{2.0 * nyquist / n_samples:g} Hz apart"
        )
    # the roll-off check averages the band above twice the detector
    # bandwidth, when that band is wide and holds a spectrum bin
    high_band = None
    if det.bandwidth is not None and 2.0 * det.bandwidth < 0.95 * nyquist:
        high_lo, high_hi = 2.0 * det.bandwidth, 0.98 * nyquist
        if np.any((freqs >= high_lo) & (freqs <= high_hi)):
            high_band = (high_lo, high_hi)
    # each set's spectrum is taken against the vacuum reference
    sets = {
        "squeezed_spectrum": (traj, 0.0, seeds[0]),
        "antisqueezed_spectrum": (traj, math.pi / 2.0, seeds[1]),
        "vacuum_check_spectrum": (vac_traj, 0.0, seeds[3]),
    }

    def split_means(tr, phase, seed):
        # each frame block is reduced and dropped; no set is held whole
        blocks = iter_frame_chunks(tr, det, phase, seed, range(cfg.n_frames))
        return dsp.periodogram_split_means(cfg.n_frames, blocks)

    def acquire():
        vac = split_means(vac_traj, 0.0, seeds[2])
        specs = {
            name: dsp.spectrum_ratio(split_means(*args), vac, n_samples, det.dt)
            for name, args in sets.items()
        }
        (s_db, s_se), (a_db, a_se), (v_db, v_se) = (
            dsp.band_average(spec, lo, hi) for spec in specs.values()
        )
        try:
            est = dsp.estimate_pure_squeezing_and_loss(s_db, a_db, s_se, a_se)
        except ValueError as exc:
            # noise alone can push a small run's pair outside the invertible
            # region: that fails a check, it is not a usage error
            est = None
            infeasible = f"measured pair {s_db:+.4f} / {a_db:+.4f} dB: {exc}"

        checks = {}
        if high_band is not None:
            h_db, h_se = dsp.band_average(specs["squeezed_spectrum"], *high_band)
            checks["rolloff_to_shot_noise"] = (
                abs(h_db) <= 0.3, f"band above 2x detector bandwidth averages {h_db:+.3f} dB"
            )
        else:
            h_db = h_se = None
        checks["squeezing_below_shot_noise"] = (s_db < 0.0, f"{s_db:+.3f} dB")
        checks["vacuum_check_flat"] = (
            abs(v_db) <= max(0.05, 5.0 * v_se), f"vacuum-vs-vacuum band average {v_db:+.4f} dB"
        )
        if est is None:
            checks["inversion_feasible"] = (False, infeasible)
        else:
            checks["inversion_confident"] = (
                not est.low_confidence, f"low_confidence={est.low_confidence}"
            )
            checks["loss_in_unit_interval"] = (0.0 <= est.loss < 1.0, f"loss={est.loss:.4f}")

        expected_s = quantum.variance_at_phase(r, 0.0, loss, 0.0)
        expected_a = quantum.variance_at_phase(r, 0.0, loss, math.pi / 2.0)
        report = {
            "pump_power_mw": power,
            "squeezing_parameter": r,
            "band_hz": [lo, hi],
            "squeezed_band_db": [float(s_db), float(s_se)],
            "antisqueezed_band_db": [float(a_db), float(a_se)],
            "vacuum_check_band_db": [float(v_db), float(v_se)],
            "high_band_db": None if h_db is None else [float(h_db), float(h_se)],
            "expected_squeezed_db": float(quantum.db_from_variance(expected_s)),
            "expected_antisqueezed_db": float(quantum.db_from_variance(expected_a)),
            "estimated_pure_db": None if est is None else [est.pure_db, est.pure_db_stderr],
            "estimated_loss": None if est is None else [est.loss, est.loss_stderr],
            "low_confidence": None if est is None else est.low_confidence,
        }
        files = {
            name: (
                f"{name}.csv",
                {"freq_hz": spec.freqs, "level_db": spec.level_db, "stderr_db": spec.stderr_db},
            )
            for name, spec in specs.items()
        }
        files["report"] = ("spectrum_report.json", report)
        return files, checks

    return acquire


# ---------------------------------------------------------------------------
# waveforms


# the oracle's fine grid has this many points per sample
_ORACLE_REFINE = 50


def _oracle_grid(fwhm: float, resp: ModulatorResponse, dt: float) -> tuple[float, int, int]:
    """The time constant, coarse samples and fine kernel taps of :func:`_gaussian_peak_oracle`."""
    tau = resp.rise_time_10_90 / math.log(9.0)
    n_coarse = int(round((6.0 * fwhm + 30.0 * tau) / dt))
    return tau, n_coarse, int(round(30.0 * tau / (dt / _ORACLE_REFINE)))


def _gaussian_peak_oracle(fwhm: float, amplitude_v: float, cal: Calibration,
                          resp: ModulatorResponse, dt: float) -> float:
    """Peak shaped power for a Gaussian drive pulse, by fine-grid convolution.

    The drive is held constant over each coarse sample (the generator is
    a zero-order hold), and the held power profile is convolved with the
    exact continuous first-order kernel on a 50x finer grid.  This is an
    independent route to the same physical quantity as the sampled IIR
    filter in :func:`sqzsim.pump.apply_modulator_response`.
    """
    tau, n_coarse, n_kernel = _oracle_grid(fwhm, resp, dt)
    t_coarse = (np.arange(n_coarse) - n_coarse // 2) * dt
    v = amplitude_v * np.exp(-4.0 * math.log(2.0) * (t_coarse / fwhm) ** 2)
    p_coarse = cal.power_for_voltage(v)

    dt_f = dt / _ORACLE_REFINE
    p_fine = np.repeat(p_coarse, _ORACLE_REFINE)
    t_kernel = (np.arange(n_kernel) + 0.5) * dt_f
    kernel = np.exp(-t_kernel / tau) / tau * dt_f
    shaped = np.convolve(p_fine, kernel, mode="full")[: p_fine.size]
    return float(shaped.max())


def _plan_waveforms(cfg, params, cal):
    _require_frames(
        cfg, 2 * quantum.N_SPLITS, f"two for each of the {quantum.N_SPLITS} split variances"
    )
    det = _detector(params)
    dt = det.dt
    # the checks read the square's first half period as the squeezed one
    # and judge the Gaussian peaks relative to a nonzero power
    amp = _positive(params, "amplitude_v")
    loss = float(params["loss"])
    duration = _positive(params, "duration_s")
    taps = int(params["fir_taps"])
    fwhms = [w * 1e-9 for w in _list_param(params, "gauss_fwhms_ns", _width)]
    with _fed_by("rise_time_s"):
        resp = ModulatorResponse(rise_time_10_90=float(params["rise_time_s"]))
    for w in fwhms:
        # the fine grid's full convolution is the oracle's largest array
        with _fed_by("gauss_fwhms_ns", "rise_time_s"):
            _, n_coarse, n_kernel = _oracle_grid(w, resp, dt)
        _budget(_ORACLE_REFINE * n_coarse + n_kernel - 1, "the Gaussian peak oracle's fine grid",
                "gauss_fwhms_ns", "rise_time_s")
    lead = 100e-9
    tail = 200e-9
    with _fed_by("duration_s", "sample_rate_hz"):
        n_total = int(round((lead + duration + tail) / dt))
    # the valid FIR output drops (taps - 1)/2 samples at each end of
    # every frame, so the taps must fit in one, whose length the duration
    # and the sample rate set; with the frame budgeted, that bounds the
    # taps before they are built
    if taps - 1 >= n_total:
        raise UsageError(
            f"bad value for 'fir_taps' or 'duration_s' or 'sample_rate_hz': fir_taps - 1 "
            f"must lie below the {n_total}-sample frame, got {taps} taps"
        )
    _budget_stream(det, n_total, "duration_s", "sample_rate_hz")
    with _fed_by("fir_taps", "fir_cutoff_hz", "sample_rate_hz"):
        h = dsp.fir_taps(dt, taps=taps, cutoff=float(params["fir_cutoff_hz"]))
    half = float(params["square_half_period_s"])
    # the settled plateaus and the sine's inner span, where the checks read
    # the trace; the FIR edge trim must leave each of them whole
    plateaus = {
        "squeezed": (lead + 2.0 * half + 50e-9, lead + 3.0 * half - 10e-9),
        "antisqueezed": (lead + 3.0 * half + 50e-9, lead + 4.0 * half - 10e-9),
    }
    sine_window = (lead + 100e-9, lead + duration - 100e-9)
    edge = (taps - 1) // 2
    for name, (lo_t, hi_t) in [*plateaus.items(), ("sine", sine_window)]:
        if lo_t < 0.0 or hi_t - lo_t < dt or hi_t > n_total * dt:
            raise UsageError(
                f"duration_s={duration:g} and square_half_period_s={half:g} put the {name} "
                f"check window at [{lo_t * 1e9:g}, {hi_t * 1e9:g}) ns, which is empty or not "
                f"inside the {n_total * dt * 1e9:g} ns frame"
            )
        if lo_t / dt < edge - 0.5 or hi_t / dt > n_total - edge - 0.5:
            raise UsageError(
                f"fir_taps={taps} trims the trace to [{edge * dt * 1e9:g}, "
                f"{(n_total - edge) * dt * 1e9:g}) ns, which does not cover the {name} "
                f"check window [{lo_t * 1e9:g}, {hi_t * 1e9:g}) ns"
            )
    with _fed_by("amplitude_v", "loss"):
        r_top = cal.r_of_power(cal.power_for_voltage(amp))
        s_closed = float(quantum.variance_at_phase(r_top, 0.0, loss, 0.0))
    a_closed = float(quantum.variance_at_phase(r_top, math.pi / 2.0, loss, 0.0))
    t = np.arange(n_total) * dt
    rel = t - lead
    active = (rel >= 0.0) & (rel < duration)

    programs = {
        name: np.zeros(n_total) for name in ("square", "sine", "gaussians", "arbitrary", "step")
    }
    programs["square"][active] = np.where(
        (np.floor(rel[active] / half).astype(int) % 2) == 0, amp, -amp
    )
    f_sine = float(params["sine_frequency_hz"])
    programs["sine"][active] = amp * np.sin(2.0 * math.pi * f_sine * rel[active])
    centers = np.linspace(0.2 * duration, 0.8 * duration, len(fwhms))
    for c, w in zip(centers, fwhms):
        programs["gaussians"] += amp * np.exp(-4.0 * math.log(2.0) * ((rel - c) / w) ** 2) * active
    programs["arbitrary"][active] = 0.95 * amp * (
        0.55 * np.sin(2.0 * math.pi * 3e6 * rel[active])
        + 0.45 * np.sin(2.0 * math.pi * 7.5e6 * rel[active] + 1.0)
    )
    programs["step"][t >= lead + float(params["step_time_s"])] = amp

    seeds = _child_seeds(cfg.seed, len(programs) + 1)
    vac_traj = opa.constant_trajectory(0.0, 0.0, 0.0, det.dt, n_total)
    n_kept = n_total - 2 * edge
    # the trace keeps the samples every FIR tap covers
    times = edge * det.dt + np.arange(n_kept) * det.dt

    # every pump chain, and the checks that read the pump alone, before any frame
    pump_files = {}
    traced = {}
    pump_report: dict = {"programs": list(programs)}
    pump_checks = {}
    for k, (name, volts) in enumerate(programs.items()):
        prog = AwgProgram(sample_rate_hz=1.0 / dt, samples_v=volts)
        # the summed Gaussian pulses may exceed the single-pulse drive
        with _fed_by("amplitude_v", "gauss_fwhms_ns"):
            table, shaped, traj = _pump_chain(prog, cal, resp, loss)
        pump_files[f"{name}_pump"] = (f"{name}_pump.csv", table)
        if name == "step":
            with _fed_by("amplitude_v", "step_time_s", "rise_time_s"):
                rise = pump.rise_time_10_90(shaped)
            pump_report["step_rise_time_s"] = rise
            pump_checks["step_rise_time"] = (
                abs(rise - resp.rise_time_10_90) <= dt,
                f"measured {rise * 1e9:.2f} ns vs {resp.rise_time_10_90 * 1e9:.2f} ns target",
            )
            continue
        expected = quantum.variance_at_phase(
            traj.r[edge : edge + n_kept], traj.theta[edge : edge + n_kept], loss, 0.0
        )
        traced[name] = (traj, seeds[k], expected)
        if name == "gaussians":
            peak_measured, oracle = [], []
            for c, w in zip(centers, fwhms):
                sel = np.abs(shaped.times - (lead + c)) <= 0.1 * duration
                peak_measured.append(float(shaped.power_mw[sel].max()))
                with _fed_by("gauss_fwhms_ns", "rise_time_s"):
                    oracle.append(_gaussian_peak_oracle(w, amp, cal, resp, dt))
            pump_report["gauss_fwhm_s"] = list(fwhms)
            pump_report["gauss_peak_mw"] = peak_measured
            pump_report["gauss_peak_oracle_mw"] = oracle
            decreasing = all(
                peak_measured[i] > peak_measured[i + 1] for i in range(len(peak_measured) - 1)
            )
            pump_checks["gauss_peaks_decreasing"] = (
                decreasing, "peaks " + ", ".join(f"{p:.3f}" for p in peak_measured) + " mW"
            )
            # a drive so weak that its peak power underflows to 0 cannot pass
            worst = max(
                abs(m / o - 1.0) if o > 0.0 else math.inf for m, o in zip(peak_measured, oracle)
            )
            pump_checks["gauss_peaks_match_oracle"] = (
                worst <= 0.01, f"worst relative deviation {worst * 100:.3f}%"
            )

    def filtered_moments(tr, seed):
        # each frame block is filtered to the samples every tap covers,
        # reduced and dropped, the raw block before the next is asked
        # for; no frame set is held whole
        blocks = iter_frame_chunks(tr, det, 0.0, seed, range(cfg.n_frames))
        return dsp.split_moments(cfg.n_frames, map(functools.partial(dsp.fir_filter, h=h), blocks))

    def acquire():
        vac = filtered_moments(vac_traj, seeds[-1])
        files = dict(pump_files)
        report = dict(pump_report)
        checks = {}
        for name, (traj, seed, expected) in traced.items():
            vt = dsp.variance_ratio(filtered_moments(traj, seed), vac)
            columns = {"time_s": times, "variance": vt.variance, "stderr": vt.stderr}
            files[f"{name}_variance"] = (
                f"{name}_variance.csv", columns | {"quasi_static_variance": expected}
            )
            if name == "square":
                for label, target in (("squeezed", s_closed), ("antisqueezed", a_closed)):
                    lo_t, hi_t = plateaus[label]
                    sel = (times >= lo_t) & (times < hi_t)
                    mean = float(vt.variance[sel].mean())
                    checks[f"square_plateau_{label}"] = (
                        abs(mean / target - 1.0) <= 0.02,
                        f"settled plateau variance {mean:.4f} vs quasi-static {target:.4f}",
                    )
                    report[f"square_plateau_{label}"] = [mean, target]
            if name == "sine":
                sel = (times >= sine_window[0]) & (times < sine_window[1])
                vmin, vmax = float(vt.variance[sel].min()), float(vt.variance[sel].max())
                checks["sine_variance_modulates"] = (
                    vmin < 0.9 and vmax > 1.1, f"variance swings {vmin:.3f} .. {vmax:.3f}"
                )
                report["sine_variance_range"] = [vmin, vmax]
        files["report"] = ("waveforms_report.json", report)
        return files, checks | pump_checks

    return acquire


# ---------------------------------------------------------------------------
# tm_squeezing


def _plan_tm_squeezing(cfg, params, cal):
    det = _detector(params)
    dt = det.dt
    loss = float(params["loss"])
    with _fed_by("rise_time_s"):
        resp = ModulatorResponse(rise_time_10_90=float(params["rise_time_s"]))
    dbs = _list_param(params, "slot_dbs", _number)
    quads = _list_param(params, "slot_quadratures", _quadrature)
    if len(dbs) != len(quads):
        raise UsageError("slot_dbs and slot_quadratures must have equal length")
    keys = ("slot_dbs", "margin_s", "mode_width_s", "rise_time_s", "sample_rate_hz")
    with _fed_by(*keys):
        slots = tuple(
            PulseSlot(
                squeezing_db=db,
                quadrature=q,
                mode_width=float(params["mode_width_s"]),
                margin=float(params["margin_s"]),
            )
            for db, q in zip(dbs, quads)
        )
        train = PulseTrainSpec(slots=slots)
        # the program's length, budgeted before the program or a mode is built
        _budget_stream(det, sum(slot.n_samples(1.0 / dt) for slot in train.slots), *keys)
        prog = pump.compile_pulse_train(train, cal, resp, sample_rate_hz=1.0 / dt)
    n_samples = prog.samples_v.size
    n_phases = int(params["n_phases"])
    if n_phases < 3:
        raise UsageError(
            f"n_phases must be >= 3, the fewest distinct LO phases the tomography fit "
            f"accepts, got {n_phases}"
        )
    _require_frames(
        cfg, tomography.MIN_GROUP_SAMPLES, "the sample minimum of each tomography phase group",
        n_phases,
    )
    table, _, traj = _pump_chain(prog, cal, resp, loss)
    centers = pump.slot_mode_centers(train)
    with _fed_by("mode_gamma_hz", "mode_width_s"):
        modes = [
            dsp.make_mode(
                "tf_mode",
                dt,
                t_c=float(centers[k]),
                gamma=float(params["mode_gamma_hz"]),
                t_w=slot.mode_width,
            )
            for k, slot in enumerate(train.slots)
        ]
    # every frame block is projected onto all slot modes at once, reduced
    # and dropped; no frame set is held whole
    scan = dsp.ModeScan(modes, np.eye(len(modes)), [0], det.dt, n_samples)

    phases = [k * math.pi / n_phases for k in range(n_phases)]
    n = cfg.n_frames
    n_total = n_phases * n
    seeds = _child_seeds(cfg.seed, 2)
    # the vacuum reference, as many frames as the signal, gives each
    # mode's shot-noise unit
    vac_traj = opa.constant_trajectory(0.0, 0.0, 0.0, det.dt, n_samples)

    def acquire():
        vac_blocks = iter_frame_chunks(vac_traj, det, 0.0, seeds[1], range(n_total))
        scales = np.sqrt(dsp.split_moments(n_total, map(scan, vac_blocks)).variance())
        # phase group j is frames [j n, (j + 1) n) of one stream of n_total frames
        groups = []
        for j, phase in enumerate(phases):
            blocks = iter_frame_chunks(traj, det, phase, seeds[0], range(j * n, (j + 1) * n))
            groups.append(dsp.split_moments(n, map(scan, blocks)))

        checks = {}
        slot_records = []
        for k, slot in enumerate(train.slots):
            # slot k's quadrature moments at every phase, in shot-noise units
            s = scales[k]
            moments = tuple(
                dsp.SplitMoments(g.count, g.mean[:, [k]] / s, g.m2[:, [k]] / s**2) for g in groups
            )
            data = tomography.TomographyInput(phases=tuple(phases), moments=moments)
            result = tomography.ml_gaussian_tomography(data, project=bool(params["project"]))
            cov = np.asarray(result.state.cov)
            det_cov = float(np.linalg.det(cov))
            vacuum_slot = slot.squeezing_db == 0.0
            r_slot = quantum.r_from_pure_db(slot.squeezing_db)
            s_var = float(quantum.variance_at_phase(r_slot, 0.0, loss, 0.0))
            a_var = float(quantum.variance_at_phase(r_slot, 0.0, loss, math.pi / 2.0))
            theory_angle = (
                None if vacuum_slot else (0.0 if slot.quadrature == "x_squeezed" else 90.0)
            )
            slot_records.append(
                {
                    "slot": k,
                    "squeezing_db": slot.squeezing_db,
                    "quadrature": slot.quadrature,
                    "mode_center_s": float(centers[k]),
                    "theory": {
                        "angle_deg": theory_angle,
                        "semi_axes": [math.sqrt(s_var), math.sqrt(a_var)],
                    },
                    "result": result.to_dict(),
                }
            )

            checks[f"slot{k}_uncertainty_bound"] = (
                det_cov >= 1.0 - 1e-9, f"det(cov) = {det_cov:.6f}"
            )
            if vacuum_slot:
                dev = np.abs(cov - np.eye(2))
                tol = 3.0 * np.asarray(result.cov_stderr)
                checks[f"slot{k}_vacuum_identity"] = (
                    np.all(dev <= tol), f"max |cov - I| = {dev.max():.4f}, 3 SE = {tol.max():.4f}"
                )
            else:
                diff = tomography.ellipse_angle_difference_deg(
                    result.ellipse.angle_deg, theory_angle
                )
                checks[f"slot{k}_angle"] = (
                    abs(diff) <= 3.0,
                    f"recovered {result.ellipse.angle_deg:+.2f} deg, "
                    f"theory {theory_angle:+.1f} deg",
                )

        report = {
            "n_slots": len(train.slots),
            "slot_period_s": float(train.slots[0].period),
            "lo_phases_rad": phases,
            "slots": slot_records,
        }
        files = {
            "staircase_pump": ("staircase_pump.csv", table),
            "slots": ("slots.json", report),
        }
        return files, checks

    return acquire


# ---------------------------------------------------------------------------
# epr


def _plan_epr(cfg, params, cal):
    _require_frames(cfg, quantum.DUAN_MIN_SAMPLES, "the sample minimum of the Duan statistic")
    det = _detector(params)
    dt = det.dt
    amp = float(params["amplitude_v"])
    loss = float(params["loss"])
    with _fed_by("rise_time_s"):
        resp = ModulatorResponse(rise_time_10_90=float(params["rise_time_s"]))
    lead = float(params["lead_s"])
    tail = float(params["tail_s"])
    if min(lead, tail) < 0.0:
        raise UsageError(
            f"bad value for 'lead_s' or 'tail_s': must not be negative, got {lead:g}, {tail:g}"
        )
    duration = _positive(params, "duration_s")
    segment = _positive(params, "segment_s")
    # a drive segment holds one sample at least, so the loop below is bounded
    if segment < dt:
        raise UsageError(f"bad value for 'segment_s': {segment:g} s is below one {dt:g} s sample")
    with _fed_by("lead_s", "duration_s", "tail_s"):
        n_total = int(round((lead + duration + tail) / dt))
        _budget_stream(det, n_total, "lead_s", "duration_s", "tail_s")
        n_segments = int(round(duration / segment))
        volts = np.zeros(n_total)
        for k in range(n_segments):
            lo = int(round((lead + k * segment) / dt))
            hi = int(round((lead + (k + 1) * segment) / dt))
            volts[lo:hi] = amp if k % 2 == 0 else -amp
        prog = AwgProgram(sample_rate_hz=1.0 / dt, samples_v=volts)
    with _fed_by("amplitude_v"):
        table, _, traj = _pump_chain(prog, cal, resp, loss)

    # Gate flips sit between samples, so the mode center lives on the
    # half-sample grid aligned with the drive sign flips.
    t_c = lead + 0.5 * duration - 0.5 * dt
    # a mode more than a sample wider than the budgeted record cannot lie
    # on it, and its weights would be built before any placement check
    width = float(params["mode_width_s"])
    if width > (n_total + 1) * dt:
        raise UsageError(f"bad value for 'mode_width_s': {width:g} s is wider than the "
                         f"{n_total * dt:g} s record window")
    with warnings.catch_warnings(record=True) as caught, _fed_by(
        "mode_gamma_hz", "mode_width_s", "bin_period_s"
    ):
        warnings.simplefilter("always")
        g1, g2 = (
            dsp.make_mode(
                family,
                dt,
                t_c=t_c,
                gamma=float(params["mode_gamma_hz"]),
                t_w=width,
                period=float(params["bin_period_s"]),
            )
            for family in ("g1", "g2")
        )
    advisories = sorted({str(w.message) for w in caught})
    with _fed_by("scan_halfwidth_s", "mode_width_s", "lead_s", "duration_s", "tail_s"):
        lags = tomography.epr_scan_lags(g1, g2, det.dt, n_total, float(params["scan_halfwidth_s"]))

    # The detector group delay shifts the optimal gate alignment off the
    # nominal center, so the scan minimum must be compared against the
    # minimum of the prediction over the same offsets.
    scan_offsets = lags * det.dt
    # the prediction filters two mode-weight rows of burn-in + samples for
    # every lag, a tile of lags at a time, so it holds a few tiles; the
    # budget bounds its work by the elements of all those rows
    row = n_total + _settle_samples(det.filters())
    _budget(
        2 * lags.size * row, "the prediction scan's two mode-weight rows of every lag",
        "scan_halfwidth_s", "lead_s", "duration_s", "tail_s",
    )
    predicted_scan = tomography.duan_prediction_scan(traj, det, g1, g2, scan_offsets)
    k_best = int(np.argmin(predicted_scan))
    predicted_best = float(predicted_scan[k_best])
    predicted_t_c = float(t_c + scan_offsets[k_best])
    predicted_nominal = float(predicted_scan[len(predicted_scan) // 2])
    ideal = DetectorModel(bandwidth=None, sample_rate=det.sample_rate)
    predicted_inst = float(tomography.duan_prediction_scan(traj, ideal, g1, g2, [0.0])[0])

    seeds = _child_seeds(cfg.seed, 3)
    vac_traj = opa.constant_trajectory(0.0, 0.0, 0.0, det.dt, n_total)

    def blocks(tr, phase, seed):
        # each frame block is projected, reduced and dropped; no frame set
        # is held whole
        return iter_frame_chunks(tr, det, phase, seed, range(cfg.n_frames))

    def acquire():
        result = tomography.stream_epr_analysis(
            blocks(traj, 0.0, seeds[0]), blocks(traj, math.pi / 2.0, seeds[1]),
            blocks(vac_traj, 0.0, seeds[2]), cfg.n_frames, g1, g2,
            det.dt, n_total, lags,
        )
        margin = (4.0 - result.duan) / result.duan_stderr
        best_t_c = t_c + result.offset
        checks = {
            "entangled": (result.entangled, f"duan = {result.duan:.4f}"),
            "separability_margin": (margin >= 5.0, f"(4 - duan)/SE = {margin:.1f}"),
            "matches_prediction": (
                abs(result.duan - predicted_best) <= 5.0 * result.duan_stderr,
                f"duan {result.duan:.4f} vs predicted minimum {predicted_best:.4f} "
                f"(SE {result.duan_stderr:.4f})",
            ),
            "scan_near_predicted_center": (
                abs(best_t_c - predicted_t_c) <= 3.0 * dt,
                f"best center {(best_t_c - t_c) * 1e9:+.1f} ns vs "
                f"predicted {(predicted_t_c - t_c) * 1e9:+.1f} ns",
            ),
        }
        report = {
            "duan": result.duan,
            "duan_stderr": result.duan_stderr,
            "effective_db": result.effective_db,
            "entangled": result.entangled,
            "t_c_s": best_t_c,
            "nominal_t_c_s": t_c,
            "duan_predicted_nominal": predicted_nominal,
            "duan_predicted_best": predicted_best,
            "predicted_t_c_s": predicted_t_c,
            "duan_predicted_instantaneous": float(predicted_inst),
            "n_frames": cfg.n_frames,
            "advisories": advisories,
        }
        scan = {"offset_s": result.scan_offsets, "duan": result.scan_duan,
                "duan_predicted": predicted_scan}
        files = {
            "report": ("epr_report.json", report),
            "epr_pump": ("epr_pump.csv", table),
            "scan": ("epr_scan.csv", scan),
        }
        return files, checks

    return acquire


# ---------------------------------------------------------------------------
# calibrate


def _plan_calibrate(cfg, params, cal):
    # each fit has one coefficient, so one point determines it
    for key in ("n_gain_points", "n_voltage_points"):
        if params[key] < 1:
            raise UsageError(f"{key} must be >= 1, one point per fit at least, got {params[key]}")
        _budget(2 * int(params[key]), "the (x, y) points of its fit", key)
    # the gains below take the square root of every power, and the gain
    # exp(2 r) at either end of the powers must be a finite float
    for key in ("power_min_mw", "power_max_mw"):
        power = float(params[key])
        if not power > 0.0:
            raise UsageError(f"{key} must be > 0, got {params[key]}")
        r = cal.r_of_power(power)
        if 2.0 * r > math.log(np.finfo(float).max):
            raise UsageError(f"bad value for {key!r}: {power:g} mW gives r = {r:g}, whose "
                             "parametric gain exp(2 r) overflows a float")
    powers = np.linspace(float(params["power_min_mw"]), float(params["power_max_mw"]),
                         int(params["n_gain_points"]))
    gains = np.exp(2.0 * cal.r_of_power(powers))
    with _fed_by("power_min_mw", "power_max_mw", "n_gain_points"):
        gain_coeff, residual = opa.fit_gain_curve(np.column_stack([powers, gains]))

    voltages = np.linspace(0.01, cal.linear_limit, int(params["n_voltage_points"]))
    bench_power = cal.power_for_voltage(voltages)
    v2 = voltages**2
    quad_fit = float(np.dot(bench_power, v2) / np.dot(v2, v2))

    gain_err = abs(gain_coeff / cal.gain_coeff - 1.0)
    quad_err = abs(quad_fit / cal.quad_coeff - 1.0)
    checks = {
        "gain_fit_round_trip": (gain_err <= 1e-9, f"relative error {gain_err:.2e}"),
        "quad_fit_round_trip": (quad_err <= 1e-9, f"relative error {quad_err:.2e}"),
        "gain_fit_residual": (residual <= 1e-9, f"residual {residual:.2e}"),
    }
    fitted = Calibration(
        quad_coeff=quad_fit,
        linear_limit=cal.linear_limit,
        gain_coeff=gain_coeff,
        max_pump_power=cal.max_pump_power,
        extended_lut=cal.extended_lut,
    )
    files = {
        "calibration": ("calibration.json", fitted.to_dict()),
        "gain_points": ("gain_points.csv", {"power_mw": powers, "parametric_gain": gains}),
        "quadratic_points": (
            "quadratic_points.csv", {"drive_v": voltages, "power_mw": bench_power}
        ),
    }
    # nothing is acquired: the fits above are the whole run
    return lambda: (files, checks)


# ---------------------------------------------------------------------------


_PLANS = {
    "spectrum": _plan_spectrum,
    "waveforms": _plan_waveforms,
    "tm_squeezing": _plan_tm_squeezing,
    "epr": _plan_epr,
    "calibrate": _plan_calibrate,
}


def _write_artifact(path: Path, content: dict, meta: dict) -> None:
    """Write named columns to a .csv path, else a JSON payload; ``meta`` stamps either.

    The package's one CSV layout: one ``# key=value`` line per ``meta``
    entry (ending in ``\\n``, the value written with ``str``), a row of
    column names, then one row per record with every value written as
    ``%.17g``, so float64 round-trips exactly.  Rows end in ``\\r\\n``,
    as :mod:`csv` writes them.
    """
    if path.suffix == ".csv":
        with open(path, "w", newline="") as fh:
            for k, v in meta.items():
                fh.write(f"# {k}={v}\n")
            fh.write(",".join(content) + "\r\n")
            # one %-format per row is twice as fast as csv.writer, and
            # the bytes are the same: %.17g output never needs quoting
            line = ",".join(["%.17g"] * len(content)) + "\r\n"
            for row in zip(*content.values()):
                fh.write(line % row)
    else:
        # strict JSON: a non-finite value here is a fault, not an artifact
        path.write_text(
            json.dumps(content | meta, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )


def run_scenario(cfg: ScenarioConfig) -> ScenarioRun:
    """Plan one scenario, acquire its frame sets, then write its artifacts and manifest.

    Planning checks every parameter before any frame is synthesized: a
    configuration problem raises :class:`UsageError` naming its keys
    (exit code 2 at the CLI) and writes no artifact.  Any other
    exception, in planning or after it, is a fault of the program, a
    ``ValueError`` included.  Files are written only once every frame
    set is reduced.  Returns the manifest contents and the exit code: 0
    when all consistency checks passed, 1 otherwise.
    """
    params = resolve_params(cfg.scenario, cfg.overrides)
    cal = load_calibration(cfg.calibration_path) if cfg.calibration_path else Calibration()
    fingerprint = config_fingerprint(cfg, params, cal)
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {outdir}: {exc}") from exc

    acquire = _PLANS[cfg.scenario](cfg, params, cal)
    files, results = acquire()

    checks = [
        {"name": name, "passed": bool(passed), "detail": detail}
        for name, (passed, detail) in results.items()
    ]
    all_passed = all(c["passed"] for c in checks)
    manifest = {
        "scenario": cfg.scenario,
        "seed": int(cfg.seed),
        "n_frames": int(cfg.n_frames),
        "params": params,
        "calibration": cal.to_dict(),
        "config_sha256": fingerprint,
        "versions": {
            "sqzsim": sqzsim.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "outputs": {key: name for key, (name, _) in files.items()} | {"manifest": "manifest.json"},
        "invariant_checks": checks,
        "all_passed": all_passed,
    }
    # the manifest carries the same stamps as every other file
    meta = {"scenario": cfg.scenario, "seed": int(cfg.seed), "config_sha256": fingerprint}
    for name, content in [*files.values(), ("manifest.json", manifest)]:
        _write_artifact(outdir / name, content, meta)
    return ScenarioRun(manifest=manifest, output_dir=outdir, exit_code=0 if all_passed else 1)
