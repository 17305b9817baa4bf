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

import hashlib
import json
import math
import platform
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import sqzsim
from sqzsim import dsp, opa, pump, quantum, tomography
from sqzsim._csvfile import write_csv
from sqzsim.homodyne import (
    DetectorModel,
    LoEntry,
    LoSchedule,
    iter_frame_chunks,
    simulate_frames,
    simulate_vacuum_reference,
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
        if self.n_frames < 1:
            raise UsageError("n_frames must be >= 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class ScenarioRun:
    """Outcome of a scenario: manifest contents plus the exit code."""

    manifest: dict
    output_dir: Path
    exit_code: int


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
            return float(value)
        return str(value)
    except ValueError as exc:
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


def _detector(params: dict) -> DetectorModel:
    bw = float(params["detector_bandwidth_hz"])
    return DetectorModel(
        bandwidth=None if bw <= 0.0 else bw,
        sample_rate=float(params["sample_rate_hz"]),
    )


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _write_json(path: Path, payload: dict, meta: dict) -> None:
    body = dict(payload)
    body.update(meta)
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


def _write_pump_csv(path: Path, prog: AwgProgram, ideal: pump.PowerTrace,
                    shaped: pump.PowerTrace, meta: dict) -> None:
    columns = ("time_s", "drive_v", "ideal_power_mw", "power_mw")
    write_csv(path, meta, columns, zip(prog.times, prog.samples_v, ideal.power_mw, shaped.power_mw))


def _require_frames(cfg: ScenarioConfig, minimum: int, reason: str) -> None:
    """Reject a frame count below the scenario's minimum before any work."""
    if cfg.n_frames < minimum:
        raise UsageError(
            f"{cfg.scenario} needs n_frames >= {minimum}, {reason}, got {cfg.n_frames}"
        )


def _pump_chain(prog: AwgProgram, cal: Calibration, resp: ModulatorResponse, loss: float):
    ideal = pump.ideal_pump_power(prog, cal)
    shaped = pump.apply_modulator_response(ideal, resp)
    traj = opa.trajectory_from_pump(
        shaped, pump.pump_phase_trace(prog), opa.GainFit(cal.gain_coeff), loss
    )
    return ideal, shaped, traj


# ---------------------------------------------------------------------------
# spectrum


def _run_spectrum(cfg, params, cal, outdir, meta):
    _require_frames(
        cfg, quantum.N_SPLITS, f"one for each of the {quantum.N_SPLITS} error-estimate splits"
    )
    dt = 1.0 / float(params["sample_rate_hz"])
    n_samples = int(params["n_samples"])
    loss = float(params["loss"])
    det = _detector(params)
    power = float(params["pump_power_mw"])
    r = float(opa.GainFit(cal.gain_coeff).r_of_power(power))
    seeds = _child_seeds(cfg.seed, 4)

    traj = opa.constant_trajectory(r, 0.0, loss, dt, n_samples)
    vac_traj = opa.constant_trajectory(0.0, 0.0, 0.0, dt, n_samples)
    bounds = dsp.periodogram_bounds(cfg.n_frames)

    def split_means(tr, phase, seed):
        # each frame block is reduced and dropped; no set is held whole
        blocks = iter_frame_chunks(tr, det, phase, cfg.n_frames, seed, np.float32, bounds)
        return dsp.periodogram_split_means(cfg.n_frames, blocks)

    vac = split_means(vac_traj, 0.0, seeds[2])
    spec_s = dsp.spectrum_ratio(split_means(traj, 0.0, seeds[0]), vac, n_samples, det.dt)
    spec_a = dsp.spectrum_ratio(split_means(traj, math.pi / 2.0, seeds[1]), vac, n_samples, det.dt)
    spec_v = dsp.spectrum_ratio(split_means(vac_traj, 0.0, seeds[3]), vac, n_samples, det.dt)

    lo, hi = float(params["band_lo_hz"]), float(params["band_hi_hz"])
    s_db, s_se = dsp.band_average(spec_s, lo, hi)
    a_db, a_se = dsp.band_average(spec_a, lo, hi)
    v_db, v_se = dsp.band_average(spec_v, lo, hi)
    try:
        est = dsp.estimate_pure_squeezing_and_loss(s_db, a_db, s_se, a_se)
    except ValueError as exc:
        # noise alone can push a small run's pair outside the invertible
        # region: that fails a check, it is not a usage error
        est = None
        infeasible = f"measured pair {s_db:+.4f} / {a_db:+.4f} dB: {exc}"

    nyquist = 0.5 / dt
    checks = []
    if det.bandwidth is not None and 2.0 * det.bandwidth < 0.95 * nyquist:
        h_db, h_se = dsp.band_average(spec_s, 2.0 * det.bandwidth, 0.98 * nyquist)
        checks.append(
            _check(
                "rolloff_to_shot_noise",
                abs(h_db) <= 0.3,
                f"band above 2x detector bandwidth averages {h_db:+.3f} dB",
            )
        )
    else:
        h_db = h_se = None
    checks.append(_check("squeezing_below_shot_noise", s_db < 0.0, f"{s_db:+.3f} dB"))
    checks.append(
        _check(
            "vacuum_check_flat",
            abs(v_db) <= max(0.05, 5.0 * v_se),
            f"vacuum-vs-vacuum band average {v_db:+.4f} dB",
        )
    )
    if est is None:
        checks.append(_check("inversion_feasible", False, infeasible))
    else:
        checks.append(
            _check(
                "inversion_confident",
                not est.low_confidence,
                f"low_confidence={est.low_confidence}",
            )
        )
        checks.append(
            _check("loss_in_unit_interval", 0.0 <= est.loss < 1.0, f"loss={est.loss:.4f}")
        )

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

    outputs = {}
    for name, spec in (
        ("squeezed_spectrum", spec_s),
        ("antisqueezed_spectrum", spec_a),
        ("vacuum_check_spectrum", spec_v),
    ):
        fname = f"{name}.csv"
        spec.to_csv(outdir / fname, meta=meta)
        outputs[name] = fname
    _write_json(outdir / "spectrum_report.json", report, meta)
    outputs["report"] = "spectrum_report.json"
    return outputs, report, checks


# ---------------------------------------------------------------------------
# waveforms


def _gaussian_peak_oracle(fwhm: float, amplitude_v: float, cal: Calibration,
                          resp: ModulatorResponse, dt: float) -> float:
    """Peak shaped power for a Gaussian drive pulse, by fine-grid convolution.

    The drive is held constant over each coarse sample (the generator is
    a zero-order hold), and the held power profile is convolved with the
    exact continuous first-order kernel on a 50x finer grid.  This is an
    independent route to the same physical quantity as the sampled IIR
    filter in :func:`sqzsim.pump.apply_modulator_response`.
    """
    tau = resp.rise_time_10_90 / math.log(9.0)
    span = 6.0 * fwhm + 30.0 * tau
    n_coarse = int(round(span / dt))
    t_coarse = (np.arange(n_coarse) - n_coarse // 2) * dt
    v = amplitude_v * np.exp(-4.0 * math.log(2.0) * (t_coarse / fwhm) ** 2)
    p_coarse = cal.power_for_voltage(v)

    refine = 50
    dt_f = dt / refine
    p_fine = np.repeat(p_coarse, refine)
    n_kernel = int(round(30.0 * tau / dt_f))
    t_kernel = (np.arange(n_kernel) + 0.5) * dt_f
    kernel = np.exp(-t_kernel / tau) / tau * dt_f
    shaped = np.convolve(p_fine, kernel, mode="full")[: p_fine.size]
    return float(shaped.max())


def _run_waveforms(cfg, params, cal, outdir, meta):
    _require_frames(
        cfg, 2 * quantum.N_SPLITS, f"two for each of the {quantum.N_SPLITS} split variances"
    )
    dt = 1.0 / float(params["sample_rate_hz"])
    amp = float(params["amplitude_v"])
    loss = float(params["loss"])
    duration = float(params["duration_s"])
    taps = int(params["fir_taps"])
    cutoff = float(params["fir_cutoff_hz"])
    resp = ModulatorResponse(rise_time_10_90=float(params["rise_time_s"]))
    det = _detector(params)
    lead = 100e-9
    tail = 200e-9
    n_total = int(round((lead + duration + tail) / dt))
    # the FIR edges are trimmed from every frame, so the taps must fit in one
    if taps < 3 or taps % 2 == 0 or taps - 1 >= n_total:
        raise UsageError(
            f"fir_taps must be an odd integer >= 3 with fir_taps - 1 below the "
            f"{n_total}-sample frame, got {taps}"
        )
    if not 0.0 < cutoff < 0.5 / dt:
        raise UsageError(
            f"fir_cutoff_hz must lie inside (0, {0.5 / dt:g}) Hz, below Nyquist, got {cutoff:g}"
        )
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
    t = np.arange(n_total) * dt
    rel = t - lead
    active = (rel >= 0.0) & (rel < duration)

    programs: dict[str, np.ndarray] = {}

    sq = np.zeros(n_total)
    sq[active] = np.where((np.floor(rel[active] / half).astype(int) % 2) == 0, amp, -amp)
    programs["square"] = sq

    f_sine = float(params["sine_frequency_hz"])
    sn = np.zeros(n_total)
    sn[active] = amp * np.sin(2.0 * math.pi * f_sine * rel[active])
    programs["sine"] = sn

    fwhms = [float(x) * 1e-9 for x in str(params["gauss_fwhms_ns"]).split(",")]
    centers = np.linspace(0.2 * duration, 0.8 * duration, len(fwhms))
    ga = np.zeros(n_total)
    for c, w in zip(centers, fwhms):
        ga += amp * np.exp(-4.0 * math.log(2.0) * ((rel - c) / w) ** 2) * active
    programs["gaussians"] = ga

    ar = np.zeros(n_total)
    ar[active] = 0.95 * amp * (
        0.55 * np.sin(2.0 * math.pi * 3e6 * rel[active])
        + 0.45 * np.sin(2.0 * math.pi * 7.5e6 * rel[active] + 1.0)
    )
    programs["arbitrary"] = ar

    st = np.zeros(n_total)
    st[t >= lead + float(params["step_time_s"])] = amp
    programs["step"] = st

    seeds = _child_seeds(cfg.seed, len(programs) + 1)
    h = dsp.fir_taps(dt, taps=taps, cutoff=cutoff)
    bounds = dsp.periodogram_bounds(cfg.n_frames)

    def filtered_moments(tr, seed):
        # each frame block is filtered, trimmed of its FIR edges, reduced
        # and dropped; no frame set is held whole
        blocks = iter_frame_chunks(tr, det, 0.0, cfg.n_frames, seed, np.float32, bounds)
        trimmed = (dsp.fir_filter(block, h)[:, edge:-edge] for block in blocks)
        return dsp.split_moments(cfg.n_frames, trimmed)

    vac_traj = opa.constant_trajectory(0.0, 0.0, 0.0, det.dt, n_total)
    vac = filtered_moments(vac_traj, seeds[-1])

    outputs = {}
    report: dict = {"programs": list(programs)}
    checks = []
    peak_measured: list[float] = []
    r_top = float(opa.GainFit(cal.gain_coeff).r_of_power(cal.power_for_voltage(amp)))
    s_closed = float(quantum.variance_at_phase(r_top, 0.0, loss, 0.0))
    a_closed = float(quantum.variance_at_phase(r_top, math.pi / 2.0, loss, 0.0))

    for k, (name, volts) in enumerate(programs.items()):
        prog = AwgProgram(sample_rate_hz=1.0 / dt, samples_v=volts)
        ideal, shaped, traj = _pump_chain(prog, cal, resp, loss)
        fname = f"{name}_pump.csv"
        _write_pump_csv(outdir / fname, prog, ideal, shaped, meta)
        outputs[f"{name}_pump"] = fname

        if name == "step":
            rise = pump.rise_time_10_90(shaped)
            report["step_rise_time_s"] = rise
            checks.append(
                _check(
                    "step_rise_time",
                    abs(rise - resp.rise_time_10_90) <= dt,
                    f"measured {rise * 1e9:.2f} ns vs {resp.rise_time_10_90 * 1e9:.2f} ns target",
                )
            )
            continue

        sig = filtered_moments(traj, seeds[k])
        n_kept = sig.mean.shape[1]
        times = (traj.t0 + edge * det.dt) + np.arange(n_kept) * det.dt
        vt = dsp.variance_ratio(sig, vac, times)
        expected = quantum.variance_at_phase(
            traj.r[edge : edge + n_kept], traj.theta[edge : edge + n_kept], loss, 0.0
        )
        vname = f"{name}_variance.csv"
        vt.to_csv(outdir / vname, extra={"quasi_static_variance": expected}, meta=meta)
        outputs[f"{name}_variance"] = vname

        if name == "square":
            for label, target in (("squeezed", s_closed), ("antisqueezed", a_closed)):
                lo_t, hi_t = plateaus[label]
                sel = (vt.times >= lo_t) & (vt.times < hi_t)
                mean = float(vt.variance[sel].mean())
                checks.append(
                    _check(
                        f"square_plateau_{label}",
                        abs(mean / target - 1.0) <= 0.02,
                        f"settled plateau variance {mean:.4f} vs quasi-static {target:.4f}",
                    )
                )
                report[f"square_plateau_{label}"] = [mean, target]
        if name == "sine":
            sel = (vt.times >= sine_window[0]) & (vt.times < sine_window[1])
            vmin, vmax = float(vt.variance[sel].min()), float(vt.variance[sel].max())
            checks.append(
                _check(
                    "sine_variance_modulates",
                    vmin < 0.9 and vmax > 1.1,
                    f"variance swings {vmin:.3f} .. {vmax:.3f}",
                )
            )
            report["sine_variance_range"] = [vmin, vmax]
        if name == "gaussians":
            oracle = []
            for c, w in zip(centers, fwhms):
                sel = np.abs(shaped.times - (lead + c)) <= 0.1 * duration
                peak_measured.append(float(shaped.power_mw[sel].max()))
                oracle.append(_gaussian_peak_oracle(w, amp, cal, resp, dt))
            report["gauss_fwhm_s"] = list(fwhms)
            report["gauss_peak_mw"] = peak_measured
            report["gauss_peak_oracle_mw"] = oracle
            decreasing = all(
                peak_measured[i] > peak_measured[i + 1] for i in range(len(peak_measured) - 1)
            )
            checks.append(
                _check(
                    "gauss_peaks_decreasing",
                    decreasing,
                    "peaks " + ", ".join(f"{p:.3f}" for p in peak_measured) + " mW",
                )
            )
            worst = max(abs(m / o - 1.0) for m, o in zip(peak_measured, oracle))
            checks.append(
                _check(
                    "gauss_peaks_match_oracle",
                    worst <= 0.01,
                    f"worst relative deviation {worst * 100:.3f}%",
                )
            )

    _write_json(outdir / "waveforms_report.json", report, meta)
    outputs["report"] = "waveforms_report.json"
    return outputs, report, checks


# ---------------------------------------------------------------------------
# tm_squeezing


def _run_tm_squeezing(cfg, params, cal, outdir, meta):
    dt = 1.0 / float(params["sample_rate_hz"])
    loss = float(params["loss"])
    det = _detector(params)
    resp = ModulatorResponse(rise_time_10_90=float(params["rise_time_s"]))
    dbs = [float(x) for x in str(params["slot_dbs"]).split(",")]
    quads = [q.strip() for q in str(params["slot_quadratures"]).split(",")]
    if len(dbs) != len(quads):
        raise UsageError("slot_dbs and slot_quadratures must have equal length")
    name_of = {"x": "x_squeezed", "p": "p_squeezed"}
    try:
        slots = tuple(
            PulseSlot(
                squeezing_db=db,
                quadrature=name_of[q],
                mode_width=float(params["mode_width_s"]),
                margin=float(params["margin_s"]),
            )
            for db, q in zip(dbs, quads)
        )
    except KeyError as exc:
        raise UsageError(f"slot quadrature must be 'x' or 'p', got {exc}") from exc
    train = PulseTrainSpec(slots=slots)

    prog = pump.compile_pulse_train(train, cal, resp, sample_rate_hz=1.0 / dt)
    ideal, shaped, traj = _pump_chain(prog, cal, resp, loss)
    centers = pump.slot_mode_centers(train)

    n_phases = int(params["n_phases"])
    phases = [k * math.pi / n_phases for k in range(n_phases)]
    sched = LoSchedule(entries=tuple(LoEntry(phase=p) for p in phases))
    seeds = _child_seeds(cfg.seed, 2)
    fs = simulate_frames(traj, det, sched, cfg.n_frames, seeds[0], dtype=np.float32)
    ref = simulate_vacuum_reference(
        det, prog.samples_v.size, n_phases * cfg.n_frames, seeds[1], dtype=np.float32
    )

    _write_pump_csv(outdir / "staircase_pump.csv", prog, ideal, shaped, meta)
    outputs = {"staircase_pump": "staircase_pump.csv"}
    checks = []
    slot_records = []
    for k, slot in enumerate(train.slots):
        mode = dsp.make_mode(
            "tf_mode",
            dt,
            t_c=float(centers[k]),
            gamma=float(params["mode_gamma_hz"]),
            t_w=slot.mode_width,
        )
        scale = dsp.vacuum_quadrature_scale(ref, mode)
        data = tomography.TomographyInput.from_frameset(fs, mode, scale)
        result = tomography.ml_gaussian_tomography(data, project=bool(params["project"]))
        cov = np.asarray(result.state.cov)
        det_cov = float(np.linalg.det(cov))
        vacuum_slot = slot.squeezing_db == 0.0
        r_slot = quantum.r_from_pure_db(slot.squeezing_db)
        s_var = float(quantum.variance_at_phase(r_slot, 0.0, loss, 0.0))
        a_var = float(quantum.variance_at_phase(r_slot, 0.0, loss, math.pi / 2.0))
        theory_angle = None if vacuum_slot else (0.0 if slot.quadrature == "x_squeezed" else 90.0)
        record = {
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
        slot_records.append(record)

        checks.append(
            _check(
                f"slot{k}_uncertainty_bound",
                det_cov >= 1.0 - 1e-9,
                f"det(cov) = {det_cov:.6f}",
            )
        )
        if vacuum_slot:
            dev = np.abs(cov - np.eye(2))
            tol = 3.0 * np.asarray(result.cov_stderr)
            checks.append(
                _check(
                    f"slot{k}_vacuum_identity",
                    bool(np.all(dev <= tol)),
                    f"max |cov - I| = {dev.max():.4f}, 3 SE = {tol.max():.4f}",
                )
            )
        else:
            diff = tomography.ellipse_angle_difference_deg(
                result.ellipse.angle_deg, theory_angle
            )
            checks.append(
                _check(
                    f"slot{k}_angle",
                    abs(diff) <= 3.0,
                    f"recovered {result.ellipse.angle_deg:+.2f} deg, "
                    f"theory {theory_angle:+.1f} deg",
                )
            )

    report = {
        "n_slots": len(train.slots),
        "slot_period_s": float(train.slots[0].period),
        "lo_phases_rad": phases,
        "slots": slot_records,
    }
    _write_json(outdir / "slots.json", report, meta)
    outputs["slots"] = "slots.json"
    return outputs, report, checks


# ---------------------------------------------------------------------------
# epr


def _run_epr(cfg, params, cal, outdir, meta):
    _require_frames(cfg, quantum.DUAN_MIN_SAMPLES, "the sample minimum of the Duan statistic")
    dt = 1.0 / float(params["sample_rate_hz"])
    amp = float(params["amplitude_v"])
    loss = float(params["loss"])
    det = _detector(params)
    resp = ModulatorResponse(rise_time_10_90=float(params["rise_time_s"]))
    lead = float(params["lead_s"])
    tail = float(params["tail_s"])
    duration = float(params["duration_s"])
    segment = float(params["segment_s"])
    n_total = int(round((lead + duration + tail) / dt))
    n_segments = int(round(duration / segment))
    volts = np.zeros(n_total)
    for k in range(n_segments):
        lo = int(round((lead + k * segment) / dt))
        hi = int(round((lead + (k + 1) * segment) / dt))
        volts[lo:hi] = amp if k % 2 == 0 else -amp
    prog = AwgProgram(sample_rate_hz=1.0 / dt, samples_v=volts)
    ideal, shaped, traj = _pump_chain(prog, cal, resp, loss)

    # Gate flips sit between samples, so the mode center lives on the
    # half-sample grid aligned with the drive sign flips.
    t_c = lead + 0.5 * duration - 0.5 * dt
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g1 = dsp.make_mode(
            "g1",
            dt,
            t_c=t_c,
            gamma=float(params["mode_gamma_hz"]),
            t_w=float(params["mode_width_s"]),
            period=float(params["bin_period_s"]),
        )
        g2 = dsp.make_mode(
            "g2",
            dt,
            t_c=t_c,
            gamma=float(params["mode_gamma_hz"]),
            t_w=float(params["mode_width_s"]),
            period=float(params["bin_period_s"]),
        )
    advisories = sorted({str(w.message) for w in caught})

    seeds = _child_seeds(cfg.seed, 3)
    bounds = dsp.periodogram_bounds(cfg.n_frames)
    vac_traj = opa.constant_trajectory(0.0, 0.0, 0.0, det.dt, n_total)

    def blocks(tr, phase, seed):
        # each frame block is projected, reduced and dropped; no frame set
        # is held whole
        return iter_frame_chunks(tr, det, phase, cfg.n_frames, seed, np.float32, bounds)

    result = tomography.stream_epr_analysis(
        blocks(traj, 0.0, seeds[0]), blocks(traj, math.pi / 2.0, seeds[1]),
        blocks(vac_traj, 0.0, seeds[2]), cfg.n_frames, cfg.n_frames, g1, g2,
        traj.t0, det.dt, n_total, scan_halfwidth=float(params["scan_halfwidth_s"]),
    )
    # The detector group delay shifts the optimal gate alignment off the
    # nominal center, so the scan minimum must be compared against the
    # minimum of the prediction over the same offsets.
    predicted_scan = tomography.duan_prediction_scan(traj, det, g1, g2, result.scan_offsets)
    k_best = int(np.argmin(predicted_scan))
    predicted_best = float(predicted_scan[k_best])
    predicted_t_c = float(t_c + result.scan_offsets[k_best])
    predicted_nominal = float(predicted_scan[len(predicted_scan) // 2])
    predicted_inst = tomography.duan_prediction(
        traj, DetectorModel(bandwidth=None, sample_rate=det.sample_rate), g1, g2
    )

    checks = [
        _check("entangled", result.entangled, f"duan = {result.duan:.4f}"),
        _check(
            "separability_margin",
            (4.0 - result.duan) / result.duan_stderr >= 5.0,
            f"(4 - duan)/SE = {(4.0 - result.duan) / result.duan_stderr:.1f}",
        ),
        _check(
            "matches_prediction",
            abs(result.duan - predicted_best) <= 5.0 * result.duan_stderr,
            f"duan {result.duan:.4f} vs predicted minimum {predicted_best:.4f} "
            f"(SE {result.duan_stderr:.4f})",
        ),
        _check(
            "scan_near_predicted_center",
            abs(result.t_c - predicted_t_c) <= 3.0 * dt,
            f"best center {(result.t_c - t_c) * 1e9:+.1f} ns vs "
            f"predicted {(predicted_t_c - t_c) * 1e9:+.1f} ns",
        ),
    ]

    report = {
        "duan": result.duan,
        "duan_stderr": result.duan_stderr,
        "effective_db": result.effective_db,
        "entangled": result.entangled,
        "t_c_s": result.t_c,
        "nominal_t_c_s": t_c,
        "duan_predicted_nominal": predicted_nominal,
        "duan_predicted_best": predicted_best,
        "predicted_t_c_s": predicted_t_c,
        "duan_predicted_instantaneous": float(predicted_inst),
        "n_frames": cfg.n_frames,
        "advisories": advisories,
    }
    _write_json(outdir / "epr_report.json", report, meta)
    _write_pump_csv(outdir / "epr_pump.csv", prog, ideal, shaped, meta)

    scan_rows = zip(result.scan_offsets, result.scan_duan, predicted_scan)
    write_csv(outdir / "epr_scan.csv", meta, ("offset_s", "duan", "duan_predicted"), scan_rows)

    outputs = {
        "report": "epr_report.json",
        "epr_pump": "epr_pump.csv",
        "scan": "epr_scan.csv",
    }
    return outputs, report, checks


# ---------------------------------------------------------------------------
# calibrate


def _run_calibrate(cfg, params, cal, outdir, meta):
    powers = np.linspace(float(params["power_min_mw"]), float(params["power_max_mw"]),
                         int(params["n_gain_points"]))
    gains = np.exp(2.0 * cal.gain_coeff * np.sqrt(powers))
    fit = opa.fit_gain_curve(list(zip(powers, gains)))

    voltages = np.linspace(0.01, cal.linear_limit, int(params["n_voltage_points"]))
    bench_power = cal.power_for_voltage(voltages)
    v2 = voltages**2
    quad_fit = float(np.dot(bench_power, v2) / np.dot(v2, v2))

    gain_err = abs(fit.gain_coeff / cal.gain_coeff - 1.0)
    quad_err = abs(quad_fit / cal.quad_coeff - 1.0)
    checks = [
        _check("gain_fit_round_trip", gain_err <= 1e-9, f"relative error {gain_err:.2e}"),
        _check("quad_fit_round_trip", quad_err <= 1e-9, f"relative error {quad_err:.2e}"),
        _check("gain_fit_residual", fit.fit_residual <= 1e-9, f"residual {fit.fit_residual:.2e}"),
    ]

    write_csv(outdir / "gain_points.csv", meta, ("power_mw", "parametric_gain"), zip(powers, gains))
    write_csv(
        outdir / "quadratic_points.csv", meta, ("drive_v", "power_mw"), zip(voltages, bench_power)
    )

    fitted = Calibration(
        quad_coeff=quad_fit,
        linear_limit=cal.linear_limit,
        gain_coeff=fit.gain_coeff,
        max_pump_power=cal.max_pump_power,
        extended_lut=cal.extended_lut,
    )
    _write_json(outdir / "calibration.json", fitted.to_dict(), meta)

    report = {
        "fitted_gain_coeff": fit.gain_coeff,
        "fitted_quad_coeff": quad_fit,
        "fit_residual": fit.fit_residual,
    }
    outputs = {
        "calibration": "calibration.json",
        "gain_points": "gain_points.csv",
        "quadratic_points": "quadratic_points.csv",
    }
    return outputs, report, checks


# ---------------------------------------------------------------------------


_RUNNERS = {
    "spectrum": _run_spectrum,
    "waveforms": _run_waveforms,
    "tm_squeezing": _run_tm_squeezing,
    "epr": _run_epr,
    "calibrate": _run_calibrate,
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioRun:
    """Execute one scenario, writing its artifacts and manifest.

    Returns the manifest contents and the process exit code: 0 when all
    consistency checks passed, 1 otherwise.  Configuration problems
    raise :class:`UsageError` (exit code 2 at the CLI).
    """
    params = resolve_params(cfg.scenario, cfg.overrides)
    cal = load_calibration(cfg.calibration_path) if cfg.calibration_path else Calibration()
    fingerprint = config_fingerprint(cfg, params, cal)
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {outdir}: {exc}") from exc

    meta = {"scenario": cfg.scenario, "seed": int(cfg.seed), "config_sha256": fingerprint}
    try:
        outputs, report, checks = _RUNNERS[cfg.scenario](cfg, params, cal, outdir, meta)
    except ValueError as exc:
        if isinstance(exc, UsageError):
            raise
        # infeasible programs and inconsistent parameter combinations
        # surface as ValueError from the modules; they are usage errors
        raise UsageError(str(exc)) from exc

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
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "outputs": dict(sorted(outputs.items())) | {"manifest": "manifest.json"},
        "invariant_checks": checks,
        "all_passed": all_passed,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ScenarioRun(manifest=manifest, output_dir=outdir, exit_code=0 if all_passed else 1)
