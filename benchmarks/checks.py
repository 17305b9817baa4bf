"""Correctness checks on the artifacts of one scenario run.

Each check recomputes its expected value here, from the run's resolved
parameters and calibration (as recorded in ``manifest.json``) and closed
forms, or tests a property the method must have.  Nothing is compared
against a stored copy of earlier output.  Conventions follow the
package: vacuum variance 1, loss ``L`` maps a variance ``V`` to
``(1 - L) V + L``, and squeezing parameter ``r = g * sqrt(P)``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Statistical checks allow this many reported standard errors.  The
# errors come from 10 subsets, so the deviation over the error follows a
# Student t law with 9 degrees of freedom, whose two-sided tail beyond
# 5 is below 0.1 %.
N_SE = 5.0


def artifact_digest(outdir: Path) -> str:
    """SHA-256 over every artifact's relative name and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(outdir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _json(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text())


def _csv_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}


def _variance(r: float, loss: float, sign: float) -> float:
    """Squeezed (sign -1) or antisqueezed (+1) quadrature variance after loss."""
    return (1.0 - loss) * math.exp(2.0 * sign * r) + loss


def _drive_r(params: dict, cal: dict) -> float:
    """Squeezing parameter at the drive amplitude, on the quadratic modulator law."""
    amp = float(params["amplitude_v"])
    if amp > cal["linear_limit_v"]:
        raise ValueError("amplitude_v lies outside the quadratic modulator region")
    return cal["gain_coeff_per_sqrt_mw"] * math.sqrt(cal["quad_coeff_mw_per_v2"] * amp**2)


def check_spectrum(outdir: Path, params: dict, cal: dict) -> list[str]:
    rep = _json(outdir, "spectrum_report.json")
    loss = float(params["loss"])
    r = cal["gain_coeff_per_sqrt_mw"] * math.sqrt(float(params["pump_power_mw"]))
    errors = []
    for key, sign in (("squeezed_band_db", -1.0), ("antisqueezed_band_db", 1.0)):
        want = 10.0 * math.log10(_variance(r, loss, sign))
        got, se = rep[key]
        if abs(got - want) > N_SE * se:
            errors.append(f"{key} {got:+.4f} dB vs closed form {want:+.4f} dB (SE {se:.4f})")
    est, se = rep["estimated_loss"]
    if abs(est - loss) > N_SE * se:
        errors.append(f"estimated loss {est:.4f} vs programmed {loss:.4f} (SE {se:.4f})")
    return errors


def check_epr(outdir: Path, params: dict, cal: dict) -> list[str]:
    rep = _json(outdir, "epr_report.json")
    floor = 4.0 * _variance(_drive_r(params, cal), float(params["loss"]), -1.0)
    duan, se = rep["duan"], rep["duan_stderr"]
    errors = []
    if (4.0 - duan) / se < 5.0:
        errors.append(f"duan {duan:.4f} is less than 5 SE ({se:.4f}) below 4")
    # The measured value scatters by its SE around a true value that a
    # finite detector bandwidth keeps above the instantaneous floor.
    if duan < floor - N_SE * se:
        errors.append(f"duan {duan:.4f} below the instantaneous floor {floor:.4f} (SE {se:.4f})")
    if rep["duan_predicted_best"] < floor - 1e-9:
        errors.append(f"predicted duan {rep['duan_predicted_best']:.6f} below floor {floor:.6f}")
    n_offsets = 2 * math.floor(params["scan_halfwidth_s"] * params["sample_rate_hz"] + 1e-9) + 1
    n_rows = _csv_columns(outdir / "epr_scan.csv")["offset_s"].size
    if n_rows != n_offsets:
        errors.append(f"scan has {n_rows} offsets, expected {n_offsets}")
    return errors


def _first_order_peak(fwhm: float, amp: float, quad: float, rise: float, dt: float) -> float:
    """Peak pump power of a sampled Gaussian drive through a first-order modulator.

    The drive is held over each sample interval, so the continuous
    first-order response is exact at the sample instants:
    y(t + dt) = a y(t) + (1 - a) P(t) with a = exp(-dt / tau), and between
    instants it moves monotonically towards the held value, so the peak
    sits on an instant.  A 10-90 % rise time of a first-order system is
    tau ln 9.
    """
    a = math.exp(-dt * math.log(9.0) / rise)
    half = int(round((3.0 * fwhm + 15.0 * rise) / dt))
    t = np.arange(-half, half + 1) * dt
    power = quad * (amp * np.exp(-4.0 * math.log(2.0) * (t / fwhm) ** 2)) ** 2
    y = peak = 0.0
    for p in power:
        y = a * y + (1.0 - a) * p
        peak = max(peak, y)
    return peak


def _rise_time_10_90(power: np.ndarray, dt: float) -> float:
    lo, hi = power[0], power[-1]
    crossings = []
    for frac in (0.1, 0.9):
        level = lo + frac * (hi - lo)
        k = int(np.argmax(power >= level))
        crossings.append(k - 1 + (level - power[k - 1]) / (power[k] - power[k - 1]))
    return (crossings[1] - crossings[0]) * dt


def check_waveforms(outdir: Path, params: dict, cal: dict) -> list[str]:
    rep = _json(outdir, "waveforms_report.json")
    loss = float(params["loss"])
    dt = 1.0 / float(params["sample_rate_hz"])
    rise = float(params["rise_time_s"])
    r = _drive_r(params, cal)
    errors = []
    for label, sign in (("squeezed", -1.0), ("antisqueezed", 1.0)):
        got = rep[f"square_plateau_{label}"][0]
        want = _variance(r, loss, sign)
        if abs(got / want - 1.0) > 0.02:
            errors.append(f"square {label} plateau {got:.4f} vs closed form {want:.4f}")
    fwhms = [float(x) * 1e-9 for x in str(params["gauss_fwhms_ns"]).split(",")]
    for fwhm, got in zip(fwhms, rep["gauss_peak_mw"], strict=True):
        want = _first_order_peak(fwhm, float(params["amplitude_v"]),
                                 cal["quad_coeff_mw_per_v2"], rise, dt)
        if abs(got / want - 1.0) > 0.01:
            errors.append(f"gaussian {fwhm * 1e9:.0f} ns peak {got:.4f} mW vs {want:.4f} mW")
    step = _rise_time_10_90(_csv_columns(outdir / "step_pump.csv")["power_mw"], dt)
    if abs(step - rise) > dt:
        errors.append(f"step rise time {step * 1e9:.2f} ns vs {rise * 1e9:.2f} ns")
    return errors


CHECKS = {"spectrum": check_spectrum, "epr": check_epr, "waveforms": check_waveforms}


def check_run(outdir: Path) -> list[str]:
    """All checks on one scenario output directory; an empty list means correct."""
    manifest = _json(outdir, "manifest.json")
    return CHECKS[manifest["scenario"]](outdir, manifest["params"], manifest["calibration"])
