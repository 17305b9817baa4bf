"""End-to-end acceptance checks.

Each test covers one numbered claim about the full simulation and
analysis chain and prints a single pass/fail line.  Statistical checks
run on pinned seeds so every run is reproducible; tolerances state the
expected accuracy at the frame counts used, not wishful precision.
"""

import filecmp
import json
import math
import warnings

import numpy as np
import pytest

from sqzsim import dsp, pump, quantum, tomography
from sqzsim.homodyne import DetectorModel, iter_frame_chunks
from sqzsim.opa import constant_trajectory
from sqzsim.scenarios import ScenarioConfig, run_scenario
import oracles
from stack_slices import sample_moments

R_271 = quantum.r_from_pure_db(2.71)
LOSS = 0.183


def _report(number: int, label: str, conditions: dict[str, bool]) -> None:
    status = "pass" if all(conditions.values()) else "FAIL"
    bad = [name for name, ok in conditions.items() if not ok]
    detail = label if not bad else f"{label}; failed: {', '.join(bad)}"
    print(f"\nACCEPTANCE {number} [{status}]: {detail}")
    assert all(conditions.values()), f"criterion {number}: failed {bad}"


def test_acceptance_1_loss_inversion_round_trip():
    # closed form at r = 0.3120, L = 0.183
    s_db = quantum.db_from_variance(quantum.variance_at_phase(0.3120, 0.0, LOSS, 0.0))
    a_db = quantum.db_from_variance(
        quantum.variance_at_phase(0.3120, 0.0, LOSS, math.pi / 2.0)
    )
    est = dsp.estimate_pure_squeezing_and_loss(s_db, a_db)
    analytic_ok = {
        "squeezed_level": abs(s_db - (-2.071)) <= 1e-3,
        "antisqueezed_level": abs(a_db - 2.325) <= 1e-3,
        "pure_round_trip": abs(est.pure_db - oracles.pure_db_from_r(0.3120)) <= 1e-6,
        "loss_round_trip": abs(est.loss - LOSS) <= 1e-6,
    }

    # 5000 simulated frames through the spectral estimator, streamed block
    # by block; the estimates are byte-equal to those of the whole stacks
    # cut into the same blocks
    det = DetectorModel(bandwidth=None, sample_rate=5e8)
    traj = constant_trajectory(R_271, 0.0, LOSS, dt=det.dt, n_samples=32768)
    vac_traj = constant_trajectory(0.0, 0.0, 0.0, dt=det.dt, n_samples=32768)

    def split_means(tr, phase, seed):
        blocks = iter_frame_chunks(tr, det, phase, seed, range(5000))
        return dsp.periodogram_split_means(5000, blocks)

    vac = split_means(vac_traj, 0.0, 322)
    spec_s = dsp.spectrum_ratio(split_means(traj, 0.0, 122), vac, 32768, det.dt)
    spec_a = dsp.spectrum_ratio(split_means(traj, math.pi / 2.0, 222), vac, 32768, det.dt)
    s_lv, s_se = dsp.band_average(spec_s, 1e6, 100e6)
    a_lv, a_se = dsp.band_average(spec_a, 1e6, 100e6)
    sim = dsp.estimate_pure_squeezing_and_loss(s_lv, a_lv, s_se, a_se)
    statistical_ok = {
        "pure_within_0.02_db": abs(sim.pure_db - 2.71) <= 0.02,
        "loss_within_0.3_pct": abs(sim.loss - LOSS) <= 0.003,
    }

    _report(
        1,
        f"levels ({s_db:+.3f}, {a_db:+.3f}) dB; 5000-frame estimate "
        f"{sim.pure_db:.3f} dB pure, {100 * sim.loss:.2f}% loss",
        analytic_ok | statistical_ok,
    )


def test_acceptance_2_spectrum_scenario_band_levels(tmp_path):
    run = run_scenario(
        ScenarioConfig(scenario="spectrum", seed=0, n_frames=5000, output_dir=str(tmp_path))
    )
    rep = json.loads((tmp_path / "spectrum_report.json").read_text())
    s_lv = rep["squeezed_band_db"][0]
    a_lv = rep["antisqueezed_band_db"][0]
    high = rep["high_band_db"][0]
    ok = {
        "run_clean": run.exit_code == 0,
        "squeezed_band": abs(s_lv - (-2.07)) <= 0.1,
        "antisqueezed_band": abs(a_lv - 2.33) <= 0.1,
        "rolls_to_shot_noise": abs(high) <= 0.1,
    }
    _report(
        2,
        f"1-10 MHz bands {s_lv:+.3f} / {a_lv:+.3f} dB, "
        f"above-cutoff average {high:+.3f} dB",
        ok,
    )


def test_acceptance_3_step_rise_time():
    cal = pump.Calibration()
    resp = pump.ModulatorResponse()
    volts = np.zeros(600)
    volts[200:] = 0.16
    prog = pump.AwgProgram(sample_rate_hz=1e9, samples_v=volts)
    shaped = pump.apply_modulator_response(pump.ideal_pump_power(prog, cal), resp)
    rise = pump.rise_time_10_90(shaped)
    ok = {"rise_within_one_sample": abs(rise - 7e-9) <= 1e-9}
    _report(3, f"10-90% rise {rise * 1e9:.2f} ns for a 7 ns response at 1 GS/s", ok)


def _fine_grid_peak(fwhm: float, amp: float, cal, resp, dt: float) -> float:
    # held drive on a 50x finer grid, convolved with the exact
    # continuous one-pole kernel; independent of the sampled filter
    tau = resp.rise_time_10_90 / math.log(9.0)
    n = int(round((6.0 * fwhm + 30.0 * tau) / dt))
    t = (np.arange(n) - n // 2) * dt
    p = cal.power_for_voltage(amp * np.exp(-4.0 * math.log(2.0) * (t / fwhm) ** 2))
    refine = 50
    dt_f = dt / refine
    held = np.repeat(p, refine)
    tk = (np.arange(int(round(30.0 * tau / dt_f))) + 0.5) * dt_f
    kernel = np.exp(-tk / tau) / tau * dt_f
    return float(np.convolve(held, kernel, mode="full")[: held.size].max())


def test_acceptance_4_gaussian_peak_attenuation():
    cal = pump.Calibration()
    resp = pump.ModulatorResponse()
    dt = 1e-9
    peaks = []
    oracle = []
    for fwhm in (40e-9, 20e-9, 10e-9):
        n = int(round((fwhm * 12 + 300e-9) / dt))
        t = (np.arange(n) - n // 2) * dt
        volts = 0.16 * np.exp(-4.0 * math.log(2.0) * (t / fwhm) ** 2)
        prog = pump.AwgProgram(sample_rate_hz=1e9, samples_v=volts)
        shaped = pump.apply_modulator_response(pump.ideal_pump_power(prog, cal), resp)
        peaks.append(float(shaped.power_mw.max()))
        oracle.append(_fine_grid_peak(fwhm, 0.16, cal, resp, dt))
    rel_err = max(abs(m / o - 1.0) for m, o in zip(peaks, oracle))
    ok = {
        "strictly_decreasing": peaks[0] > peaks[1] > peaks[2],
        "matches_kernel_oracle_1pct": rel_err <= 0.01,
    }
    _report(
        4,
        "peak power {:.3f} / {:.3f} / {:.3f} mW for 40/20/10 ns pulses, "
        "worst oracle error {:.2e}".format(*peaks, rel_err),
        ok,
    )


def test_acceptance_5_staircase_tomography(tmp_path):
    run = run_scenario(
        ScenarioConfig(
            scenario="tm_squeezing", seed=0, n_frames=5000, output_dir=str(tmp_path)
        )
    )
    rep = json.loads((tmp_path / "slots.json").read_text())
    assert rep["slot_period_s"] == pytest.approx(80e-9)
    angle_devs = []
    dets = []
    vacuum_ok = True
    for slot in rep["slots"]:
        cov = np.array(slot["result"]["cov"])
        dets.append(float(np.linalg.det(cov)))
        theory_angle = slot["theory"]["angle_deg"]
        if theory_angle is not None:
            measured = slot["result"]["ellipse"]["angle_deg"]
            angle_devs.append(
                abs(tomography.ellipse_angle_difference_deg(measured, theory_angle))
            )
        else:
            err = np.array(slot["result"]["stderr"]["cov"])
            vacuum_ok = bool(np.all(np.abs(cov - np.eye(2)) <= 3.0 * err))
    ok = {
        "run_clean": run.exit_code == 0,
        "angles_within_3_deg": max(angle_devs) <= 3.0,
        "uncertainty_bound_every_slot": min(dets) >= 1.0 - 1e-9,
        "vacuum_slot_is_identity_3se": vacuum_ok,
    }
    _report(
        5,
        f"6-slot staircase: worst angle deviation {max(angle_devs):.2f} deg, "
        f"min det(cov) {min(dets):.6f}",
        ok,
    )


def test_acceptance_6_epr_duan_criterion(tmp_path):
    run = run_scenario(
        ScenarioConfig(scenario="epr", seed=3, n_frames=5000, output_dir=str(tmp_path / "d"))
    )
    rep = json.loads((tmp_path / "d" / "epr_report.json").read_text())
    duan, se = rep["duan"], rep["duan_stderr"]
    best = rep["duan_predicted_best"]
    inst_ref = 2.4829834767536  # 4x the squeezed variance at r=0.3120..., L=0.183

    # same pipeline with an unfiltered detector: the instantaneous limit
    run_i = run_scenario(
        ScenarioConfig(
            scenario="epr",
            seed=3,
            n_frames=5000,
            output_dir=str(tmp_path / "i"),
            overrides={"detector_bandwidth_hz": "0"},
        )
    )
    rep_i = json.loads((tmp_path / "i" / "epr_report.json").read_text())

    eff = quantum.effective_squeezing_db(2.79)
    ok = {
        "run_clean": run.exit_code == 0 and run_i.exit_code == 0,
        "entangled_at_5_sigma": rep["entangled"] and (4.0 - duan) / se >= 5.0,
        "matches_variance_integral_3se": abs(duan - best) <= 3.0 * se,
        "bracket_low": duan >= 2.48,
        "bracket_high": duan < 4.0,
        "instantaneous_limit_3se": abs(rep_i["duan"] - inst_ref) <= 3.0 * rep_i["duan_stderr"],
        "oracle_floor": rep["duan_predicted_instantaneous"] >= inst_ref - 1e-6,
        "effective_db_identity": abs(eff - 1.5645578805436484) <= 1e-9,
        "report_effective_db": abs(
            rep["effective_db"] - 10.0 * math.log10(4.0 / duan)
        ) <= 1e-9,
    }
    _report(
        6,
        f"duan {duan:.4f} +- {se:.4f} ({(4.0 - duan) / se:.0f} sigma below 4), "
        f"oracle {best:.4f}, instantaneous {rep_i['duan']:.4f} vs {inst_ref:.4f}",
        ok,
    )


def test_acceptance_7_mode_geometry():
    dt = 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kw = dict(dt=dt, t_c=659.5e-9, gamma=5e6, t_w=1000e-9, period=100e-9)
        g1 = dsp.make_mode("g1", **kw)
        g2 = dsp.make_mode("g2", **kw)
    overlap = abs(oracles.overlap(g1, g2))
    spec1 = oracles.mode_spectrum(g1)
    spec2 = oracles.mode_spectrum(g2)
    ok = {
        "orthogonal_1e12": overlap <= 1e-12,
        "g2_peak_10mhz": abs(spec2.center_freq - 10e6) <= 0.2e6,
        "g2_hwhm_1p3mhz": abs(spec2.hwhm - 1.3e6) <= 0.1e6,
        "g1_out_of_band": spec1.out_of_band_fraction(5e6) < 1e-6,
        "g2_out_of_band": spec2.out_of_band_fraction(5e6) < 1e-6,
    }
    _report(
        7,
        f"<g1,g2> = {overlap:.2e}; g2 peak {spec2.center_freq / 1e6:.3f} MHz, "
        f"HWHM {spec2.hwhm / 1e6:.3f} MHz; out-of-band {spec1.out_of_band_fraction(5e6):.2e} "
        f"/ {spec2.out_of_band_fraction(5e6):.2e}",
        ok,
    )


def test_acceptance_8_property_suites(tmp_path):
    # tomography round trip over 50 random Gaussian states
    rng = np.random.default_rng(2024)
    worst_pull = 0.0
    all_physical = True
    for _ in range(50):
        r = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, math.pi))
        loss = float(rng.uniform(0.0, 0.5))
        mean = rng.uniform(-2.0, 2.0, size=2)
        phases = [k * math.pi / 12.0 for k in range(12)]
        groups = []
        for phi in phases:
            v = quantum.variance_at_phase(r, theta, loss, phi)
            mu = mean[0] * math.cos(phi) + mean[1] * math.sin(phi)
            groups.append(sample_moments(mu + math.sqrt(v) * rng.standard_normal(1500)))
        data = tomography.TomographyInput(phases, groups)
        result = tomography.ml_gaussian_tomography(data, project=True)
        want = oracles.squeezed_state(r, theta, loss).cov
        err = np.maximum(result.cov_stderr, 2e-3)
        worst_pull = max(worst_pull, float(np.max(np.abs(result.state.cov - want) / err)))
        all_physical = all_physical and np.linalg.det(result.state.cov) >= 1.0 - 1e-9
    round_trip_ok = worst_pull <= 6.0

    # loss inversion identity on an (r, L) grid
    inv_err = 0.0
    for r in np.linspace(0.05, 1.0, 8):
        for loss in np.linspace(0.0, 0.5, 6):
            s = (1.0 - loss) * math.exp(-2.0 * r) + loss
            a = (1.0 - loss) * math.exp(2.0 * r) + loss
            est = dsp.estimate_pure_squeezing_and_loss(
                10.0 * math.log10(s), 10.0 * math.log10(a)
            )
            inv_err = max(
                inv_err,
                abs(est.pure_db - oracles.pure_db_from_r(r)),
                abs(est.loss - loss),
            )

    # byte-identical reruns of a full scenario
    for name in ("r1", "r2"):
        run_scenario(
            ScenarioConfig(
                scenario="spectrum",
                seed=17,
                n_frames=60,
                output_dir=str(tmp_path / name),
                overrides={"n_samples": "512"},
            )
        )
    files = sorted(p.name for p in (tmp_path / "r1").iterdir())
    same, diff, errs = filecmp.cmpfiles(tmp_path / "r1", tmp_path / "r2", files, shallow=False)
    deterministic = diff == [] and errs == [] and len(same) == len(files)

    # FIR noise bandwidth: filtered white variance = sum(h^2)
    h = dsp.fir_taps(1e-9)
    white = np.random.default_rng(7).standard_normal((4000, 600))
    filtered = dsp.fir_filter(white, h)
    ratio = float(filtered.var()) / float(white.var())
    nb_ok = abs(ratio / float(np.sum(h**2)) - 1.0) <= 0.02

    ok = {
        "tomography_round_trip_50_states": round_trip_ok,
        "estimates_respect_uncertainty_bound": all_physical,
        "loss_inversion_grid_1e6": inv_err <= 1e-6,
        "byte_identical_reruns": deterministic,
        "fir_noise_bandwidth_2pct": nb_ok,
    }
    _report(
        8,
        f"worst tomography pull {worst_pull:.2f} SE; inversion error {inv_err:.2e}; "
        f"noise-bandwidth ratio {ratio:.4f} vs {float(np.sum(h**2)):.4f}",
        ok,
    )
