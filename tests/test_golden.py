"""Golden fingerprints: key report numbers pinned at small frame counts.

The ``epr`` values were computed with the per-mode projection code that
preceded the streamed mode scan; the ``spectrum`` and ``waveforms``
values with the code that materialized every frame stack before
reducing it; the ``calibrate`` values and CSV layout with the
hand-written CSV writers that preceded the shared one.  The
``tm_squeezing`` covariances were re-recorded once, when the tomography
fit changed from one finite-difference Newton step to Newton iterated
to convergence on the analytic derivatives (slot 0 moved by 6.4e-4),
still on materialized frame stacks; the streamed route reproduces them.
Refactors of the synthesis and analysis paths must reproduce every
value.  Changes that only reorder floating-point sums move them by
about 1e-15 relative, far inside the 1e-9 tolerance.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from sqzsim.pump import Calibration
from sqzsim.scenarios import ScenarioConfig, run_scenario

RTOL = 1e-9

EPR_SEED0_300 = {
    "duan": 2.4151404063776143,
    "duan_stderr": 0.18716064258551954,
    "t_c_s": 6.615e-07,
    "duan_predicted_best": 2.5101919849765633,
}
EPR_SEED0_300_SCAN_SUM = 568.895132013758

TM_SEED0_1000_COVS = [
    [[0.6421144984692143, 0.0070471148101007115], [0.0070471148101007115, 1.6637945069462705]],
    [[0.7663550731185036, 0.020400278201339234], [0.020400278201339234, 1.3717154936801952]],
    [[1.0126376334901817, 0.04005085215949427], [0.04005085215949427, 0.9891041352142411]],
    [[1.6953079440338914, 0.01578695085844068], [0.01578695085844068, 0.6355530048303706]],
    [[1.3081792647364214, -0.018216223656145458], [-0.018216223656145458, 0.7646748865155286]],
    [[0.6819747811436649, -0.009249226747639066], [-0.009249226747639066, 1.4957857390138807]],
]

SPECTRUM_SEED0_200 = {
    "squeezed_band_db": [-2.084909797609914, 0.07214647962720525],
    "antisqueezed_band_db": [2.392846783677483, 0.0699298931447726],
    "vacuum_check_band_db": [0.03983242871410012, 0.07614123151961176],
    "high_band_db": [-0.013561733551377679, 0.023147246869026424],
    "estimated_pure_db": [2.8503249943159132, 0.20238720261127782],
    "estimated_loss": [0.2077554116354301, 0.0549878018080761],
}

# (detector_bandwidth_hz, pinned report entries); 0 is the ideal detector
WAVEFORMS_SEED0_300 = [
    (200e6, {
        "square_plateau_squeezed": [0.626835747852514, 0.6207458691884],
        "square_plateau_antisqueezed": [1.7261365842604512, 1.7078322074119252],
        "sine_variance_range": [0.5179246808360457, 1.92058082106862],
    }),
    (0.0, {
        "square_plateau_squeezed": [0.6297300912076115, 0.6207458691884],
        "square_plateau_antisqueezed": [1.7236904459053526, 1.7078322074119252],
        "sine_variance_range": [0.4727337594715523, 1.8407783647533518],
    }),
]

CALIBRATE_SEED0_300 = {
    "gain_coeff_per_sqrt_mw": 0.12237657819075765,
    "quad_coeff_mw_per_v2": 253.90625,
    "linear_limit_v": 0.16,
    "max_pump_power_mw": 6.5,
}
CALIBRATE_SEED0_300_SHA = "fce08f0dcd0de213b4be2ed61d07fb5ca163ac00fadb4836ed115fdae745f3d6"


def _data_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def test_golden_epr_seed0_300_frames(tmp_path):
    run = run_scenario(ScenarioConfig(scenario="epr", seed=0, n_frames=300, output_dir=str(tmp_path)))
    assert run.exit_code == 0
    rep = json.loads((tmp_path / "epr_report.json").read_text())
    for key, want in EPR_SEED0_300.items():
        assert rep[key] == pytest.approx(want, rel=RTOL, abs=0.0), key
    scan = _data_rows(tmp_path / "epr_scan.csv")
    assert scan.shape == (121, 3)
    assert float(scan[:, 1].sum()) == pytest.approx(EPR_SEED0_300_SCAN_SUM, rel=RTOL, abs=0.0)


def test_golden_tm_squeezing_seed0_1000_frames(tmp_path):
    run = run_scenario(
        ScenarioConfig(scenario="tm_squeezing", seed=0, n_frames=1000, output_dir=str(tmp_path))
    )
    assert run.exit_code == 0
    rep = json.loads((tmp_path / "slots.json").read_text())
    assert len(rep["slots"]) == len(TM_SEED0_1000_COVS)
    for slot, want in zip(rep["slots"], TM_SEED0_1000_COVS):
        np.testing.assert_allclose(slot["result"]["cov"], want, rtol=RTOL, atol=0.0)


def test_golden_spectrum_seed0_200_frames(tmp_path):
    run = run_scenario(
        ScenarioConfig(scenario="spectrum", seed=0, n_frames=200, output_dir=str(tmp_path))
    )
    assert run.exit_code == 0
    rep = json.loads((tmp_path / "spectrum_report.json").read_text())
    for key, want in SPECTRUM_SEED0_200.items():
        np.testing.assert_allclose(rep[key], want, rtol=RTOL, atol=0.0, err_msg=key)


@pytest.mark.parametrize(("bandwidth", "pins"), WAVEFORMS_SEED0_300, ids=["200MHz", "ideal"])
def test_golden_waveforms_seed0_300_frames(tmp_path, bandwidth, pins):
    cfg = ScenarioConfig(
        scenario="waveforms",
        seed=0,
        n_frames=300,
        output_dir=str(tmp_path),
        overrides={"detector_bandwidth_hz": bandwidth},
    )
    assert run_scenario(cfg).exit_code == 0
    rep = json.loads((tmp_path / "waveforms_report.json").read_text())
    for key, want in pins.items():
        np.testing.assert_allclose(rep[key], want, rtol=RTOL, atol=0.0, err_msg=key)


def _run_calibrate(tmp_path):
    cfg = ScenarioConfig(scenario="calibrate", seed=0, n_frames=300, output_dir=str(tmp_path))
    assert run_scenario(cfg).exit_code == 0


def test_golden_calibrate_seed0(tmp_path):
    _run_calibrate(tmp_path)
    fitted = json.loads((tmp_path / "calibration.json").read_text())
    for key, want in CALIBRATE_SEED0_300.items():
        assert fitted[key] == pytest.approx(want, rel=RTOL, abs=0.0), key
    assert fitted["extended_lut"] is None
    assert fitted["config_sha256"] == CALIBRATE_SEED0_300_SHA


def test_calibrate_csv_layout(tmp_path):
    _run_calibrate(tmp_path)
    cal = Calibration()
    powers = np.linspace(0.5, 6.5, 12)
    volts = np.linspace(0.01, cal.linear_limit, 16)
    head = f"# scenario=calibrate\n# seed=0\n# config_sha256={CALIBRATE_SEED0_300_SHA}\n"
    for name, columns, want in (
        ("gain_points.csv", "power_mw,parametric_gain",
         [powers, np.exp(2.0 * cal.gain_coeff * np.sqrt(powers))]),
        ("quadratic_points.csv", "drive_v,power_mw", [volts, cal.power_for_voltage(volts)]),
    ):
        raw = (tmp_path / name).read_bytes()
        # metadata lines end in \n; the column row and data rows in \r\n
        assert raw.startswith((head + columns + "\r\n").encode()), name
        rows = raw.decode()[len(head) :].split("\r\n")
        assert rows[-1] == "" and len(rows) == 2 + want[0].size
        parsed = np.array([[float(x) for x in row.split(",")] for row in rows[1:-1]])
        assert np.array_equal(parsed, np.column_stack(want)), name


@pytest.mark.parametrize("lut", [None, [[0.16, 6.5], [0.2, 9.0], [0.25, 12.0]]])
def test_calibration_dict_round_trip(lut):
    cal = Calibration(extended_lut=lut)
    data = cal.to_dict()
    assert sorted(data) == sorted(["extended_lut", *CALIBRATE_SEED0_300])
    assert Calibration.from_dict(data) == cal
    assert Calibration.from_dict(json.loads(json.dumps(data))) == cal
