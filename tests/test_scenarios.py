"""Scenario runner and command line behavior."""

import filecmp
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sqzsim
from sqzsim import dsp, homodyne, opa, scenarios, tomography
from sqzsim.cli import ENV_OUTPUT_DIR, main
from sqzsim.pump import Calibration
from sqzsim.scenarios import (
    SCENARIO_DEFAULTS,
    SCENARIOS,
    ScenarioConfig,
    UsageError,
    config_fingerprint,
    load_calibration,
    resolve_params,
    run_scenario,
)


def test_scenario_defaults_cover_all_scenarios():
    assert set(SCENARIO_DEFAULTS) == set(SCENARIOS)


def test_resolve_params_coerces_override_strings():
    params = resolve_params("spectrum", {"pump_power_mw": "3.25", "n_samples": "2048"})
    assert params["pump_power_mw"] == 3.25
    assert isinstance(params["n_samples"], int)
    assert params["n_samples"] == 2048
    assert params["loss"] == 0.183


def test_resolve_params_coerces_booleans():
    assert resolve_params("tm_squeezing", {"project": "false"})["project"] is False
    assert resolve_params("tm_squeezing", {"project": "1"})["project"] is True
    with pytest.raises(UsageError):
        resolve_params("tm_squeezing", {"project": "maybe"})


def test_resolve_params_rejects_unknown_keys():
    with pytest.raises(UsageError, match="known keys"):
        resolve_params("spectrum", {"bogus": "1"})
    with pytest.raises(UsageError, match="scenario"):
        resolve_params("nonsense", {})


def test_scenario_config_validation(tmp_path):
    with pytest.raises(UsageError):
        ScenarioConfig(scenario="warp", output_dir=str(tmp_path))
    with pytest.raises(UsageError):
        ScenarioConfig(scenario="spectrum", n_frames=0, output_dir=str(tmp_path))


def test_config_fingerprint_tracks_inputs():
    cal = Calibration()
    cfg_a = ScenarioConfig(scenario="calibrate", seed=1, output_dir="x")
    cfg_b = ScenarioConfig(scenario="calibrate", seed=2, output_dir="x")
    pa = resolve_params("calibrate", {})
    fa = config_fingerprint(cfg_a, pa, cal)
    assert fa == config_fingerprint(cfg_a, pa, cal)
    assert fa != config_fingerprint(cfg_b, pa, cal)
    pb = resolve_params("calibrate", {"n_gain_points": "13"})
    assert fa != config_fingerprint(cfg_a, pb, cal)
    assert len(fa) == 64


def test_calibrate_scenario_end_to_end(tmp_path):
    cfg = ScenarioConfig(scenario="calibrate", seed=0, output_dir=str(tmp_path))
    run = run_scenario(cfg)
    assert run.exit_code == 0
    assert run.manifest["all_passed"]
    names = set(run.manifest["outputs"].values())
    assert {"calibration.json", "gain_points.csv", "quadratic_points.csv", "manifest.json"} <= names
    cal = load_calibration(tmp_path / "calibration.json")
    assert cal.quad_coeff == pytest.approx(253.90625, rel=1e-9)
    assert cal.gain_coeff == pytest.approx(0.12237657819075765, rel=1e-9)


def test_manifest_records_config_and_versions(tmp_path):
    cfg = ScenarioConfig(scenario="calibrate", seed=3, output_dir=str(tmp_path))
    run = run_scenario(cfg)
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["scenario"] == "calibrate"
    assert man["seed"] == 3
    assert man["outputs"]["manifest"] == "manifest.json"
    for fname in man["outputs"].values():
        assert (tmp_path / fname).exists()
    assert set(man["versions"]) == {"numpy", "python", "sqzsim"}
    cal = load_calibration(tmp_path / "calibration.json")
    params = resolve_params("calibrate", {})
    assert man["config_sha256"] == config_fingerprint(cfg, params, cal)


def test_outputs_embed_seed_and_config_hash(tmp_path):
    cfg = ScenarioConfig(scenario="calibrate", seed=11, output_dir=str(tmp_path))
    run = run_scenario(cfg)
    sha = run.manifest["config_sha256"]
    for name in run.manifest["outputs"].values():
        text = (tmp_path / name).read_text()
        assert "seed" in text
        assert sha in text


def test_load_calibration_errors(tmp_path):
    with pytest.raises(UsageError, match="calibration"):
        load_calibration(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(UsageError):
        load_calibration(bad)
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"quad_coeff_mw_per_v2": 250.0}))
    with pytest.raises(UsageError):
        load_calibration(incomplete)


# small runs of each scenario: (frames, parameter overrides, exit code); at
# these sizes noise fails some checks of three of them, and every file is
# still written
SMALL_RUNS = {
    "spectrum": (120, {"n_samples": "1024"}, 0),
    "waveforms": (20, {}, 1),
    "tm_squeezing": (100, {"n_phases": "3"}, 1),
    "epr": (100, {"scan_halfwidth_s": "4e-9"}, 1),
    "calibrate": (1, {}, 0),
}


@pytest.mark.parametrize("scenario", SMALL_RUNS)
def test_reruns_are_byte_identical(tmp_path, scenario):
    n_frames, overrides, exit_code = SMALL_RUNS[scenario]
    dirs = []
    for name in ("a", "b"):
        cfg = ScenarioConfig(
            scenario=scenario,
            seed=5,
            n_frames=n_frames,
            output_dir=str(tmp_path / name),
            overrides=overrides,
        )
        run = run_scenario(cfg)
        assert run.exit_code == exit_code
        dirs.append(tmp_path / name)
    left = sorted(p.name for p in dirs[0].iterdir())
    right = sorted(p.name for p in dirs[1].iterdir())
    assert left == right == sorted(run.manifest["outputs"].values())
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], left, shallow=False)
    assert mismatch == [] and errors == []


def test_infeasible_program_is_usage_error(tmp_path):
    cfg = ScenarioConfig(
        scenario="tm_squeezing",
        n_frames=10,
        output_dir=str(tmp_path),
        overrides={"slot_dbs": "9.0", "slot_quadratures": "x"},
    )
    with pytest.raises(UsageError, match="mW"):
        run_scenario(cfg)


def test_cli_calibrate_run(tmp_path, capsys):
    code = main(["run", "calibrate", "--out", str(tmp_path), "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass]" in out
    assert "calibrate: wrote" in out
    man = json.loads((tmp_path / "calibrate" / "manifest.json").read_text())
    assert man["seed"] == 2


def test_cli_unknown_scenario_exits_2(tmp_path, capsys):
    code = main(["run", "quantum_teleport", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err)
    assert err["exit_code"] == 2
    assert err["error"]["kind"] == "usage"
    on_disk = json.loads((tmp_path / "quantum_teleport" / "error.json").read_text())
    assert on_disk == err


def test_cli_bad_set_syntax_exits_2(tmp_path, capsys):
    code = main(["run", "calibrate", "--out", str(tmp_path), "--set", "loss0.2"])
    assert code == 2
    assert "key=value" in json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.mark.parametrize("scenario", ["spectrum", "calibrate"])
def test_cli_negative_seed_exits_2_naming_the_field(tmp_path, capsys, scenario):
    code = main(["run", scenario, "--out", str(tmp_path), "--seed", "-1", "--frames", "20"])
    assert code == 2
    assert "seed" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not (tmp_path / scenario / "manifest.json").exists()


def _no_synthesis(*args, **kwargs):
    raise AssertionError("synthesis ran before every parameter was checked")


def _assert_preflight_usage_error(tmp_path, capsys, argv, field):
    """The run exits 2 naming ``field`` before any synthesis and leaves only error.json."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "iter_frame_chunks", _no_synthesis)
        code = main(["run", *argv, "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "usage" and field in err["message"]
    assert [p.name for p in (tmp_path / argv[0]).iterdir()] == ["error.json"]


@pytest.mark.parametrize(
    "setting",
    # even, below 3, and fir_taps - 1 not below the 1300-sample frame
    ["fir_taps=254", "fir_taps=1", "fir_taps=1301"],
)
def test_cli_waveforms_rejects_bad_fir_taps_before_synthesis(tmp_path, capsys, setting):
    argv = ["waveforms", "--frames", "25", "--set", setting]
    _assert_preflight_usage_error(tmp_path, capsys, argv, "fir_taps")


@pytest.mark.parametrize(
    "setting",
    # 1299 keeps 2 of the 1300 samples; 403 trims 201 from each end, one
    # sample into the sine window, which starts at 200 ns
    ["fir_taps=1299", "fir_taps=403"],
)
def test_cli_waveforms_rejects_fir_taps_that_cut_the_check_windows(tmp_path, capsys, setting):
    argv = ["waveforms", "--frames", "25", "--set", setting]
    _assert_preflight_usage_error(tmp_path, capsys, argv, "fir_taps")


@pytest.mark.parametrize(
    "setting, field",
    # 50 ns half periods leave the plateau windows empty; a 300 ns program
    # ends before they begin
    [("square_half_period_s=5e-8", "square_half_period_s"), ("duration_s=3e-7", "duration_s")],
)
def test_cli_waveforms_rejects_empty_check_windows(tmp_path, capsys, setting, field):
    argv = ["waveforms", "--frames", "25", "--set", setting]
    _assert_preflight_usage_error(tmp_path, capsys, argv, field)


def test_cli_waveforms_rejects_cutoff_at_nyquist_before_synthesis(tmp_path, capsys):
    argv = ["waveforms", "--frames", "25", "--set", "fir_cutoff_hz=5e8"]
    _assert_preflight_usage_error(tmp_path, capsys, argv, "fir_cutoff_hz")


def test_cli_waveforms_with_too_few_frames_exits_2_naming_the_field(tmp_path, capsys):
    _assert_preflight_usage_error(tmp_path, capsys, ["waveforms", "--frames", "15"], "n_frames")


def test_cli_epr_with_too_few_frames_exits_2_naming_the_field(tmp_path, capsys):
    _assert_preflight_usage_error(tmp_path, capsys, ["epr", "--frames", "50"], "n_frames")


def test_cli_spectrum_with_too_few_frames_exits_2_naming_the_field(tmp_path, capsys):
    _assert_preflight_usage_error(tmp_path, capsys, ["spectrum", "--frames", "5"], "n_frames")


@pytest.mark.parametrize(
    "argv, field",
    # fewer than 3 LO phases, and phase groups below the tomography's
    # 100-sample minimum
    [
        (["tm_squeezing", "--set", "n_phases=2"], "n_phases"),
        (["tm_squeezing", "--frames", "50"], "n_frames"),
    ],
)
def test_cli_tm_squeezing_rejects_unfit_tomography_input_before_synthesis(
    tmp_path, capsys, argv, field
):
    _assert_preflight_usage_error(tmp_path, capsys, argv, field)


@pytest.mark.parametrize(
    "settings, field",
    # above the 500 MHz Nyquist frequency, a reversed band, and 64-sample
    # frames whose 15.6 MHz bins leave the default 1-10 MHz band empty
    [
        (["band_hi_hz=6e8"], "band_hi_hz"),
        (["band_lo_hz=2e7", "band_hi_hz=1e7"], "band_lo_hz"),
        (["n_samples=64"], "n_samples"),
    ],
)
def test_cli_spectrum_rejects_bad_bands_before_synthesis(tmp_path, capsys, settings, field):
    argv = ["spectrum", "--frames", "20"]
    for setting in settings:
        argv += ["--set", setting]
    _assert_preflight_usage_error(tmp_path, capsys, argv, field)


@pytest.mark.parametrize(
    "argv, field",
    [
        # a width that is not a number, not finite, or not positive
        (["waveforms", "--set", "gauss_fwhms_ns=abc"], "gauss_fwhms_ns"),
        (["waveforms", "--set", "gauss_fwhms_ns=nan,20,10"], "gauss_fwhms_ns"),
        (["waveforms", "--set", "gauss_fwhms_ns=0,20,10"], "gauss_fwhms_ns"),
        (["tm_squeezing", "--set", "slot_dbs=abc"], "slot_dbs"),
        (["tm_squeezing", "--set", "slot_dbs=2.71,inf,0,2.71,1.5,2.0"], "slot_dbs"),
        (["tm_squeezing", "--set", "slot_quadratures=x,x,q,p,p,x"], "slot_quadratures"),
    ],
)
def test_cli_bad_list_entry_exits_2_naming_the_key(tmp_path, capsys, argv, field):
    _assert_preflight_usage_error(tmp_path, capsys, argv, field)


@pytest.mark.parametrize(
    "argv, field",
    [
        *[([s, "--set", "sample_rate_hz=0"], "sample_rate_hz")
          for s in ("spectrum", "waveforms", "tm_squeezing", "epr")],
        (["epr", "--set", "segment_s=0"], "segment_s"),
        (["epr", "--set", "duration_s=0"], "duration_s"),
        # a gate scan that slides the modes off the record, and a negative one
        (["epr", "--set", "scan_halfwidth_s=1e-6"], "scan_halfwidth_s"),
        (["epr", "--set", "scan_halfwidth_s=-1e-9"], "scan_halfwidth_s"),
        # a drive beyond the calibrated ceiling, none, and a reversed one
        (["waveforms", "--set", "amplitude_v=10"], "amplitude_v"),
        (["waveforms", "--set", "amplitude_v=0"], "amplitude_v"),
        (["waveforms", "--set", "amplitude_v=-0.16"], "amplitude_v"),
        # each calibration fit needs one point at least
        (["calibrate", "--set", "n_voltage_points=0"], "n_voltage_points"),
        (["calibrate", "--set", "n_gain_points=0"], "n_gain_points"),
        # a library check that planning calls names the keys that fed it
        (["calibrate", "--set", "power_min_mw=0"], "power_min_mw"),
        (["calibrate", "--set", "power_max_mw=0.5"], "power_max_mw"),
        (["waveforms", "--set", "amplitude_v=1e-200"], "amplitude_v"),
        *[([s, "--set", "rise_time_s=0"], "rise_time_s")
          for s in ("waveforms", "tm_squeezing", "epr")],
        (["tm_squeezing", "--set", "margin_s=1e-9"], "margin_s"),
        *[([s, "--set", "mode_gamma_hz=0"], "mode_gamma_hz") for s in ("tm_squeezing", "epr")],
        (["spectrum", "--set", "detector_bandwidth_hz=6e8"], "detector_bandwidth_hz"),
        (["epr", "--set", "bin_period_s=0"], "bin_period_s"),
        (["epr", "--set", "lead_s=-1"], "lead_s"),
        (["spectrum", "--set", "pump_power_mw=-1"], "pump_power_mw"),
        # a power that makes the spectrum NaN, counts that overflow an
        # integer, and a drive segment so short its loop would not end
        (["spectrum", "--set", "pump_power_mw=1e300"], "pump_power_mw"),
        (["epr", "--set", "duration_s=1e300"], "duration_s"),
        (["waveforms", "--set", "rise_time_s=1e300"], "rise_time_s"),
        (["tm_squeezing", "--set", "margin_s=1e300"], "margin_s"),
        (["epr", "--set", "segment_s=1e-200"], "segment_s"),
        # a rate whose sample interval 1 / rate overflows to inf
        (["tm_squeezing", "--set", "sample_rate_hz=1e-320", "--set", "detector_bandwidth_hz=0"],
         "sample_rate_hz"),
        # a rate so low that a frame holds no sample: the FIR taps and the
        # pulse slots fail first, but the rate is the cause
        *[([s, "--frames", "100", "--set", "sample_rate_hz=1e-3", "--set",
            "detector_bandwidth_hz=0"], "sample_rate_hz") for s in ("waveforms", "tm_squeezing")],
        # 0 is the ideal detector; a negative bandwidth is no detector at all
        *[([s, "--set", "detector_bandwidth_hz=-1"], "detector_bandwidth_hz")
          for s in ("spectrum", "waveforms", "tm_squeezing", "epr")],
    ],
)
def test_cli_unusable_parameter_exits_2_naming_the_key(tmp_path, capsys, argv, field):
    _assert_preflight_usage_error(tmp_path, capsys, argv, field)


@pytest.mark.parametrize(
    "argv, field",
    [
        (["calibrate", "--set", "power_min_mw=-1"], "power_min_mw"),
        (["calibrate", "--set", "power_max_mw=-1"], "power_max_mw"),
        (["tm_squeezing", "--frames", "100", "--set", "mode_gamma_hz=1e300"], "mode_gamma_hz"),
    ],
)
def test_cli_usage_error_stderr_is_one_json_document(tmp_path, argv, field):
    # a fresh interpreter, so a NumPy warning would reach stderr as printed text
    env = dict(os.environ)
    src = str(Path(sqzsim.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "sqzsim.cli", "run", *argv, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    err = json.loads(proc.stderr)["error"]
    assert err["kind"] == "usage" and field in err["message"]


# 2 GiB of address space: a run that built one Python object per block
# of a frame count beyond the substreams, or per calibration point, ran
# out of it and exited 1
_ADDRESS_SPACE_CAP = 2 * 2**30


def _capped_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_CAP, _ADDRESS_SPACE_CAP))


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
@pytest.mark.parametrize(
    "argv, fields",
    [
        *[pytest.param([s, "--frames", str(2**32 + 1)], ["n_frames"], id=s)
          for s in ("spectrum", "epr", "waveforms")],
        # 12 phases of 2**29 frames are 1.5 * 2**32 frames
        pytest.param(["tm_squeezing", "--frames", str(2**29)], ["n_frames", "n_phases"],
                     id="tm_squeezing"),
        # point counts whose arrays the work budget does not cover
        *[pytest.param(["calibrate", "--set", f"{key}=200000000"], [key], id=key)
          for key in ("n_gain_points", "n_voltage_points")],
        # a program of 3e9 or 5e8 samples, and a mode of 5e8 samples on a
        # 1320-sample record, each built before the budget or placement
        # rejected it: internal MemoryError
        *[pytest.param([s, "--frames", "100", "--set", f"{key}={value}"], [key],
                       id=f"{s}-{key}={value}")
          for s, key, value in (("tm_squeezing", "mode_width_s", 3),
                                ("tm_squeezing", "margin_s", 0.5),
                                ("epr", "mode_width_s", 0.5))],
    ],
)
def test_cli_count_beyond_substreams_or_budget_exits_2_under_a_memory_cap(tmp_path, argv, fields):
    env = dict(os.environ)
    src = str(Path(sqzsim.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "sqzsim.cli", "run", *argv, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=_capped_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert err["kind"] == "usage" and all(f in err["message"] for f in fields)


# the first block of a 2**32-frame stream, taken through the split walk of
# the reducers; a layout built whole, 2**24 tuples, ran out of the capped
# address space after 7.5 s
FIRST_BLOCK = """
from sqzsim import dsp, homodyne, opa
traj = opa.constant_trajectory(0.3, 0.0, 0.1, 1e-9, 480)
frames = homodyne.iter_frame_chunks(traj, homodyne.DetectorModel(), 0.0, 0, range(2**32))
split, block = next(dsp._blocks_by_split(2**32, frames))
print(split, *block.shape)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
def test_first_block_of_a_stream_of_2_32_frames_arrives_under_a_memory_cap():
    env = dict(os.environ)
    src = str(Path(sqzsim.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_BLOCK],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=_capped_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "256", "480"]


# plans each scenario alone, at its fewest frames, with every key of
# SCENARIO_DEFAULTS (every pair of keys when the first argument is 2) set
# to each of the remaining arguments, and prints each (scenario, keys,
# values) whose plan neither returned nor raised a UsageError naming a key
PLAN_SWEEP = """
import itertools, sys
from sqzsim import quantum, tomography
from sqzsim.pump import Calibration
from sqzsim.scenarios import _PLANS, SCENARIO_DEFAULTS, ScenarioConfig, UsageError, resolve_params
fewest = {"spectrum": quantum.N_SPLITS, "waveforms": 2 * quantum.N_SPLITS,
          "tm_squeezing": tomography.MIN_GROUP_SAMPLES, "epr": quantum.DUAN_MIN_SAMPLES,
          "calibrate": 1}
size, values = int(sys.argv[1]), sys.argv[2:]
for name, defaults in SCENARIO_DEFAULTS.items():
    cfg = ScenarioConfig(scenario=name, n_frames=fewest[name])
    for keys in itertools.combinations(defaults, size):
        for chosen in itertools.product(values, repeat=size):
            try:
                _PLANS[name](cfg, resolve_params(name, dict(zip(keys, chosen))), Calibration())
            except Exception as exc:
                if not (isinstance(exc, UsageError) and any(key in str(exc) for key in defaults)):
                    print(name, keys, chosen, f"{type(exc).__name__}: {exc}"[:200])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
def test_plan_sweep_of_extreme_values_plans_or_names_a_key_under_a_memory_cap():
    # one key at a time by default; SQZSIM_PLAN_SWEEP=pairs sets every pair
    # of a scenario's keys, 3616 plans instead of 188
    size = {"": 1, "pairs": 2}[os.environ.get("SQZSIM_PLAN_SWEEP", "")]
    env = dict(os.environ)
    src = str(Path(sqzsim.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PLAN_SWEEP, str(size), "1e-300", "0.5", "3", "1e300"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
        preexec_fn=_capped_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == []


@pytest.mark.parametrize("key", ["quad_coeff_mw_per_v2", "gain_coeff_per_sqrt_mw"])
def test_cli_non_finite_calibration_file_exits_2_naming_the_field(tmp_path, capsys, key):
    # Python's json writes and reads NaN unless told not to
    cal_path = tmp_path / "calibration.json"
    cal_path.write_text(json.dumps(Calibration().to_dict() | {key: math.nan}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"calibration_path": str(cal_path)}))
    argv = ["waveforms", "--config", str(cfg_path), "--frames", "25"]
    _assert_preflight_usage_error(tmp_path, capsys, argv, key)


def test_json_artifacts_reject_non_finite_values(tmp_path):
    with pytest.raises(ValueError, match="JSON"):
        scenarios._write_artifact(tmp_path / "x.json", {"value": math.nan}, {})


@pytest.mark.parametrize(
    "argv, reducer",
    [(["waveforms", "--frames", "20"], "variance_ratio"),
     (["tm_squeezing", "--frames", "100"], "split_moments")],
)
def test_cli_value_error_after_planning_is_internal(tmp_path, capsys, monkeypatch, argv, reducer):
    def faulty(*args, **kwargs):
        raise ValueError("planted fault")

    monkeypatch.setattr(dsp, reducer, faulty)
    code = main(["run", *argv, "--out", str(tmp_path)])
    err = json.loads(capsys.readouterr().err)
    assert code == 1 and err["exit_code"] == 1
    assert err["error"] == {"kind": "internal", "message": "ValueError: planted fault"}
    # nothing is written before every set is reduced
    assert [p.name for p in (tmp_path / argv[0]).iterdir()] == ["error.json"]


@pytest.mark.parametrize("bandwidth", ["2e8", "0"], ids=["200MHz", "ideal"])
def test_cli_reports_a_fault_on_the_pooled_worker_as_internal(
    tmp_path, capsys, monkeypatch, bandwidth
):
    caller = threading.get_ident()
    fill = homodyne._Synthesis.fill

    def faulty(self, out, start):
        if threading.get_ident() != caller:
            raise RuntimeError("planted fault")
        fill(self, out, start)

    monkeypatch.setattr(homodyne._Synthesis, "fill", faulty)
    # the worker fills half of each filtered block, and every ideal block
    # after a set's first
    argv = ["run", "spectrum", "--out", str(tmp_path), "--frames", "40",
            "--set", f"detector_bandwidth_hz={bandwidth}"]
    code = main(argv)
    err = json.loads(capsys.readouterr().err)
    assert code == 1 and err["exit_code"] == 1
    assert err["error"] == {"kind": "internal", "message": "RuntimeError: planted fault"}
    assert [p.name for p in (tmp_path / "spectrum").iterdir()] == ["error.json"]


def test_cli_infeasible_spectrum_pair_is_a_failed_check(tmp_path, capsys):
    # at 40 frames noise alone puts this run's band pair below the
    # uncertainty bound; that is a failed check, not a usage error
    argv = ["run", "spectrum", "--out", str(tmp_path), "--seed", "6", "--frames", "40",
            "--set", "detector_bandwidth_hz=0"]
    code = main(argv)
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"]["kind"] == "invariant"
    assert "inversion_feasible" in err["error"]["message"]
    outdir = tmp_path / "spectrum"
    man = json.loads((outdir / "manifest.json").read_text())
    failed = [c for c in man["invariant_checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["inversion_feasible"]
    assert "infeasible squeezing pair" in failed[0]["detail"]
    report = json.loads((outdir / "spectrum_report.json").read_text())
    assert report["estimated_pure_db"] is None
    assert report["estimated_loss"] is None
    assert report["low_confidence"] is None
    for name in ("squeezed_spectrum", "antisqueezed_spectrum", "vacuum_check_spectrum"):
        assert (outdir / f"{name}.csv").exists()


def test_scenario_config_rejects_non_integer_seed(tmp_path):
    with pytest.raises(UsageError, match="seed"):
        ScenarioConfig(scenario="calibrate", seed=1.5, output_dir=str(tmp_path))
    ScenarioConfig(scenario="calibrate", seed=np.uint64(2**63), output_dir=str(tmp_path))


@pytest.mark.parametrize(
    "config, field",
    [
        ({"seed": "abc"}, "seed"),
        ({"seed": 1.7}, "seed"),
        ({"seed": True}, "seed"),
        ({"n_frames": "many"}, "n_frames"),
        ({"n_frames": 250.9}, "n_frames"),
        ({"calibration_path": 5}, "calibration_path"),
        ({"output_dir": 5}, "output_dir"),
        ({"params": {"power_min_mw": [1]}}, "power_min_mw"),
    ],
)
def test_cli_config_fields_of_the_wrong_type_exit_2_naming_the_field(
    tmp_path, capsys, config, field
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "calibrate", "--config", str(cfg_path), "--out", str(tmp_path)])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert err["kind"] == "usage" and field in err["message"]


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "+Infinity"])
@pytest.mark.parametrize(
    "scenario, key",
    [("spectrum", "detector_bandwidth_hz"), ("waveforms", "loss"), ("calibrate", "power_max_mw")],
)
def test_cli_non_finite_set_value_exits_2_naming_the_key(tmp_path, capsys, scenario, key, value):
    argv = [scenario, "--set", f"{key}={value}"]
    _assert_preflight_usage_error(tmp_path, capsys, argv, key)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_cli_non_finite_config_value_exits_2_naming_the_key(tmp_path, capsys, literal):
    cfg_path = tmp_path / "cfg.json"
    # JSON has no non-finite numbers, but Python's reader takes these literals
    cfg_path.write_text('{"params": {"detector_bandwidth_hz": %s}}' % literal)
    argv = ["spectrum", "--config", str(cfg_path)]
    _assert_preflight_usage_error(tmp_path, capsys, argv, "detector_bandwidth_hz")


def test_cli_unknown_param_exits_2(tmp_path, capsys):
    code = main(["run", "calibrate", "--out", str(tmp_path), "--set", "bogus=1"])
    assert code == 2
    capsys.readouterr()


def test_cli_unreadable_config_exits_2(tmp_path, capsys):
    code = main(["run", "calibrate", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "unreadable config" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_cli_config_file_drives_run(tmp_path, capsys):
    cal_dir = tmp_path / "calout"
    assert main(["run", "calibrate", "--out", str(cal_dir)]) == 0
    capsys.readouterr()
    config = {
        "seed": 9,
        "n_frames": 40,
        "output_dir": str(tmp_path / "runs"),
        "calibration_path": str(cal_dir / "calibrate" / "calibration.json"),
        "params": {"n_samples": 512},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "spectrum", "--config", str(cfg_path)])
    capsys.readouterr()
    assert code == 0
    man = json.loads((tmp_path / "runs" / "spectrum" / "manifest.json").read_text())
    assert man["seed"] == 9
    assert man["n_frames"] == 40
    assert man["params"]["n_samples"] == 512


def test_cli_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"frames": 10}))
    code = main(["run", "calibrate", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    assert "unknown config keys" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_cli_env_var_sets_output_base(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "envbase"))
    code = main(["run", "calibrate"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "envbase" / "calibrate" / "manifest.json").exists()


def test_cli_out_flag_beats_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "envbase"))
    code = main(["run", "calibrate", "--out", str(tmp_path / "flagbase")])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "flagbase" / "calibrate" / "manifest.json").exists()
    assert not (tmp_path / "envbase").exists()


def test_cli_reports_failed_checks_with_exit_1(tmp_path, capsys, monkeypatch):
    from sqzsim import scenarios as sc

    def failing_plan(cfg, params, cal):
        return lambda: ({}, {"always_down": (False, "synthetic")})

    monkeypatch.setitem(sc._PLANS, "calibrate", failing_plan)
    code = main(["run", "calibrate", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL] always_down" in captured.out
    err = json.loads(captured.err)
    assert err["error"]["kind"] == "invariant"
    assert (tmp_path / "calibrate" / "error.json").exists()


def _traced_peak_bytes(cfg):
    """Peak of the memory tracemalloc sees while ``cfg`` runs, whatever its checks say."""
    tracemalloc.start()
    try:
        run_scenario(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tm_squeezing_memory_stays_flat_in_the_frame_count(tmp_path):
    # every frame block is projected and folded into moments, then dropped;
    # a frame stack would grow the peak fivefold from 200 to 1000 frames
    peaks = [
        _traced_peak_bytes(
            ScenarioConfig(
                scenario="tm_squeezing", seed=0, n_frames=n, output_dir=str(tmp_path / str(n))
            )
        )
        for n in (200, 1000)
    ]
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_calibrate_memory_is_a_few_arrays_per_gain_point(tmp_path):
    # the fit takes the (n, 2) array of points: about 65 B per point at
    # the peak; Python tuples of the points took about 240 B
    n = 200_000
    cfg = ScenarioConfig(scenario="calibrate", output_dir=str(tmp_path),
                         overrides={"n_gain_points": n})
    assert _traced_peak_bytes(cfg) <= 100 * n


def test_filtered_spectrum_set_memory_is_a_few_tiles():
    # a 2000-frame, 4096-sample, 200 MHz set holds one 256-frame block and
    # the tile buffers of the synthesis shares and the periodogram; buffers
    # sized to the block instead peaked at 55.7 MB
    traj = opa.constant_trajectory(0.3, 0.0, 0.1, 1e-9, 4096)
    det = homodyne.DetectorModel(bandwidth=200e6)
    tracemalloc.start()
    try:
        blocks = homodyne.iter_frame_chunks(traj, det, 0.0, 0, range(2000))
        dsp.periodogram_split_means(2000, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6, peak


# runs sqzsim.cli.main with the address space capped at 1.5 GiB, then
# prints its exit code and the peak of the memory tracemalloc saw
CAPPED_RUN = """
import json, resource, sys, tracemalloc
cap = 1536 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from sqzsim.cli import main
tracemalloc.start()
code = main(sys.argv[1:])
print(json.dumps({"exit_code": code, "peak": tracemalloc.get_traced_memory()[1]}))
"""


@pytest.mark.parametrize(
    "argv, field",
    # the Gaussian peak oracle would ask for 5.09 GiB, a spectrum block for 2.24 GiB
    [
        (["waveforms", "--set", "rise_time_s=1e-3"], "rise_time_s"),
        (["spectrum", "--set", "n_samples=300000000"], "n_samples"),
    ],
)
def test_cli_plan_above_the_work_budget_exits_2_before_allocating(tmp_path, argv, field):
    # without the budget the capped child fails as internal MemoryError and
    # never takes the machine's memory
    env = dict(os.environ)
    src = str(Path(sqzsim.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_RUN, "run", *argv, "--frames", "20", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    err = json.loads(proc.stderr)["error"]
    assert result["exit_code"] == 2
    assert err["kind"] == "usage" and field in err["message"] and "work budget" in err["message"]
    # rejected at planning, before any large array was allocated
    assert result["peak"] < 16 * 2**20, result
    assert not (tmp_path / "manifest.json").exists()


def _no_prediction(*args, **kwargs):
    raise AssertionError("the prediction scan ran before its work was budgeted")


def test_cli_epr_prediction_scan_above_the_work_budget_exits_2(tmp_path, capsys, monkeypatch):
    # 180 001 lags over 201 064-sample records: the scan's two mode-weight
    # rows of every lag come to about 7e10 elements, and a run under a
    # 1.5 GB address space cap failed as internal MemoryError without the budget
    monkeypatch.setattr(tomography, "duan_prediction_scan", _no_prediction)
    settings = ["lead_s=1e-4", "tail_s=1e-4", "scan_halfwidth_s=9e-5"]
    argv = ["epr", "--frames", "100", *(a for s in settings for a in ("--set", s))]
    _assert_preflight_usage_error(tmp_path, capsys, argv, "'scan_halfwidth_s'")


def test_tm_squeezing_slot_parsing_errors(tmp_path):
    cfg = ScenarioConfig(
        scenario="tm_squeezing",
        n_frames=10,
        output_dir=str(tmp_path),
        overrides={"slot_dbs": "1.0,2.0", "slot_quadratures": "x"},
    )
    with pytest.raises(UsageError):
        run_scenario(cfg)
    cfg = ScenarioConfig(
        scenario="tm_squeezing",
        n_frames=10,
        output_dir=str(tmp_path),
        overrides={"slot_dbs": "1.0", "slot_quadratures": "q"},
    )
    with pytest.raises(UsageError):
        run_scenario(cfg)


def test_epr_scenario_smoke(tmp_path):
    cfg = ScenarioConfig(
        scenario="epr",
        seed=1,
        n_frames=120,
        output_dir=str(tmp_path),
        overrides={"scan_halfwidth_s": "4e-9"},
    )
    run = run_scenario(cfg)
    report = json.loads((tmp_path / "epr_report.json").read_text())
    assert report["n_frames"] == 120
    assert report["duan"] > 0.0
    assert "advisories" in report
    scan = (tmp_path / "epr_scan.csv").read_text().splitlines()
    header_idx = next(i for i, ln in enumerate(scan) if not ln.startswith("#"))
    assert scan[header_idx] == "offset_s,duan,duan_predicted"
    assert len(scan) - header_idx - 1 == 9


def test_waveforms_scenario_smoke(tmp_path):
    cfg = ScenarioConfig(
        scenario="waveforms",
        seed=2,
        n_frames=40,
        output_dir=str(tmp_path),
        overrides={"duration_s": "600e-9", "square_half_period_s": "150e-9",
                   "step_time_s": "200e-9"},
    )
    run = run_scenario(cfg)
    names = set(run.manifest["outputs"].values())
    assert {"square_pump.csv", "square_variance.csv", "step_pump.csv"} <= names
    # the step program gets no variance trace, everything else does
    assert "step_variance.csv" not in names
    text = (tmp_path / "square_variance.csv").read_text().splitlines()
    header = next(ln for ln in text if not ln.startswith("#"))
    assert "quasi_static_variance" in header
