"""Start-up: what a CLI run imports, and when, each in a fresh interpreter.

No run imports a module once it is under way, and none imports SciPy:
the filtered detector's design and filter, the FIR and every FFT are
NumPy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqzsim

# runs sqzsim.cli.main on its arguments, noting the modules imported
# between entering run_scenario and its return; prints them last
_WATCH = """
import json, sys
from sqzsim import cli, scenarios

run_scenario = scenarios.run_scenario
imported = []

def watched(cfg):
    before = set(sys.modules)
    try:
        return run_scenario(cfg)
    finally:
        imported.extend(sorted(set(sys.modules) - before))

scenarios.run_scenario = watched
code = cli.main(sys.argv[1:])
print(json.dumps({"exit_code": code, "imported": imported,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _fresh_python(source: str, *argv: str) -> dict:
    """The JSON last line that ``source`` prints, run on ``argv`` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(sqzsim.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", source, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _fresh_run(tmp_path, *argv) -> dict:
    return _fresh_python(_WATCH, "run", *argv, "--out", str(tmp_path))


_SCENARIOS = ("spectrum", "waveforms", "tm_squeezing", "epr", "calibrate")


# the CLI defaults, a 200 MHz detector wherever there is one, and an
# ideal detector; a module imported with sqzsim.cli stays in sys.modules,
# so an empty "scipy" after the run means none was loaded at any time
@pytest.mark.parametrize(
    "argv",
    [
        *[pytest.param((s,), id=s) for s in _SCENARIOS],
        pytest.param(("waveforms", "--set", "detector_bandwidth_hz=0"), id="waveforms-ideal"),
    ],
)
def test_a_cli_run_imports_no_module_once_started(tmp_path, argv):
    result = _fresh_run(tmp_path, *argv, "--frames", "100")
    # noise fails some checks at this size; every run still completes
    assert result["exit_code"] in (0, 1)
    assert result["imported"] == []
    assert result["scipy"] == []


# a filtered synthesis run and a filtered prediction, in one interpreter
_LIBRARY = """
import json, sys
from sqzsim.dsp import make_mode
from sqzsim.homodyne import DetectorModel, iter_frame_chunks
from sqzsim.opa import constant_trajectory
from sqzsim.tomography import duan_prediction_scan

det = DetectorModel(bandwidth=200e6)
traj = constant_trajectory(0.3, 0.0, 0.1, dt=det.dt, n_samples=256)
for block in iter_frame_chunks(traj, det, 0.0, 0, range(40)):
    assert block.shape[1] == 256
mode = make_mode("tf_mode", det.dt, t_c=128e-9, gamma=2.5e7, t_w=100e-9)
assert duan_prediction_scan(traj, det, mode, mode, [0.0, 1e-9]).shape == (2,)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_filtered_synthesis_and_prediction_never_import_scipy():
    assert _fresh_python(_LIBRARY) == []
