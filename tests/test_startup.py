"""Start-up: what a CLI run imports, and when, each in a fresh interpreter.

``scipy.signal`` is only for the filtered detector, and the command line
imports it before such a run starts, so no run imports a module while it
is under way.
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
                  "scipy_signal": "scipy.signal" in sys.modules}))
"""


def _fresh_run(tmp_path, *argv) -> dict:
    env = dict(os.environ)
    src = str(Path(sqzsim.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _WATCH, "run", *argv, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("scenario", ["spectrum", "waveforms", "tm_squeezing", "epr", "calibrate"])
def test_a_cli_run_imports_no_module_once_started(tmp_path, scenario):
    # the CLI defaults: a 200 MHz detector wherever there is one
    result = _fresh_run(tmp_path, scenario, "--frames", "100")
    # noise fails some checks at this size; every run still completes
    assert result["exit_code"] in (0, 1)
    assert result["imported"] == []
    assert result["scipy_signal"] == (scenario != "calibrate")


def test_an_ideal_detector_run_never_imports_scipy_signal(tmp_path):
    result = _fresh_run(
        tmp_path, "waveforms", "--frames", "100", "--set", "detector_bandwidth_hz=0"
    )
    assert result["exit_code"] in (0, 1)
    assert result["imported"] == []
    assert result["scipy_signal"] is False
