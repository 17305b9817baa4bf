"""Command line front end for the scenario runner.

Usage::

    sqzsim run <scenario> [--config path] [--seed N] [--frames N]
                          [--out dir] [--set key=value ...]

Scenarios: spectrum, waveforms, tm_squeezing, epr, calibrate.  Outputs
land in ``<base>/<scenario>/`` where ``<base>`` is ``--out``, the config
file's ``output_dir``, the ``SQZSIM_OUTPUT_DIR`` environment variable,
or ``./sqzsim_out``, in that order of precedence.

Config files are JSON with the schema::

    {
      "scenario": "epr",            # optional, the positional wins
      "seed": 0,
      "n_frames": 5000,
      "calibration_path": null,     # JSON from the calibrate scenario
      "output_dir": "runs",
      "params": {"loss": 0.2}      # scenario parameter overrides
    }

Every ``--set key=value`` targets one key of ``params``.  Exit codes:
0 all checks passed, 1 a run-time consistency check failed (error kind
``invariant``) or an internal fault (kind ``internal``, the exception
class leading the message), 2 usage error (kind ``usage``: unknown
scenario or key, unreadable config or calibration, infeasible program).
Failures print a structured error JSON to stderr and, when the output
directory is known, write it to ``error.json`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from sqzsim import scenarios

ENV_OUTPUT_DIR = "SQZSIM_OUTPUT_DIR"

_CONFIG_KEYS = {"scenario", "seed", "n_frames", "calibration_path", "output_dir", "params"}


def _load_config(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise scenarios.UsageError(f"unreadable config file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise scenarios.UsageError(f"config file {path} must hold a JSON object")
    unknown = set(payload) - _CONFIG_KEYS
    if unknown:
        raise scenarios.UsageError(
            f"unknown config keys {sorted(unknown)}; allowed: {sorted(_CONFIG_KEYS)}"
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise scenarios.UsageError("config 'params' must be a JSON object")
    if not isinstance(payload.get("output_dir"), (str, type(None))):
        raise scenarios.UsageError(
            f"config 'output_dir' must be a string or null, got {payload['output_dir']!r}"
        )
    return payload


def _parse_set(items: list[str]) -> dict:
    overrides = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise scenarios.UsageError(f"--set expects key=value, got {item!r}")
        overrides[key] = value
    return overrides


def _emit_error(kind: str, message: str, exit_code: int, outdir: Path | None) -> None:
    payload = {"error": {"kind": kind, "message": message}, "exit_code": exit_code}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stderr.write(text)
    if outdir is not None:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "error.json").write_text(text)
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqzsim",
        description="Deterministic scenario runs of the pulsed squeezed-light model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one scenario and write its artifacts")
    run_p.add_argument("scenario", help=f"one of: {', '.join(scenarios.SCENARIOS)}")
    run_p.add_argument("--config", help="JSON config file (see module docstring)")
    run_p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    run_p.add_argument("--frames", type=int, help="homodyne frames per acquisition")
    run_p.add_argument("--out", help="base output directory")
    run_p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one scenario parameter (repeatable)",
    )
    args = parser.parse_args(argv)

    outdir: Path | None = None
    try:
        file_cfg = _load_config(args.config) if args.config else {}
        base = (
            args.out
            or file_cfg.get("output_dir")
            or os.environ.get(ENV_OUTPUT_DIR)
            or "sqzsim_out"
        )
        outdir = Path(base) / args.scenario
        overrides = dict(file_cfg.get("params", {}))
        overrides.update(_parse_set(args.set))
        cfg = scenarios.ScenarioConfig(
            scenario=args.scenario,
            seed=args.seed if args.seed is not None else file_cfg.get("seed", 0),
            n_frames=args.frames if args.frames is not None else file_cfg.get("n_frames", 5000),
            calibration_path=file_cfg.get("calibration_path"),
            output_dir=str(outdir),
            overrides=overrides,
        )
        run = scenarios.run_scenario(cfg)
    except scenarios.UsageError as exc:
        _emit_error("usage", str(exc), 2, outdir)
        return 2
    except Exception as exc:
        # a fault of the program, not of its input
        _emit_error("internal", f"{type(exc).__name__}: {exc}", 1, outdir)
        return 1

    for check in run.manifest["invariant_checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['detail']}")
    n_out = len(run.manifest["outputs"])
    print(f"{cfg.scenario}: wrote {n_out} files to {run.output_dir}")
    if run.exit_code != 0:
        failed = [c["name"] for c in run.manifest["invariant_checks"] if not c["passed"]]
        _emit_error("invariant", f"checks failed: {', '.join(failed)}", 1, run.output_dir)
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
