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

Every ``--set key=value`` targets one key of ``params``.  A run first
plans: it checks every parameter and builds the whole program before
any frame is synthesized.  It then acquires and reduces every frame set,
and only then writes its files.  Exit codes: 0 all checks passed, 1 a
run-time consistency check failed (error kind ``invariant``) or an
internal fault (kind ``internal``, the exception class leading the
message; a ``ValueError`` that no check names a key for is one), 2
usage error (kind ``usage``: unknown scenario or key, unreadable config
or calibration, a parameter the plan rejects naming its keys,
infeasible program), which writes no artifact, 130 interrupted (kind
``interrupted``).  Failures print one structured error JSON to stderr
and, when the output directory is known, write it to ``error.json``
there.

A run replaces ``<base>/<scenario>`` whole, so the directory holds one
run's files.  The run writes them, its ``error.json`` included, into a
fresh directory inside a private ``<base>/.<scenario>-*`` one.  Once the
run has ended, it renames the earlier ``<base>/<scenario>`` into that
private directory, renames its own directory in, and removes the
private one with the earlier set.  A run that fails leaves its
``error.json`` alone, never a file from a write that failed part-way.
An interrupted run (exit 130, no traceback) leaves the earlier set as it
was.  Between the two renames ``<base>/<scenario>`` is absent; a run
killed there leaves the earlier set whole as
``<base>/.<scenario>-*/old``.  A killed run may leave one
``.<scenario>-*`` directory, which no later run deletes.  Of two runs
into one directory at once, the one that renames its set in last stays;
one that finds the other's set renamed in between its own two renames
leaves that set and, unless it failed already, exits 1 (kind
``internal``).

A run never deletes what sqzsim did not write.  If ``<base>/<scenario>``
is not a directory, or holds an entry that is not a regular file named
``error.json``, ``manifest.json`` or listed under ``outputs`` in that
manifest, the run is a usage error naming the entry, before any work,
and touches nothing.  The earlier manifest is outside input: one that
cannot be parsed lists nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
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


def _error_json(kind: str, message: str, exit_code: int) -> str:
    payload = {"error": {"kind": kind, "message": message}, "exit_code": exit_code}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _refuse_foreign_entries(outdir: Path) -> None:
    """Raise a usage error naming what in ``outdir`` no sqzsim run wrote (see above).

    Entries and manifest are read through one open directory; a set that a
    concurrent run swaps out meanwhile is no longer this run's to replace.
    """
    try:
        fd = os.open(outdir, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)
    except FileNotFoundError:
        return
    except OSError as exc:
        raise scenarios.UsageError(
            f"{outdir} is not a directory sqzsim wrote ({exc.strerror}); a run replaces it whole"
        ) from exc
    try:
        with os.scandir(fd) as entries:
            regular = {e.name: e.is_file(follow_symlinks=False) for e in entries}
        names = {"error.json", "manifest.json"}
        if regular.get("manifest.json"):
            with contextlib.suppress(OSError, ValueError, LookupError, TypeError, AttributeError):
                with open(os.open("manifest.json", os.O_RDONLY, dir_fd=fd), "rb") as fh:
                    listed = json.load(fh)["outputs"].values()
                names.update(n for n in listed if isinstance(n, str))
        foreign = sorted(n for n, is_file in regular.items() if not is_file or n not in names)
        try:
            still_there = os.path.samestat(os.fstat(fd), os.lstat(outdir))
        except FileNotFoundError:
            still_there = False
        if foreign and still_there:
            raise scenarios.UsageError(
                f"{outdir / foreign[0]} was not written by sqzsim; a run replaces {outdir} "
                "whole, so move it away first"
            )
    finally:
        os.close(fd)


def _swap_in(newdir: Path, outdir: Path) -> None:
    """Rename the earlier ``outdir`` to ``old`` beside ``newdir``, then ``newdir`` to ``outdir``."""
    with contextlib.suppress(FileNotFoundError):
        outdir.rename(newdir.with_name("old"))
    newdir.rename(outdir)


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
    workdir: Path | None = None
    try:
        run, error = None, None
        try:
            file_cfg = _load_config(args.config) if args.config else {}
            base = (
                args.out
                or file_cfg.get("output_dir")
                or os.environ.get(ENV_OUTPUT_DIR)
                or "sqzsim_out"
            )
            # only a plain name is an entry of the base a run may replace;
            # any other names no scenario, which ScenarioConfig reports
            if os.sep not in args.scenario and args.scenario not in ("", ".", ".."):
                outdir = Path(base) / args.scenario
                _refuse_foreign_entries(outdir)
                try:
                    Path(base).mkdir(parents=True, exist_ok=True)
                    workdir = Path(tempfile.mkdtemp(dir=base, prefix=f".{args.scenario}-"))
                except OSError as exc:
                    raise scenarios.UsageError(
                        f"cannot create output directory {outdir}: {exc}"
                    ) from exc
            overrides = dict(file_cfg.get("params", {}))
            overrides.update(_parse_set(args.set))
            cfg = scenarios.ScenarioConfig(
                scenario=args.scenario,
                seed=args.seed if args.seed is not None else file_cfg.get("seed", 0),
                n_frames=args.frames if args.frames is not None else file_cfg.get("n_frames", 5000),
                calibration_path=file_cfg.get("calibration_path"),
                # mkdtemp makes its directory private; the run's own gets the umask
                output_dir=str(workdir / "run") if workdir else ".",
                overrides=overrides,
            )
            run = scenarios.run_scenario(cfg)
            failed = [c["name"] for c in run.manifest["invariant_checks"] if not c["passed"]]
            if failed:
                error = ("invariant", f"checks failed: {', '.join(failed)}", 1)
        except scenarios.UsageError as exc:
            error = ("usage", str(exc), 2)
        except Exception as exc:
            # a fault of the program, not of its input
            error = ("internal", f"{type(exc).__name__}: {exc}", 1)

        if workdir is not None:
            # a run that raised swaps in its error.json alone
            newdir = run.output_dir if run is not None else workdir / "failed"
            try:
                if error:
                    newdir.mkdir(exist_ok=True)
                    (newdir / "error.json").write_text(_error_json(*error))
                _swap_in(newdir, outdir)
            except OSError as exc:
                run, error = None, error or ("internal", f"{type(exc).__name__}: {exc}", 1)
    except KeyboardInterrupt:
        sys.stderr.write(_error_json("interrupted", "KeyboardInterrupt", 130))
        return 130
    finally:
        if workdir is not None:
            # a swap cut short between its two renames put the earlier set back
            if not os.path.lexists(outdir):
                with contextlib.suppress(OSError):
                    (workdir / "old").rename(outdir)
            shutil.rmtree(workdir, ignore_errors=True)

    if run is not None:
        for check in run.manifest["invariant_checks"]:
            status = "pass" if check["passed"] else "FAIL"
            print(f"[{status}] {check['name']}: {check['detail']}")
        print(f"{args.scenario}: wrote {len(run.manifest['outputs'])} files to {outdir}")
    if error:
        sys.stderr.write(_error_json(*error))
        return error[2]
    return 0


if __name__ == "__main__":
    sys.exit(main())
