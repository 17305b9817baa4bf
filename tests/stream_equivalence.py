"""Stream-equivalence study of the `spectrum` scenario between two checkouts.

A study, not a test: pytest does not collect this file.  It runs
`spectrum` at seeds 0-199 with 1000 frames from a baseline checkout and
from this one, each in a child process with ``PYTHONPATH`` set to that
checkout's ``src``, and asks whether the two random streams give the same
distribution of the reported estimates.

Declared before the runs:

- estimates: ``squeezed_band_db``, ``antisqueezed_band_db`` and
  ``estimated_loss`` (their values, not their standard errors);
- test: Welch's two-sample t-test of the baseline's against this
  checkout's values, one per estimate;
- level: alpha = 0.01 for the study, Bonferroni over the 3 estimates, so
  each p-value must exceed 0.01 / 3.

Both checkouts draw from the same substreams at the same seed, so their
estimates are positively correlated and the unpaired Welch test is
conservative.  The study therefore also reports a paired t-test of the
per-seed differences at the same level; it is printed, and it fails the
study too.  A seed whose inversion is infeasible has no
``estimated_loss``; such seeds are counted and left out of that
estimate's tests.  Each stream's scenario-check failures are counted.

Usage::

    python tests/stream_equivalence.py --baseline PATH [--seeds 200] [--frames 1000]

Exit code 0 when every test passes at its level, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ESTIMATES = ("squeezed_band_db", "antisqueezed_band_db", "estimated_loss")
ALPHA = 0.01
HERE = Path(__file__).resolve()


def _worker(seeds: int, frames: int) -> None:
    """Run `spectrum` at seeds [0, seeds) in this process; one JSON line per seed."""
    from sqzsim.scenarios import ScenarioConfig, run_scenario

    with tempfile.TemporaryDirectory() as out:
        for seed in range(seeds):
            run = run_scenario(
                ScenarioConfig(scenario="spectrum", seed=seed, n_frames=frames, output_dir=out)
            )
            report = json.loads((Path(out) / "spectrum_report.json").read_text())
            values = {key: None if report[key] is None else report[key][0] for key in ESTIMATES}
            failed = [c["name"] for c in run.manifest["invariant_checks"] if not c["passed"]]
            print(json.dumps({"seed": seed, "values": values, "failed": failed}), flush=True)


def _run(checkout: Path, seeds: int, frames: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    args = [sys.executable, str(HERE), "--worker", "--seeds", str(seeds), "--frames", str(frames)]
    return subprocess.Popen(args, env=env, stdout=subprocess.PIPE, text=True)


def _collect(proc: subprocess.Popen) -> list[dict]:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"a study child exited {proc.returncode}")
    return [json.loads(line) for line in out.splitlines()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="checkout of the baseline stream")
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--frames", type=int, default=1000)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _worker(args.seeds, args.frames)
        return 0
    if args.baseline is None:
        parser.error("--baseline is required")

    from scipy import stats

    procs = {name: _run(path, args.seeds, args.frames)
             for name, path in (("baseline", args.baseline.resolve()), ("change", HERE.parents[1]))}
    rows = {name: _collect(proc) for name, proc in procs.items()}
    level = ALPHA / len(ESTIMATES)
    print(f"spectrum, seeds 0-{args.seeds - 1}, {args.frames} frames; "
          f"each test at p > {ALPHA} / {len(ESTIMATES)} = {level:.4g}")
    passed = True
    for key in ESTIMATES:
        pairs = [(a["values"][key], b["values"][key])
                 for a, b in zip(rows["baseline"], rows["change"], strict=True)]
        old = [a for a, _ in pairs if a is not None]
        new = [b for _, b in pairs if b is not None]
        both = [(a, b) for a, b in pairs if a is not None and b is not None]
        welch = stats.ttest_ind(old, new, equal_var=False).pvalue
        paired = stats.ttest_rel([a for a, _ in both], [b for _, b in both]).pvalue
        passed &= welch > level and paired > level
        print(f"{key}: baseline mean {sum(old) / len(old):+.6f} (n={len(old)}), "
              f"change mean {sum(new) / len(new):+.6f} (n={len(new)}); "
              f"Welch p = {welch:.4f}, paired p = {paired:.4f} (n={len(both)})")
    for name, runs in rows.items():
        counts: dict[str, int] = {}
        for run in runs:
            for check in run["failed"]:
                counts[check] = counts.get(check, 0) + 1
        n_failed = sum(1 for run in runs if run["failed"])
        print(f"{name}: {n_failed} of {len(runs)} seeds fail a scenario check {counts}")
    print("equivalent" if passed else "NOT equivalent", "at the declared level")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
