"""Scenario benchmark for sqzsim.

Usage::

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ``src/``.  Each
operation is one ``sqzsim run`` of the workload's scenario in a fresh
process (``child.py``), followed by the correctness checks of
``checks.py`` on its artifacts.  Operations repeat, all at the same seed,
until ``--seconds`` have passed; every operation must leave the same
artifact bytes.

With ``--trace 0`` the run reports the end-to-end metrics as medians over
its operations.  With ``--trace 1`` it alternates untraced and traced
operations and reports per-layer metrics as medians over the traced ones,
the tracing overhead, and the import time of each ``sqzsim`` module from
``python -X importtime``.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch
output goes to ``.bench_runs/`` at the checkout root; the spans of the
last traced operation stay there as ``spans-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# No single operation may run longer than this; a run must end in 180 s.
OP_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    scenario: str
    frames: int
    params: dict

    def cli_args(self, seed: int, out: Path) -> list[str]:
        args = ["run", self.scenario, "--seed", str(seed), "--frames", str(self.frames),
                "--out", str(out)]
        for key, value in self.params.items():
            args += ["--set", f"{key}={value}"]
        return args


# Parameters that define a workload are pinned here even where they equal
# today's scenario defaults, so a changed default cannot change a workload.
WORKLOADS = {
    "spectrum_long": Workload(
        "spectrum", 2000, {"n_samples": 4096, "detector_bandwidth_hz": 2e8}),
    "epr_scan": Workload("epr", 3000, {"scan_halfwidth_s": 6e-8, "detector_bandwidth_hz": 2e8}),
    "waveforms_ideal": Workload("waveforms", 4800, {"detector_bandwidth_hz": 0}),
}


@dataclass
class Op:
    """Outcome of one operation."""

    failed: bool
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    spans: list | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _spawn(cmd: list[str], log_path: Path) -> tuple[float, int, object]:
    """Run ``cmd`` to its end; return its start time, exit code and resource usage."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        # A blocking wait keeps this process off the CPU while the child
        # runs; the timer ends a child that overruns.
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return start, proc.returncode, usage


def _tail(path: Path) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-6:])


def import_times(workdir: Path) -> dict[str, float]:
    """Cumulative import seconds of each ``sqzsim`` module, from ``-X importtime``."""
    log = workdir / "importtime.log"
    _, code, _ = _spawn([sys.executable, "-X", "importtime", "-c", "import sqzsim.cli"], log)
    if code != 0:
        raise RuntimeError(f"importing sqzsim failed:\n{_tail(log)}")
    times = {}
    for line in log.read_text().splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[2].split(".")[0] == "sqzsim":
            module = parts[2].removeprefix("sqzsim.")
            times[f"{module}.import_s"] = int(parts[1]) / 1e6
    return times


def run_op(work: Workload, seed: int, trace: bool, opdir: Path) -> Op:
    opdir.mkdir(parents=True)
    try:
        result_path = opdir / "child.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), str(int(trace)), "--",
               *work.cli_args(seed, opdir)]
        t_spawn, code, usage = _spawn(cmd, opdir / "child.log")
        if code != 0:
            return Op(failed=True, errors=[f"exit code {code}:\n{_tail(opdir / 'child.log')}"])
        result = json.loads(result_path.read_text())
        if Path(result["module_file"]).resolve().parent.parent != SRC:
            raise RuntimeError(f"sqzsim was imported from {result['module_file']}, not {SRC}")
        outdir = opdir / work.scenario
        marks = result["marks"]
        return Op(
            failed=False,
            errors=checks.check_run(outdir),
            digest=checks.artifact_digest(outdir),
            wall_s=marks["done"] - marks["ready"],
            cpu_s=marks["cpu_done"] - marks["cpu_ready"],
            setup_s=marks["ready"] - t_spawn,
            peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
            spans=result["spans"],
        )
    finally:
        shutil.rmtree(opdir, ignore_errors=True)


def _median_of(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    work = WORKLOADS[name]
    rundir = RUNS / f"{name}-seed{seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        imports = [import_times(rundir) for _ in range(3)] if trace else []
        ops: list[Op] = []
        start = time.monotonic()
        k = 0
        while not ops or time.monotonic() - start < seconds:
            for traced in ((False, True) if trace else (False,)):
                op = run_op(work, seed, traced, rundir / f"op{k}")
                k += 1
                ops.append(op)
                if op.failed:
                    print(f"operation {k} failed: {op.errors[0]}", file=sys.stderr)
                else:
                    print(f"operation {k}{' traced' if traced else ''}: wall {op.wall_s:.3f} s, "
                          f"cpu {op.cpu_s:.3f} s, setup {op.setup_s:.3f} s, "
                          f"peak rss {op.peak_rss_mb:.1f} MB", file=sys.stderr)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    good = [op for op in ops if not op.failed]
    if not good:
        raise RuntimeError(f"{name}: all {len(ops)} operations failed")
    errors = sorted({e for op in good for e in op.errors})
    if len({op.digest for op in good}) > 1:
        errors.append("repeated runs at one seed left different artifacts")
    for e in errors:
        print(f"{name}: check failed: {e}", file=sys.stderr)

    plain = [op for op in good if op.spans is None]
    e2e = _median_of([{m["name"]: getattr(op, m["name"]) for m in spec["end_to_end"]}
                      for op in plain])
    if trace:
        traced = [op for op in good if op.spans is not None]
        values = _median_of([spans.layer_metrics(op.spans) for op in traced])
        values["trace.overhead_s"] = values.pop("trace.wall_s") - e2e["wall_s"]
        values |= _median_of(imports)
        (RUNS / f"spans-{name}-seed{seed}.json").write_text(json.dumps(traced[-1].spans))
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": not errors, "attempted": len(ops),
            "failed": len(ops) - len(good), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "sqzsim" / "__init__.py").is_file():
        print(f"no sqzsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        results[name] = res
        prefix = f"{name} " if len(names) > 1 else ""
        for metric, m in res["metrics"].items():
            print(f"{prefix}{metric} = {m['value']:.6g} {m['unit']}")
        print(f"{prefix}attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
