"""Benchmark of fermiwait: one workload, timed as a user would see it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every round is a fresh interpreter (``harness.py``) that imports the program
from ``src`` and calls ``fermiwait.cli.main`` with the workload's arguments.
The run first samples set-up time with import-only interpreters, then runs
whole rounds until ``--seconds`` have passed (at least one), and only then
checks every round's output files against computations made apart from the
program (``checks.py``).  Each check is one operation: ``attempted`` is
rounds times the workload's fixed number of checks.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over rounds.  ``--trace 1`` first runs one traced round (``tracer.py``),
then untraced rounds as the baseline for the tracing overhead, and reports
the per-layer metrics.  The benchmark sets no thread variable: it measures
the thread policy users get.  The last line of standard output is the
result as one JSON object; outputs stay under ``perfbench/runs/``.
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
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, program_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # the whole run, set-up probes and checks included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Sample:
    rc: int
    wall_s: float
    setup_s: float
    compute_s: float
    to_main_end_s: float  # interpreter start until main returned
    cpu_s: float
    peak_rss_mb: float


def spawn(round_dir: Path, argv: list[str], deadline: float, trace: bool = False) -> Sample:
    """Run harness.py once and measure it from just before it starts."""
    round_dir.mkdir(parents=True, exist_ok=True)
    timing_path = round_dir / "timing.json"
    trace_arg = str(round_dir / "trace.json") if trace else "-"
    cmd = [sys.executable, str(HERE / "harness.py"), str(timing_path), trace_arg, *argv]
    with open(round_dir / "log.txt", "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    try:
        timing = json.loads(timing_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        timing = {}
    imported = timing.get("imported", t1)
    main_start = timing.get("main_start", imported)
    main_end = timing.get("main_end", t1)
    return Sample(
        rc=rc,
        wall_s=t1 - t0,
        setup_s=imported - t0,
        compute_s=main_end - main_start,
        to_main_end_s=main_end - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fermiwait" / "cli.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'fermiwait'} is missing", file=sys.stderr)
        return 2
    declared = declared_metrics()
    workload = WORKLOADS[args.workload]
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = None
    if workload.config is not None:
        config_path = run_dir / "config.ini"
        config_path.write_text(workload.config, encoding="utf-8")

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    # Byte-compiles the program once; users do not pay that on every run.
    warm = spawn(run_dir / "warmup", [], deadline)
    if warm.rc != 0:
        print(f"error: importing fermiwait.cli failed; see {run_dir / 'warmup' / 'log.txt'}", file=sys.stderr)
        return 2

    def one_round(name: str, trace: bool = False) -> tuple[Path, Sample]:
        out = run_dir / name / "out"
        argv = workload.argv(config_path, out, program_seed(args.seed))
        return run_dir / name, spawn(run_dir / name, argv, deadline, trace=trace)

    timed_start = time.monotonic()
    setups = [spawn(run_dir / f"setup{i}", [], deadline).setup_s for i in range(SETUP_PROBES)]
    traced = one_round("traced", trace=True) if args.trace else None
    rounds = []
    while not rounds or time.monotonic() - timed_start < args.seconds:
        rounds.append(one_round(f"round{len(rounds)}"))
        if deadline - time.monotonic() < 1.5 * rounds[-1][1].wall_s + 20.0:
            break

    sys.path.insert(0, str(ROOT / "src"))
    from checks import CHECKERS

    attempted = failed = 0
    checked = rounds + ([traced] if traced else [])
    for round_dir, sample in checked:
        results = CHECKERS[workload.name](round_dir / "out")
        attempted += len(results)
        bad = [c for c in results if not c.ok]
        failed += len(bad)
        for c in bad[:5]:
            print(f"FAILED {round_dir.name} {c.name}: {c.detail}")
        if sample.rc != 0:
            print(f"FAILED {round_dir.name}: exit code {sample.rc}, see {round_dir / 'log.txt'}")

    samples = [s for _, s in rounds]
    for (round_dir, s) in checked:
        print(
            f"{round_dir.name}: rc {s.rc} wall {s.wall_s:.3f} s, setup {s.setup_s:.3f} s, "
            f"compute {s.compute_s:.3f} s, cpu {s.cpu_s:.2f} s, peak rss {s.peak_rss_mb:.1f} MB"
        )
    print("setup probes: " + ", ".join(f"{v:.3f}" for v in setups) + " s")
    seen = {v: os.environ[v] for v in THREAD_VARS if v in os.environ}
    print(f"nproc {os.cpu_count()}, thread variables {seen or 'unset'}, seed {args.seed}")

    median = statistics.median
    if args.trace:
        try:
            trace = json.loads((traced[0] / "trace.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"error: the traced round left no trace ({exc}); see {traced[0] / 'log.txt'}", file=sys.stderr)
            return 2
        env = trace["environment"]
        print("environment: " + ", ".join(f"{k} {v}" for k, v in sorted(env.items())))
        baseline = median([s.to_main_end_s for s in samples])
        values = dict(trace["metrics"])
        values["blas_threads"] = env.get("blas_threads.scipy", 0)
        values["nproc"] = env["nproc"]
        values["cpu_per_wall"] = median([s.cpu_s / s.wall_s for s in samples])
        values["trace.overhead_s"] = traced[1].to_main_end_s - baseline
        values["trace.overhead_share"] = values["trace.overhead_s"] / baseline
        units = declared["per_layer"]
    else:
        values = {
            "wall_s": median([s.wall_s for s in samples]),
            "setup_s": median(setups + [s.setup_s for s in samples]),
            "compute_s": median([s.compute_s for s in samples]),
            "cpu_s": median([s.cpu_s for s in samples]),
            "peak_rss_mb": median([s.peak_rss_mb for s in samples]),
        }
        units = declared["end_to_end"]

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics declared in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    (run_dir / "result.json").write_text(line + "\n", encoding="utf-8")
    print(f"elapsed {time.monotonic() - started:.1f} s")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
