"""Shows that the output checks catch a wrong output.

    python3 perfbench/selftest.py

Runs the stats_L2 and curve_L200 workloads once each and checks their real
outputs, which must pass.  Then it checks two corrupted copies: stats.json
with one p_kq entry moved by 1e-5, and the curve with one value made
negative.  Each must be reported as failed operations.  Exits 0 when the
checks behave so, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import ROOT, RUNS, spawn
from workloads import WORKLOADS


def run_once(name: str, base):
    workload = WORKLOADS[name]
    config = None
    if workload.config is not None:
        config = base / f"{name}.ini"
        config.write_text(workload.config, encoding="utf-8")
    out = base / name / "out"
    sample = spawn(base / name, workload.argv(config, out, 0), time.monotonic() + 170.0)
    if sample.rc != 0:
        raise SystemExit(f"{name} exited with {sample.rc}; see {base / name / 'log.txt'}")
    return out


def failures(checker, out_dir) -> list[str]:
    return [f"{c.name}: {c.detail}" for c in checker(out_dir) if not c.ok]


def main() -> int:
    base = RUNS / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    stats_out = run_once("stats_L2", base)
    curve_out = run_once("curve_L200", base)

    sys.path.insert(0, str(ROOT / "src"))
    from checks import check_curve, check_stats

    ok = True
    for label, checker, out in (("stats", check_stats, stats_out), ("curve", check_curve, curve_out)):
        bad = failures(checker, out)
        print(f"{label}, real output: {len(bad)} failed")
        ok &= not bad

    wrong = base / "stats_wrong"
    shutil.copytree(stats_out, wrong)
    payload = json.loads((wrong / "stats.json").read_text(encoding="utf-8"))
    payload["p_kq"][2][1] += 1e-5  # p(L-|1+)
    (wrong / "stats.json").write_text(json.dumps(payload), encoding="utf-8")
    bad = failures(check_stats, wrong)
    print(f"stats, p(L-|1+) + 1e-5: {len(bad)} failed")
    for line in bad:
        print("  " + line)
    ok &= bool(bad)

    wrong = base / "curve_wrong"
    shutil.copytree(curve_out, wrong)
    path = wrong / "wtd_L-_given_1+.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = lines.index("t,density,flag") + 1 + 5  # grid point 5, not a mirror point
    t, value, flag = lines[row].split(",")
    lines[row] = f"{t},{-float(value)},{flag}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bad = failures(check_curve, wrong)
    print(f"curve, one negative value: {len(bad)} failed")
    for line in bad:
        print("  " + line)
    ok &= bool(bad)

    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
