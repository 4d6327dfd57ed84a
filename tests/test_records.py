"""Committed outputs of five command lines, rerun in process and compared.

``records/`` holds what ``fermiwait stats`` writes at the defaults, from
the vacuum (``stats_vacuum.ini``) and on the strongly coupled 16-site
chain of ``stats_L16.ini``, what ``fermiwait wtd --from 1+ --to L-``
writes on the 200-site chain of ``curve_L200.ini`` and what ``fermiwait
verify --allow-large-oracle --seed 0`` writes on the five-site chain of
``verify_L5.ini``.  Each record is stored as its run's name with the
output's suffix.  Numbers must agree to a relative 1e-12; keys, flags,
strings and counts exactly.  Of a verify entry the name, draws, threshold
and verdict are compared, not its deviation, which is roundoff.  The
configs of ``curve_L200`` and ``verify_L5`` are the benchmark workloads'
own.  A change that is meant to move a number regenerates the records,
from the repository root, with

    PYTHONPATH=src python tests/test_records.py
"""

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest

import fermiwait.wtd
from fermiwait.cli import main
from fermiwait.model import CHANNEL_ORDER

from test_benchmark_contract import _perfbench_module

RECORDS = Path(__file__).resolve().parent / "records"

#: Record name -> (command line, config file in ``records/`` or None, output file).
RUNS = {
    "stats": (["stats"], None, "stats.json"),
    "stats_vacuum": (["stats"], "stats_vacuum.ini", "stats.json"),
    "stats_L16": (["stats"], "stats_L16.ini", "stats.json"),
    "curve_L200": (["wtd", "--from", "1+", "--to", "L-"], "curve_L200.ini", "wtd_L-_given_1+.csv"),
    "verify_L5": (["verify", "--allow-large-oracle", "--seed", "0"], "verify_L5.ini", "verify.json"),
}

RTOL = 1e-12


def record(name: str) -> Path:
    """The committed record of run ``name``."""
    return RECORDS / (name + Path(RUNS[name][2]).suffix)


def run(name: str, out_dir: Path) -> Path:
    """The output file of record ``name``, written into ``out_dir``."""
    argv, config, output = RUNS[name]
    if config is not None:
        argv = argv + ["--config", str(RECORDS / config)]
    assert main(argv + ["--out", str(out_dir)]) == 0
    return out_dir / output


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def load(path: Path):
    """A JSON output with its verify deviations dropped, or a CSV as rows of fields."""
    if path.suffix == ".csv":
        return [[_number(x) for x in line.split(",")] for line in path.read_text().splitlines()]
    data = json.loads(path.read_text())
    for entry in data.get("entries", ()):
        del entry["max_deviation"]
    return data


def differences(got, want, where: str = "") -> list[str]:
    """Where ``got`` departs from ``want``: floats beyond RTOL, anything else at all."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{where}/{i}")]
    if type(got) is float and type(want) is float:
        same = math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", RUNS)
def test_output_matches_the_record(tmp_path, name):
    assert differences(load(run(name, tmp_path)), load(record(name))) == []


@pytest.mark.parametrize("name", ["stats", "curve_L200", "stats_vacuum", "stats_L16"])
def test_one_density_off_by_1e_10_is_caught(tmp_path, monkeypatch, name):
    real = fermiwait.wtd._densities
    k, q = CHANNEL_ORDER.index("L-"), CHANNEL_ORDER.index("1+")

    def skewed(ts, state, sp):
        table, cond = real(ts, state, sp)
        table[:, k, q] *= 1.0 + 1e-10
        return table, cond

    monkeypatch.setattr(fermiwait.wtd, "_densities", skewed)
    assert differences(load(run(name, tmp_path)), load(record(name))) != []


def test_a_changed_flag_is_caught(tmp_path, monkeypatch):
    monkeypatch.setattr(fermiwait.wtd, "COND_THRESHOLD", 0.0)  # every point ill_conditioned
    assert differences(load(run("curve_L200", tmp_path)), load(record("curve_L200"))) != []


def test_the_records_run_the_benchmark_configs():
    # A drift would let a record and the benchmark measure different chains.
    workloads = _perfbench_module("workloads")
    assert (RECORDS / "curve_L200.ini").read_text() == workloads.CURVE_L200_INI
    assert (RECORDS / "verify_L5.ini").read_text() == workloads.VERIFY_L5_INI


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for name in RUNS:
            shutil.copy(run(name, Path(scratch) / name), record(name))
