"""The names the benchmark under ``perfbench/`` reaches into.

The benchmark runs the command line, and beyond it imports a few library
names (``perfbench/checks.py``) and wraps the Fock oracle's methods by name
(``perfbench/tracer.py``).  Deleting or renaming one of them breaks the
benchmark without failing any other test.  The workloads' chain sizes must
also fall on both sides of every size-selected path, so that each is timed.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import fermiwait.model
import fermiwait.wtd
from fermiwait import linalg
from fermiwait.config import RunConfig
from fermiwait.fock import FockOracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def test_model_names_exist():
    for name in ("ChainSpec", "build_tight_binding", "channels", "derive_single_particle", "steady_state"):
        assert callable(getattr(fermiwait.model, name)), name


def test_wtd_density_signature():
    params = list(inspect.signature(fermiwait.wtd.wtd_density).parameters)
    assert params == ["t", "k", "q", "state", "sp"]


def test_traced_oracle_methods_are_the_class_own():
    # The tracer reads ``FockOracle.__dict__[meth]``: an inherited method
    # would raise a KeyError there.
    methods = _perfbench_module("tracer").FOCK_ORACLE_METHODS
    assert len(methods) == 6
    for meth in methods:
        assert callable(FockOracle.__dict__[meth]), meth


def _workload_configs(tmp_path):
    """The RunConfig of every benchmark workload, by name."""
    configs = {}
    for name, workload in _perfbench_module("workloads").WORKLOADS.items():
        config = RunConfig()
        if workload.config is not None:
            path = tmp_path / f"{name}.ini"
            path.write_text(workload.config)
            config = RunConfig.from_file(path)
        configs[name] = config
    return configs


def test_both_sides_of_the_batched_solve_are_benchmarked(tmp_path):
    # cholesky_half_solve takes one path up to BATCHED_SOLVE_MAX_SITES sites
    # and another above; the benchmark must time both.
    sites = {name: config.L for name, config in _workload_configs(tmp_path).items()}
    assert sites == {"curve_L200": 200, "stats_L2": 2, "verify_L5": 5}
    limit = linalg.BATCHED_SOLVE_MAX_SITES
    assert max(sites["stats_L2"], sites["verify_L5"]) <= limit < sites["curve_L200"]


def test_every_workload_sets_up_from_the_eigendecomposition_of_h(tmp_path, monkeypatch):
    # The propagator and the steady state come from eigh(h) and the secular
    # sweeps, with LAPACK's eig and Schur solve as fallbacks; the benchmark
    # must time the first path on every chain, at L = 200, 2 and 5.
    monkeypatch.setattr(fermiwait.model, "lyapunov_solve", None)  # the fallback is not reached
    sites = {}
    for name, config in _workload_configs(tmp_path).items():
        sp = fermiwait.model.derive_single_particle(config.chain_spec())
        assert sp.propagator.path == "given", name
        assert sp.steady_state().kind == "steady"
        sites[name] = sp.L
    assert sites == {"curve_L200": 200, "stats_L2": 2, "verify_L5": 5}
