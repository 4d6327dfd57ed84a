"""The names the benchmark under ``perfbench/`` reaches into.

The benchmark runs the command line, and beyond it imports a few library
names (``perfbench/checks.py``) and wraps the Fock oracle's methods by name
(``perfbench/tracer.py``).  Deleting or renaming one of them breaks the
benchmark without failing any other test.
"""

import importlib.util
import inspect
from pathlib import Path

import fermiwait.model
import fermiwait.wtd
from fermiwait.fock import FockOracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
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
    methods = _tracer_module().FOCK_ORACLE_METHODS
    assert len(methods) == 6
    for meth in methods:
        assert callable(FockOracle.__dict__[meth]), meth
