"""Waiting-time statistics for boundary-driven free-fermion chains.

Closed-form waiting-time densities between quantum-jump clicks, channel
probabilities, conditional moments and the net activity time distribution,
all evaluated with L x L single-particle matrices, plus a 2^L brute-force
Fock-space oracle that verifies every formula at small chain sizes.

Every public name resolves on first access: ``import fermiwait`` loads no
submodule and no numpy, and ``fermiwait.wtd_curve`` imports ``fermiwait.wtd``
then.  So ``import fermiwait.cli`` runs the command line's first lines, which
set its BLAS thread policy, before numpy loads OpenBLAS.  It then loads the
modules every command runs (``linalg``, ``model``, ``config``, ``wtd``,
``stats``, ``json``, ``argparse``) and no others of the package: ``verify``
imports the oracle (``fock``, ``tracedet``), a pooled block build
``concurrent.futures`` and a config file ``configparser`` where each is
used.
"""

import importlib

#: Each submodule and the public names it defines.
_EXPORTS = {
    "linalg": ("LogDet", "expm", "lyapunov_solve"),
    "model": (
        "CHANNEL_ORDER",
        "ChainSpec",
        "Channel",
        "GaussianState",
        "SingleParticleSet",
        "build_tight_binding",
        "can_click",
        "channels",
        "derive_single_particle",
        "steady_state",
        "vacuum_state",
    ),
    "tracedet": ("QuadraticFormChain", "bss_trace", "trace_one_insert"),
    "wtd": (
        "WtdCurve",
        "WtdPoint",
        "default_time_grid",
        "wtd_curve",
        "wtd_density",
        "wtd_density_matrix",
    ),
    "stats": (
        "ChannelStats",
        "QuadratureResult",
        "channel_stats",
        "integrate_semiinfinite",
        "jump_frequencies",
        "natd",
    ),
    "fock": ("FockOracle", "build_fermions", "build_liouvillian", "verify_tracedet"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, *_OWNER]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # binds it here too
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
