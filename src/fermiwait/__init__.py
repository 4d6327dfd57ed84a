"""Waiting-time statistics for boundary-driven free-fermion chains.

Closed-form waiting-time densities between quantum-jump clicks, channel
probabilities, conditional moments and the net activity time distribution,
all evaluated with L x L single-particle matrices, plus a 2^L brute-force
Fock-space oracle that verifies every formula at small chain sizes.
"""

from .linalg import LogDet, expm, lu_logdet, lyapunov_solve
from .model import (
    CHANNEL_ORDER,
    ChainSpec,
    Channel,
    GaussianState,
    SingleParticleSet,
    build_tight_binding,
    can_click,
    channels,
    derive_single_particle,
    steady_state,
    vacuum_state,
)
from .tracedet import (
    QuadraticFormChain,
    bss_trace,
    trace_one_insert,
)
from .wtd import (
    WtdCurve,
    WtdPoint,
    default_time_grid,
    wtd_curve,
    wtd_density,
    wtd_density_matrix,
)
from .stats import (
    ChannelStats,
    QuadratureResult,
    channel_stats,
    integrate_semiinfinite,
    jump_frequencies,
    natd,
)
from .fock import (
    FockOracle,
    build_fermions,
    build_liouvillian,
    verify_tracedet,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
