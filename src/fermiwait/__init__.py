"""Waiting-time statistics for boundary-driven free-fermion chains.

Closed-form waiting-time densities between quantum-jump clicks, channel
probabilities, conditional moments and the net activity time distribution,
all evaluated with L x L single-particle matrices, plus a 2^L brute-force
Fock-space oracle that verifies every formula at small chain sizes.

The library names live in their modules: ``fermiwait.model`` (chains,
channels, states), ``fermiwait.wtd`` (densities), ``fermiwait.stats``
(probabilities, moments, NATD), ``fermiwait.fock`` (the oracle),
``fermiwait.tracedet`` (trace-determinant formulas) and ``fermiwait.linalg``
(the dense kernels).  This module imports none of them and no numpy, so
``import fermiwait.cli`` runs the command line's first lines, which set its
BLAS thread policy, before numpy loads OpenBLAS.  It then loads the modules
every command runs (``linalg``, ``model``, ``config``, ``wtd``, ``stats``,
``json``, ``argparse``) and no others of the package: ``verify`` imports
the oracle (``fock``, ``tracedet``) and a config file ``configparser``
where each is used.  A pooled block build runs on ``threading``, which
``wtd`` loads, and loads nothing more.
"""

__version__ = "0.1.0"
