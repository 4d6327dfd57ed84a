import ctypes
import glob
import os

import numpy as np
import pytest

from fermiwait import linalg
from fermiwait.model import ChainSpec, build_tight_binding, channels, derive_single_particle
from fermiwait.fock import FockOracle


def tight_binding_spec(L, gamma=0.1, f1=1.0, fL=0.0):
    """Tight-binding chain with V = J = 1 and symmetric end couplings."""
    return ChainSpec(
        h=build_tight_binding(L, 1.0, 1.0), gamma1=gamma, gammaL=gamma, f1=f1, fL=fL
    )


def generic_spec(L):
    """All four channel rates nonzero, so every click sequence is admissible."""
    return ChainSpec(
        h=build_tight_binding(L, 1.0, 1.0), gamma1=0.12, gammaL=0.08, f1=0.7, fL=0.3
    )


@pytest.fixture(scope="session")
def sv_spec():
    """Two-site chain at the reference working point: full left bath, empty right."""
    return tight_binding_spec(2)


@pytest.fixture(scope="session")
def sv_sp(sv_spec):
    return derive_single_particle(sv_spec)


@pytest.fixture(scope="session")
def sv_channels(sv_spec):
    return channels(sv_spec)


@pytest.fixture(scope="session")
def sv_oracle(sv_spec):
    return FockOracle(sv_spec)


@pytest.fixture(scope="session")
def oracle_cache():
    """Fock oracles are expensive to build; share them across tests."""
    cache = {}

    def get(spec):
        key = (
            spec.L,
            spec.gamma1,
            spec.gammaL,
            spec.f1,
            spec.fL,
            spec.h.tobytes(),
        )
        if key not in cache:
            cache[key] = FockOracle(spec)
        return cache[key]

    return get


def rel_dev(a, b, floor=1e-4):
    """|a-b| / max(|a|,|b|,floor): <= tol means tol-relative or tol*floor-absolute."""
    return abs(a - b) / max(abs(a), abs(b), floor)


def random_hermitian(rng, L):
    m = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    return 0.5 * (m + m.conj().T)


@pytest.fixture
def one_blas_thread():
    """numpy's OpenBLAS and the one scipy bundles on one thread each, restored after.

    The bitwise comparisons with scipy's wrappers of the bound routines
    need it: OpenBLAS may split a routine's work differently on more than
    one thread, and so round differently.  So does the block pool,
    which starts no thread while numpy's OpenBLAS runs on more than one.
    """
    site = os.path.dirname(os.path.dirname(np.__file__))
    pins = [(linalg.set_blas_threads, linalg.blas_threads())]
    for path in glob.glob(os.path.join(site, "scipy.libs", "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        suffix = "64_" if "64_" in os.path.basename(path) else ""
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        pins.append((put, get()))
    for put, _ in pins:
        put(1)
    yield
    for put, threads in pins:
        put(threads)
