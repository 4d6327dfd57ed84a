"""Output checks for the benchmark workloads, computed apart from the program.

Each checker reads one workload's output directory and returns a fixed list
of :class:`Check` results: the list's length depends only on the workload,
never on what the program wrote, so a crashed or wrong run fails the same
number of operations every time.

* ``stats_L2``: an independent 16 x 16 Liouvillian of the two-site chain
  (Jordan-Wigner operators, no-click generator L0) gives exact channel
  probabilities and moments from linear solves of L0, with no quadrature.
* ``curve_L200``: Wick's theorem at t = 0 with a covariance from
  ``scipy.linalg.solve_continuous_lyapunov``, the late-time decay rate, the
  left/right mirror symmetry of the chain, and total mass.
* ``verify_L5``: the report says passed, with every identity present.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as sla

ORDER = ("1-", "1+", "L-", "L+")

# The shipped default config (two-site chain) and the curve_L200 chain.
DEFAULT_BATHS = {"V": 1.0, "J": 1.0, "gamma1": 0.1, "gammaL": 0.1, "f1": 1.0, "fL": 0.0}
CURVE_L = 200
CURVE_POINTS = 100
MIRROR_INDICES = (0, 12, 25, 50, 99)

P_TOL = 1e-8  # absolute, channel probabilities
MOMENT_RTOL = 1e-7  # relative, means, variances and NATD moments
SUM_TOL = 1e-6  # column sums, as the program's own audit
WICK_RTOL = 1e-9
MIRROR_RTOL = 1e-9
SLOPE_RTOL = 0.1

VERIFY_IDENTITIES = (
    *(f"bare_trace_{n}_factors" for n in (1, 2, 3, 4)),
    "one_insertion",
    *(f"two_insertion_{k}" for k in ("adjacent", "split_mp", "split_pp", "split_mm", "split_pm")),
    "alpha_independence",
    "conjugation_identity",
    "sylvester_lemma",
    "sherman_morrison_lemma",
    "steady_covariance",
    "wtd_equivalence_steady",
    "wtd_equivalence_vacuum",
    "normalization_steady",
    "normalization_vacuum",
)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "ok", bool(self.ok))


class OutputError(Exception):
    """An output file is missing or unreadable."""


def _close(a, b, rtol: float) -> bool:
    return a is not None and math.isfinite(a) and abs(a - b) <= rtol * max(abs(b), 1.0)


# ----------------------------------------------------------------------
# stats_L2


def _jordan_wigner(L: int) -> list[np.ndarray]:
    a = np.array([[0.0, 1.0], [0.0, 0.0]])  # annihilator on |0>, |1>
    z = np.diag([1.0, -1.0])
    ops = []
    for i in range(L):
        factors = [z] * i + [a] + [np.eye(2)] * (L - i - 1)
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        ops.append(op.astype(complex))
    return ops


def two_site_reference(V, J, gamma1, gammaL, f1, fL) -> dict:
    """Exact channel statistics of the two-site chain from its Liouvillian.

    With row-major vectorisation, A rho B -> kron(A, B^T) vec(rho).  For a
    click in q the post-jump state is rho_q = J_q rho / tr(J_q rho), and
    P(t, k|q) = tr(J_k e^{L0 t} rho_q), so the time integrals of 1, t and
    t^2 times P are -L0^-1, L0^-2 and -2 L0^-3 applied to rho_q.
    """
    c1, c2 = _jordan_wigner(2)
    h = -V * (c1.conj().T @ c1 + c2.conj().T @ c2) - J * (
        c1.conj().T @ c2 + c2.conj().T @ c1
    )
    jump_ops = {
        "1-": math.sqrt(gamma1 * (1 - f1)) * c1,
        "1+": math.sqrt(gamma1 * f1) * c1.conj().T,
        "L-": math.sqrt(gammaL * (1 - fL)) * c2,
        "L+": math.sqrt(gammaL * fL) * c2.conj().T,
    }
    eye = np.eye(4)
    h_eff = h - 0.5j * sum(j.conj().T @ j for j in jump_ops.values())
    l0 = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
    jumps = {k: np.kron(j, j.conj()) for k, j in jump_ops.items()}
    full = l0 + sum(jumps.values())

    trace_row = eye.reshape(-1)
    a = full.copy()
    a[0] = trace_row
    rhs = np.zeros(16, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(a, rhs)

    def tr(v):
        return float(np.real(trace_row @ v))

    weights = np.array([tr(jumps[q] @ rho) for q in ORDER])
    p_q = weights / weights.sum()
    p = np.full((4, 4), np.nan)
    mean = np.full((4, 4), np.nan)
    var = np.full((4, 4), np.nan)
    m1 = np.zeros((4, 4))
    m2 = np.zeros((4, 4))
    for b, q in enumerate(ORDER):
        if weights[b] <= 1e-12:
            continue
        x1 = np.linalg.solve(l0, jumps[q] @ rho / weights[b])
        x2 = np.linalg.solve(l0, x1)
        x3 = np.linalg.solve(l0, x2)
        for a_, k in enumerate(ORDER):
            p[a_, b] = -tr(jumps[k] @ x1)
            m1[a_, b] = tr(jumps[k] @ x2)
            m2[a_, b] = -2.0 * tr(jumps[k] @ x3)
            if p[a_, b] > 1e-12:
                mean[a_, b] = m1[a_, b] / p[a_, b]
                var[a_, b] = m2[a_, b] / p[a_, b] - mean[a_, b] ** 2
    natd_m1 = float(p_q @ m1.sum(axis=0))
    natd_m2 = float(p_q @ m2.sum(axis=0))
    return {
        "p_kq": p,
        "mean": mean,
        "variance": var,
        "p_q": p_q,
        "natd_mean": natd_m1,
        "natd_variance": natd_m2 - natd_m1**2,
    }


def _table(payload, key):
    rows = payload.get(key)
    if not isinstance(rows, list) or len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise OutputError(f"stats.json: {key} is not a 4 x 4 table")
    return rows


def check_stats(out_dir: Path) -> list[Check]:
    ref = two_site_reference(**DEFAULT_BATHS)
    try:
        payload = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
        tables = {key: _table(payload, key) for key in ("p_kq", "mean", "variance")}
        p_q = payload["p_q"]
        natd = (payload["natd_mean"], payload["natd_variance"])
    except (OSError, ValueError, KeyError, TypeError, OutputError) as exc:
        payload = None
        error = f"{type(exc).__name__}: {exc}"

    checks = []
    for key, tol, absolute in (("p_kq", P_TOL, True), ("mean", MOMENT_RTOL, False), ("variance", MOMENT_RTOL, False)):
        for a, k in enumerate(ORDER):
            for b, q in enumerate(ORDER):
                name = f"stats.{key}[{k}|{q}]"
                if payload is None:
                    checks.append(Check(name, False, error))
                    continue
                got, want = tables[key][a][b], ref[key][a, b]
                if math.isnan(want):
                    ok = got is None
                elif absolute:
                    ok = got is not None and abs(got - want) <= tol
                else:
                    ok = _close(got, want, tol)
                checks.append(Check(name, ok, f"got {got}, want {want}"))

    defined = [b for b in range(4) if not math.isnan(ref["p_kq"][0, b])]
    for b in defined:
        name = f"stats.column_sum[{ORDER[b]}]"
        if payload is None:
            checks.append(Check(name, False, error))
            continue
        col = [tables["p_kq"][a][b] for a in range(4)]
        ok = all(v is not None for v in col) and abs(sum(col) - 1.0) <= SUM_TOL
        checks.append(Check(name, ok, f"sum {col}"))

    for b, q in enumerate(ORDER):
        name = f"stats.p_q[{q}]"
        if payload is None:
            checks.append(Check(name, False, error))
            continue
        ok = abs(p_q[b] - ref["p_q"][b]) <= P_TOL
        checks.append(Check(name, ok, f"got {p_q[b]}, want {ref['p_q'][b]}"))

    # Analytic values for f1 = 1, fL = 0, gamma1 = gammaL = gamma.
    gamma, J = DEFAULT_BATHS["gamma1"], DEFAULT_BATHS["J"]
    analytic = [
        ("stats.analytic.natd_mean", ref["natd_mean"], 1.0 / gamma + gamma / (4.0 * J * J)),
        ("stats.analytic.p_q[1+]", ref["p_q"][1], 0.5),
        ("stats.analytic.p_q[L-]", ref["p_q"][2], 0.5),
    ]
    for name, value, want in analytic:
        checks.append(Check(name, _close(value, want, 1e-12), f"reference {value}, analytic {want}"))

    for i, key in enumerate(("natd_mean", "natd_variance")):
        name = f"stats.{key}"
        if payload is None:
            checks.append(Check(name, False, error))
            continue
        checks.append(Check(name, _close(natd[i], ref[key], MOMENT_RTOL), f"got {natd[i]}, want {ref[key]}"))
    return checks


# ----------------------------------------------------------------------
# curve_L200


def read_curve(path: Path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows or rows[0] != ["t", "density", "flag"]:
        raise OutputError(f"{path.name}: missing header t,density,flag")
    body = rows[1:]
    if any(len(r) != 3 for r in body):
        raise OutputError(f"{path.name}: a row does not have three fields")
    t = np.array([float(r[0]) for r in body])
    p = np.array([float(r[1]) for r in body])
    return t, p, [r[2] for r in body]


def _chain(L, V, J, gamma1, gammaL, f1, fL):
    h = np.diag(np.full(L, -V, dtype=complex))
    idx = np.arange(L - 1)
    h[idx, idx + 1] = h[idx + 1, idx] = -J
    gam = np.zeros(L)
    gam[0], gam[-1] = gamma1, gammaL
    w = 1j * h + 0.5 * np.diag(gam)
    f = np.zeros((L, L), dtype=complex)
    f[0, 0], f[-1, -1] = gamma1 * f1, gammaL * fL
    return w, f


def wick_t0(L, V, J, gamma1, gammaL, f1, fL) -> float:
    """P(0, L-|1+) = rate_L- [(1 - C_11) C_LL + |C_L1|^2] / (1 - C_11).

    C solves W C + C W^dag = F, the steady-state covariance
    C_ij = <c_j^dag c_i>.
    """
    w, f = _chain(L, V, J, gamma1, gammaL, f1, fL)
    c = sla.solve_continuous_lyapunov(w, f)
    c11, cll, cl1 = c[0, 0].real, c[-1, -1].real, c[-1, 0]
    rate = gammaL * (1.0 - fL)
    return rate * ((1.0 - c11) * cll + abs(cl1) ** 2) / (1.0 - c11)


def mirror_values(times) -> list[float]:
    """P(t, 1+|L-) from the program's own API, for the mirror-symmetry check."""
    from fermiwait.model import ChainSpec, build_tight_binding, channels, derive_single_particle, steady_state
    from fermiwait.wtd import wtd_density

    b = DEFAULT_BATHS
    spec = ChainSpec(build_tight_binding(CURVE_L, b["V"], b["J"]), b["gamma1"], b["gammaL"], b["f1"], b["fL"])
    sp = derive_single_particle(spec)
    state = steady_state(spec)
    ch = channels(spec)
    return [wtd_density(float(t), ch["1+"], ch["L-"], state, sp) for t in times]


def check_curve(out_dir: Path) -> list[Check]:
    names = [
        "curve.points",
        "curve.finite_nonnegative",
        "curve.flags_empty",
        "curve.wick_t0",
        "curve.late_slope",
        *(f"curve.mirror[{i}]" for i in MIRROR_INDICES),
        "curve.mass",
    ]
    try:
        t, p, flags = read_curve(out_dir / "wtd_L-_given_1+.csv")
        if t.size != CURVE_POINTS:
            raise OutputError(f"{t.size} points, expected {CURVE_POINTS}")
    except (OSError, ValueError, OutputError) as exc:
        return [Check(n, False, f"{type(exc).__name__}: {exc}") for n in names]

    b = DEFAULT_BATHS
    gamma_total = b["gamma1"] * b["f1"] + b["gammaL"] * b["fL"]
    checks = [Check("curve.points", True, f"{t.size} points")]
    finite = bool(np.all(np.isfinite(p)) and np.all(p >= 0.0))
    checks.append(Check("curve.finite_nonnegative", finite, f"min {p.min()}"))
    bad_flags = [f for f in flags if f]
    checks.append(Check("curve.flags_empty", not bad_flags, f"{len(bad_flags)} flagged"))

    want = wick_t0(CURVE_L, **b)
    ok = t[0] == 0.0 and abs(p[0] - want) <= WICK_RTOL * abs(want)
    checks.append(Check("curve.wick_t0", ok, f"got {p[0]}, want {want}"))

    tail = slice(3 * t.size // 4, None)
    if np.all(np.isfinite(p[tail]) & (p[tail] > 0.0)):
        slope = float(np.polyfit(t[tail], np.log(p[tail]), 1)[0])
        ok = abs(slope + gamma_total) <= SLOPE_RTOL * gamma_total
    else:
        slope, ok = float("nan"), False
    checks.append(Check("curve.late_slope", ok, f"slope {slope}, want {-gamma_total}"))

    mirrored = mirror_values(t[list(MIRROR_INDICES)])
    for i, m in zip(MIRROR_INDICES, mirrored):
        ok = abs(p[i] - m) <= MIRROR_RTOL * max(abs(p[i]), abs(m))
        checks.append(Check(f"curve.mirror[{i}]", ok, f"P(L-|1+) {p[i]}, P(1+|L-) {m}"))

    mass = float(np.trapezoid(p, t))
    checks.append(Check("curve.mass", bool(np.all(np.isfinite(p))) and mass <= 1.0, f"trapezoid mass {mass}"))
    return checks


# ----------------------------------------------------------------------
# verify_L5


def check_verify(out_dir: Path) -> list[Check]:
    names = ["verify.passed", *(f"verify.{n}" for n in VERIFY_IDENTITIES)]
    try:
        payload = json.loads((out_dir / "verify.json").read_text(encoding="utf-8"))
        entries = {e["name"]: e for e in payload["entries"]}
        passed = payload["passed"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [Check(n, False, f"{type(exc).__name__}: {exc}") for n in names]

    checks = [Check("verify.passed", passed is True, f"passed = {passed}")]
    for name in VERIFY_IDENTITIES:
        e = entries.get(name)
        if e is None:
            checks.append(Check(f"verify.{name}", False, "missing"))
            continue
        ok = (
            e.get("draws", 0) > 0
            and e.get("max_deviation") is not None
            and e["max_deviation"] <= e["threshold"]
            and e.get("passed") is True
        )
        checks.append(Check(f"verify.{name}", ok, f"draws {e.get('draws')}, dev {e.get('max_deviation')}"))
    return checks


CHECKERS = {"curve_L200": check_curve, "stats_L2": check_stats, "verify_L5": check_verify}
