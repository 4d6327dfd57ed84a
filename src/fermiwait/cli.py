"""Command-line front end.

Subcommands::

    fermiwait wtd    --from 1+ --to L-   waiting-time density curve -> CSV
    fermiwait natd                       net activity time density  -> CSV
    fermiwait stats                      probabilities and moments  -> JSON
    fermiwait verify                     brute-force verification   -> report
    fermiwait bench                      scaling benchmark          -> CSV

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 audit/verification failure.  Every output file embeds the fully
resolved configuration; with a fixed config, outputs are byte-identical
across runs (verification draws are seeded).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

if "numpy" not in sys.modules:
    # OpenBLAS reads its thread count once, when numpy loads it; a process
    # that has not loaded it yet starts on one thread (see ``main``).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import stats as statsmod
from . import wtd as wtdmod
from .config import ConfigError, RunConfig
from .fock import (
    ORACLE_MAX_SITES,
    FockOracle,
    VerificationReport,
    verify_tracedet,
)
from .linalg import LinalgError, set_blas_threads
from .model import (
    CHANNEL_ORDER,
    ChainSpec,
    can_click,
    channels,
    derive_single_particle,
    occupation_factor,
    vacuum_state,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_AUDIT = 3

AUDIT_TOL = 1e-6
#: Largest chain `verify` runs the oracle on without --allow-large-oracle.
VERIFY_DEFAULT_MAX_SITES = 4


def _load_config(args) -> RunConfig:
    """The run's config, with its output directory made before any computing."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig().validate()
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    try:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path or one of its parents is a file
        raise ConfigError(f"output.dir: {exc}") from None
    return cfg


def _config_comment_lines(cfg: RunConfig) -> list[str]:
    return [f"# {k} = {v}" for k, v in sorted(cfg.to_dict().items())]


def _write_csv(path: Path, cfg: RunConfig, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in _config_comment_lines(cfg):
            fh.write(line + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return None if math.isnan(obj) else float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_sizes(text: str, option: str) -> list[int]:
    """A comma-separated list of chain sizes given to ``option``."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"{option}: expected comma-separated integers, got {text!r}") from None


def _parse_channel(label: str, spec: ChainSpec):
    ch = channels(spec)
    if label not in ch:
        raise ConfigError(
            f"unknown channel {label!r}; expected one of {', '.join(CHANNEL_ORDER)}"
        )
    return ch[label]


# ----------------------------------------------------------------------


def cmd_wtd(args) -> int:
    cfg = _load_config(args)
    spec = cfg.chain_spec()
    k = _parse_channel(args.to, spec)
    q = _parse_channel(getattr(args, "from"), spec)
    sp = derive_single_particle(spec)
    state = cfg.initial(sp)
    grid = wtdmod.default_time_grid(sp, points=cfg.points, t_max=cfg.t_max)
    curve = wtdmod.wtd_curve(k, q, state, sp, grid)
    out = Path(cfg.out_dir) / f"wtd_{k.label}_given_{q.label}.csv"
    _write_csv(
        out,
        cfg,
        "t,density,flag",
        ((p.t, p.value, p.flag) for p in curve.points),
    )
    print(f"wrote {out}")
    return EXIT_OK


def cmd_natd(args) -> int:
    cfg = _load_config(args)
    if cfg.initial_state != "steady":
        raise ConfigError("state.initial: net activity distribution needs 'steady'")
    sp = derive_single_particle(cfg.chain_spec())
    state = cfg.initial(sp)
    grid = wtdmod.default_time_grid(sp, points=cfg.points, t_max=cfg.t_max)
    rows = zip(grid, statsmod.natd(grid, state, sp).tolist())
    out = Path(cfg.out_dir) / "natd.csv"
    _write_csv(out, cfg, "t,density", rows)
    print(f"wrote {out}")
    return EXIT_OK


def _stats_payload(cfg: RunConfig) -> tuple[dict, bool]:
    sp = derive_single_particle(cfg.chain_spec())
    state = cfg.initial(sp)
    tol = cfg.tol_quadrature
    table = statsmod.channel_stats(state, sp, tol)

    audits = table.normalization()
    audits_ok = all(v is None or abs(v - 1.0) <= AUDIT_TOL for v in audits.values())

    if state.kind == "steady":
        natd_mean, natd_var = table.natd_moments()
    else:
        natd_mean = natd_var = None

    payload = {
        "config": cfg.to_dict(),
        "order": list(CHANNEL_ORDER),
        "p_kq": table.p_kq,
        "p_q": table.p_q,
        "mean": table.mean,
        "variance": table.variance,
        "natd_mean": natd_mean,
        "natd_variance": natd_var,
        "normalization_audit": audits,
        "quadrature": _quadrature_record(table.quadrature),
    }
    return payload, audits_ok


def _quadrature_record(quad) -> dict:
    return {
        "evaluations": quad.evaluations,
        "abs_error_estimate": quad.abs_error_estimate,
        "truncation_tail_bound": quad.truncation_tail_bound,
        "t_cut": quad.t_cut,
    }


def cmd_stats(args) -> int:
    cfg = _load_config(args)
    failures = []
    sweep = _parse_sizes(args.sweep_L, "--sweep-L") if args.sweep_L else [None]
    for L in sweep:
        run_cfg = cfg
        suffix = ""
        if L is not None:
            if L < 2:
                raise ConfigError(f"--sweep-L: chain needs at least 2 sites, got {L}")
            run_cfg = dataclasses.replace(cfg, L=L).validate()
            suffix = f"_L{L}"
        payload, audits_ok = _stats_payload(run_cfg)
        out = Path(cfg.out_dir) / f"stats{suffix}.json"
        _write_json(out, payload)
        print(f"wrote {out}")
        if not audits_ok:
            failures.append(out.name)
    if failures:
        msg = f"normalization audit outside 1 +/- {AUDIT_TOL:g} in: {', '.join(failures)}"
        if args.audit_warn_only:
            print("warning:", msg)
            return EXIT_OK
        print("error:", msg, file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


# ----------------------------------------------------------------------


def run_verification(cfg: RunConfig, seed: int) -> tuple[VerificationReport, dict]:
    """Closed-form-vs-brute-force verification for the configured chain.

    Combines the trace-determinant identity suite with a direct
    waiting-time equivalence sweep, the steady-state covariance
    cross-check and normalization audits.  Each comparison is one
    recorded draw of its entry, and a NaN deviation fails the entry.
    Also returns the run's diagnostics: the oracle's sector dimension (of
    its steady-state solve), the dimension and path of its no-click
    propagator, and the quadrature record of each normalization pass.  The
    steady state is built first, so a chain without one fails before any
    check runs.
    """
    spec = cfg.chain_spec()
    sp = derive_single_particle(spec)
    st = dataclasses.replace(cfg, initial_state="steady").initial(sp)
    report = verify_tracedet(seed=seed, draws=20, sizes=(2, 3))
    tol = cfg.tol_oracle
    covariance = report.add("steady_covariance", 1e-8)
    equivalence = {s: report.add(f"wtd_equivalence_{s}", tol) for s in ("steady", "vacuum")}
    normalization = {s: report.add(f"normalization_{s}", AUDIT_TOL) for s in ("steady", "vacuum")}

    oracle = FockOracle(spec)
    ch = sp.channels
    rng = np.random.default_rng(seed)
    gamma_min = min(g for g in (spec.gamma1, spec.gammaL) if g > 0)
    times = rng.uniform(0.0, 20.0 / gamma_min, size=10)
    floor = 1e-12 / tol  # |a-b| <= tol*max(|a|,|b|, floor) == rel tol or 1e-12 abs

    rho_ss = oracle.steady_state()
    covariance.record(np.max(np.abs(st.C - oracle.covariance(rho_ss))))

    states = [("steady", st, rho_ss), ("vacuum", vacuum_state(spec.L), oracle.vacuum_density())]
    for name, state, rho in states:
        entry = equivalence[name]
        stack = wtdmod.wtd_density_matrix(times, state, sp)
        at_one = wtdmod.wtd_density_matrix(1.0, state, sp) if state.kind == "vacuum" else None
        for b, ql in enumerate(CHANNEL_ORDER):
            q = ch[ql]
            if at_one is not None and q.sign == "-":
                for a in range(4):
                    entry.record(abs(float(at_one[a, b])))
                continue
            if not can_click(q, occupation_factor(q, state.boundary_occupations)):
                continue
            for a, kl in enumerate(CHANNEL_ORDER):
                for t, m in zip(times, stack):
                    x = float(m[a, b])
                    y = oracle.wtd(float(t), ch[kl], q, rho)
                    entry.record(abs(x - y) / max(abs(x), abs(y), floor))

    diagnostics = {
        "oracle": {
            "sector_dimension": oracle.parts.full.shape[0],
            "propagator_dimension": oracle.dim,
            "propagator": oracle.propagator.path,
        },
        "quadrature": {},
    }
    for name, state, _ in states:
        table = statsmod.channel_stats(state, sp, cfg.tol_quadrature)
        diagnostics["quadrature"][name] = _quadrature_record(table.quadrature)
        for total in table.normalization().values():
            if total is not None:
                normalization[name].record(abs(total - 1.0))
    return report, diagnostics


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed: expected a non-negative integer, got {args.seed}")
    cfg = _load_config(args)
    if cfg.L > (ORACLE_MAX_SITES if args.allow_large_oracle else VERIFY_DEFAULT_MAX_SITES):
        print(
            f"error: the brute-force oracle is capped at L = {VERIFY_DEFAULT_MAX_SITES} "
            f"(L = {ORACLE_MAX_SITES} with --allow-large-oracle); got L = {cfg.L}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    report, diagnostics = run_verification(cfg, seed=args.seed)
    print(report.to_text())
    out = Path(cfg.out_dir)
    _write_json(
        out / "verify.json", {"config": cfg.to_dict(), **report.to_dict(), **diagnostics}
    )
    with open(out / "verify.txt", "w", encoding="utf-8", newline="\n") as fh:
        for line in _config_comment_lines(cfg):
            fh.write(line + "\n")
        fh.write(report.to_text() + "\n")
    return EXIT_OK if report.passed else EXIT_AUDIT


def _loglog_slope(rows) -> float:
    sizes, seconds = np.log(np.array(rows, dtype=float)).T
    return float(np.polyfit(sizes, seconds, 1)[0])


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    sizes = _parse_sizes(args.sizes, "--sizes")
    if any(s < 2 for s in sizes):
        raise ConfigError("--sizes: all chain sizes must be >= 2")
    if len(set(sizes)) < 2:
        raise ConfigError("--sizes: the scaling slope needs at least two distinct chain sizes")
    if args.repeats < 1:
        raise ConfigError(f"--repeats: expected a positive integer, got {args.repeats}")
    rows = []
    for L in sizes:
        run_cfg = dataclasses.replace(cfg, L=L, initial_state="steady").validate()
        sp = derive_single_particle(run_cfg.chain_spec())
        state = run_cfg.initial(sp)
        k, q = sp.channels["L-"], sp.channels["1+"]
        t_probe = L / 2.0
        wtdmod.wtd_density(t_probe, k, q, state, sp)  # warm up caches/BLAS
        best = math.inf
        for _ in range(args.repeats):
            tic = time.perf_counter()
            wtdmod.wtd_density(t_probe, k, q, state, sp)
            best = min(best, time.perf_counter() - tic)
        rows.append((L, best))
        print(f"L = {L:4d}: {best * 1e3:9.3f} ms per density point")
    slope = _loglog_slope(rows)
    print(f"log-log scaling slope: {slope:.3f} (cubic-with-overhead budget 3.5)")
    large = [r for r in rows if r[0] >= 200]
    if len(large) >= 2:
        print(f"log-log scaling slope over L >= 200: {_loglog_slope(large):.3f}")
    else:
        print("log-log scaling slope over L >= 200: n/a (needs two sizes >= 200)")
    out = Path(cfg.out_dir) / "bench.csv"
    _write_csv(out, cfg, "L,seconds_per_point", rows)
    print(f"wrote {out}")
    if not slope <= 3.5:  # a NaN slope fails too
        print(f"error: scaling slope {slope:.3f} exceeds 3.5 or is not a number", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


# ----------------------------------------------------------------------


#: glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed memory for reuse rather than hand it back.

    The temporaries of one part of a stack of times are about
    ``wtd.STACK_BYTES`` each, near glibc's default thresholds for serving an
    allocation by mmap and for trimming the heap: at those defaults every
    part faults its pages in afresh (1,920 minor faults per 48-time block
    build at L = 64, which then takes 0.25 rather than 0.18 ms a time), and
    pool workers faulting at once contend for the address space.  Up to
    32 MiB per allocation now comes from the heap, and up to 64 MiB of free
    heap is kept.  Does nothing without glibc.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiwait",
        description="Waiting-time statistics for boundary-driven free-fermion chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="INI config file (defaults built in)")
        p.add_argument("--out", metavar="DIR", help="output directory (overrides config)")

    p = sub.add_parser("wtd", help="waiting-time density curve for one channel pair")
    common(p)
    p.add_argument("--from", required=True, metavar="CH", help="conditioning channel (1-,1+,L-,L+)")
    p.add_argument("--to", required=True, metavar="CH", help="observed channel (1-,1+,L-,L+)")
    p.set_defaults(func=cmd_wtd)

    p = sub.add_parser("natd", help="net activity time density curve (steady state)")
    common(p)
    p.set_defaults(func=cmd_natd)

    p = sub.add_parser("stats", help="channel probabilities, moments, audits")
    common(p)
    p.add_argument("--sweep-L", metavar="LIST", help="comma-separated chain sizes, one JSON each")
    p.add_argument(
        "--audit-warn-only",
        action="store_true",
        help="downgrade normalization audit failures to warnings",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="verify closed forms against the brute-force oracle")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for random draws")
    p.add_argument(
        "--allow-large-oracle",
        action="store_true",
        help=(
            f"permit the oracle up to L = {ORACLE_MAX_SITES} "
            "(superoperator dimension C(2L, L))"
        ),
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "bench",
        help=(
            "per-point timing across chain sizes; each size's per-state build "
            "is done in an untimed warm-up call"
        ),
    )
    common(p)
    p.add_argument("--sizes", default="10,50,100,200", metavar="LIST")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    # The package's one parallel phase is its block-build pool (``wtd`` thread
    # policy); BLAS threads under it would only contend for the same cores.
    # Importing this module pinned OpenBLAS before it loaded, unless numpy
    # came first; this call pins it always.
    set_blas_threads(1)
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (LinalgError, statsmod.QuadratureError, wtdmod.WtdNumericsError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
