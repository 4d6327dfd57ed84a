import ctypes
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import fermiwait.cli
import fermiwait.config
import fermiwait.fock
import fermiwait.model
import fermiwait.tracedet
import fermiwait.wtd
from fermiwait.cli import main
from fermiwait.config import ConfigError, RunConfig
from fermiwait.linalg import LinalgError
from fermiwait.model import CHANNEL_ORDER


def write_config(path, body):
    path.write_text(body, encoding="utf-8")
    return str(path)


DEFAULT_CONFIG = """
[model]
kind = tight_binding
L = 2
V = 1.0
J = 1.0

[baths]
gamma1 = 0.1
gammaL = 0.1
f1 = 1.0
fL = 0.0

[state]
initial = steady

[grid]
points = 60
t_max = 30.0
"""


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = RunConfig().validate()
        assert cfg.L == 2 and cfg.initial_state == "steady"

    def test_round_trip_through_file(self, tmp_path):
        path = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        cfg = RunConfig.from_file(path)
        assert cfg.points == 60
        assert cfg.t_max == 30.0

    def test_docstring_example_parses_to_defaults(self, tmp_path):
        # The module docstring's example file is the one listing of the keys
        # for users; it must stay a valid file that spells out the defaults.
        doc = fermiwait.config.__doc__
        example = textwrap.dedent(doc.split("::", 1)[1].split("\nEvery section", 1)[0])
        assert RunConfig.from_file(write_config(tmp_path / "doc.ini", example)) == RunConfig()

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_file("/nonexistent/run.ini")

    def test_field_precise_error(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", "[baths]\nf1 = 1.5\n")
        with pytest.raises(ConfigError, match="baths.f1"):
            RunConfig.from_file(path)

    def test_bad_literal_names_key(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", "[model]\nL = two\n")
        with pytest.raises(ConfigError, match="model.L"):
            RunConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", "[model]\ncolor = red\n")
        with pytest.raises(ConfigError, match="model.color"):
            RunConfig.from_file(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", "[misc]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"\[misc\]"):
            RunConfig.from_file(path)

    def test_default_section_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", "[DEFAULT]\npoints = 50\n\n[grid]\nt_max = 10\n")
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize(
        "key, old, new",
        [
            ("grid.t_max", "t_max = 30.0", "t_max = nan"),
            ("grid.t_max", "t_max = 30.0", "t_max = inf"),
            ("baths.gamma1", "gamma1 = 0.1", "gamma1 = nan"),
            ("baths.gammaL", "gammaL = 0.1", "gammaL = inf"),
        ],
    )
    def test_non_finite_value_exits_one_naming_the_key(self, tmp_path, capsys, key, old, new):
        # t_max = nan used to exit 2 on non-finite matrix entries, and
        # gamma1 = nan from the vacuum on a missing default horizon.
        body = DEFAULT_CONFIG.replace(old, new).replace("initial = steady", "initial = vacuum")
        cfg = write_config(tmp_path / "run.ini", body)
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_file(cfg)
        argv = ["wtd", "--config", cfg, "--from", "1+", "--to", "L-", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, key",
        [
            ("[model]\nkind = ring\n", "model.kind"),
            ("[model]\nkind = custom_h\n", "model.h_file"),
            ("[model]\nL = 1\n", "model.L"),
            ("[state]\ninitial = thermal\n", "state.initial"),
            ("[grid]\npoints = 1\n", "grid.points"),
            ("[tolerances]\nquadrature = 0.1\n", "tolerances.quadrature"),
            ("[tolerances]\noracle = 0\n", "tolerances.oracle"),
            ("[model]\nL 2\n", "[line  2]: 'L 2"),
            ("[model]\nkind = custom_h\nh_file = h.csv\n", "model: h must be Hermitian"),
        ],
        ids=[
            "kind", "custom-without-file", "L", "initial", "points", "quadrature-tol",
            "oracle-tol", "malformed-line", "non-hermitian-h",
        ],
    )
    def test_validation_error_names_the_key(self, tmp_path, body, key):
        (tmp_path / "h.csv").write_text("0.0,0.0,1.0,0.0\n2.0,0.0,0.0,0.0\n")
        path = write_config(tmp_path / "bad.ini", body)
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_file(path).chain_spec()
        assert key in str(exc.value)

    def test_empty_value_keeps_the_default(self, tmp_path):
        path = write_config(tmp_path / "run.ini", "[grid]\npoints =\n\n[model]\nL = 3\n")
        cfg = RunConfig.from_file(path)
        assert cfg.points == RunConfig().points and cfg.L == 3


#: The variables OpenBLAS reads its thread count from.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS"
)


def _fresh_env() -> dict:
    """This session's environment on this checkout's package, with no BLAS thread variable.

    A variable inherited from the session would set the thread count the
    command line has to set itself.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fermiwait.wtd.__file__))
    return env


def _run_python(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter on this checkout's package.

    Returns the lines of its standard output that start with "@", the
    prefix of the lines ``code`` prints for the test, without the prefix.
    """
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=_fresh_env(), capture_output=True, text=True, check=True, timeout=300,
    )
    return [line[1:] for line in out.stdout.splitlines() if line.startswith("@")]


class TestThreadPolicy:
    def test_main_pins_bundled_openblas_to_one_thread(self, tmp_path):
        # A process of its own: this one also maps scipy's OpenBLAS, which
        # the tests use for reference values.
        if not sys.platform.startswith("linux"):
            pytest.skip("reads /proc/self/maps")
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        argv = ["wtd", "--config", cfg, "--from", "1+", "--to", "L-", "--out", str(tmp_path)]
        out = _run_python(f"""
            from fermiwait.cli import main
            from fermiwait.linalg import blas_threads, set_blas_threads
            set_blas_threads(2)
            rc = main({argv!r})
            with open("/proc/self/maps") as fh:
                mapped = sorted({{line.split()[-1] for line in fh if "scipy.libs" in line}})
            print("@" + str(rc), blas_threads(), *mapped)
        """)
        assert out == ["0 1"]


class TestEarlyThreadPin:
    """``import fermiwait.cli`` sets the one-thread policy before numpy loads OpenBLAS."""

    def test_import_alone_starts_openblas_on_one_thread(self):
        # OpenBLAS starts its worker threads when it loads; a later pin
        # leaves them in the process.
        if not sys.platform.startswith("linux"):
            pytest.skip("reads /proc/self/task")
        out = _run_python("""
            import os
            import fermiwait.cli
            from fermiwait.linalg import blas_threads
            print("@" + str(len(os.listdir("/proc/self/task"))), blas_threads())
        """)
        assert out == ["1 1"]

    def test_import_after_numpy_leaves_the_environment_alone(self):
        out = _run_python("""
            import os
            import numpy
            before = dict(os.environ)
            import fermiwait.cli
            print("@" + str(dict(os.environ) == before))
        """)
        assert out == ["True"]


PUBLIC_NAMES = sorted([
    "CHANNEL_ORDER", "ChainSpec", "Channel", "ChannelStats", "FockOracle", "GaussianState",
    "LogDet", "QuadraticFormChain", "QuadratureResult", "SingleParticleSet", "WtdCurve",
    "WtdPoint", "bss_trace", "build_fermions", "build_liouvillian", "build_tight_binding",
    "can_click", "channel_stats", "channels", "default_time_grid", "derive_single_particle",
    "expm", "fock", "integrate_semiinfinite", "jump_frequencies", "linalg", "lyapunov_solve",
    "model", "natd", "stats", "steady_state", "trace_one_insert", "tracedet", "vacuum_state",
    "verify_tracedet", "wtd", "wtd_curve", "wtd_density", "wtd_density_matrix",
])


class TestLazyPackage:
    def test_import_loads_no_numpy_and_every_name_resolves(self):
        out = _run_python("""
            import sys
            import fermiwait
            print("@numpy", "numpy" in sys.modules)
            print("@all", *sorted(fermiwait.__all__))
            star = {}
            exec("from fermiwait import *", star)
            print("@star", *sorted(k for k in star if k != "__builtins__"))
            print("@same", all(star[k] is getattr(fermiwait, k) for k in fermiwait.__all__))
            print("@owned", fermiwait.wtd_curve is fermiwait.wtd.wtd_curve)
        """)
        names = " ".join(PUBLIC_NAMES)
        assert out == ["numpy False", f"all {names}", f"star {names}", "same True", "owned True"]

    def test_unknown_name_is_an_attribute_error(self):
        import fermiwait

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            fermiwait.no_such_name


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_command_line(self, tmp_path):
        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "fermiwait", *argv], env=_fresh_env(),
                capture_output=True, text=True, timeout=300,
            )

        shown = run("--help")
        assert shown.returncode == 0
        assert "{wtd,natd,stats,verify,bench}" in shown.stdout
        done = run("stats", "--out", str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert json.loads((tmp_path / "stats.json").read_text())["order"] == list(CHANNEL_ORDER)


class TestAllocator:
    def test_main_serves_large_arrays_from_the_heap(self, tmp_path):
        # A 1 MiB array is above glibc's default mmap threshold; after main
        # it comes from the heap, so it adds no mmapped block.
        if not hasattr(ctypes.CDLL(None), "mallinfo2"):
            pytest.skip("needs glibc >= 2.33")
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        argv = ["wtd", "--config", cfg, "--from", "1+", "--to", "L-", "--out", str(tmp_path)]
        out = _run_python(f"""
            import ctypes
            import numpy as np
            from fermiwait.cli import main

            class Info(ctypes.Structure):
                _fields_ = [(name, ctypes.c_size_t) for name in (
                    "arena", "ordblks", "smblks", "hblks", "hblkhd",
                    "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

            mallinfo = ctypes.CDLL(None).mallinfo2
            mallinfo.argtypes, mallinfo.restype = [], Info
            rc = main({argv!r})
            before = mallinfo().hblks
            block = np.ones(1 << 20, dtype=np.uint8)
            print("@" + str(rc), mallinfo().hblks - before)
        """)
        assert out == ["0 0"]


#: Modules that every command runs, loaded by ``import fermiwait.cli``.
EVERY_COMMAND = ("argparse", "fermiwait.stats", "fermiwait.wtd", "json")
#: Modules that only some runs use, loaded where they are used, and
#: ``numpy.random``, which no command loads.
DEFERRED = (
    "concurrent.futures", "configparser", "fermiwait.fock", "fermiwait.tracedet", "numpy.random",
)


class TestImportGraph:
    def test_cli_and_every_subcommand_load_no_scipy(self, tmp_path):
        # The package's one LAPACK provider is numpy's bundled OpenBLAS;
        # importing scipy.linalg alone cost about 0.3 s of every start-up.
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        runs = [
            ["wtd", "--from", "1+", "--to", "L-"],
            ["stats"],
            ["natd"],
            ["verify"],
        ]
        out = _run_python(f"""
            import sys
            import fermiwait.cli

            def scipy_modules():
                return [m for m in sys.modules if m.startswith("scipy")]

            print("@import", *scipy_modules())
            for argv in {runs!r}:
                rc = fermiwait.cli.main(argv + ["--config", {cfg!r}, "--out", {str(tmp_path)!r}])
                print("@" + argv[0], rc, *scipy_modules())
        """)
        assert out == ["import", "wtd 0", "stats 0", "natd 0", "verify 0"]

    def test_import_loads_what_every_command_runs_and_nothing_else(self):
        out = _run_python(f"""
            import sys
            import fermiwait.cli
            print("@kept", *[m for m in {EVERY_COMMAND!r} if m in sys.modules])
            print("@deferred", *[m for m in {DEFERRED!r} if m in sys.modules])
        """)
        assert out == ["kept " + " ".join(EVERY_COMMAND), "deferred"]

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["stats"], []),
            (["wtd", "--from", "1+", "--to", "L-", "--config"], ["configparser"]),
            (["verify"], ["fermiwait.fock", "fermiwait.tracedet"]),
        ],
        ids=["stats", "wtd-config", "verify"],
    )
    def test_a_command_loads_only_what_it_uses(self, tmp_path, argv, loaded):
        if argv[-1] == "--config":
            argv = argv + [write_config(tmp_path / "run.ini", DEFAULT_CONFIG)]
        out = _run_python(f"""
            import sys
            import fermiwait.cli
            rc = fermiwait.cli.main({argv + ["--out", str(tmp_path)]!r})
            print("@" + str(rc), *[m for m in {DEFERRED!r} if m in sys.modules])
        """)
        assert out == [" ".join(["0", *loaded])]

    def test_a_pooled_block_build_loads_no_executor(self, tmp_path):
        # The pool runs on threading, which model loads.  Two CPUs in the
        # affinity set start the pool on any host.
        body = DEFAULT_CONFIG.replace("L = 2", f"L = {fermiwait.wtd.POOL_MIN_SITES}")
        cfg = write_config(tmp_path / "run.ini", body)
        argv = ["wtd", "--from", "1+", "--to", "L-", "--config", cfg, "--out", str(tmp_path)]
        out = _run_python(f"""
            import os
            import sys
            import threading

            os.sched_getaffinity = lambda pid: {{0, 1}}
            import fermiwait.cli

            started = []
            start = threading.Thread.start
            threading.Thread.start = lambda thread: started.append(thread) or start(thread)
            rc = fermiwait.cli.main({argv!r})
            print("@" + str(rc), len(started) > 0, *[m for m in {DEFERRED!r} if m in sys.modules])
        """)
        assert out == ["0 True configparser"]

    def test_verify_help_shows_the_oracle_cap_without_the_oracle(self):
        out = _run_python(f"""
            import contextlib
            import io
            import sys
            import fermiwait.cli
            from fermiwait.model import ORACLE_MAX_SITES

            shown = io.StringIO()
            with contextlib.redirect_stdout(shown):
                rc = fermiwait.cli.main(["verify", "--help"])
            cap = f"up to L = {{ORACLE_MAX_SITES}} " in " ".join(shown.getvalue().split())
            print("@" + str(rc), cap, *[m for m in {DEFERRED!r} if m in sys.modules])
        """)
        assert out == ["0 True"]


class TestArguments:
    @pytest.mark.parametrize(
        "argv, code, stream, named",
        [
            (["stats", "--sweep-L", "1"], 1, "err", "--sweep-L"),
            (["bench", "--sizes", "1,50"], 1, "err", "--sizes"),
            (["stats", "--colour"], 1, "err", "--colour"),
            (["--help"], 0, "out", "usage: fermiwait"),
        ],
        ids=["sweep-L", "sizes", "unknown-flag", "help"],
    )
    def test_exit_code_and_message(self, tmp_path, capsys, argv, code, stream, named):
        if argv[0] != "--help":
            argv = argv + ["--out", str(tmp_path)]
        assert main(argv) == code
        assert named in getattr(capsys.readouterr(), stream)
        assert not list(tmp_path.glob("*.json")) and not list(tmp_path.glob("*.csv"))


class TestWtdCommand:
    def test_writes_curve_with_provenance(self, tmp_path):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        rc = main(["wtd", "--config", cfg, "--from", "1+", "--to", "L-", "--out", str(tmp_path)])
        assert rc == 0
        out = tmp_path / "wtd_L-_given_1+.csv"
        lines = out.read_text(encoding="utf-8").splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("gamma1 = 0.1" in c for c in comments)
        header_at = len(comments)
        assert lines[header_at] == "t,density,flag"
        data = lines[header_at + 1 :]
        assert len(data) == 60
        assert float(data[0].split(",")[0]) == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            assert main(["wtd", "--config", cfg, "--from", "1+", "--to", "L-", "--out", str(d)]) == 0
            assert main(["stats", "--config", cfg, "--out", str(d)]) == 0
        for name in ("wtd_L-_given_1+.csv", "stats.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_blocked_channel_gives_zero_column(self, tmp_path):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        rc = main(["wtd", "--config", cfg, "--from", "1+", "--to", "1-", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "wtd_1-_given_1+.csv").read_text().splitlines()
        values = [float(l.split(",")[1]) for l in lines if l and not l.startswith(("#", "t,"))]
        assert all(v == 0.0 for v in values)

    def test_bad_channel_label_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        rc = main(["wtd", "--config", cfg, "--from", "2+", "--to", "L-", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown channel" in capsys.readouterr().err

    def test_custom_hamiltonian_file(self, tmp_path):
        # two-site tight-binding written out as real,imag pairs
        (tmp_path / "h.csv").write_text("-1.0,0.0,-1.0,0.0\n-1.0,0.0,-1.0,0.0\n")
        body = DEFAULT_CONFIG.replace(
            "kind = tight_binding", "kind = custom_h\nh_file = h.csv"
        )
        cfg = write_config(tmp_path / "run.ini", body)
        rc = main(["wtd", "--config", cfg, "--from", "1+", "--to", "L-", "--out", str(tmp_path)])
        assert rc == 0

    def test_malformed_hamiltonian_file(self, tmp_path, capsys):
        (tmp_path / "h.csv").write_text("-1.0,0.0\n-1.0,0.0\n")
        body = DEFAULT_CONFIG.replace(
            "kind = tight_binding", "kind = custom_h\nh_file = h.csv"
        )
        cfg = write_config(tmp_path / "run.ini", body)
        rc = main(["wtd", "--config", cfg, "--from", "1+", "--to", "L-", "--out", str(tmp_path)])
        assert rc == 1
        assert "h_file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "h_file, text",
        [
            ("h.csv", "abc,0.0,-1.0,0.0\n-1.0,0.0,-1.0,0.0\n"),  # not a number
            ("h.csv", "-1.0,0.0,-1.0,0.0\n-1.0,0.0\n"),  # ragged rows
            ("h.csv", ""),  # empty
            (".", None),  # a directory
        ],
        ids=["not-a-number", "ragged", "empty", "directory"],
    )
    def test_unreadable_hamiltonian_file_is_one_validation_error(
        self, tmp_path, capsys, h_file, text
    ):
        if text is not None:
            (tmp_path / h_file).write_text(text)
        body = DEFAULT_CONFIG.replace("kind = tight_binding", f"kind = custom_h\nh_file = {h_file}")
        cfg = write_config(tmp_path / "run.ini", body)
        rc = main(["wtd", "--config", cfg, "--from", "1+", "--to", "L-", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model.h_file: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, data",
        [(".", None), ("run.ini", b"[model]\nL = 2\n\xff\n")],
        ids=["directory", "not-utf8"],
    )
    def test_unreadable_config_file_is_one_validation_error(self, tmp_path, capsys, name, data):
        if data is not None:
            (tmp_path / name).write_bytes(data)
        config = str(tmp_path / name)
        rc = main(["wtd", "--config", config, "--from", "1+", "--to", "L-", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {config}: ")
        assert err.count("\n") == 1


class TestOutputDirectory:
    """--out is made before any computing, and a path that cannot be a directory is refused."""

    @pytest.mark.parametrize(
        "command", [["wtd", "--from", "1+", "--to", "L-"], ["verify"]], ids=["wtd", "verify"]
    )
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_unusable_out_is_refused_before_computing(
        self, tmp_path, capsys, monkeypatch, command, under
    ):
        def unreachable(*args):
            raise AssertionError("setup was reached")

        monkeypatch.setattr(fermiwait.cli, "derive_single_particle", unreachable)
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        assert main([*command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: output.dir: ")

    def test_missing_out_is_made(self, tmp_path):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        out = tmp_path / "a" / "b"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "verify.json").exists() and (out / "verify.txt").exists()


class TestSetupErrors:
    """A failing setup step exits with its own code, the steady state's error first."""

    @pytest.mark.parametrize("failing", ["steady", "propagator", "both"])
    def test_error_surfaces_as_in_serial_order(self, tmp_path, capsys, monkeypatch, failing):
        body = DEFAULT_CONFIG
        if failing != "propagator":
            body = body.replace("gamma1 = 0.1", "gamma1 = 0.0")
        if failing != "steady":

            def broken(g, eig=None):
                raise LinalgError("eigendecomposition failed")

            monkeypatch.setattr(fermiwait.model, "Propagator", broken)
        cfg = write_config(tmp_path / "run.ini", body)
        argv = ["wtd", "--config", cfg, "--from", "1+", "--to", "L-", "--out", str(tmp_path)]
        rc, err = main(argv), capsys.readouterr().err
        if failing == "propagator":
            assert (rc, err) == (2, "numerical failure: eigendecomposition failed\n")
        else:
            assert rc == 1 and "gamma1 > 0" in err


#: Every subcommand, with the arguments that run it on a small chain.
COMMANDS = {
    "wtd": ["wtd", "--from", "1+", "--to", "L-"],
    "natd": ["natd"],
    "stats": ["stats"],
    "verify": ["verify", "--seed", "3"],
    "bench": ["bench", "--sizes", "4,8", "--repeats", "1"],
}


class TestSetupPath:
    """Every subcommand builds one set per chain (``derive_single_particle``), then its state."""

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_one_set_per_chain_and_one_decomposition_per_state(
        self, tmp_path, monkeypatch, command
    ):
        sets, states, decomposed = [], [], []

        def derive(spec, real=fermiwait.model.derive_single_particle):
            sets.append(spec)
            return real(spec)

        for name, module in list(sys.modules.items()):
            if name.startswith("fermiwait") and hasattr(module, "derive_single_particle"):
                monkeypatch.setattr(module, "derive_single_particle", derive)
        for name in ("eigh", "eigvalsh"):

            def decompose(a, *args, real=getattr(np.linalg, name), **kwargs):
                decomposed.append(a)
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, decompose)
        state_class = fermiwait.model.GaussianState

        def post_init(state, real=state_class.__post_init__):
            real(state)
            states.append(state)

        monkeypatch.setattr(state_class, "__post_init__", post_init)
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        assert main(COMMANDS[command] + ["--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(sets) == (2 if command == "bench" else 1)  # bench runs sizes 4 and 8
        # verify also checks the vacuum; bench has one steady state per size
        assert len(states) == (2 if command in ("verify", "bench") else 1)
        assert [sum(a is st.C for a in decomposed) for st in states] == [1] * len(states)

    def test_decoupled_bath_fails_alike_in_every_command(self, tmp_path, capsys, monkeypatch):
        body = DEFAULT_CONFIG.replace("gamma1 = 0.1", "gamma1 = 0.0")
        cfg = write_config(tmp_path / "run.ini", body)
        started = []
        monkeypatch.setattr(fermiwait.fock, "verify_tracedet", lambda **_: started.append("suite"))
        monkeypatch.setattr(fermiwait.fock, "FockOracle", lambda spec: started.append("oracle"))
        errors = []
        for argv in COMMANDS.values():
            assert main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 1
            errors.append(capsys.readouterr().err)
        message = "error: state.initial = steady: steady state requires gamma1 > 0 and gammaL > 0\n"
        assert errors == [message] * len(COMMANDS)
        assert started == []  # verify failed before its tracedet suite and its oracle


class TestNatdCommand:
    def test_writes_curve(self, tmp_path):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        assert main(["natd", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "natd.csv").exists()

    def test_vacuum_initial_state_rejected(self, tmp_path, capsys):
        body = DEFAULT_CONFIG.replace("initial = steady", "initial = vacuum")
        cfg = write_config(tmp_path / "run.ini", body)
        assert main(["natd", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "steady" in capsys.readouterr().err

    def test_decoupled_bath_is_validation_error(self, tmp_path, capsys):
        body = DEFAULT_CONFIG.replace("gamma1 = 0.1", "gamma1 = 0.0")
        cfg = write_config(tmp_path / "run.ini", body)
        assert main(["natd", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "gamma" in capsys.readouterr().err


class TestStatsCommand:
    def test_reference_point_statistics(self, tmp_path):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        assert main(["stats", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "stats.json").read_text())
        for key in (
            "p_kq",
            "p_q",
            "mean",
            "variance",
            "natd_mean",
            "natd_variance",
            "normalization_audit",
            "config",
            "order",
        ):
            assert key in payload
        assert payload["natd_mean"] == pytest.approx(10.025, abs=1e-4)
        audits = payload["normalization_audit"]
        assert audits["1-"] is None and audits["L+"] is None
        assert audits["1+"] == pytest.approx(1.0, abs=1e-6)
        assert payload["p_q"] == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-9)

    def test_vacuum_statistics_have_no_activity_moments(self, tmp_path):
        body = DEFAULT_CONFIG.replace("initial = steady", "initial = vacuum")
        cfg = write_config(tmp_path / "run.ini", body)
        assert main(["stats", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "stats.json").read_text())
        assert payload["natd_mean"] is None

    def test_sweep_writes_one_file_per_size(self, tmp_path):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        rc = main(["stats", "--config", cfg, "--out", str(tmp_path), "--sweep-L", "2,3"])
        assert rc == 0
        assert (tmp_path / "stats_L2.json").exists()
        assert (tmp_path / "stats_L3.json").exists()

    def test_malformed_sweep_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        rc = main(["stats", "--config", cfg, "--out", str(tmp_path), "--sweep-L", "2,x"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--sweep-L" in err and "'2,x'" in err
        assert not list(tmp_path.glob("stats*.json"))

    def test_sweep_keeps_relative_hamiltonian_file(self, tmp_path, monkeypatch):
        # h_file is resolved against the config file's directory, also
        # for the per-size configs of a sweep.
        (tmp_path / "h.csv").write_text("-1.0,0.0,-1.0,0.0\n-1.0,0.0,-1.0,0.0\n")
        body = DEFAULT_CONFIG.replace("kind = tight_binding", "kind = custom_h\nh_file = h.csv")
        cfg = write_config(tmp_path / "run.ini", body)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        rc = main(["stats", "--config", cfg, "--out", str(tmp_path), "--sweep-L", "2"])
        assert rc == 0
        plain = json.loads((tmp_path / "stats_L2.json").read_text())
        assert main(["stats", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "stats.json").read_text()) == plain

    def test_audit_failure_exits_nonzero(self, tmp_path, monkeypatch):
        import fermiwait.cli as cli

        def broken(state, sp, tol=1e-8):
            table = real_stats(state, sp, tol)
            table.p_kq[:, 1] *= 0.9  # lose 10% of the 1+ column
            table.moments[0][:, 1] *= 0.9
            return table

        real_stats = cli.statsmod.channel_stats
        monkeypatch.setattr(cli.statsmod, "channel_stats", broken)
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        assert main(["stats", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert (
            main(["stats", "--config", cfg, "--out", str(tmp_path), "--audit-warn-only"])
            == 0
        )


VERIFY_ENTRY_NAMES = [
    "bare_trace_1_factors",
    "bare_trace_2_factors",
    "bare_trace_3_factors",
    "bare_trace_4_factors",
    "one_insertion",
    "two_insertion_adjacent",
    "two_insertion_split_mp",
    "two_insertion_split_pp",
    "two_insertion_split_mm",
    "two_insertion_split_pm",
    "alpha_independence",
    "conjugation_identity",
    "sylvester_lemma",
    "sherman_morrison_lemma",
    "steady_covariance",
    "wtd_equivalence_steady",
    "wtd_equivalence_vacuum",
    "normalization_steady",
    "normalization_vacuum",
]


class TestVerifyCommand:
    def test_default_chain_passes(self, tmp_path):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        rc = main(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "3"])
        assert rc == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["passed"] is True
        assert [e["name"] for e in payload["entries"]] == VERIFY_ENTRY_NAMES
        assert (tmp_path / "verify.txt").exists()
        assert payload["oracle"] == {
            "sector_dimension": 6,
            "propagator_dimension": 4,
            "propagator": "eig",
        }
        assert set(payload["quadrature"]) == {"steady", "vacuum"}
        for quad in payload["quadrature"].values():
            assert quad["evaluations"] > 0
            assert quad["truncation_tail_bound"] < 1e-10
            assert quad["t_cut"] > 0.0
        first = (tmp_path / "verify.json").read_bytes()
        assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "3"]) == 0
        assert (tmp_path / "verify.json").read_bytes() == first

    def test_corrupted_trace_formula_is_caught(self, tmp_path, monkeypatch):
        real = fermiwait.tracedet.trace_two_insert_chain

        def sign_flipped(kind, indices, chain):
            out = real(kind, indices, chain)
            return -out if kind == "split_pm" else out

        monkeypatch.setattr(fermiwait.tracedet, "trace_two_insert_chain", sign_flipped)
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_corrupted_density_is_caught(self, tmp_path, monkeypatch):
        real = fermiwait.wtd.wtd_density_matrix

        def skewed(t, state, sp):
            return 1.001 * real(t, state, sp)

        monkeypatch.setattr(fermiwait.wtd, "wtd_density_matrix", skewed)
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
        entries = json.loads((tmp_path / "verify.json").read_text())["entries"]
        failed = [e["name"] for e in entries if not e["passed"]]
        assert failed == ["wtd_equivalence_steady", "wtd_equivalence_vacuum"]

    def test_nan_density_is_caught(self, tmp_path, monkeypatch):
        real = fermiwait.wtd.wtd_density_matrix

        def nan_for_one_pair(t, state, sp):
            out = real(t, state, sp)
            if state.kind == "steady":
                out[..., CHANNEL_ORDER.index("L-"), CHANNEL_ORDER.index("1+")] = np.nan
            return out

        monkeypatch.setattr(fermiwait.wtd, "wtd_density_matrix", nan_for_one_pair)
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
        entries = json.loads((tmp_path / "verify.json").read_text())["entries"]
        failed = [e["name"] for e in entries if not e["passed"]]
        assert failed == ["wtd_equivalence_steady"]

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()

    def test_oversized_oracle_is_refused(self, tmp_path, capsys):
        body = DEFAULT_CONFIG.replace("L = 2", "L = 5")
        cfg = write_config(tmp_path / "run.ini", body)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "--allow-large-oracle" in capsys.readouterr().err

    def test_flag_caps_the_oracle_at_six_sites(self, tmp_path, capsys):
        body = DEFAULT_CONFIG.replace("L = 2", "L = 7")
        cfg = write_config(tmp_path / "run.ini", body)
        args = ["verify", "--config", cfg, "--out", str(tmp_path), "--allow-large-oracle"]
        assert main(args) == 1
        assert "capped at L = 4 (L = 6 with --allow-large-oracle)" in capsys.readouterr().err


class TestBenchCommand:
    def test_small_sweep_writes_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        rc = main(
            ["bench", "--config", cfg, "--out", str(tmp_path), "--sizes", "4,8", "--repeats", "1"]
        )
        assert rc == 0
        assert "slope over L >= 200: n/a" in capsys.readouterr().out
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#")]
        assert data[0] == "L,seconds_per_point"
        assert len(data) == 3

    @pytest.mark.parametrize("sizes", ["4", "4,4"])
    def test_slope_needs_two_distinct_sizes(self, tmp_path, capsys, sizes):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        argv = ["bench", "--config", cfg, "--out", str(tmp_path), "--sizes", sizes]
        assert main(argv + ["--repeats", "1"]) == 1
        captured = capsys.readouterr()
        assert "--sizes" in captured.err
        assert "ms per density point" not in captured.out

    def test_malformed_sizes_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        argv = ["bench", "--config", cfg, "--out", str(tmp_path), "--sizes", "4,x"]
        assert main(argv + ["--repeats", "1"]) == 1
        captured = capsys.readouterr()
        assert "--sizes" in captured.err and "'4,x'" in captured.err
        assert "ms per density point" not in captured.out

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_is_validation_error(self, tmp_path, capsys, repeats):
        cfg = write_config(tmp_path / "run.ini", DEFAULT_CONFIG)
        argv = ["bench", "--config", cfg, "--out", str(tmp_path), "--sizes", "2,3"]
        assert main(argv + ["--repeats", repeats]) == 1
        captured = capsys.readouterr()
        assert "--repeats" in captured.err
        assert "ms per density point" not in captured.out

    def test_custom_hamiltonian_sizes_must_match(self, tmp_path, capsys):
        # Each size is built from the config, as --sweep-L does, so a size
        # the custom h does not have is refused.
        (tmp_path / "h.csv").write_text("-1.0,0.0,-1.0,0.0\n-1.0,0.0,-1.0,0.0\n")
        body = DEFAULT_CONFIG.replace("kind = tight_binding", "kind = custom_h\nh_file = h.csv")
        cfg = write_config(tmp_path / "run.ini", body)
        argv = ["bench", "--config", cfg, "--out", str(tmp_path), "--repeats", "1"]
        assert main(argv + ["--sizes", "2,3"]) == 1
        assert "does not match h_file dimension" in capsys.readouterr().err
