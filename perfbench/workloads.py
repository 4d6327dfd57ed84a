"""The three benchmark workloads: the command line each one runs and its config.

Every workload is one `fermiwait` subcommand, run exactly as a user would
type it.  The configs are written out as INI files next to the outputs so a
run directory is self-describing.  Nothing here imports numpy, so the
process that times the workloads carries no BLAS thread pool of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# 200-site tight-binding chain, full bath on the left, empty bath on the
# right, steady initial state, default horizon t_max = max(20/Gamma, 4L/J) = 800.
# 100 grid points keep one run in the 10-20 s range on a 2-core machine.
CURVE_L200_INI = """\
[model]
kind = tight_binding
L = 200
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
points = 100
"""

# Five sites, every other key at its default: the largest chain the
# brute-force oracle accepts (with --allow-large-oracle).
VERIFY_L5_INI = """\
[model]
L = 5
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # fermiwait arguments before --seed/--config/--out
    config: str | None  # INI text, or None for the shipped defaults
    seeded: bool = False  # whether the benchmark seed is passed as --seed

    def argv(self, config_path: Path | None, out_dir: Path, seed: int) -> list[str]:
        """Arguments for `fermiwait.cli.main`."""
        argv = list(self.command)
        if self.seeded:
            argv += ["--seed", str(seed)]
        if config_path is not None:
            argv += ["--config", str(config_path)]
        return argv + ["--out", str(out_dir)]


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("curve_L200", ("wtd", "--from", "1+", "--to", "L-"), CURVE_L200_INI),
        Workload("stats_L2", ("stats",), None),
        Workload("verify_L5", ("verify", "--allow-large-oracle"), VERIFY_L5_INI, seeded=True),
    )
}


def program_seed(seed: int) -> int:
    """The seed handed to `verify --seed`: any integer, folded into [0, 2^31)."""
    return seed % (2**31)
