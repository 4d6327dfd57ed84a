"""Run configuration: INI-style file parsing, validation, defaults.

The config file is a plain sectioned key-value file::

    [model]
    kind = tight_binding   ; or custom_h
    L = 2
    V = 1.0
    J = 1.0
    ; h_file = my_matrix.csv   (custom_h only)

    [baths]
    gamma1 = 0.1
    gammaL = 0.1
    f1 = 1.0
    fL = 0.0

    [state]
    initial = steady       ; or vacuum

    [grid]
    points = 400
    ; t_max = 200.0        (omit for the automatic horizon)

    [tolerances]
    quadrature = 1e-8
    oracle = 1e-8

    [output]
    dir = .

Every section and key is optional; omitted values fall back to the
defaults above (the shipped default is the two-site tight-binding chain
driven by a full bath on the left and an empty one on the right).  A
custom Hamiltonian is a CSV file with 2L numbers per row: the real and
imaginary part of each entry, interleaved.
"""

from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .model import ChainSpec, GaussianState, SingleParticleSet, build_tight_binding, vacuum_state


class ConfigError(Exception):
    """Invalid run configuration; message names the offending field."""


#: The config file schema: (section, key) -> (RunConfig attribute, converter).
_KEYS = {
    ("model", "kind"): ("model_kind", str),
    ("model", "L"): ("L", int),
    ("model", "V"): ("V", float),
    ("model", "J"): ("J", float),
    ("model", "h_file"): ("h_file", str),
    ("baths", "gamma1"): ("gamma1", float),
    ("baths", "gammaL"): ("gammaL", float),
    ("baths", "f1"): ("f1", float),
    ("baths", "fL"): ("fL", float),
    ("state", "initial"): ("initial_state", str),
    ("grid", "points"): ("points", int),
    ("grid", "t_max"): ("t_max", float),
    ("tolerances", "quadrature"): ("tol_quadrature", float),
    ("tolerances", "oracle"): ("tol_oracle", float),
    ("output", "dir"): ("out_dir", str),
}
_SECTIONS = {section for section, _ in _KEYS}


@dataclass
class RunConfig:
    model_kind: str = "tight_binding"
    L: int = 2
    V: float = 1.0
    J: float = 1.0
    h_file: str = ""
    gamma1: float = 0.1
    gammaL: float = 0.1
    f1: float = 1.0
    fL: float = 0.0
    initial_state: str = "steady"
    t_max: float | None = None
    points: int = 400
    tol_quadrature: float = 1e-8
    tol_oracle: float = 1e-8
    out_dir: str = "."
    source: str = field(default="<defaults>", compare=False)

    def validate(self):
        if self.model_kind not in ("tight_binding", "custom_h"):
            raise ConfigError(
                f"model.kind: expected 'tight_binding' or 'custom_h', got {self.model_kind!r}"
            )
        if self.model_kind == "custom_h" and not self.h_file:
            raise ConfigError("model.h_file: required when model.kind = custom_h")
        if self.L < 2:
            raise ConfigError(f"model.L: chain needs at least 2 sites, got {self.L}")
        for name, v in (("baths.gamma1", self.gamma1), ("baths.gammaL", self.gammaL)):
            if not 0.0 <= v < math.inf:
                raise ConfigError(f"{name}: must be finite and >= 0, got {v}")
        for name, v in (("baths.f1", self.f1), ("baths.fL", self.fL)):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name}: must lie in [0, 1], got {v}")
        if self.initial_state not in ("steady", "vacuum"):
            raise ConfigError(
                f"state.initial: expected 'steady' or 'vacuum', got {self.initial_state!r}"
            )
        if self.t_max is not None and not 0.0 < self.t_max < math.inf:
            raise ConfigError(f"grid.t_max: must be finite and positive, got {self.t_max}")
        if self.points < 2:
            raise ConfigError(f"grid.points: must be >= 2, got {self.points}")
        for name, v in (
            ("tolerances.quadrature", self.tol_quadrature),
            ("tolerances.oracle", self.tol_oracle),
        ):
            if not 0 < v <= 1e-2:
                raise ConfigError(f"{name}: must lie in (0, 1e-2], got {v}")
        return self

    # -- construction -------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.optionxform = str  # keys are case-sensitive ("L" stays "L")
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        cfg = cls(source=str(path))
        if parser.defaults():  # configparser would copy these keys into every section
            raise ConfigError(f"unknown config section [{parser.default_section}]")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser.options(section):
                if (section, key) not in _KEYS:
                    raise ConfigError(f"unknown key {section}.{key}")
                raw = parser.get(section, key).strip()
                if raw == "":
                    continue
                attr, convert = _KEYS[section, key]
                try:
                    setattr(cfg, attr, convert(raw))
                except ValueError as exc:
                    raise ConfigError(f"{section}.{key}: bad value {raw!r} ({exc})") from exc
        return cfg.validate()

    # -- realization ---------------------------------------------------

    def hamiltonian(self) -> np.ndarray:
        if self.model_kind == "tight_binding":
            return build_tight_binding(self.L, self.V, self.J)
        base = Path(self.source).parent if self.source not in ("", "<defaults>") else Path(".")
        path = Path(self.h_file)
        if not path.is_absolute():
            path = base / path
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty file; checked below
                raw = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
        except (OSError, ValueError) as exc:  # unreadable, not numbers or ragged rows
            raise ConfigError(f"model.h_file: cannot read {path}: {exc}") from None
        if raw.size == 0:
            raise ConfigError(f"model.h_file: no values in {path}")
        if raw.shape[1] != 2 * raw.shape[0]:
            raise ConfigError(
                f"model.h_file: expected {raw.shape[0]} rows of {2 * raw.shape[0]} "
                f"values (real,imag pairs), got shape {raw.shape}"
            )
        return raw[:, 0::2] + 1j * raw[:, 1::2]

    def chain_spec(self) -> ChainSpec:
        h = self.hamiltonian()
        if self.model_kind == "custom_h" and h.shape[0] != self.L:
            raise ConfigError(
                f"model.L = {self.L} does not match h_file dimension {h.shape[0]}"
            )
        try:
            return ChainSpec(h=h, gamma1=self.gamma1, gammaL=self.gammaL, f1=self.f1, fL=self.fL)
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc

    def initial(self, sp: SingleParticleSet) -> GaussianState:
        """The configured initial state of the chain of ``sp``, a steady one from its W and F."""
        if self.initial_state == "vacuum":
            return vacuum_state(sp.L)
        try:
            return sp.steady_state()
        except ValueError as exc:
            # e.g. a decoupled bath: a config-level problem, not a numerical one
            raise ConfigError(f"state.initial = steady: {exc}") from exc

    def to_dict(self) -> dict:
        """The fully-resolved config, as every output file records it.

        The source path and the output directory are left out: neither
        affects the computed data, and recording them would break
        byte-identity across runs that differ only in where the config lies
        or where results land.
        """
        d = asdict(self)
        d.pop("source")
        d.pop("out_dir")
        return d
