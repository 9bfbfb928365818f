"""Run configuration: flags override a JSON config file, which overrides
defaults; the config file path comes from the QCFLOP_CONFIG environment
variable."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from fractions import Fraction

ENV_VAR = "QCFLOP_CONFIG"


class ConfigError(ValueError):
    """Invalid configuration (maps to the usage exit code)."""


def parse_r_range(value) -> tuple[int, int]:
    """A single r, 'lo..hi', or a pair [lo, hi] of ints, as (lo, hi)."""
    if isinstance(value, (tuple, list)) and len(value) == 2 and all(type(v) is int for v in value):
        lo_i, hi_i = value
    elif type(value) is int:
        lo_i = hi_i = value
    elif isinstance(value, str):
        lo, sep, hi = value.strip().partition("..")
        try:
            lo_i = int(lo)
            hi_i = int(hi) if sep else lo_i
        except ValueError as exc:
            raise ConfigError(f"bad r-range {value!r}") from exc
    else:
        raise ConfigError(f"r-range must be an int, 'lo..hi' or [lo, hi], not {value!r}")
    if lo_i < 1 or hi_i < lo_i:
        raise ConfigError(f"r-range {value!r} must be positive and increasing")
    return (lo_i, hi_i)


def check_sample_point(name: str, re: Fraction, im: Fraction) -> None:
    """Reject, exactly, a sample coordinate re + i im that is zero or not
    inside the unit disk: the quantum ring is semisimple only away from 0,
    and the closed-form eigenvalues are series in small q."""
    if re == 0 and im == 0:
        raise ConfigError(f"{name} must be nonzero (the classical ring is not semisimple)")
    if re * re + im * im >= 1:
        raise ConfigError(f"{name} must be small (inside the unit disk)")


def parse_sample(value: str) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Two complex rationals as 're,im re,im' with rational components, each
    nonzero and inside the unit disk."""
    parts = str(value).split()
    if len(parts) != 2:
        raise ConfigError("sample must be two complex rationals: 're,im re,im'")
    out = []
    for part in parts:
        comps = part.split(",")
        if len(comps) != 2:
            raise ConfigError(f"bad complex rational {part!r}")
        try:
            out.append((Fraction(comps[0]), Fraction(comps[1])))
        except ValueError as exc:
            raise ConfigError(f"bad rational in sample {part!r}") from exc
    for name, (re, im) in zip(("q1", "q2"), out):
        check_sample_point(name, re, im)
    return out[0], out[1]


# the JSON values each field type accepts; r_range is parsed by parse_r_range
_ACCEPTED = {"int": (int,), "float": (int, float), "str": (str,), "str | None": (str, type(None))}


@dataclass
class RunConfig:
    """Every setting, with its default.  The config-file keys and the CLI
    flag destinations are these field names.  Each value must have its
    field's type (an int field takes no bool, a float field takes an int),
    and every ``int`` field must be positive."""
    r_range: tuple[int, int] = (1, 3)
    order: int = 10
    dmax: int = 10
    rmatrix_order: int = 2
    max_m: int = 7
    max_n: int = 6
    sample: str = "3/10,0 7/10,0"
    dim: int = 2
    cutoff: int = 3
    tolerance: float = 1e-9
    gap_tolerance: float = 1e-6
    format: str = "text"
    out: str | None = None

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTED.get(f.type, object)):
                raise ConfigError(f"{f.name} must be {f.type}, not {value!r}")
            if f.type == "int" and value < 1:
                raise ConfigError(f"{f.name} must be positive")
        if self.format not in ("json", "csv", "text"):
            raise ConfigError(f"format must be json, csv or text, not {self.format!r}")
        if not (0 < self.tolerance < 1 and 0 < self.gap_tolerance < 1):
            raise ConfigError("tolerances must lie in (0, 1)")
        parse_sample(self.sample)
        return self

    def rs(self) -> list[int]:
        lo, hi = self.r_range
        return list(range(lo, hi + 1))


DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def load_config(cli_overrides: dict) -> RunConfig:
    """Merge defaults < config file (QCFLOP_CONFIG) < CLI flags."""
    merged = dict(DEFAULTS)
    path = os.environ.get(ENV_VAR)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object")
        unknown = set(data) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(data)
    merged.update({k: v for k, v in cli_overrides.items() if v is not None})
    merged["r_range"] = parse_r_range(merged["r_range"])
    return RunConfig(**merged).validate()
