"""JSON network configuration: parsing, validation, StarNetwork assembly.

Schema (version 1):

    {
      "schema_version": 1,
      "branches": [
        {"kind": "infinite"|"finite",
         "profile": {"family": "uniform", "inductance": .., "capacitance": ..,
                     "length": ..}                       # or
                    {"family": "exponential_taper", "gamma": .., "length": ..,
                     "slowness": .., "scale": ..}        # or
                    {"family": "sampled_table",
                     "inductance_table_path": "L.csv",
                     "capacitance_table_path": "C.csv"},
         # ... or, bypassing the z-description entirely:
         "direct": {"potential_table_path": "V.csv", "support_end": ..,
                    "A0": .., "A0prime": .., "tau": .., "h": ..}}
      ]
    }

Table paths are resolved relative to the config file.  Potential tables are
two-column (x, V) CSVs with a header and are interpolated with a cubic
spline, zero outside the tabulated range.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigError, StarScatterError
from .line_model import LineProfile, TablePotential, read_table_csv
from .scattering import StarNetwork, network_from_profiles

SCHEMA_VERSION = 1


def _require(obj, key, typ, where):
    if key not in obj:
        raise ConfigError(f"missing required key '{where}.{key}'")
    val = obj[key]
    if typ is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, typ):
        raise ConfigError(
            f"'{where}.{key}' has wrong type (expected {typ.__name__})")
    return val


def _spline_potential(path: Path, where: str):
    try:
        x, v = read_table_csv(path)
    except OSError as exc:
        raise ConfigError(f"'{where}': cannot read {path}: {exc}") from exc
    if x.size < 4:
        raise ConfigError(f"'{where}': potential table needs >= 4 rows")
    if not np.all(np.diff(x) > 0):
        raise ConfigError(f"'{where}': x column must be strictly increasing")
    return TablePotential(CubicSpline(x, v), x[0], x[-1]), float(x[-1])


def _profile_from_spec(spec: dict, kind: str, base: Path,
                       where: str) -> LineProfile:
    family = _require(spec, "family", str, where)
    infinite = kind == "infinite"
    if family == "uniform":
        L = _require(spec, "inductance", float, where)
        C = _require(spec, "capacitance", float, where)
        length = math.inf if infinite else _require(spec, "length", float, where)
        return LineProfile.uniform(L, C, length)
    if family == "exponential_taper":
        if infinite:
            raise ConfigError(
                f"'{where}.family': exponential_taper needs a finite branch")
        return LineProfile.exponential_taper(
            _require(spec, "gamma", float, where),
            _require(spec, "length", float, where),
            slowness=float(spec.get("slowness", 1.0)),
            scale=float(spec.get("scale", 1.0)))
    if family == "sampled_table":
        lp = base / _require(spec, "inductance_table_path", str, where)
        cp = base / _require(spec, "capacitance_table_path", str, where)
        try:
            return LineProfile.sampled_table_from_csv(lp, cp, infinite=infinite)
        except OSError as exc:
            raise ConfigError(f"'{where}': cannot read table: {exc}") from exc
    raise ConfigError(f"'{where}.family': unknown family '{family}'")


def _direct_from_spec(spec: dict, kind: str, base: Path,
                      where: str) -> LineProfile:
    path = base / _require(spec, "potential_table_path", str, where)
    evaluator, table_end = _spline_potential(path, f"{where}.potential_table_path")
    support_end = float(spec.get("support_end", table_end))
    A0 = float(spec.get("A0", 1.0))
    A0prime = float(spec.get("A0prime", 0.0))
    if kind == "finite":
        tau = _require(spec, "tau", float, where)
        h = float(spec.get("h", 0.0))
        return LineProfile.direct(evaluator, support_end, A0, A0prime,
                                  tau=tau, h=h)
    if "tau" in spec or "h" in spec:
        raise ConfigError(
            f"'{where}': tau/h are not allowed on infinite branches")
    return LineProfile.direct(evaluator, support_end, A0, A0prime)


def load_network(path) -> tuple[StarNetwork, dict]:
    """Parse and validate a config file; returns (network, raw document)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"'schema_version': expected {SCHEMA_VERSION}, got {version!r}")
    branches = _require(doc, "branches", list, "$")
    if not branches:
        raise ConfigError("'branches' must not be empty")

    base = path.parent
    pairs = []
    for i, bspec in enumerate(branches):
        where = f"branches[{i}]"
        if not isinstance(bspec, dict):
            raise ConfigError(f"'{where}' must be an object")
        kind = _require(bspec, "kind", str, where)
        if kind not in ("infinite", "finite"):
            raise ConfigError(
                f"'{where}.kind' must be 'infinite' or 'finite'")
        if ("profile" in bspec) == ("direct" in bspec):
            raise ConfigError(
                f"'{where}' needs exactly one of 'profile' or 'direct'")
        try:
            if "profile" in bspec:
                prof = _profile_from_spec(bspec["profile"], kind, base,
                                          f"{where}.profile")
            else:
                prof = _direct_from_spec(bspec["direct"], kind, base,
                                         f"{where}.direct")
        except ConfigError:
            raise
        except StarScatterError as exc:
            raise ConfigError(f"'{where}': {exc}") from exc
        pairs.append((kind, prof))

    try:
        net = network_from_profiles(pairs)
    except StarScatterError as exc:
        raise ConfigError(f"'branches': {exc}") from exc
    return net, doc
