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
two-column (x, V) CSVs with a header, whose cubic spline (at least 4 rows,
x strictly increasing) is V, zero outside the tabulated range.  Every
number must be a finite JSON number: NaN, Infinity and the booleans are
rejected, as is a missing required key or a value of the wrong type.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, StarScatterError
from . import line_model
from .line_model import LineProfile, read_table_csv
from .scattering import StarNetwork

SCHEMA_VERSION = 1
_JSON_TYPES = {float: "number", str: "string", list: "array", dict: "object"}
_NO_DEFAULT = object()


def _require(obj, key, typ, where, default=_NO_DEFAULT):
    """obj[key] as a typ, or ``default`` when an optional key is absent.

    A number must be a finite JSON number: bools (which Python counts as
    ints) and the NaN and Infinity literals that ``json`` parses are
    rejected.
    """
    if key not in obj:
        if default is _NO_DEFAULT:
            raise ConfigError(f"missing required key '{where}.{key}'")
        return default
    val = obj[key]
    wanted = (int, float) if typ is float else typ
    if not isinstance(val, wanted) or isinstance(val, bool):
        raise ConfigError(f"'{where}.{key}' has wrong type "
                          f"(expected {_JSON_TYPES[typ]})")
    if typ is float:
        try:
            val = float(val)
        except OverflowError:  # an integer literal past the float range
            val = math.inf
        if not math.isfinite(val):
            raise ConfigError(f"'{where}.{key}' must be a finite number")
    return val


def _spline_potential(path: Path, where: str) -> line_model.CubicSpline:
    try:
        x, v = read_table_csv(path)
    except OSError as exc:
        raise ConfigError(f"'{where}': cannot read {path}: {exc}") from exc
    try:  # slopes that overflow are refused, not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            return line_model.CubicSpline(x, v)
    except ValueError as exc:
        raise ConfigError(f"'{where}': {path}: {exc}") from exc


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
            slowness=_require(spec, "slowness", float, where, 1.0),
            scale=_require(spec, "scale", float, where, 1.0))
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
    spline = _spline_potential(path, f"{where}.potential_table_path")
    support_end = _require(spec, "support_end", float, where,
                           float(spline.x[-1]))
    A0 = _require(spec, "A0", float, where, 1.0)
    A0prime = _require(spec, "A0prime", float, where, 0.0)
    if kind == "finite":
        tau = _require(spec, "tau", float, where)
        h = _require(spec, "h", float, where, 0.0)
        return LineProfile.direct(spline, support_end, A0, A0prime,
                                  tau=tau, h=h)
    if "tau" in spec or "h" in spec:
        raise ConfigError(
            f"'{where}': tau/h are not allowed on infinite branches")
    return LineProfile.direct(spline, support_end, A0, A0prime)


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
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(
            f"'schema_version': expected {SCHEMA_VERSION}, got {version!r}")
    branches = _require(doc, "branches", list, "$")
    if not branches:
        raise ConfigError("'branches' must not be empty")

    base = path.parent
    profiles = []
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
                prof = _profile_from_spec(
                    _require(bspec, "profile", dict, where), kind, base,
                    f"{where}.profile")
            else:
                prof = _direct_from_spec(
                    _require(bspec, "direct", dict, where), kind, base,
                    f"{where}.direct")
        except ConfigError:
            raise
        except StarScatterError as exc:
            raise ConfigError(f"'{where}': {exc}") from exc
        profiles.append(prof)

    try:
        net = StarNetwork(profiles)
    except StarScatterError as exc:
        raise ConfigError(f"'branches': {exc}") from exc
    return net, doc
