"""Scenario model: problem data for unit commitment and dispatch runs.

A scenario bundles the thermal unit fleet, the aggregated distributed
generator (DG), the demand-response resource (DR), carbon-trading terms,
per-period exogenous data and the initial state. Documents live in a
small YAML dialect (conventionally ``.ucd`` files); parsing is lossless
at double precision and serialization round-trips exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from importlib import resources

import yaml

from .errors import ScenarioError

__all__ = [
    "ThermalUnitParams",
    "VirtualResourceParams",
    "CetParams",
    "PeriodExogenous",
    "Scenario",
    "parse_scenario",
    "validate_scenario",
    "serialize_scenario",
    "scenario_fingerprint",
    "load_bundled_scenario",
    "BUNDLED_SCENARIOS",
]

BUNDLED_SCENARIOS = (
    "example1_case1",
    "example1_case4",
    "example2_case1",
    "example2_case2",
    "example2_case3",
)


@dataclass(frozen=True)
class ThermalUnitParams:
    """One dispatchable thermal unit.

    Fuel cost is a*p^2 + b*p + c ($/h), emissions alpha*p^2 + beta*p + gamma
    (ton/h). c_bank is charged for every period the unit sits off, c_fix once
    at shutdown together with c_shut; quota is the unit's free emission
    allowance over the horizon (ton).
    """

    a: float
    b: float
    c: float
    p_min: float
    p_max: float
    c_bank: float = 0.0
    c_fix: float = 0.0
    c_shut: float = 0.0
    ramp_down: float | None = None  # MW per period; None = unbounded
    ramp_up: float | None = None
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    quota: float = 0.0


@dataclass(frozen=True)
class VirtualResourceParams:
    """Aggregated DG or DR cost model: a*p^2 + b*p + c with a > 0."""

    a: float
    b: float
    c: float
    role: str = "dg"  # "dg" or "dr"


@dataclass(frozen=True)
class CetParams:
    """Carbon emission trading terms: market price in $/ton."""

    price: float = 0.0


@dataclass(frozen=True)
class PeriodExogenous:
    """Exogenous data for one period: load, resource caps, reserves (MW)."""

    demand: float
    dg_max: float = 0.0
    dr_max: float = 0.0
    reserve_lo: float = 0.0
    reserve_hi: float = 0.0


@dataclass(frozen=True)
class Scenario:
    units: tuple[ThermalUnitParams, ...]
    dg: VirtualResourceParams
    dr: VirtualResourceParams
    cet: CetParams
    eta_max: float
    periods: tuple[PeriodExogenous, ...]
    initial_dispatch: tuple[float, ...]  # length N+2: thermal..., dg, dr
    initial_commitment: tuple[int, ...]
    ramp_enforced: bool = False
    name: str = ""

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def horizon(self) -> int:
        return len(self.periods)

    def period(self, t: int) -> PeriodExogenous:
        """Exogenous data for period t, 1-indexed (t = 1..T)."""
        if not 1 <= t <= len(self.periods):
            raise ScenarioError(f"period t={t} outside horizon 1..{len(self.periods)}")
        return self.periods[t - 1]

    def has_dg(self) -> bool:
        return any(p.dg_max > 0.0 for p in self.periods)

    def has_dr(self) -> bool:
        return any(p.dr_max > 0.0 for p in self.periods)


# ---------------------------------------------------------------------------
# parsing

_UNIT_FIELDS = {
    "a", "b", "c", "p_min", "p_max", "c_bank", "c_fix", "c_shut",
    "ramp_down", "ramp_up", "alpha", "beta", "gamma", "quota",
}
_UNIT_REQUIRED = ("a", "b", "c", "p_min", "p_max")
_PERIOD_FIELDS = {"demand", "dg_max", "dr_max", "reserve_lo", "reserve_hi", "reserve_frac"}


def _as_float(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ScenarioError(f"{where}: must be finite")
    return out


def _as_mapping(value, where):
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    return value


def _parse_unit(raw, where):
    raw = _as_mapping(raw, where)
    unknown = set(raw) - _UNIT_FIELDS
    if unknown:
        raise ScenarioError(f"{where}: unknown field(s) {sorted(unknown)}")
    for key in _UNIT_REQUIRED:
        if key not in raw:
            raise ScenarioError(f"{where}.{key}: missing required field")
    kwargs = {}
    for key, value in raw.items():
        if key in ("ramp_down", "ramp_up") and value is None:
            kwargs[key] = None
        else:
            kwargs[key] = _as_float(value, f"{where}.{key}")
    return ThermalUnitParams(**kwargs)


def _parse_virtual(raw, where, role):
    if raw is None:
        return VirtualResourceParams(a=1.0, b=0.0, c=0.0, role=role)
    raw = _as_mapping(raw, where)
    unknown = set(raw) - {"a", "b", "c"}
    if unknown:
        raise ScenarioError(f"{where}: unknown field(s) {sorted(unknown)}")
    for key in ("a", "b", "c"):
        if key not in raw:
            raise ScenarioError(f"{where}.{key}: missing required field")
    return VirtualResourceParams(
        a=_as_float(raw["a"], f"{where}.a"),
        b=_as_float(raw["b"], f"{where}.b"),
        c=_as_float(raw["c"], f"{where}.c"),
        role=role,
    )


def _parse_period(raw, where, default_frac):
    raw = _as_mapping(raw, where)
    unknown = set(raw) - _PERIOD_FIELDS
    if unknown:
        raise ScenarioError(f"{where}: unknown field(s) {sorted(unknown)}")
    if "demand" not in raw:
        raise ScenarioError(f"{where}.demand: missing required field")
    demand = _as_float(raw["demand"], f"{where}.demand")
    dg_max = _as_float(raw.get("dg_max", 0.0), f"{where}.dg_max")
    dr_max = _as_float(raw.get("dr_max", 0.0), f"{where}.dr_max")
    # Reserves may come as absolute MW or as a fraction of demand; the
    # fractional form is expanded here so downstream code sees MW only.
    if "reserve_frac" in raw:
        if "reserve_lo" in raw or "reserve_hi" in raw:
            raise ScenarioError(f"{where}: reserve_frac excludes reserve_lo/reserve_hi")
        frac = _as_float(raw["reserve_frac"], f"{where}.reserve_frac")
        lo = hi = frac * demand
    else:
        if "reserve_lo" in raw or "reserve_hi" in raw:
            lo = _as_float(raw.get("reserve_lo", 0.0), f"{where}.reserve_lo")
            hi = _as_float(raw.get("reserve_hi", 0.0), f"{where}.reserve_hi")
        elif default_frac is not None:
            lo = hi = default_frac * demand
        else:
            lo = hi = 0.0
    return PeriodExogenous(demand=demand, dg_max=dg_max, dr_max=dr_max,
                           reserve_lo=lo, reserve_hi=hi)


def parse_scenario(source) -> Scenario:
    """Parse a scenario document.

    ``source`` is a path, an open text file, or the document text itself
    (anything containing a newline is treated as text). Raises
    ScenarioError with a field or line location on malformed input, and
    with the violation list when the parsed document fails validation.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        source = str(source)
        if "\n" in source or source.lstrip().startswith(("units:", "{")):
            text = source
        else:
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f"line {mark.line + 1}: " if mark is not None else ""
        raise ScenarioError(f"{loc}malformed scenario document: {exc}") from exc
    if doc is None:
        raise ScenarioError("empty scenario document")
    doc = _as_mapping(doc, "document")

    known = {"name", "units", "dg", "dr", "cet", "periods", "initial", "options"}
    unknown = set(doc) - known
    if unknown:
        raise ScenarioError(f"document: unknown section(s) {sorted(unknown)}")

    raw_units = doc.get("units")
    if not isinstance(raw_units, list) or not raw_units:
        raise ScenarioError("units: must contain at least one unit")
    units = tuple(_parse_unit(u, f"units[{i}]") for i, u in enumerate(raw_units))
    n = len(units)

    options = _as_mapping(doc.get("options", {}) or {}, "options")
    unknown = set(options) - {"eta_max", "ramp_enforced", "reserve_frac"}
    if unknown:
        raise ScenarioError(f"options: unknown field(s) {sorted(unknown)}")
    eta_max = _as_float(options.get("eta_max", 1.0), "options.eta_max")
    ramp_enforced = options.get("ramp_enforced", False)
    if not isinstance(ramp_enforced, bool):
        raise ScenarioError("options.ramp_enforced: expected true or false")
    default_frac = None
    if "reserve_frac" in options:
        default_frac = _as_float(options["reserve_frac"], "options.reserve_frac")

    raw_periods = doc.get("periods")
    if not isinstance(raw_periods, list) or not raw_periods:
        raise ScenarioError("horizon must be ≥ 1")
    periods = tuple(
        _parse_period(p, f"periods[{j}]", default_frac) for j, p in enumerate(raw_periods)
    )

    cet_raw = doc.get("cet")
    if cet_raw is None:
        cet = CetParams(price=0.0)
    else:
        cet_raw = _as_mapping(cet_raw, "cet")
        unknown = set(cet_raw) - {"price"}
        if unknown:
            raise ScenarioError(f"cet: unknown field(s) {sorted(unknown)}")
        cet = CetParams(price=_as_float(cet_raw.get("price", 0.0), "cet.price"))

    initial = _as_mapping(doc.get("initial", {}) or {}, "initial")
    unknown = set(initial) - {"commitment", "dispatch"}
    if unknown:
        raise ScenarioError(f"initial: unknown field(s) {sorted(unknown)}")
    raw_commit = initial.get("commitment")
    if not isinstance(raw_commit, list):
        raise ScenarioError("initial.commitment: missing or not a list")
    if len(raw_commit) != n:
        raise ScenarioError("initial.commitment: length must equal unit count")
    commitment = []
    for i, b in enumerate(raw_commit):
        if b not in (0, 1):
            raise ScenarioError(f"initial.commitment[{i}]: must be 0 or 1")
        commitment.append(int(b))
    raw_disp = initial.get("dispatch")
    if not isinstance(raw_disp, list):
        raise ScenarioError("initial.dispatch: missing or not a list")
    if len(raw_disp) == n:
        raw_disp = list(raw_disp) + [0.0, 0.0]
    if len(raw_disp) != n + 2:
        raise ScenarioError(
            f"initial.dispatch: length must be {n} (thermal) or {n + 2} (thermal + dg + dr)"
        )
    dispatch = tuple(_as_float(v, f"initial.dispatch[{i}]") for i, v in enumerate(raw_disp))

    s = Scenario(
        units=units,
        dg=_parse_virtual(doc.get("dg"), "dg", "dg"),
        dr=_parse_virtual(doc.get("dr"), "dr", "dr"),
        cet=cet,
        eta_max=eta_max,
        periods=periods,
        initial_dispatch=dispatch,
        initial_commitment=tuple(commitment),
        ramp_enforced=ramp_enforced,
        name=str(doc.get("name", "")),
    )
    violations = validate_scenario(s)
    if violations:
        raise ScenarioError(
            "invalid scenario: " + "; ".join(violations), violations=violations
        )
    return s


# ---------------------------------------------------------------------------
# validation

def validate_scenario(s: Scenario) -> list[str]:
    """Return the list of invariant violations (empty when valid)."""
    out = []
    if s.n_units < 1:
        out.append("units: must contain at least one unit")
    for i, u in enumerate(s.units):
        w = f"units[{i}]"
        if not u.a > 0.0:
            out.append(f"{w}.a: must be > 0 (strict convexity)")
        if not (0.0 <= u.p_min <= u.p_max):
            out.append(f"{w}.p_min: must satisfy 0 ≤ p_min ≤ p_max")
        for nm in ("ramp_down", "ramp_up"):
            v = getattr(u, nm)
            if v is not None and not v >= 0.0:
                out.append(f"{w}.{nm}: must be ≥ 0")
        for nm in ("c_bank", "c_fix", "c_shut", "quota"):
            if not getattr(u, nm) >= 0.0:
                out.append(f"{w}.{nm}: must be ≥ 0")
        if not u.alpha >= 0.0:
            out.append(f"{w}.alpha: must be ≥ 0")
    for label, vr in (("dg", s.dg), ("dr", s.dr)):
        if not vr.a > 0.0:
            out.append(f"{label}.a: must be > 0 (strict convexity)")
    if not s.cet.price >= 0.0:
        out.append("cet.price: must be ≥ 0")
    if not (0.0 < s.eta_max <= 1.0):
        out.append("eta_max: must lie in (0,1]")
    if s.horizon < 1:
        out.append("horizon must be ≥ 1")
    for j, p in enumerate(s.periods):
        w = f"periods[{j}]"
        for nm in ("demand", "dg_max", "dr_max", "reserve_lo", "reserve_hi"):
            if not getattr(p, nm) >= 0.0:
                out.append(f"{w}.{nm}: must be ≥ 0")
    if len(s.initial_commitment) != s.n_units:
        out.append("initial.commitment: length must equal unit count")
    if any(b not in (0, 1) for b in s.initial_commitment):
        out.append("initial.commitment: entries must be 0 or 1")
    if len(s.initial_dispatch) != s.n_units + 2:
        out.append("initial.dispatch: length must equal unit count + 2")
    for i, v in enumerate(s.initial_dispatch):
        if not (math.isfinite(v) and v >= 0.0):
            out.append(f"initial.dispatch[{i}]: entries must be finite and ≥ 0")
    return out


# ---------------------------------------------------------------------------
# serialization

def _float_repr(x: float):
    # ints stay ints for readability; floats use repr (lossless round-trip)
    if x is None:
        return None
    if float(x).is_integer() and abs(x) < 1e15:
        return int(x)
    return float(x)


def serialize_scenario(s: Scenario) -> str:
    """Canonical document text; parse(serialize(s)) reproduces s exactly."""
    doc = {}
    if s.name:
        doc["name"] = s.name
    doc["units"] = []
    for u in s.units:
        row = {
            "a": float(u.a), "b": float(u.b), "c": float(u.c),
            "p_min": _float_repr(u.p_min), "p_max": _float_repr(u.p_max),
        }
        for nm in ("c_bank", "c_fix", "c_shut"):
            if getattr(u, nm) != 0.0:
                row[nm] = _float_repr(getattr(u, nm))
        for nm in ("ramp_down", "ramp_up"):
            if getattr(u, nm) is not None:
                row[nm] = _float_repr(getattr(u, nm))
        for nm in ("alpha", "beta", "gamma", "quota"):
            if getattr(u, nm) != 0.0:
                row[nm] = float(getattr(u, nm))
        doc["units"].append(row)
    doc["dg"] = {"a": float(s.dg.a), "b": float(s.dg.b), "c": float(s.dg.c)}
    doc["dr"] = {"a": float(s.dr.a), "b": float(s.dr.b), "c": float(s.dr.c)}
    doc["cet"] = {"price": _float_repr(s.cet.price)}
    doc["periods"] = []
    for p in s.periods:
        row = {"demand": _float_repr(p.demand)}
        if p.dg_max != 0.0:
            row["dg_max"] = _float_repr(p.dg_max)
        if p.dr_max != 0.0:
            row["dr_max"] = _float_repr(p.dr_max)
        if p.reserve_lo != 0.0:
            row["reserve_lo"] = float(p.reserve_lo)
        if p.reserve_hi != 0.0:
            row["reserve_hi"] = float(p.reserve_hi)
        doc["periods"].append(row)
    doc["initial"] = {
        "commitment": [int(b) for b in s.initial_commitment],
        "dispatch": [_float_repr(v) for v in s.initial_dispatch],
    }
    doc["options"] = {
        "eta_max": _float_repr(s.eta_max),
        "ramp_enforced": bool(s.ramp_enforced),
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None, width=100)


def scenario_fingerprint(s: Scenario) -> str:
    """Content hash of the canonical serialization (sha256 hex)."""
    return hashlib.sha256(serialize_scenario(s).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# bundled scenario documents

def load_bundled_scenario(key: str) -> Scenario:
    name = key if key.endswith(".ucd") else key + ".ucd"
    text = (resources.files("ucdkit") / "scenarios" / name).read_text("utf-8")
    return parse_scenario(text)
