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
from dataclasses import MISSING, dataclass, field, fields
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


def _rule(rule, default=MISSING):
    """A record field and its sign rule, a key of _RULES, which
    `validate_scenario` checks; "any" takes every finite value."""
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class ThermalUnitParams:
    """One dispatchable thermal unit.

    Fuel cost is a*p^2 + b*p + c ($/h), emissions alpha*p^2 + beta*p + gamma
    (ton/h). c_bank is charged for every period the unit sits off, c_fix once
    at shutdown together with c_shut; quota is the unit's free emission
    allowance over the horizon (ton).
    """

    a: float = _rule("> 0")
    b: float = _rule("any")
    c: float = _rule("any")
    p_min: float = _rule("in [0, p_max]")
    p_max: float = _rule("any")
    c_bank: float = _rule(">= 0", 0.0)
    c_fix: float = _rule(">= 0", 0.0)
    c_shut: float = _rule(">= 0", 0.0)
    ramp_down: float | None = _rule(">= 0", None)  # MW per period; None = unbounded
    ramp_up: float | None = _rule(">= 0", None)
    alpha: float = _rule(">= 0", 0.0)
    beta: float = _rule("any", 0.0)
    gamma: float = _rule("any", 0.0)
    quota: float = _rule(">= 0", 0.0)


@dataclass(frozen=True)
class VirtualResourceParams:
    """Aggregated DG or DR cost model: a*p^2 + b*p + c with a > 0."""

    a: float = _rule("> 0")
    b: float = _rule("any")
    c: float = _rule("any")


@dataclass(frozen=True)
class CetParams:
    """Carbon emission trading terms: market price in $/ton."""

    price: float = _rule(">= 0", 0.0)


@dataclass(frozen=True)
class PeriodExogenous:
    """Exogenous data for one period: load, resource caps, reserves (MW)."""

    demand: float = _rule(">= 0")
    dg_max: float = _rule(">= 0", 0.0)
    dr_max: float = _rule(">= 0", 0.0)
    reserve_lo: float = _rule(">= 0", 0.0)
    reserve_hi: float = _rule(">= 0", 0.0)


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

def _as_float(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ScenarioError(f"{where}: must be finite")
    return out


def _as_mapping(value, where, keys, noun="field"):
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    unknown = set(value) - set(keys)
    if unknown:
        raise ScenarioError(f"{where}: unknown {noun}(s) {sorted(unknown)}")
    return value


def _record(cls, raw, where, extra=()):
    """The values of one record as keyword arguments for ``cls``.

    The keys are the dataclass's fields (plus ``extra``), those without a
    default are required, and null stands only where the default is None.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    raw = _as_mapping(raw, where, [*defaults, *extra])
    for key, default in defaults.items():
        if default is MISSING and key not in raw:
            raise ScenarioError(f"{where}.{key}: missing required field")
    return {key: None if value is None and defaults.get(key, MISSING) is None
            else _as_float(value, f"{where}.{key}") for key, value in raw.items()}


def _parse_period(raw, where, default_frac):
    kw = _record(PeriodExogenous, raw, where, extra=("reserve_frac",))
    # Reserves may come as absolute MW or as a fraction of demand; the
    # fractional form is expanded here so downstream code sees MW only.
    if "reserve_frac" in kw:
        if "reserve_lo" in kw or "reserve_hi" in kw:
            raise ScenarioError(f"{where}: reserve_frac excludes reserve_lo/reserve_hi")
        kw["reserve_lo"] = kw["reserve_hi"] = kw.pop("reserve_frac") * kw["demand"]
    elif "reserve_lo" not in kw and "reserve_hi" not in kw and default_frac is not None:
        kw["reserve_lo"] = kw["reserve_hi"] = default_frac * kw["demand"]
    return PeriodExogenous(**kw)


def _load_yaml(text):
    """yaml.safe_load, through libyaml when PyYAML was built with it (about
    7x faster on a bundled fleet). A document libyaml refuses is read
    again by the pure-Python loader, so an error keeps that loader's
    message and line."""
    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError:
        return yaml.load(text, Loader=yaml.SafeLoader)


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
        doc = _load_yaml(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f"line {mark.line + 1}: " if mark is not None else ""
        raise ScenarioError(f"{loc}malformed scenario document: {exc}") from exc
    if doc is None:
        raise ScenarioError("empty scenario document")
    doc = _as_mapping(doc, "document", ("name", "units", "dg", "dr", "cet", "periods",
                                        "initial", "options"), noun="section")

    raw_units = doc.get("units")
    if not isinstance(raw_units, list) or not raw_units:
        raise ScenarioError("units: must contain at least one unit")
    units = tuple(ThermalUnitParams(**_record(ThermalUnitParams, u, f"units[{i}]"))
                  for i, u in enumerate(raw_units))
    n = len(units)

    # only a missing or null section is empty; false, 0 or [] is refused
    options = doc.get("options")
    options = _as_mapping({} if options is None else options, "options",
                          ("eta_max", "ramp_enforced", "reserve_frac"))
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

    cet = CetParams()
    if doc.get("cet") is not None:
        cet = CetParams(**_record(CetParams, doc["cet"], "cet"))

    initial = doc.get("initial")
    initial = _as_mapping({} if initial is None else initial, "initial",
                          ("commitment", "dispatch"))
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

    dg, dr = (VirtualResourceParams(1.0, 0.0, 0.0) if doc.get(key) is None
              else VirtualResourceParams(**_record(VirtualResourceParams, doc[key], key))
              for key in ("dg", "dr"))
    s = Scenario(
        units=units,
        dg=dg,
        dr=dr,
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

# sign rules of record fields, by the name a field's metadata gives:
# (test of the value in its record, message); a field whose default is
# None may also hold None
_RULES = {
    "> 0": (lambda v, rec: v > 0.0, "must be > 0 (strict convexity)"),
    ">= 0": (lambda v, rec: v >= 0.0, "must be ≥ 0"),
    "in [0, p_max]": (lambda v, rec: 0.0 <= v <= rec.p_max, "must satisfy 0 ≤ p_min ≤ p_max"),
    "any": (lambda v, rec: True, ""),
}


def _violations(rec, where):
    """The sign-rule violations of one record, in field order."""
    out = []
    for f in fields(rec):
        v = getattr(rec, f.name)
        test, message = _RULES[f.metadata["rule"]]
        if not (v is None and f.default is None or test(v, rec)):
            out.append(f"{where}.{f.name}: {message}")
    return out


def validate_scenario(s: Scenario) -> list[str]:
    """Return the list of invariant violations (empty when valid)."""
    out = []
    if s.n_units < 1:
        out.append("units: must contain at least one unit")
    for i, u in enumerate(s.units):
        out += _violations(u, f"units[{i}]")
    out += _violations(s.dg, "dg") + _violations(s.dr, "dr") + _violations(s.cet, "cet")
    if not (0.0 < s.eta_max <= 1.0):
        out.append("eta_max: must lie in (0,1]")
    if s.horizon < 1:
        out.append("horizon must be ≥ 1")
    for j, p in enumerate(s.periods):
        out += _violations(p, f"periods[{j}]")
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

# fields written as floats even when integral
_FLOAT_FIELDS = {"a", "b", "c", "alpha", "beta", "gamma", "quota", "reserve_lo", "reserve_hi"}


def _float_repr(x: float):
    # ints stay ints for readability; floats use repr (lossless round-trip)
    if float(x).is_integer() and abs(x) < 1e15:
        return int(x)
    return float(x)


def _row(rec) -> dict:
    """A record's fields in declaration order: a field without a default
    always, any other only when it differs from its default."""
    row = {}
    for f in fields(rec):
        v = getattr(rec, f.name)
        if f.default is MISSING or v != f.default:
            row[f.name] = float(v) if f.name in _FLOAT_FIELDS else _float_repr(v)
    return row


def serialize_scenario(s: Scenario) -> str:
    """Canonical document text; parse(serialize(s)) reproduces s exactly."""
    doc = {}
    if s.name:
        doc["name"] = s.name
    doc["units"] = [_row(u) for u in s.units]
    doc["dg"] = _row(s.dg)
    doc["dr"] = _row(s.dr)
    doc["cet"] = _row(s.cet) or {"price": 0}    # written at the default price too
    doc["periods"] = [_row(p) for p in s.periods]
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
