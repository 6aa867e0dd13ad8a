"""Scenario parsing, validation and round-trip serialization."""

import copy
import io
from importlib import resources

import pytest
import yaml

from ucdkit import (
    BUNDLED_SCENARIOS,
    CetParams,
    ScenarioError,
    VirtualResourceParams,
    load_bundled_scenario,
    parse_scenario,
    scenario_fingerprint,
    serialize_scenario,
)

MINIMAL = """\
units:
  - {a: 0.01, b: 1.0, c: 5.0, p_min: 10, p_max: 100}
periods:
  - {demand: 50}
initial:
  commitment: [1]
  dispatch: [50]
"""


def test_minimal_document_parses():
    s = parse_scenario(MINIMAL)
    assert s.n_units == 1
    assert s.horizon == 1
    assert s.initial_dispatch == (50.0, 0.0, 0.0)  # padded with dg, dr
    assert s.eta_max == 1.0
    assert not s.ramp_enforced


def test_parse_accepts_open_file():
    s = parse_scenario(io.StringIO(MINIMAL))
    assert s.n_units == 1


@pytest.mark.parametrize("key", BUNDLED_SCENARIOS)
def test_bundled_round_trip(key):
    s = load_bundled_scenario(key)
    again = parse_scenario(serialize_scenario(s))
    assert again == s
    assert scenario_fingerprint(again) == scenario_fingerprint(s)


def test_fingerprint_distinguishes_cases():
    fps = {scenario_fingerprint(load_bundled_scenario(k)) for k in BUNDLED_SCENARIOS}
    assert len(fps) == len(BUNDLED_SCENARIOS)


# A saved model names its scenario by fingerprint, so a byte of drift in
# the canonical serialization orphans every model saved before it.
BUNDLED_FINGERPRINTS = {
    "example1_case1": "6241cd478dac975ddeb693963318094ed12b6dbdbf08f7132e67882054d0644a",
    "example1_case4": "97ffc994b07fb569d54458e0bb857af6d8ab7f17e1720509626733f28cb9ca8a",
    "example2_case1": "3ee1104b1162b572b218b4f4fa7b257bd25f57ffad163fd49b3198cc4bed896d",
    "example2_case2": "692c5981c8925b45a72e5c774b271684826f8542d5eb365bdad6fc751159f8b6",
    "example2_case3": "9dec825d95f9b9e55f3a5e2cfaa93d2f3e8df581997d4ac5d8b077920bf4d06a",
}


@pytest.mark.parametrize("key", BUNDLED_SCENARIOS)
def test_bundled_fingerprints_are_pinned(key):
    assert scenario_fingerprint(load_bundled_scenario(key)) == BUNDLED_FINGERPRINTS[key]


def _count_serializations(monkeypatch):
    """A list that gets the id of each scenario serialized from now on."""
    from ucdkit import scenario

    real, ids = scenario.serialize_scenario, []
    monkeypatch.setattr(scenario, "serialize_scenario", lambda s: ids.append(id(s)) or real(s))
    return ids


def test_fingerprint_is_computed_once_per_object(monkeypatch):
    import gc
    import weakref

    from ucdkit import scenario

    text = serialize_scenario(load_bundled_scenario("example2_case1"))
    s, twin = parse_scenario(text), parse_scenario(text)
    ids = _count_serializations(monkeypatch)
    want = BUNDLED_FINGERPRINTS["example2_case1"]
    assert scenario_fingerprint(s) == scenario_fingerprint(s) == want
    assert ids == [id(s)]
    assert scenario_fingerprint(twin) == want and ids == [id(s), id(twin)]
    key, ref = id(s), weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None and key not in scenario._FINGERPRINTS
    assert id(twin) in scenario._FINGERPRINTS


def test_load_model_and_simulate_hash_their_scenario_once(tmp_path, monkeypatch, model_e1c1):
    from ucdkit import load_model, save_model, simulate

    path = tmp_path / "m.json"
    save_model(model_e1c1, path)
    s = parse_scenario(serialize_scenario(load_bundled_scenario("example1_case1")))
    ids = _count_serializations(monkeypatch)
    simulate(s, load_model(path, s))
    assert ids == [id(s)]


# Every record type with every optional field set; each case below edits
# one entry (DROP deletes it) and pins the outcome: the exact message of
# a rejected document, the fingerprint of an accepted one.
FULL = {
    "name": "pin",
    "units": [{"a": 0.01, "b": 1.0, "c": 5.0, "p_min": 10, "p_max": 100,
               "c_bank": 2, "ramp_down": 60, "ramp_up": 60, "alpha": 0.001, "quota": 1.5}],
    "dg": {"a": 0.02, "b": 2.0, "c": 0.0},
    "dr": {"a": 0.03, "b": 3.0, "c": 1.0},
    "cet": {"price": 10},
    "periods": [{"demand": 50, "dg_max": 5, "dr_max": 2.5, "reserve_lo": 1, "reserve_hi": 2.5},
                {"demand": 60, "reserve_frac": 0.1}],
    "initial": {"commitment": [1], "dispatch": [50]},
    "options": {"eta_max": 0.5, "ramp_enforced": True, "reserve_frac": 0.05},
}
DROP = object()
NAN = float("nan")


def _edited(path, value):
    doc = copy.deepcopy(FULL)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return yaml.safe_dump(doc, sort_keys=False)


REJECTED = [
    ("units-unknown-key", ("units", 0, "zeta"), 1,
     "units[0]: unknown field(s) ['zeta']"),
    ("dg-unknown-key", ("dg", "zeta"), 1,
     "dg: unknown field(s) ['zeta']"),
    ("dr-unknown-key", ("dr", "zeta"), 1,
     "dr: unknown field(s) ['zeta']"),
    ("cet-unknown-key", ("cet", "zeta"), 1,
     "cet: unknown field(s) ['zeta']"),
    ("periods-unknown-key", ("periods", 0, "zeta"), 1,
     "periods[0]: unknown field(s) ['zeta']"),
    ("options-unknown-key", ("options", "zeta"), 1,
     "options: unknown field(s) ['zeta']"),
    ("initial-unknown-key", ("initial", "zeta"), 1,
     "initial: unknown field(s) ['zeta']"),
    ("document-unknown-section", ("battery",), {"size": 4},
     "document: unknown section(s) ['battery']"),
    ("units-not-a-mapping", ("units", 0), [1],
     "units[0]: expected a mapping"),
    ("dg-not-a-mapping", ("dg",), [1],
     "dg: expected a mapping"),
    ("cet-not-a-mapping", ("cet",), [1],
     "cet: expected a mapping"),
    ("periods-not-a-mapping", ("periods", 0), [1],
     "periods[0]: expected a mapping"),
    ("options-not-a-mapping", ("options",), [1],
     "options: expected a mapping"),
    ("initial-not-a-mapping", ("initial",), [1],
     "initial: expected a mapping"),
    # a falsy value is not a missing section; only null is
    ("options-false", ("options",), False,
     "options: expected a mapping"),
    ("options-zero", ("options",), 0,
     "options: expected a mapping"),
    ("options-empty-list", ("options",), [],
     "options: expected a mapping"),
    ("initial-zero", ("initial",), 0,
     "initial: expected a mapping"),
    ("initial-null", ("initial",), None,
     "initial.commitment: missing or not a list"),
    ("units-missing-a", ("units", 0, "a"), DROP,
     "units[0].a: missing required field"),
    ("units-missing-p_max", ("units", 0, "p_max"), DROP,
     "units[0].p_max: missing required field"),
    ("dg-missing-b", ("dg", "b"), DROP,
     "dg.b: missing required field"),
    ("dr-missing-c", ("dr", "c"), DROP,
     "dr.c: missing required field"),
    ("periods-missing-demand", ("periods", 0, "demand"), DROP,
     "periods[0].demand: missing required field"),
    ("units-non-number", ("units", 0, "b"), "x",
     "units[0].b: expected a number, got 'x'"),
    ("units-quota-non-number", ("units", 0, "quota"), "x",
     "units[0].quota: expected a number, got 'x'"),
    ("dg-non-number", ("dg", "a"), "x",
     "dg.a: expected a number, got 'x'"),
    ("dr-non-number", ("dr", "c"), "x",
     "dr.c: expected a number, got 'x'"),
    ("cet-non-number", ("cet", "price"), "x",
     "cet.price: expected a number, got 'x'"),
    ("periods-non-number", ("periods", 0, "dr_max"), "x",
     "periods[0].dr_max: expected a number, got 'x'"),
    ("periods-reserve_frac-non-number", ("periods", 1, "reserve_frac"), "x",
     "periods[1].reserve_frac: expected a number, got 'x'"),
    ("options-eta_max-non-number", ("options", "eta_max"), "x",
     "options.eta_max: expected a number, got 'x'"),
    ("units-bool", ("units", 0, "b"), True,
     "units[0].b: expected a number, got True"),
    ("units-quota-bool", ("units", 0, "quota"), True,
     "units[0].quota: expected a number, got True"),
    ("dg-bool", ("dg", "a"), True,
     "dg.a: expected a number, got True"),
    ("dr-bool", ("dr", "c"), True,
     "dr.c: expected a number, got True"),
    ("cet-bool", ("cet", "price"), True,
     "cet.price: expected a number, got True"),
    ("periods-bool", ("periods", 0, "dr_max"), True,
     "periods[0].dr_max: expected a number, got True"),
    ("periods-reserve_frac-bool", ("periods", 1, "reserve_frac"), True,
     "periods[1].reserve_frac: expected a number, got True"),
    ("options-eta_max-bool", ("options", "eta_max"), True,
     "options.eta_max: expected a number, got True"),
    ("units-nan", ("units", 0, "b"), NAN,
     "units[0].b: must be finite"),
    ("units-quota-nan", ("units", 0, "quota"), NAN,
     "units[0].quota: must be finite"),
    ("dg-nan", ("dg", "a"), NAN,
     "dg.a: must be finite"),
    ("dr-nan", ("dr", "c"), NAN,
     "dr.c: must be finite"),
    ("cet-nan", ("cet", "price"), NAN,
     "cet.price: must be finite"),
    ("periods-nan", ("periods", 0, "dr_max"), NAN,
     "periods[0].dr_max: must be finite"),
    ("periods-reserve_frac-nan", ("periods", 1, "reserve_frac"), NAN,
     "periods[1].reserve_frac: must be finite"),
    ("options-eta_max-nan", ("options", "eta_max"), NAN,
     "options.eta_max: must be finite"),
    ("units-null-c_bank", ("units", 0, "c_bank"), None,
     "units[0].c_bank: expected a number, got None"),
    ("units-null-a", ("units", 0, "a"), None,
     "units[0].a: expected a number, got None"),
    ("periods-null-dg_max", ("periods", 0, "dg_max"), None,
     "periods[0].dg_max: expected a number, got None"),
    ("cet-null-price", ("cet", "price"), None,
     "cet.price: expected a number, got None"),
    ("periods-reserve_frac-and-lo", ("periods", 1, "reserve_lo"), 1,
     "periods[1]: reserve_frac excludes reserve_lo/reserve_hi"),
    ("units-negative-c_fix", ("units", 0, "c_fix"), -1,
     "invalid scenario: units[0].c_fix: must be ≥ 0"),
    ("dg-nonconvex", ("dg", "a"), 0,
     "invalid scenario: dg.a: must be > 0 (strict convexity)"),
    ("cet-negative-price", ("cet", "price"), -1,
     "invalid scenario: cet.price: must be ≥ 0"),
]

ACCEPTED = [
    ("units-null-ramp_down", ("units", 0, "ramp_down"), None,
     "37f76e16f3019890ce8f1b9a2dd323f41255854a70b34e1a211ec9e0161a3291"),
    ("units-null-ramp_up", ("units", 0, "ramp_up"), None,
     "3c574b079ecf012160b40f917fb4cd9ef7bde644cf85bb83fcdc1ac52b999214"),
    ("units-no-ramps", ("units", 0), {"a": 0.01, "b": 1.0, "c": 5.0, "p_min": 10, "p_max": 100},
     "5b89fd9fe7f55d019ead772f4091e3515a2b34c20444e4e56f477e9467bb0fde"),
    ("cet-empty", ("cet",), {},
     "3eb9b70a4af9683d417d3b5bddf4bc7350578fc7cf86b59243a8ae4d288f345f"),
    ("periods-reserve_hi-only", ("periods", 0, "reserve_lo"), DROP,
     "c73dce5629ea4563cd32b68981859ecba8fc71b59aef3ac2bcb09a400eb57dfc"),
    ("periods-default-frac", ("periods", 0), {"demand": 50},
     "7bcfd9511ad331e8ee0b4b2e11a33ce15548f8e36d897970fcfe858bdf408012"),
    ("options-null", ("options",), None,
     "c86bef565acd3a63673197d70e9d30c4b6c3876cf8e891ee5e6804785770498e"),
]


@pytest.mark.parametrize("path, value, message", [c[1:] for c in REJECTED],
                         ids=[c[0] for c in REJECTED])
def test_one_fault_document_is_rejected(path, value, message):
    with pytest.raises(ScenarioError) as e:
        parse_scenario(_edited(path, value))
    assert str(e.value) == message


@pytest.mark.parametrize("path, value, fingerprint", [c[1:] for c in ACCEPTED],
                         ids=[c[0] for c in ACCEPTED])
def test_one_fault_document_is_accepted(path, value, fingerprint):
    s = parse_scenario(_edited(path, value))
    assert scenario_fingerprint(s) == fingerprint
    assert parse_scenario(serialize_scenario(s)) == s


def _outcome(text):
    """The parsed scenario, or the message it is refused with."""
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        return str(exc)


def test_libyaml_and_pure_python_loaders_agree(monkeypatch):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    docs = ([(resources.files("ucdkit") / "scenarios" / f"{key}.ucd").read_text("utf-8")
             for key in BUNDLED_SCENARIOS]
            + [_edited(path, value) for _, path, value, _ in REJECTED + ACCEPTED]
            + [MINIMAL, "units:\n  - {a: 0.01, b: 1\n", "units: [\n", "a: b: c\n", "\t- 1\n", "\n"])
    made = []

    class Counting(yaml.CSafeLoader):
        def __init__(self, stream):
            made.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Counting)
    fast = [_outcome(doc) for doc in docs]
    assert len(made) == len(docs)       # libyaml reads every document first
    monkeypatch.delattr(yaml, "CSafeLoader")
    pure = [_outcome(doc) for doc in docs]
    assert fast == pure
    assert sum(isinstance(o, str) for o in pure) == len(REJECTED) + 5


def _dumper_corpus():
    """The bundled fleets; example2_case1's units tiled to N in {2, 5, 8,
    10}, every number of units and periods scaled by a seeded random
    factor, with ramps on and off; and names that need quotes, escapes
    or a line break."""
    import dataclasses

    import numpy as np

    out = [load_bundled_scenario(key) for key in BUNDLED_SCENARIOS]
    base = load_bundled_scenario("example2_case1")
    for n in (2, 5, 8, 10):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            units = []
            for i in range(n):
                u = base.units[i % base.n_units]
                a, b, lo, width = rng.uniform(0.5, 2.0, size=4)
                units.append(dataclasses.replace(u, a=u.a * a, b=u.b * b, p_min=u.p_min * lo,
                                                 p_max=u.p_min * lo + u.p_max * width))
            scale = n * float(rng.uniform(0.1, 0.3))
            periods = tuple(dataclasses.replace(p, demand=p.demand * scale) for p in base.periods)
            s = dataclasses.replace(base, units=tuple(units), periods=periods,
                                    initial_commitment=(1,) * n,
                                    initial_dispatch=tuple(u.p_min for u in units) + (0.0, 0.0))
            out.append(s)
            ramped = tuple(dataclasses.replace(u, ramp_up=0.3 * u.p_max, ramp_down=0.2 * u.p_max)
                           for u in units)
            out.append(dataclasses.replace(s, ramp_enforced=True, units=ramped))
    names = ["Ünïcödé fleet", "grid \U0001f50b\u26a1 night", "it's \"quoted\"", "key: value",
             "# not a comment", "a #b", "x" * 120, " padded ", "yes", "null", "0123", "two\nlines",
             "tab\there", "[list]", "{map}", "- dash", "long " * 30 + ": with colon"]
    out += [dataclasses.replace(out[i % 5], name=name) for i, name in enumerate(names)]
    return out


def test_libyaml_and_pure_python_dumpers_agree(monkeypatch):
    # fingerprints and saved models hash the canonical text, so libyaml
    # must write what the pure-Python dumper writes
    from ucdkit import scenario

    if not hasattr(yaml, "CSafeDumper"):
        pytest.skip("PyYAML is built without libyaml")
    corpus = _dumper_corpus()
    assert scenario._DUMPER is yaml.CSafeDumper
    fast = [serialize_scenario(s) for s in corpus]
    monkeypatch.setattr(scenario, "_DUMPER", yaml.SafeDumper)
    assert [serialize_scenario(s) for s in corpus] == fast
    assert len(set(fast)) == len(corpus) == 5 + 32 + 17
    assert parse_scenario(fast[-6]).name == "two\nlines"


@pytest.mark.parametrize("key", ["dg", "dr", "cet"])
@pytest.mark.parametrize("value", [None, DROP], ids=["null", "omitted"])
def test_absent_resource_and_cet_take_defaults(key, value):
    s = parse_scenario(_edited((key,), value))
    default = CetParams(price=0.0) if key == "cet" else VirtualResourceParams(1.0, 0.0, 0.0)
    assert getattr(s, key) == default


def test_unknown_field_rejected():
    bad = MINIMAL.replace("demand: 50", "demand: 50, reserve: 3")
    with pytest.raises(ScenarioError, match="unknown field"):
        parse_scenario(bad)


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match="unknown section"):
        parse_scenario(MINIMAL + "battery:\n  size: 4\n")


def test_yaml_error_carries_line():
    with pytest.raises(ScenarioError, match="line"):
        parse_scenario("units:\n  - {a: 0.01, b: 1\n")


def test_nonconvex_unit_rejected():
    bad = MINIMAL.replace("a: 0.01", "a: 0.0")
    with pytest.raises(ScenarioError) as e:
        parse_scenario(bad)
    assert "units[0].a: must be > 0 (strict convexity)" in e.value.violations


def test_inverted_capacity_rejected():
    bad = MINIMAL.replace("p_min: 10, p_max: 100", "p_min: 110, p_max: 100")
    with pytest.raises(ScenarioError) as e:
        parse_scenario(bad)
    assert any("p_min" in v for v in e.value.violations)


def test_eta_max_zero_rejected():
    bad = MINIMAL + "options:\n  eta_max: 0.0\n"
    with pytest.raises(ScenarioError) as e:
        parse_scenario(bad)
    assert "eta_max: must lie in (0,1]" in e.value.violations


def test_commitment_length_checked():
    bad = MINIMAL.replace("commitment: [1]", "commitment: [1, 0]")
    with pytest.raises(ScenarioError, match="length must equal unit count"):
        parse_scenario(bad)


def test_dispatch_entries_must_be_numbers():
    bad = MINIMAL.replace("dispatch: [50]", "dispatch: [oops]")
    with pytest.raises(ScenarioError, match="initial.dispatch"):
        parse_scenario(bad)


def test_reserve_frac_expands_per_period():
    doc = MINIMAL + "options:\n  reserve_frac: 0.1\n"
    s = parse_scenario(doc)
    assert s.period(1).reserve_lo == pytest.approx(5.0)
    assert s.period(1).reserve_hi == pytest.approx(5.0)


def test_reserve_frac_conflicts_with_explicit():
    doc = MINIMAL.replace("{demand: 50}", "{demand: 50, reserve_frac: 0.1, reserve_lo: 2}")
    with pytest.raises(ScenarioError, match="reserve_frac excludes"):
        parse_scenario(doc)


def test_example2_shape(e2c1):
    assert e2c1.n_units == 5
    assert e2c1.horizon == 24
    assert e2c1.eta_max == 0.05
    # 5% spinning reserve expanded from the fractional form
    assert e2c1.period(12).reserve_hi == pytest.approx(75.0)
    assert e2c1.period(12).dg_max == 88.0
    assert e2c1.period(11).dr_max == 40.0
    assert e2c1.period(1).dr_max == 10.0


def test_case3_quotas_are_90pct_of_case1_tons(e2c1, e2c3):
    # the only difference between case 1 and case 3 is the allowance
    assert [u.quota for u in e2c1.units] == [0.0] * 5
    assert all(u.quota > 0.0 for u in e2c3.units)
    stripped = [
        (u.a, u.b, u.c, u.p_min, u.p_max, u.c_bank, u.c_fix, u.c_shut)
        for u in e2c3.units
    ]
    assert stripped == [
        (u.a, u.b, u.c, u.p_min, u.p_max, u.c_bank, u.c_fix, u.c_shut)
        for u in e2c1.units
    ]


def test_every_record_field_declares_its_sign_rule():
    # validate_scenario reads the rules from the dataclasses, so a new
    # field must say what it accepts ("any" for every finite value)
    from dataclasses import fields

    from ucdkit.scenario import _RULES, PeriodExogenous, ThermalUnitParams

    for cls in (ThermalUnitParams, VirtualResourceParams, CetParams, PeriodExogenous):
        for f in fields(cls):
            assert "float" in str(f.type), (cls.__name__, f.name)
            assert f.metadata.get("rule") in _RULES, (cls.__name__, f.name)


def test_violations_follow_field_order():
    import dataclasses

    from ucdkit import validate_scenario

    s = parse_scenario(MINIMAL)
    unit = dataclasses.replace(s.units[0], quota=-1.0, ramp_up=-2.0, c_fix=-3.0, p_min=200.0,
                               a=0.0, alpha=-1.0, b=-5.0, beta=-1.0)
    period = dataclasses.replace(s.periods[0], reserve_hi=-1.0, demand=-1.0)
    bad = dataclasses.replace(s, units=(unit,), periods=(period,),
                              dr=VirtualResourceParams(-1.0, -1.0, -1.0), cet=CetParams(-1.0))
    assert validate_scenario(bad) == [
        "units[0].a: must be > 0 (strict convexity)",
        "units[0].p_min: must satisfy 0 ≤ p_min ≤ p_max",
        "units[0].c_fix: must be ≥ 0",
        "units[0].ramp_up: must be ≥ 0",
        "units[0].alpha: must be ≥ 0",
        "units[0].quota: must be ≥ 0",
        "dr.a: must be > 0 (strict convexity)",
        "cet.price: must be ≥ 0",
        "periods[0].demand: must be ≥ 0",
        "periods[0].reserve_hi: must be ≥ 0",
    ]


@pytest.mark.parametrize("value", [NAN, float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_validation_refuses_a_non_finite_field_of_every_record(value):
    # a scenario built in code is held to the finiteness parse_scenario
    # asks of a document: every field of every record type, None-default
    # ones too
    import dataclasses

    from ucdkit import validate_scenario

    s = parse_scenario(MINIMAL)
    places = {
        "units[0]": (s.units[0], lambda r: dataclasses.replace(s, units=(r,))),
        "dg": (s.dg, lambda r: dataclasses.replace(s, dg=r)),
        "dr": (s.dr, lambda r: dataclasses.replace(s, dr=r)),
        "cet": (s.cet, lambda r: dataclasses.replace(s, cet=r)),
        "periods[0]": (s.periods[0], lambda r: dataclasses.replace(s, periods=(r,))),
    }
    assert validate_scenario(s) == []
    for where, (rec, put) in places.items():
        for f in dataclasses.fields(rec):
            got = validate_scenario(put(dataclasses.replace(rec, **{f.name: value})))
            assert f"{where}.{f.name}: must be finite" in got, (where, f.name, got)


# a scenario built in code with one bad field of units[0]: the violation
# validate_scenario lists for it
BAD_UNIT_FIELDS = [
    ("c_bank", float("inf"), "units[0].c_bank: must be finite"),
    ("b", NAN, "units[0].b: must be finite"),
    ("p_min", -5.0, "units[0].p_min: must satisfy 0 ≤ p_min ≤ p_max"),
]
SOLVERS = ["enumerate_optimal", "graph_dp_optimal", "run_schedule", "train"]


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("field, value, message", BAD_UNIT_FIELDS,
                         ids=[c[0] for c in BAD_UNIT_FIELDS])
def test_solvers_refuse_an_invalid_scenario_built_in_code(e1c1, solver, field, value, message):
    # parse_scenario refuses such a document; a solver must refuse the
    # same scenario made by dataclasses.replace, with the same error,
    # rather than return a nan cost, fail inside the QP kernel or answer
    import dataclasses

    from ucdkit import TrainConfig, enumerate_optimal, graph_dp_optimal, run_schedule, train

    unit = dataclasses.replace(e1c1.units[0], **{field: value})
    s = dataclasses.replace(e1c1, units=(unit,) + e1c1.units[1:])
    call = {
        "enumerate_optimal": enumerate_optimal,
        "graph_dp_optimal": graph_dp_optimal,
        "run_schedule": lambda s: run_schedule(s, "122333"),    # e1c1's optimum
        "train": lambda s: train(s, TrainConfig(samples=2)),
    }[solver]
    with pytest.raises(ScenarioError) as err:
        call(s)
    assert str(err.value) == f"invalid scenario: {message}"
    assert err.value.violations == [message]
