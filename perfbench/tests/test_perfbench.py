"""Self-tests of the benchmark's own parts: generator, answer check,
tracer and metric names. Run with the package on the path:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import ucdkit  # noqa: E402
import ucdkit.cli  # noqa: E402,F401  (cli() reaches the CLI through the package)
from fleets import synthetic_fleet  # noqa: E402
from run import check_answers, e2e_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Pass, cli  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ANSWERS = json.loads((HERE / "answers.json").read_text())


def _declared(section):
    return [m["name"] for m in BENCHMARK[section]]


@pytest.mark.parametrize("ramps", [False, True])
def test_generator_is_deterministic_per_seed(ramps):
    a = synthetic_fleet(ucdkit, 8, 5, ramps)
    b = synthetic_fleet(ucdkit, 8, 5, ramps)
    c = synthetic_fleet(ucdkit, 8, 6, ramps)
    assert a == b
    assert ucdkit.scenario_fingerprint(a) == ucdkit.scenario_fingerprint(b)
    assert ucdkit.scenario_fingerprint(a) != ucdkit.scenario_fingerprint(c)
    assert ucdkit.validate_scenario(a) == []
    back = ucdkit.parse_scenario(ucdkit.serialize_scenario(a))
    assert ucdkit.scenario_fingerprint(back) == ucdkit.scenario_fingerprint(a)


def test_answer_check_catches_a_tampered_cost():
    rc, out = cli(ucdkit, ["oracle", "example1_case4"])
    assert rc == 0
    text, cost = out.split()
    recorded = ANSWERS["bundled_cli"]
    key = "example1_case4/oracle"

    honest = Pass()
    honest.answer(key, text, float(cost), seeded=False)
    check_answers(honest, recorded, 0)
    assert honest.failures == {}

    tampered = Pass()
    tampered.answer(key, text, float(cost) + 1e-5, seeded=False)
    check_answers(tampered, recorded, 0)
    assert key in tampered.failures

    unrecorded = Pass()
    unrecorded.answer("example1_case4/simulate", text, float(cost), seeded=True)
    check_answers(unrecorded, {"fixed": {}, "seeds": {}}, 0)
    assert "example1_case4/simulate" in unrecorded.failures


def _bindings():
    return {(name, key): id(value)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ucdkit" or name.startswith("ucdkit."))
            for key, value in vars(mod).items()}


def test_wrappers_leave_every_binding_as_found():
    before = _bindings()
    with Tracer():
        during = _bindings()
        assert during[("ucdkit.oracle", "switching_cost")] != before[("ucdkit.oracle", "switching_cost")]
        assert during[("ucdkit._kernels", "qp_core")] != before[("ucdkit._kernels", "qp_core")]
    assert _bindings() == before


def _profile_counts():
    s = ucdkit.load_bundled_scenario("example2_case1")
    tracer = Tracer()
    with tracer:
        ucdkit.graph_dp_optimal(s)
        model = ucdkit.train(s)
        ucdkit.simulate(s, model)
    m = tracer.metrics(1.0, 1.0)
    return tracer, {k: v for k, (v, unit) in m.items() if unit in ("count", "ratio")
                    and not k.startswith("trace.")}


def test_traced_counts_repeat_exactly_and_match_the_profile():
    tracer, first = _profile_counts()
    _, second = _profile_counts()
    assert first == second
    # the 768-problem (t, mode) grid of example2_case1, solved three times
    assert first["qp.solves"] == 2304
    assert 0.76 < first["qp.infeasible_ratio"] < 0.80
    assert first["qp.distinct_ratio"] == pytest.approx(1 / 3)
    assert set(tracer.metrics(1.0, 1.0)) == set(_declared("per_layer"))


def test_printed_metric_names_equal_benchmark_json():
    p = Pass()
    p.wall = 1.0
    p.decide_ms = [float(v) for v in range(1, 111)]
    assert set(e2e_metrics([0.5], [p])) == set(_declared("end_to_end"))
