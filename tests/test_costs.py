"""Cost pieces against hand-computed values."""

import numpy as np
import pytest

from ucdkit import (
    BUNDLED_SCENARIOS,
    emission,
    fuel_cost,
    int_to_mode,
    kappa,
    load_bundled_scenario,
    quota_rebate,
    running_cost,
    switching_cost,
    switching_matrix,
)
from ucdkit.costs import switching_row


def startup_cost_reference(unit, tau):
    """Restart cost after tau banked periods: c_bank * tau + c_fix.

    Reference formula for the cycle identity: the kappa charges over a
    complete off cycle of length tau sum to this value plus c_shut.
    """
    return unit.c_bank * tau + unit.c_fix


def test_fuel_cost_unit1_at_350(e1c1):
    # 0.00142*350^2 + 7.2*350 + 510
    assert fuel_cost(e1c1.units[0], 350.0) == pytest.approx(3203.95)


def test_fuel_cost_unit2_at_200(e1c1):
    assert fuel_cost(e1c1.units[1], 200.0) == pytest.approx(1957.6)


def test_running_cost_single_unit(e1c1):
    d = np.array([0.0, 200.0, 0.0, 0.0])
    assert running_cost(e1c1, (0, 1), d) == pytest.approx(1957.6)


def test_running_cost_ignores_uncommitted(e1c1):
    d = np.array([123.0, 200.0, 0.0, 0.0])
    # unit 1 off: its column must not contribute
    assert running_cost(e1c1, (0, 1), d) == pytest.approx(1957.6)


def test_running_cost_both_units(e1c1):
    d = np.array([250.0, 100.0, 0.0, 0.0])
    assert running_cost(e1c1, (1, 1), d) == pytest.approx(3513.15)


def test_emission_curve(e2c1):
    u = e2c1.units[0]
    # 0.00312*100^2 - 0.24444*100 + 10.33908
    assert emission(u, 100.0) == pytest.approx(31.2 - 24.444 + 10.33908)


def test_emission_priced_into_running_cost(e2c1):
    d = np.zeros(7)
    d[0] = 300.0
    got = running_cost(e2c1, (1, 0, 0, 0, 0), d)
    want = fuel_cost(e2c1.units[0], 300.0) + 1.0 * emission(e2c1.units[0], 300.0)
    want += e2c1.dg.c + e2c1.dr.c  # idle resources still carry their constant
    assert got == pytest.approx(want)


@pytest.mark.parametrize(
    "i_prev,i_now,expected",
    [
        (0, 0, "bank"),   # off the whole period: banking charge
        (0, 1, "bank"),   # restart period: banking charge, startup was pre-paid
        (1, 1, "zero"),
        (1, 0, "stop"),   # shutdown: fixed + shutdown charge
    ],
)
def test_kappa_truth_table(e1c4, i_prev, i_now, expected):
    u = e1c4.units[0]  # c_bank 300, c_fix 0, c_shut 600
    got = kappa(u, i_prev, i_now)
    want = {"bank": u.c_bank, "zero": 0.0, "stop": u.c_fix + u.c_shut}[expected]
    assert got == want


def test_kappa_off_cycle_identity(e1c4):
    # a complete off cycle of length tau charges c_fix + c_bank*tau + c_shut
    u = e1c4.units[1]
    for tau in (1, 2, 5):
        path = [1] + [0] * tau + [1]
        total = sum(kappa(u, path[i], path[i + 1]) for i in range(len(path) - 1))
        assert total == pytest.approx(startup_cost_reference(u, tau) + u.c_shut)


def test_switching_cost_sums_units(e1c4):
    got = switching_cost(e1c4, (0, 1), (1, 0))
    # unit 1 restarts (bank 300), unit 2 shuts down (0 + 400)
    assert got == pytest.approx(300.0 + 400.0)


def test_quota_rebate(e2c3):
    want = sum(u.quota for u in e2c3.units) * e2c3.cet.price
    assert quota_rebate(e2c3) == pytest.approx(want)
    assert quota_rebate(e2c3) > 0.0


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_switching_matrix_equals_switching_cost(name):
    s = load_bundled_scenario(name)
    n = s.n_units
    K = switching_matrix(s)
    assert K.shape == (1 << n, 1 << n)
    for a in range(1 << n):
        for b in range(1 << n):
            assert K[a, b] == switching_cost(s, int_to_mode(a, n), int_to_mode(b, n))
        assert (switching_row(s, a) == K[a]).all()
