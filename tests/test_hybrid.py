"""Schedules, trajectories and their bookkeeping."""

import csv
import io

import numpy as np
import pytest

from ucdkit import (
    InfeasibleModeError,
    Schedule,
    UcdError,
    int_to_mode,
    mode_to_int,
    parse_schedule,
    run_schedule,
    schedule_text,
    trajectory_csv,
)


def test_mode_int_mapping():
    assert mode_to_int((0, 1)) == 1
    assert mode_to_int((1, 0)) == 2
    assert mode_to_int((1, 1)) == 3
    assert int_to_mode(2, 2) == (1, 0)
    assert int_to_mode(5, 5) == (0, 0, 1, 0, 1)


def test_schedule_text_digit_and_bitstring_forms():
    sched = parse_schedule("122333", 2)
    assert sched.modes[0] == (0, 1)
    assert sched.modes[1] == (1, 0)
    assert sched.modes[3] == (1, 1)
    assert schedule_text(sched) == "122333"
    wide = parse_schedule("11000-11010", 5)
    assert schedule_text(wide) == "11000-11010"
    assert [mode_to_int(m) for m in parse_schedule("01,10,11", 2).modes] == [1, 2, 3]


def test_parse_schedule_rejects_garbage():
    with pytest.raises(UcdError):
        parse_schedule("14", 2)  # digit 4 needs 3 units
    with pytest.raises(UcdError):
        parse_schedule("01-102", 2)  # bad token length
    with pytest.raises(UcdError):
        parse_schedule("122333", 5)  # digit form capped at 3 units
    with pytest.raises(UcdError):
        parse_schedule("122", 2, horizon=6)


@pytest.mark.parametrize("text", ["1\u00b2", "\u0661\u0662\u0662\u0663\u0663\u0663", "12\uff13"],
                         ids=["superscript", "arabic-indic", "fullwidth"])
def test_parse_schedule_reads_ascii_digits_only(text):
    # str.isdigit() holds for these; int() reads the last two as 122333
    # and 123 and refuses the first with its own ValueError
    with pytest.raises(UcdError, match="bad schedule digit"):
        parse_schedule(text, 2)


def test_run_schedule_dispatch_sequence(e1c1):
    traj = run_schedule(e1c1, "122333")
    d = [rec.dispatch for rec in traj.periods]
    assert d[0][1] == pytest.approx(200.0)
    assert d[1][0] == pytest.approx(350.0)
    assert d[2][0] == pytest.approx(350.0)
    assert d[3][0] == pytest.approx(500.8928571428571, abs=1e-6)
    assert d[3][1] == pytest.approx(199.1071428571429, abs=1e-6)
    assert traj.switching_total == 0.0  # case 1 has no switching charges


def test_case4_switching_totals(e1c4):
    assert run_schedule(e1c4, "122333").switching_total == pytest.approx(1400.0)
    assert run_schedule(e1c4, "133333").switching_total == pytest.approx(600.0)


def test_infeasible_schedule_names_period(e1c1):
    with pytest.raises(InfeasibleModeError, match="t=4"):
        run_schedule(e1c1, "122133")  # mode 1 cannot carry 700 MW


def test_schedule_shape_mismatch(e1c1):
    with pytest.raises(UcdError, match="does not match"):
        run_schedule(e1c1, Schedule(modes=((0, 1),) * 5))


def test_total_cost_identity(e1c4):
    traj = run_schedule(e1c4, "133333")
    assert traj.total_cost == pytest.approx(
        traj.running_total + traj.switching_total - traj.quota_rebate
    )


def test_trajectory_determinism(e1c4):
    a = run_schedule(e1c4, "122333")
    b = run_schedule(e1c4, "122333")
    assert a.total_cost == b.total_cost  # bitwise, no tolerance
    for ra, rb in zip(a.periods, b.periods):
        assert np.array_equal(ra.dispatch, rb.dispatch)


def test_trajectory_csv_recomputes(e1c4):
    traj = run_schedule(e1c4, "122333")
    rows = list(csv.DictReader(io.StringIO(trajectory_csv(traj))))
    assert len(rows) == 6
    assert [r["t"] for r in rows] == [str(t) for t in range(1, 7)]
    # cumulative column equals the running Q + kappa prefix sums
    cum = 0.0
    for r, rec in zip(rows, traj.periods):
        cum += rec.running + rec.switching
        assert float(r["cumulative_cost"]) == pytest.approx(cum, abs=1e-9)
        assert float(r["Q"]) == pytest.approx(rec.running, abs=1e-9)
        assert int(r["I_1"]) == rec.commitment[0]
    assert float(rows[-1]["cumulative_cost"]) == pytest.approx(
        traj.running_total + traj.switching_total
    )


def test_switching_monotone_in_cost_scale(e1c4):
    import dataclasses

    # doubling every switching charge cannot lower the switching total
    # of a fixed schedule, and leaves running cost untouched
    doubled = dataclasses.replace(
        e1c4,
        units=tuple(
            dataclasses.replace(u, c_bank=2 * u.c_bank, c_fix=2 * u.c_fix,
                                c_shut=2 * u.c_shut)
            for u in e1c4.units
        ),
    )
    for text in ("122333", "133333", "111333"):
        t1 = run_schedule(e1c4, text)
        t2 = run_schedule(doubled, text)
        assert t2.switching_total == pytest.approx(2 * t1.switching_total)
        assert t2.running_total == pytest.approx(t1.running_total)


def test_dispatch_is_time_invariant_without_ramps(e1c1):
    # with ramps relaxed, the dispatch of a fixed mode depends only on
    # the period data; demands repeat at t=2,3 so dispatch must repeat
    traj = run_schedule(e1c1, "122333")
    assert np.array_equal(traj.periods[1].dispatch, traj.periods[2].dispatch)
    assert np.array_equal(traj.periods[4].dispatch, traj.periods[5].dispatch)
