"""Telescoping windows and the dominating-run spacer replacement."""

import random
from math import prod

import pytest
from conftest import CHACON, ODOMETER, schedules, seeded_levels, seeded_schedule
from hypothesis import given
from hypothesis import strategies as st

from rankone import (
    BudgetError,
    DepthError,
    ParamSchedule,
    SpacerReplacementError,
    Stage,
    TelescopedSchedule,
    build_block,
    build_expansive,
    digit_decomposition,
    expansive_replace,
    heights,
    telescope,
)
from rankone.schedules import MAX_WALK_LEVELS


@given(st.integers(0, 10**6), st.lists(st.integers(2, 5), min_size=1, max_size=8))
def test_digit_decomposition_round_trip(i, radices):
    total = 1
    for r in radices:
        total *= r
    i %= total
    digits = digit_decomposition(i, radices)
    assert len(digits) == len(radices)
    back, scale = 0, 1
    for d, r in zip(digits, radices):
        assert 0 <= d < r
        back += d * scale
        scale *= r
    assert back == i


def test_digit_decomposition_range():
    with pytest.raises(ValueError):
        digit_decomposition(8, [2, 4])
    with pytest.raises(ValueError):
        digit_decomposition(-1, [2])


def digit_rule_runs(schedule: ParamSchedule, lo: int, hi: int) -> list[int]:
    """The runs of window [lo, hi) by the module docstring's digit rule."""
    radices = [schedule.stage(k).q for k in range(lo, hi)]
    runs = []
    for i in range(prod(radices)):
        g = digit_decomposition(i, radices)
        l = next((t for t, q in enumerate(radices) if g[t] < q - 1), len(g) - 1)
        runs.append(sum(schedule.stage(lo + t).a[g[t]] for t in range(l + 1)))
    return runs


@given(schedules(max_stages=6, min_q=1, max_q=3), st.data())
def test_telescope_runs_follow_the_digit_rule(schedule, data):
    # periodic schedules are telescoped past their explicit prefix
    top = schedule.prefix_len + (0 if schedule.tail_period is None else 6)
    widths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3), label="widths")
    levels = [0]
    for w in widths:
        if levels[-1] + w > top:
            break
        levels.append(levels[-1] + w)
    if len(levels) == 1:
        levels.append(top)
    tele = telescope(schedule, levels)
    for st_n, lo, hi in zip(tele.stages, levels, levels[1:]):
        runs = digit_rule_runs(schedule, lo, hi)
        assert st_n == Stage(len(runs), tuple(runs))


def test_telescope_known_values():
    tele = telescope(CHACON, [0, 1, 3])
    assert tele.levels == (0, 1, 3)
    assert tele.heights == (1, 4, 40)
    assert tele.stages == (
        Stage(3, (0, 1, 0)),
        Stage(9, (0, 1, 0, 0, 1, 1, 0, 1, 0)),
    )
    assert tele.num_stages == 2


def test_telescope_level_validation():
    with pytest.raises(ValueError):
        telescope(CHACON, [1, 2])  # must start at 0
    with pytest.raises(ValueError):
        telescope(CHACON, [0, 2, 2])  # strictly increasing
    with pytest.raises(ValueError):
        telescope(CHACON, [0, 2, 1])


def test_telescope_level_budget():
    # a window's last level is checked before its stages are read; at the
    # cap a bare prefix still fails on its first missing stage
    short = ParamSchedule((Stage(2, (0, 1)),))
    for schedule in (CHACON, short):
        with pytest.raises(BudgetError) as err:
            telescope(schedule, [0, 1, MAX_WALK_LEVELS + 1])
        assert str(err.value) == (
            "stage walk needs 2097153 levels, over the budget of 2097152"
        )
    with pytest.raises(DepthError, match="stage 1 unresolvable"):
        telescope(short, [0, MAX_WALK_LEVELS])


@given(schedules(allow_bare=False), st.data())
def test_telescope_block_equality(schedule, data):
    top = schedule.prefix_len + 2
    inner = sorted(
        data.draw(
            st.sets(st.integers(1, top), min_size=1, max_size=3), label="levels"
        )
    )
    levels = [0] + inner
    tele = telescope(schedule, levels)
    merged = ParamSchedule(tele.stages, tail_period=None)
    for j, m in enumerate(levels):
        assert build_block(schedule, m) == build_block(merged, j)
    assert list(tele.heights) == [heights(schedule, m)[m] for m in levels]


def _single(stage: Stage, low: int = 1) -> TelescopedSchedule:
    base = ParamSchedule((stage,), tail_period=None)
    high = stage.q * low + stage.spacer_sum
    return TelescopedSchedule(
        base=base, levels=(0, 1), stages=(stage,), heights=(low, high)
    )


def test_replace_single_stage_examples():
    # the tail 1*H + (0 + 3) = 4 beats the largest run 3 at copy 2
    model = expansive_replace(_single(Stage(4, (0, 1, 0, 3))))
    assert (model.cut, model.top_run) == ((2,), (4,))
    assert model.to_json_dict()["stages"][0]["A_max"] == 3
    assert model.target.stages == (Stage(3, (0, 1, 4)),)

    # degenerate: nothing above the first copy beats 0 until everything goes
    model2 = expansive_replace(_single(Stage(2, (0, 0))))
    assert (model2.cut, model2.top_run) == ((0,), (1,))
    assert model2.target.stages == (Stage(1, (1,)),)
    assert model2.warnings == (0,)


def test_replace_chacon_model():
    tele = telescope(CHACON, [0, 1, 3])
    model = expansive_replace(tele)
    assert model.cut == (1, 7)
    assert model.top_run == (2, 5)
    assert model.target.stages == (
        Stage(2, (0, 2)),
        Stage(8, (0, 1, 0, 0, 1, 1, 0, 5)),
    )
    assert model.warnings == ()
    assert heights(model.target, 2) == [1, 4, 40]
    # one source schedule per model, over the telescoped stages
    assert model.source is model.source
    assert model.source == ParamSchedule(tele.stages, tail_period=None)


def test_replace_rejects_single_copy_window():
    with pytest.raises(SpacerReplacementError):
        expansive_replace(_single(Stage(1, (3,))))


@given(schedules(allow_bare=False))
def test_replace_invariants(schedule):
    tele = telescope(schedule, [0, 1, schedule.prefix_len + 1])
    model = expansive_replace(tele)
    rep = model.target
    # heights preserved stage by stage
    assert heights(rep, tele.num_stages) == list(tele.heights)
    # dominating final run
    for st in map(rep.stage, range(tele.num_stages)):
        assert all(x < st.a[-1] for x in st.a[:-1])
    for new, old, top_run, low in zip(rep.stages, tele.stages, model.top_run, tele.heights):
        assert top_run > max(old.a)
        assert new.spacer_sum <= 2 * old.spacer_sum + low


def test_build_expansive_known_models():
    model = build_expansive(ODOMETER, 3)
    assert model.telescoped.levels == (0, 1, 3, 6)
    assert model.target.stages == (
        Stage(1, (1,)),
        Stage(3, (0, 0, 2)),
        Stage(7, (0, 0, 0, 0, 0, 0, 8)),
    )
    assert model.warnings == (0,)
    rep = model.target
    assert build_block(rep, 1) == "01"
    assert build_block(rep, 2) == "01010111"
    with pytest.raises(ValueError, match="^count -1 < 0$"):
        build_expansive(ODOMETER, -1)


def test_build_expansive_retries_on_degenerate_window():
    # a single window over the odometer collapses to one copy; the
    # doubled growth base widens it to four copies and succeeds
    model = build_expansive(ODOMETER, 1)
    assert model.telescoped.levels == (0, 2)
    assert model.target.stages[0] == Stage(3, (0, 0, 1))
    assert model.warnings == ()


def test_build_expansive_gives_up_without_cuts():
    # q > 1 happens once, so every later window multiplies to Q = 1 and
    # no growth base can fix it
    stuck = ParamSchedule((Stage(2, (0, 0)), Stage(1, (3,))), tail_period=1)
    with pytest.raises(SpacerReplacementError):
        build_expansive(stuck, 2)
    # level 0 alone multiplies the height by 10^6 + 1, so every growth base
    # up to 2^6 ends the first window there, at one copy: all six attempts fail
    padded = ParamSchedule((Stage(1, (10**6,)), Stage(2, (0, 0))), tail_period=1)
    with pytest.raises(SpacerReplacementError, match="no usable telescoping after 6 growth"):
        build_expansive(padded, 2)


def test_seeded_generators_shape():
    rng = random.Random(20240817)
    sched = seeded_schedule(rng, 10**5)
    assert heights(sched, sched.prefix_len)[-1] <= 10**5
    levels = seeded_levels(rng, sched)
    assert levels[0] == 0
    assert all(a < b for a, b in zip(levels, levels[1:]))
