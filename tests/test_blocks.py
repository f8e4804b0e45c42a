"""Symbolic blocks, growth conditions, and the period-doubling word."""

import functools
import time

import pytest
from conftest import CHACON, ODOMETER, schedules
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone import (
    KALIKOW_BOUNDED,
    KALIKOW_UNBOUNDED,
    UNKNOWN_AT_DEPTH,
    DEFAULT_SYMBOL_BUDGET,
    BudgetError,
    DepthError,
    Occurrences,
    OrbitCoding,
    Overflow,
    ParamSchedule,
    ScheduleError,
    Stage,
    build_block,
    code_minimal_orbit,
    heights,
    kalikow_sup_condition,
    period_doubling_occurrences,
)
from rankone.blocks import _block_prefix
from rankone.diagram import cylinder_measure_bounds
from rankone.schedules import MAX_WALK_LEVELS, _stages, choose_telescoping_levels
from rankone.telescoping import telescope


def test_block_known_values():
    assert build_block(ODOMETER, 0) == "0"
    assert build_block(ODOMETER, 3) == "0" * 8
    assert build_block(CHACON, 1) == "0010"
    assert build_block(CHACON, 2) == "0010001010010"


@given(schedules())
def test_block_length_prefix_and_zero_count(schedule):
    depth = min(5, schedule.prefix_len if schedule.tail_period is None else 5)
    hs = heights(schedule, depth)
    prev = None
    zeros = 1
    for n in range(depth + 1):
        w = build_block(schedule, n)
        assert len(w) == hs[n]
        assert w.count("0") == zeros
        if prev is not None:
            assert w.startswith(prev)
        prev = w
        if n < depth:
            zeros *= schedule.stage(n).q


def _block_by_levels(schedule, n):
    """B_n by the recursion itself, rebuilding the whole word at every level."""
    b = "0"
    for k in range(n):
        st = schedule.stage(k)
        b = "".join(b + "1" * st.a[i] for i in range(st.q))
    return b


@given(schedules(max_stages=5, min_q=1, max_q=3), st.integers(0, 9))
def test_block_matches_the_per_level_recursion(schedule, depth):
    # single-copy stages only lengthen the pending run of 1s; the word must
    # be the one the level-by-level rebuild gives
    if schedule.tail_period is None:
        depth = min(depth, schedule.prefix_len)
    assert build_block(schedule, depth) == _block_by_levels(schedule, depth)


@given(schedules(max_stages=5, min_q=1, max_q=3), st.integers(0, 5))
def test_block_is_the_prefix_body_at_its_height(schedule, depth):
    # build_block is the budget walk, then the prefix body at length h_n;
    # a shorter length cuts the same word, and a longer one gives all of it
    if schedule.tail_period is None:
        depth = min(depth, schedule.prefix_len)
    block = build_block(schedule, depth)
    assert _block_prefix(_stages(schedule, 0, depth), len(block)) == block
    for length in range(len(block) + 3):
        assert _block_prefix(_stages(schedule, 0, depth), length) == block[:length]


def test_block_prefix_stops_at_its_length():
    # chacon's h_3 = 40 symbols hold a 40-symbol prefix: the fourth stage is
    # the last one read, and it is not built
    def stages():
        yield from CHACON.stages * 4
        raise AssertionError("read a stage past the level that holds the prefix")

    assert _block_prefix(stages(), 40) == build_block(CHACON, 3)
    # a run of 1s or a copy count past the length is cut, not built
    assert _block_prefix([Stage(1, (10**12,))], 5) == "01111"
    assert _block_prefix([Stage(10**6, (0,) * 10**6)], 3) == "000"


# q = 1 past level 2, and the tail from level 3 adds 3 spacers a level
LINEAR = ParamSchedule(
    (Stage(2, (0, 2)), Stage(4, (1, 3, 0, 0)), Stage(1, (2,)), Stage(1, (3,))), tail_period=1
)


def test_block_on_a_linear_tail_is_linear_time():
    # B_n is B_2 followed by 2 + 3 (n - 3) spacers, and building it costs the
    # length of the word, not the sum of h_k: past level 3 the tail's levels
    # are one folded run of 1s
    linear = ParamSchedule(LINEAR.stages, LINEAR.tail_period)
    depth = MAX_WALK_LEVELS
    start = time.perf_counter()
    word = build_block(linear, depth)
    assert time.perf_counter() - start < 2.0
    assert word == build_block(linear, 2) + "1" * (2 + 3 * (depth - 3))
    assert len(word) == heights(linear, depth)[depth]
    # 1,000 spacers a level pass the budget inside the folded run, and the
    # refusal names the first level over it, read in closed form
    wide = ParamSchedule((Stage(1, (1000,)),), tail_period=1)
    over = "^block needs 67109001 symbols by level 67109, over the budget of 67108864$"
    with pytest.raises(BudgetError, match=over):
        build_block(wide, depth)


def test_block_on_a_frozen_tail_reads_only_the_prefix():
    # q = 1 with no spacers past level 1: every later level keeps B_2 = "00"
    # (test_cli bounds the time of both walks at the level cap)
    frozen = ParamSchedule((Stage(2, (0, 0)), Stage(1, (0,))), tail_period=1)
    assert build_block(frozen, MAX_WALK_LEVELS) == "00"
    assert code_minimal_orbit(frozen, MAX_WALK_LEVELS, 400) == OrbitCoding(
        "00", Overflow(MAX_WALK_LEVELS)
    )
    # the depth rule comes first
    with pytest.raises(BudgetError, match="^stage walk needs 2097153 levels, over the budget of 2097152$"):
        build_block(frozen, MAX_WALK_LEVELS + 1)
    with pytest.raises(ValueError, match="^depth -1 < 0$"):
        code_minimal_orbit(frozen, -1, 400)
    # a tail with a bad stage is not folded: each walk meets that stage and
    # raises its own line, not the tail's
    bad = ParamSchedule((Stage(2, (0, 0)), Stage(1, (0,)), Stage(1, (-1,))), tail_period=2)
    for build in (
        lambda: build_block(bad, 10),
        lambda: code_minimal_orbit(bad, 10, 400),
        lambda: telescope(bad, [0, 1, 10]),
        lambda: cylinder_measure_bounds(bad, 1, 10),
    ):
        with pytest.raises(ScheduleError, match="^stage 2: negative spacer count$"):
            build()


def test_linear_tail_walks_resolve_only_the_prefix_and_one_period(monkeypatch):
    # past c = prefix_len - period the linear tail's levels are read in closed
    # form, as heights or as one folded stage, so no walk to the level cap
    # resolves a stage past the first period
    resolved = []
    original = ParamSchedule.stage

    def counted(self, n):
        resolved.append(n)
        return original(self, n)

    levels = choose_telescoping_levels(LINEAR, 6)  # the levels of --stages 6
    assert levels[-1] == 1_747_665
    monkeypatch.setattr(ParamSchedule, "stage", counted)
    depth = MAX_WALK_LEVELS
    for walk in (
        lambda schedule: heights(schedule, depth),
        lambda schedule: build_block(schedule, depth),
        lambda schedule: code_minimal_orbit(schedule, depth, 10**7),
        lambda schedule: telescope(schedule, levels),
        lambda schedule: cylinder_measure_bounds(schedule, 1, depth),
    ):
        resolved.clear()
        walk(ParamSchedule(LINEAR.stages, LINEAR.tail_period))  # nothing cached
        assert resolved and max(resolved) < LINEAR.prefix_len + LINEAR.tail_period


def test_block_budget_checked_before_building():
    with pytest.raises(BudgetError) as err:
        build_block(CHACON, 40)
    assert str(err.value) == (
        "block needs 193710244 symbols by level 17, over the budget of 67108864"
    )
    # level 17 is the first one over the budget
    assert heights(CHACON, 16)[16] <= DEFAULT_SYMBOL_BUDGET < heights(CHACON, 17)[17]


def test_block_budget_reads_the_height_walk():
    # 39,000 levels of height 1, then one of about 10^4200: the block's length
    # is read from the kept heights, which pass their own byte budget at that
    # level first, so build_block refuses it as heights does
    schedule = ParamSchedule((Stage(1, (0,)),) * 39_000 + (Stage(1, (10**4200,)),))
    over = "^height list needs up to 68024363 bytes by level 39001, over the budget of 67108864$"
    for read in (heights, build_block):
        with pytest.raises(BudgetError, match=over):
            read(schedule, 39_001)


_LEVEL_17 ="^block needs 193710244 symbols by level 17, over the budget of 67108864$"


def test_block_budget_stops_at_the_first_level_over_it():
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=_LEVEL_17):
        build_block(CHACON, MAX_WALK_LEVELS)
    # a depth past the level cap is refused before any stage is read
    with pytest.raises(BudgetError, match="^stage walk needs 100000000 levels, over the budget of 2097152$"):
        build_block(CHACON, 10**8)
    assert time.perf_counter() - start < 0.2
    # on a bare prefix the budget is passed before the missing stage 20 ...
    bare = ParamSchedule(CHACON.stages * 20, tail_period=None)
    with pytest.raises(BudgetError, match=_LEVEL_17):
        build_block(bare, 30)
    # ... and a missing stage below the budget is still a DepthError
    with pytest.raises(DepthError, match="stage 10 unresolvable"):
        build_block(ParamSchedule(CHACON.stages * 10, tail_period=None), 12)
    with pytest.raises(ValueError, match="depth -1 < 0"):
        build_block(CHACON, -1)


def test_kalikow_verdicts():
    rep = kalikow_sup_condition(CHACON, 4)
    # every final run is zero, so each witness is just one later run
    assert rep.verdict == KALIKOW_BOUNDED
    assert all(w == 1 for w in rep.witnesses)

    grow = ParamSchedule((Stage(2, (0, 1)),), tail_period=1)
    rep2 = kalikow_sup_condition(grow, 4)
    assert rep2.verdict == KALIKOW_UNBOUNDED
    # chained final runs grow by one per level
    assert list(rep2.witnesses) == [2, 3, 4, 5, 6]

    bare = ParamSchedule(tuple(Stage(2, (0, 1)) for _ in range(6)), tail_period=None)
    rep3 = kalikow_sup_condition(bare, 4)
    assert rep3.verdict == UNKNOWN_AT_DEPTH
    assert list(rep3.witnesses) == [2, 3, 4, 5, 6]

    # the stages read at depth 0 are fine, the tail is not: its verdict
    # comes from the tail summary, which checks every tail stage
    bad_tail = ParamSchedule((Stage(2, (0, 0)),) * 3 + (Stage(2, (0,)),), tail_period=1)
    with pytest.raises(ScheduleError, match="^tail contains a structurally invalid stage$"):
        kalikow_sup_condition(bad_tail, 0)
    with pytest.raises(ValueError, match="^depth -1 < 0$"):
        kalikow_sup_condition(CHACON, -1)


@given(schedules(min_q=1, allow_bare=False), st.integers(0, 12))
def test_kalikow_witnesses_match_brute_force(schedule, depth):
    finals = [schedule.stage(k).a[-1] for k in range(depth + 1)]
    brute = [
        max(sum(finals[m : n + 1]) + x for m in range(n + 1) for x in schedule.stage(n + 1).a)
        for n in range(depth + 1)
    ]
    assert list(kalikow_sup_condition(schedule, depth).witnesses) == brute


def test_period_doubling_prefix():
    # the prefix of length L: "0", "01", "0100010101000100", and its length refusals
    assert period_doubling_occurrences(1, "0") == Occurrences(1, ())
    assert period_doubling_occurrences(2, "01") == Occurrences(1, ())
    assert period_doubling_occurrences(16, "0100010101000100") == Occurrences(1, ())
    with pytest.raises(ValueError, match="^length 0 < 1$"):
        period_doubling_occurrences(0, "0100")
    with pytest.raises(BudgetError, match=(
        "^period-doubling prefix needs 67108865 symbols, over the budget of 67108864$"
    )):
        period_doubling_occurrences(DEFAULT_SYMBOL_BUDGET + 1, "0100")


def test_occurrence_spacing():
    assert period_doubling_occurrences(16, "0100") == Occurrences(3, (4, 8))
    assert period_doubling_occurrences(16, "010") == Occurrences(5, (2, 4))  # overlaps count
    assert period_doubling_occurrences(16, "11") == Occurrences(0, ())
    with pytest.raises(ValueError, match="^empty pattern$"):
        period_doubling_occurrences(2, "")
    with pytest.raises(ValueError, match="^pattern longer than the word$"):
        period_doubling_occurrences(2, "010")


def _substitution_prefix(length):
    """The fixed point of 0 -> 01, 1 -> 00 by applying the substitution."""
    rules = {"0": "01", "1": "00"}
    w = "0"
    while len(w) < length:
        w = "".join(rules[c] for c in w)
    return w[:length]


def _scan(w, pattern):
    """Occurrences by a plain scan: a match is every i with w.startswith(pattern, i),
    and str.find returns the least such i from where it starts."""
    starts = []
    i = w.find(pattern)
    while i >= 0:
        starts.append(i)
        i = w.find(pattern, i + 1)
    return Occurrences(len(starts), tuple(sorted({b - a for a, b in zip(starts, starts[1:])})))


def test_period_doubling_occurrences_every_short_pattern():
    word = _substitution_prefix(256)
    # every binary pattern of 1 to 5 symbols, "0", "1", "00", ..., "11111"
    for pattern in (format(i, "b")[1:] for i in range(2, 64)):
        for length in range(len(pattern), 257):
            assert period_doubling_occurrences(length, pattern) == _scan(word[:length], pattern)
    assert period_doubling_occurrences(3, "2") == Occurrences(0, ())


def test_period_doubling_occurrences_of_0100_in_every_prefix():
    # pd-check's pattern in every prefix of up to 4,096 symbols
    word = _substitution_prefix(4096)
    for length in range(4, 4097):
        assert period_doubling_occurrences(length, "0100") == _scan(word[:length], "0100")
    assert period_doubling_occurrences(16, "0100") == Occurrences(3, (4, 8))


@functools.cache
def _long_word():
    return _substitution_prefix(1 << 20)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 1 << 20), st.text("01", min_size=1, max_size=8))
@example(1 << 20, "0100")
@example((1 << 20) - 1, "0")
def test_period_doubling_occurrences_match_a_scan(length, pattern):
    pattern = pattern[:length]
    assert period_doubling_occurrences(length, pattern) == _scan(_long_word()[:length], pattern)
