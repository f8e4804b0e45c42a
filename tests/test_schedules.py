"""Stage schedules: resolution, heights, ratio sums, level selection."""

import time
from fractions import Fraction
from itertools import islice
from math import prod
from pathlib import Path

import pytest
from conftest import CHACON, DIVERGENT, ODOMETER, any_schedules, schedules
from hypothesis import example, given
from hypothesis import strategies as st

from rankone import (
    PROVED_CONVERGENT,
    PROVED_DIVERGENT,
    UNKNOWN_AT_DEPTH,
    DEFAULT_SYMBOL_BUDGET,
    BudgetError,
    DepthError,
    ParamSchedule,
    ScheduleError,
    Stage,
    choose_telescoping_levels,
    heights,
    spacer_ratio_sum,
    tail_mass_bound,
    validate,
)
from rankone.blocks import build_block
from rankone.diagram import MeasureBracket, cylinder_measure_bounds
from rankone.schedules import (
    MAX_WALK_LEVELS,
    PARTIAL_SUM_ENTRY_BYTES,
    _check_partial_sums,
    _closed_tail,
    _first_level_at_least,
    _folded_stages,
    _greedy_levels,
    _heights_at,
    _ratio_terms,
)
from rankone.telescoping import telescope


def tail_diverges(schedule: ParamSchedule) -> bool:
    """True when the spacer-ratio series provably diverges.

    An all-q=1 tail with some positive spacer sum grows heights only
    linearly, so the terms behave harmonically: the partial products
    prod h_k/h_{k+1} = h_start/h_K tend to zero, which is equivalent to
    divergence of sum (1 - h_k/h_{k+1}) = sum spacers_k / h_{k+1}.
    """
    if schedule.tail_period is None:
        return False
    tail = schedule.stages[-schedule.tail_period:]
    return all(stage.q == 1 for stage in tail) and any(sum(stage.a) for stage in tail)


def test_heights_known_values():
    assert heights(ODOMETER, 5) == [1, 2, 4, 8, 16, 32]
    assert heights(CHACON, 5) == [1, 4, 13, 40, 121, 364]
    assert heights(DIVERGENT, 4) == [1, 2, 4, 8, 12]


@given(schedules())
def test_height_recursion(schedule):
    depth = 6 if schedule.tail_period is not None else schedule.prefix_len
    hs = heights(schedule, depth)
    assert hs[0] == 1
    for n in range(depth):
        st = schedule.stage(n)
        assert hs[n + 1] == st.q * hs[n] + st.spacer_sum


def test_tail_resolution_indexing():
    s0, s1, s2 = Stage(2, (0, 1)), Stage(3, (1, 0, 2)), Stage(2, (2, 0))
    sched = ParamSchedule((s0, s1, s2), tail_period=2)
    assert sched.stage(3) == s1
    assert sched.stage(4) == s2
    assert sched.stage(5) == s1
    assert sched.stage(100) == s2  # (100 - 3) odd steps into the (s1, s2) loop
    with pytest.raises(ValueError, match=r"^stage index -1 < 0$"):
        sched.stage(-1)
    # the level cap belongs to the walks, so any one stage resolves
    assert CHACON.stage(MAX_WALK_LEVELS - 1) == CHACON.stages[0]
    assert CHACON.stage(MAX_WALK_LEVELS) == CHACON.stages[0]


def test_bare_prefix_depth_error():
    bare = ParamSchedule((Stage(2, (0, 0)),), tail_period=None)
    with pytest.raises(DepthError):
        bare.stage(1)
    with pytest.raises(DepthError):
        heights(bare, 2)
    assert heights(bare, 1) == [1, 2]


def test_malformed_stage_errors():
    sched = ParamSchedule((Stage(0, ()),), tail_period=1)
    with pytest.raises(ScheduleError):
        sched.stage(0)

    with pytest.raises(ScheduleError):
        ParamSchedule((Stage(2, (0, 0)),), tail_period=2)
    with pytest.raises(ScheduleError):
        ParamSchedule((Stage(2, (0, 0)),), tail_period=0)
    with pytest.raises(ScheduleError):
        ParamSchedule((), tail_period=1)


def test_stage_issue_messages():
    assert Stage(2, (0, 0)).issues() == []
    assert any("q=" in m for m in Stage(0, ()).issues())
    assert any("len(a)" in m for m in Stage(2, (0,)).issues())
    assert any("negative" in m for m in Stage(2, (0, -1)).issues())


@given(schedules())
def test_json_round_trip(schedule):
    doc = schedule.to_json_dict()
    assert ParamSchedule.from_json_dict(doc) == schedule


@pytest.mark.parametrize(
    "doc, needle",
    [
        ({"stages": [], "tail": {"kind": "none"}, "x": 1}, "$.x"),
        ({"stages": [{"q": 2, "a": [0, 0], "z": 3}], "tail": {"kind": "none"}},
         "$.stages[0].z"),
        ({"stages": [{"q": 2}], "tail": {"kind": "none"}}, "$.stages[0]"),
        ({"stages": [{"q": True, "a": []}], "tail": {"kind": "none"}},
         "$.stages[0].q"),
        ({"stages": [], "tail": {"kind": "weekly"}}, "$.tail.kind"),
        ({"stages": [], "tail": {"kind": "periodic"}}, "$.tail.period"),
        ({"stages": [], "tail": {"kind": "none", "period": 2}}, "$.tail"),
        ({"stages": {}, "tail": {"kind": "none"}}, "$.stages"),
    ],
)
def test_json_rejects_with_position(doc, needle):
    with pytest.raises(ScheduleError, match=None) as err:
        ParamSchedule.from_json_dict(doc)
    assert needle in str(err.value)


def test_heights_size_budget():
    # h_n = 2^n: heights through level 23169 take at most 23170^2 / 8 bytes,
    # under 2^26, and level 23170 is the first one that could pass it
    odometer = ParamSchedule(ODOMETER.stages, ODOMETER.tail_period)
    with pytest.raises(BudgetError) as err:
        heights(odometer, 2**21)
    assert str(err.value) == (
        "height list needs up to 67111905 bytes by level 23170, over the budget of 67108864"
    )
    # a depth past the level cap is refused before any stage is read
    with pytest.raises(BudgetError, match="^stage walk needs 100000000 levels, over the budget of 2097152$"):
        heights(odometer, 10**8)
    assert heights(odometer, 23169)[-1] == 2**23169
    with pytest.raises(BudgetError, match=(
        "^height list needs up to 67111905 bytes by level 23170, over the budget of 67108864$"
    )):
        heights(odometer, 23170)
    # the greedy walk reads the height walk, which refuses the first level over the budget
    chacon = ParamSchedule(CHACON.stages, CHACON.tail_period)
    with pytest.raises(BudgetError, match=(
        "^height list needs up to 67111531 bytes by level 18404, over the budget of 67108864$"
    )):
        choose_telescoping_levels(chacon, 1000)


def test_one_budget_check():
    # every size refusal is raised by _check_budget, so all share one message shape
    src = Path(__file__).resolve().parents[1] / "src" / "rankone"
    text = "".join(path.read_text() for path in sorted(src.glob("*.py")))
    assert text.count("raise BudgetError") == 1


def test_tail_mass_bound_values():
    # no spacers at all: the series is exactly zero past any start
    assert tail_mass_bound(ODOMETER, 0) == 0
    assert tail_mass_bound(ODOMETER, 5) == 0
    # one period triples the height, so the geometric factor is 3/2
    assert tail_mass_bound(CHACON, 0) == Fraction(1, 4) + Fraction(1, 4) * Fraction(3, 2)
    # linear growth with positive runs: no finite bound exists
    assert tail_mass_bound(DIVERGENT, 0) is None
    bare = ParamSchedule((Stage(2, (1, 1)),), tail_period=None)
    assert tail_mass_bound(bare, 0) is None


@given(any_schedules(), st.integers(0, 6))
def test_tail_mass_bound_is_none_only_for_a_bare_or_diverging_tail(schedule, start):
    # spacer_ratio_sum reports the bound as proved wherever these two fail
    try:
        bound = tail_mass_bound(schedule, start)
    except ScheduleError:
        return
    assert (bound is None) == (schedule.tail_period is None or tail_diverges(schedule))


def test_tail_mass_bound_dominates_partials():
    bound = tail_mass_bound(CHACON, 0)
    assert spacer_ratio_sum(CHACON, 40).partial < bound


@given(schedules(allow_bare=False))
def test_total_bound_caps_later_partials(schedule):
    early = spacer_ratio_sum(schedule, 2)
    assert early.verdict == PROVED_CONVERGENT
    late = spacer_ratio_sum(schedule, 10)
    assert late.partial <= early.total_bound


def test_ratio_sum_chacon_exact():
    report = spacer_ratio_sum(CHACON, 3)
    assert report.partial == Fraction(1, 4) + Fraction(1, 13) + Fraction(1, 40)
    assert report.partial == Fraction(183, 520)
    assert report.verdict == PROVED_CONVERGENT
    assert report.total_bound is not None


def test_ratio_sum_divergent_and_unknown():
    assert tail_diverges(DIVERGENT)
    report = spacer_ratio_sum(DIVERGENT, 3)
    assert report.partial == Fraction(3, 2)
    assert report.verdict == PROVED_DIVERGENT
    assert report.total_bound is None

    bare = ParamSchedule((Stage(2, (1, 0)),), tail_period=None)
    assert spacer_ratio_sum(bare, 1).verdict == UNKNOWN_AT_DEPTH

    # a verdict speaks for the whole series, so the explicit stages past n
    # are read, and a bad one refused, whether the tail diverges or not
    for tail in (Stage(1, (1,)), Stage(3, (0, 1, 0))):
        sick = ParamSchedule((Stage(2, (0, 0)), Stage(2, (-1, 0)), tail), tail_period=1)
        with pytest.raises(ScheduleError, match="^stage 1: negative spacer count$"):
            spacer_ratio_sum(sick, 1)


def test_validate_healthy_and_sick():
    good = validate(CHACON, 6)
    assert good.ok
    assert good.q_gt1_infinitely_often is True
    assert good.tail_verdict == PROVED_CONVERGENT
    assert len(good.partial_sums) == 6

    div = validate(DIVERGENT, 4)
    assert not div.ok
    assert div.q_gt1_infinitely_often is False
    assert div.tail_verdict == PROVED_DIVERGENT
    assert not div.not_defined_everywhere_risk

    frozen = validate(ParamSchedule((Stage(1, (0,)),), tail_period=1), 4)
    assert frozen.not_defined_everywhere_risk
    assert not frozen.ok


def test_validate_never_raises_on_malformed():
    broken = ParamSchedule((Stage(2, (0,)),), tail_period=1)
    report = validate(broken, 4)
    assert report.structural_issues
    assert not report.ok
    assert report.partial_sums == ()


def test_validate_reports_tail_stages_past_depth():
    bad_tail = ParamSchedule(
        (Stage(2, (0, 1)), Stage(2, (1, 0)), Stage(2, (-1, 0))), tail_period=1
    )
    for depth in (1, 2, 3, 6):
        report = validate(bad_tail, depth)
        assert report.structural_issues == ("stage 2: negative spacer count",)
        assert not report.ok
    # the tail bound sums through a bad stage before the tail at any depth
    bad_prefix = ParamSchedule(
        (Stage(2, (0, 0)), Stage(2, (0,)), Stage(2, (0, 1))), tail_period=1
    )
    for depth in (1, 2):
        report = validate(bad_prefix, depth)
        assert report.structural_issues == ("stage 1: len(a)=1 != q=2",)
        assert not report.ok and report.ratio is None
    bare = ParamSchedule((Stage(2, (0, 1)), Stage(2, (-1, 0))), tail_period=None)
    assert validate(bare, 1).structural_issues == ()


def test_validate_bare_prefix():
    bare = ParamSchedule((Stage(2, (0, 1)),), tail_period=None)
    report = validate(bare, 1)
    assert report.q_gt1_infinitely_often is None
    assert report.tail_verdict == UNKNOWN_AT_DEPTH
    assert report.ok  # nothing disproven at this depth
    assert report.to_json_dict()["ok"] is True
    # past the prefix the series is summed as far as the stages go
    deep = validate(bare, 8)
    assert deep.partial_sums == report.partial_sums == (Fraction(1, 3),)
    assert deep.ratio == spacer_ratio_sum(bare, 1)


@given(schedules(max_stages=60), st.integers(0, 60))
def test_exact_totals_equal_the_sequential_sum(schedule, n):
    # the pairwise totals against the sequential sum they replaced
    def sequential(stop, start=0):
        return sum(_ratio_terms(schedule, stop, start), Fraction(0))

    if schedule.tail_period is None:
        n = min(n, schedule.prefix_len)
    total = spacer_ratio_sum(schedule, n).partial
    assert type(total) is Fraction and total == sequential(n)
    report = validate(schedule, n)
    assert report.ratio.partial == total
    assert report.partial_sums[-1:] == ((total,) if n else ())
    if schedule.tail_period is not None:
        # the bound from n sums exactly through the prefix, then adds the
        # geometric remainder, which is the bound from the prefix's end on
        t0 = max(n, schedule.prefix_len)
        rest = tail_mass_bound(schedule, t0)
        bound = tail_mass_bound(schedule, n)
        assert bound == (None if rest is None else sequential(t0, n) + rest)
        assert bound is None or type(bound) is Fraction


def test_validate_partial_sum_budget():
    # each of chacon's partial sums S_k takes up to 2 * sum_{j<=k} bits(h_j)
    # bits plus PARTIAL_SUM_ENTRY_BYTES; S_1..S_k together first pass 2^26
    # bytes at level 1003, refused before any sum is added
    _check_partial_sums(ParamSchedule(CHACON.stages, 1), 1002)
    with pytest.raises(BudgetError, match=(
        "^partial sum list needs up to 67144947 bytes by level 1003, "
        "over the budget of 67108864$"
    )):
        validate(ParamSchedule(CHACON.stages, 1), 1003)
    # a zero term adds nothing to the denominators: the odometer's sums stay 0
    assert validate(ParamSchedule(ODOMETER.stages, 1), 2000).partial_sums[-1] == 0


def _partial_sum_refusal(schedule, n, budget):
    """The refusal of the level-by-level walk over levels 1..n, or None: at
    each level the kept heights are sized (from 2^255 on), then the sums."""
    bits = total = 0
    h = 1
    for k in range(1, n + 1):
        st = schedule.stage(k - 1)
        h = st.q * h + st.spacer_sum
        if h >= 2**255 and (k + 1) * h.bit_length() // 8 > budget:
            return f"height list needs up to {(k + 1) * h.bit_length() // 8} bytes by level {k}"
        bits += h.bit_length() if st.spacer_sum else 0
        total += 2 * bits
        if total // 8 + PARTIAL_SUM_ENTRY_BYTES * k > budget:
            need = total // 8 + PARTIAL_SUM_ENTRY_BYTES * k
            return f"partial sum list needs up to {need} bytes by level {k}"
    return None


@given(
    st.lists(st.tuples(st.integers(1, 3), st.sampled_from([0, 1, 2**300])), max_size=3),
    st.sampled_from([0, 1400]),
    st.integers(1, 3),
    st.sampled_from([1 << 12, 1 << 16, 1 << 20]),
    st.integers(0, 3000),
)
@example([], 1400, 1, 1 << 20, 8000)  # the height list is refused first, at level 5987
@example([(1, 2**300)], 0, 2, 1 << 16, 3000)
def test_frozen_tail_partial_sum_refusal_matches_the_walk(prefix, doublings, period, budget, n):
    # past the prefix a frozen tail's levels all cost the same, so the first
    # one over either budget is found by bisection, not by walking to it;
    # 1,400 doublings without spacers pass 2^255 with no digits in the sums
    stages = [Stage(q, (x,) + (0,) * (q - 1)) for q, x in prefix] + [Stage(2, (0, 0))] * doublings
    schedule = ParamSchedule((*stages, *[Stage(1, (0,))] * period), tail_period=period)
    want = _partial_sum_refusal(schedule, n, budget)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rankone.schedules.DEFAULT_SYMBOL_BUDGET", budget)
        if want is None:
            _check_partial_sums(schedule, n)
        else:
            with pytest.raises(BudgetError, match=f"^{want}, over the budget of {budget}$"):
                _check_partial_sums(schedule, n)


def test_choose_levels_known():
    assert choose_telescoping_levels(ODOMETER, 3) == [0, 1, 3, 6]
    assert choose_telescoping_levels(CHACON, 2) == [0, 1, 3]
    assert choose_telescoping_levels(CHACON, 0) == [0]


@given(schedules(allow_bare=False))
def test_choose_levels_growth_and_minimality(schedule):
    m = choose_telescoping_levels(schedule, 3)
    hs = heights(schedule, m[-1])
    assert m[0] == 0
    for j in range(3):
        target = 2 ** (j + 1) * hs[m[j]]
        assert hs[m[j + 1]] >= target
        for cand in range(m[j] + 1, m[j + 1]):
            assert hs[cand] < target


def test_choose_levels_frozen_tail():
    frozen = ParamSchedule((Stage(2, (0, 0)), Stage(1, (0,))), tail_period=1)
    assert choose_telescoping_levels(frozen, 1) == [0, 1]
    with pytest.raises(DepthError):
        choose_telescoping_levels(frozen, 2)


def test_choose_levels_walk_budget():
    # heights grow by 3 per level past level 1, so each window is about
    # 2^j times further up; the seventh lies past MAX_WALK_LEVELS.  The
    # walk reads the q = 1 tail's levels in closed form, so it reads no tail stage
    t0 = time.perf_counter()
    linear = ParamSchedule(
        (Stage(2, (0, 2)), Stage(4, (1, 3, 0, 0)), Stage(1, (2,)), Stage(1, (3,))),
        tail_period=1,
    )
    levels = choose_telescoping_levels(linear, 6)
    assert levels == [0, 1, 2, 49, 849, 27303, 1747665]
    assert levels[-1] <= MAX_WALK_LEVELS
    with pytest.raises(BudgetError, match="^stage walk needs 2097153 levels, over the budget of 2097152$"):
        choose_telescoping_levels(linear, 7)
    assert time.perf_counter() - t0 < 0.5


def test_height_walk_stops_at_the_level_cap(monkeypatch):
    # a q >= 2 tail is walked level by level, and the height walk stops
    # itself at MAX_WALK_LEVELS; chacon's greedy levels are 1, 3, 5, 8, 12
    monkeypatch.setattr("rankone.schedules.MAX_WALK_LEVELS", 10)
    chacon = ParamSchedule(CHACON.stages, CHACON.tail_period)  # no heights kept yet
    assert choose_telescoping_levels(chacon, 4) == [0, 1, 3, 5, 8]
    with pytest.raises(BudgetError, match="^stage walk needs 11 levels, over the budget of 10$"):
        choose_telescoping_levels(chacon, 5)


@pytest.mark.parametrize(("budget", "tail_spacers", "levels", "refusal"), [
    (1 << 16, 2**300, [0, 1, 5, 41, 657], "needs up to 65543 bytes by level 1685"),  # below the cap
    (1 << 16, 1, [0, 1], "needs up to 65542 bytes by level 1741"),  # past the cap
    (DEFAULT_SYMBOL_BUDGET, 1, [0, 1], "needs up to 67108890 bytes by level 1783624"),
], ids=["below-the-cap", "past-the-cap", "unpatched"])
def test_q1_tail_step_refuses_over_the_height_budget(monkeypatch, budget, tail_spacers, levels,
                                                      refusal):
    # heights past 2^255 are sized against the height budget; the greedy walk
    # and heights refuse the level the level-by-level height walk refuses
    # first, found by bisection, not by walking to it
    monkeypatch.setattr("rankone.schedules.DEFAULT_SYMBOL_BUDGET", budget)
    schedule = ParamSchedule((Stage(1, (2**300,)), Stage(1, (tail_spacers,))), tail_period=1)
    message = f"^height list {refusal}, over the budget of {budget}$"
    t0 = time.perf_counter()
    assert choose_telescoping_levels(schedule, len(levels) - 1) == levels
    with pytest.raises(BudgetError, match=message):
        choose_telescoping_levels(schedule, len(levels))
    with pytest.raises(BudgetError, match=message):
        heights(schedule, MAX_WALK_LEVELS)
    assert time.perf_counter() - t0 < 0.5


def test_choose_levels_bad_args():
    with pytest.raises(ValueError):
        choose_telescoping_levels(CHACON, -1)


# -- the per-instance caches against uncached references ---------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ScheduleError, DepthError) as exc:
        return type(exc), str(exc)


def _reference_stage(schedule, n):
    count, p = len(schedule.stages), schedule.tail_period
    if n < count:
        stage = schedule.stages[n]
    elif p is not None:
        stage = schedule.stages[count - p + (n - count) % p]
    else:
        raise DepthError(f"stage {n} unresolvable: {count} explicit stages and no tail")
    if stage.issues():
        raise ScheduleError(f"stage {n}: " + "; ".join(stage.issues()))
    return stage


def _reference_heights(schedule, n):
    hs = [1]
    for k in range(n):
        stage = _reference_stage(schedule, k)
        hs.append(stage.q * hs[-1] + sum(stage.a))
    return hs


@given(any_schedules(), st.integers(0, 200))
def test_cached_resolution_matches_reference(schedule, n):
    for _ in range(2):  # the first call fills the caches, the second reads them
        for k in (0, n // 2, n):
            assert _outcome(schedule.stage, k) == _outcome(_reference_stage, schedule, k)
        assert _outcome(heights, schedule, n) == _outcome(_reference_heights, schedule, n)
    for stage in schedule.stages:
        assert stage.spacer_sum == sum(stage.a)


def _reference_tail_bound(schedule, start):
    """tail_mass_bound's exact terms and geometric remainder from the reference heights."""
    tail = schedule.stages[schedule.prefix_len - schedule.tail_period:]
    q_product = prod(stage.q for stage in tail)
    max_spacers = max(sum(stage.a) for stage in tail)
    t0 = max(start, schedule.prefix_len)
    hs = _reference_heights(schedule, t0)
    exact = Fraction(0)
    for k in range(start, t0):
        exact += Fraction(sum(_reference_stage(schedule, k).a), hs[k + 1])
    if max_spacers == 0:
        return exact
    if q_product < 2:
        return None
    return exact + Fraction(schedule.tail_period * max_spacers, hs[t0]) * Fraction(
        q_product, q_product - 1
    )


@given(schedules(max_stages=5, min_q=1, allow_bare=False).filter(lambda s: s.prefix_len >= 2))
def test_tail_mass_bound_matches_reference(schedule):
    # starts inside the prefix, at its end and past it; the second pass
    # reads the heights that the first one left on the schedule
    starts = range(schedule.prefix_len + 4)
    for start in [*starts, *reversed(starts)]:
        assert tail_mass_bound(schedule, start) == _reference_tail_bound(schedule, start)


@given(any_schedules())
def test_heights_result_is_the_callers(schedule):
    depth = 8 if schedule.tail_period is not None else schedule.prefix_len
    first = _outcome(heights, schedule, depth)
    if isinstance(first, list):
        first.append(-1)
        first[0] = -1
    assert _outcome(heights, schedule, depth) == _outcome(_reference_heights, schedule, depth)


@given(any_schedules())
def test_caches_leave_equality_and_hash_alone(schedule):
    twin = ParamSchedule(
        tuple(Stage(s.q, s.a) for s in schedule.stages), schedule.tail_period
    )
    before = hash(schedule), [hash(s) for s in schedule.stages]
    _outcome(heights, schedule, 12)
    validate(schedule, 3)
    for s in schedule.stages:
        assert s.spacer_sum == sum(s.a)
    assert (hash(schedule), [hash(s) for s in schedule.stages]) == before
    assert schedule == twin and hash(schedule) == hash(twin)
    assert schedule.stages == twin.stages


class _WalkTooLong(Exception):
    pass


def _reference_levels(schedule, count, growth_base=2, limit=10_000):
    """The greedy levels by reading one reference stage per level."""
    tail = () if schedule.tail_period is None else schedule.stages[-schedule.tail_period:]
    if any(stage.issues() for stage in tail):
        raise ScheduleError("tail contains a structurally invalid stage")
    frozen = bool(tail) and all(stage.q == 1 and not any(stage.a) for stage in tail)
    levels, hs = [0], [1]
    for j in range(1, count + 1):
        target = growth_base**j * hs[levels[-1]]
        while True:
            if frozen and len(hs) > schedule.prefix_len:
                raise DepthError(
                    f"periodic tail adds no height growth; cannot reach h >= {target}"
                )
            if len(hs) > limit:
                raise _WalkTooLong
            stage = _reference_stage(schedule, len(hs) - 1)
            hs.append(stage.q * hs[-1] + sum(stage.a))
            if hs[-1] >= target:
                break
        levels.append(len(hs) - 1)
    return levels


def _greedy(schedule, count, growth_base):
    """choose_telescoping_levels with any growth base."""
    return [0, *islice(_greedy_levels(schedule, growth_base), count)]


@st.composite
def q1_tail_schedules(draw):
    """Up to 3 explicit stages (q 1-3, runs 0-4), then a periodic tail of 1-4
    stages with q = 1: frozen when every run is 0, linear otherwise."""
    stages = []
    for _ in range(draw(st.integers(0, 3))):
        q = draw(st.integers(1, 3))
        stages.append(Stage(q, tuple(draw(st.lists(st.integers(0, 4), min_size=q, max_size=q)))))
    period = draw(st.integers(1, 4))
    top = draw(st.sampled_from([0, 4, 4]))  # a frozen tail or, mostly, a linear one
    stages += [Stage(1, (draw(st.integers(0, top)),)) for _ in range(period)]
    return ParamSchedule(tuple(stages), tail_period=period)


@given(any_schedules() | q1_tail_schedules(), st.integers(0, 3), st.integers(2, 4))
def test_choose_levels_matches_reference_walk(schedule, count, growth_base):
    try:
        expected = _outcome(_reference_levels, schedule, count, growth_base)
    except _WalkTooLong:
        return
    assert _outcome(_greedy, schedule, count, growth_base) == expected


@given(any_schedules(), st.integers(0, 6))
def test_validate_inspects_what_it_reads(schedule, depth):
    report = validate(schedule, depth)
    assert report.ratio is not None or not report.ok
    # the document carries the ratio sum and bound exactly when ok
    doc = report.to_json_dict()
    assert ("ratio_partial_sum" in doc) == ("ratio_total_bound" in doc) == report.ok
    if report.ok:
        assert doc["ratio_partial_sum"] == str(report.ratio.partial)
    # a periodic tail's bound sums exact terms through the whole prefix
    read = schedule.prefix_len if schedule.tail_period is not None else depth
    assert report.structural_issues == tuple(
        f"stage {k}: {msg}" for k, stage in enumerate(schedule.stages[:read])
        for msg in stage.issues()
    )


@given(any_schedules(), st.integers(0, 3), st.integers(0, 12), st.integers(0, 3))
@example(ParamSchedule((Stage(2, (0, 0)), Stage(1, (0,))), tail_period=1), 2, 10, 0)
def test_choose_levels_resumes_from_cached_heights(schedule, count, depth, first):
    # heights cached by heights() or by an earlier walk, past a frozen
    # tail included, give the levels and errors of a walk from h_0
    try:
        expected = _outcome(_reference_levels, schedule, count)
        _outcome(_reference_levels, schedule, first)
    except _WalkTooLong:
        return
    _outcome(heights, schedule, depth)
    _outcome(choose_telescoping_levels, schedule, first)
    assert _outcome(choose_telescoping_levels, schedule, count) == expected


def test_second_walk_resolves_no_cached_stage(monkeypatch):
    schedule = ParamSchedule(CHACON.stages, CHACON.tail_period)  # nothing cached
    resolved = []
    original = ParamSchedule.stage

    def counted(self, n):
        resolved.append(n)
        return original(self, n)

    monkeypatch.setattr(ParamSchedule, "stage", counted)
    assert choose_telescoping_levels(schedule, 4) == [0, 1, 3, 5, 8]
    assert resolved == list(range(8))
    resolved.clear()
    assert choose_telescoping_levels(schedule, 4) == [0, 1, 3, 5, 8]
    assert resolved == []
    assert choose_telescoping_levels(schedule, 6) == [0, 1, 3, 5, 8, 12, 16]
    assert resolved == list(range(8, 16))
    heights(schedule, 30)
    resolved.clear()
    assert choose_telescoping_levels(schedule, 8) == [0, 1, 3, 5, 8, 12, 16, 21, 27]
    assert resolved == []


def _reference_block(schedule, n):
    """B_n by concatenation, one reference stage per level."""
    block = "0"
    for k in range(n):
        block = "".join(block + "1" * x for x in _reference_stage(schedule, k).a)
    return block


def _reference_window(schedule, lo, hi):
    """The runs of window [lo, hi) by the block recursion, one reference stage per level."""
    runs = [0]
    for k in range(lo, hi):
        runs = [r for x in _reference_stage(schedule, k).a for r in runs[:-1] + [runs[-1] + x]]
    return Stage(len(runs), tuple(runs))


@given(any_schedules() | q1_tail_schedules(), st.integers(0, 200), st.integers(0, 200),
       st.integers(1, 2000))
def test_closed_tail_matches_the_stage_walk(schedule, lo, span, x):
    # past c a tail whose q product is 1 is read in closed form: heights, the
    # one search for the first level at or above a height, and the folded run
    # of a level range agree with a walk that reads one stage per level
    top = schedule.prefix_len + 200
    hi = min(lo + span, top)
    lo = min(lo, hi)
    try:
        hs = _reference_heights(schedule, top)
        stages = [_reference_stage(schedule, k) for k in range(lo, hi)]
    except (ScheduleError, DepthError):
        return
    tail = _closed_tail(schedule)
    folded = list(_folded_stages(schedule, lo, hi))
    assert _heights_at(schedule, list(range(top + 1))) == hs
    want = next((k for k in range(lo, hi + 1) if hs[k] >= x), hi + 1)
    assert _first_level_at_least(schedule, lo, hi + 1, x) == want
    if tail is None:
        assert folded == stages
        return
    c = tail.start
    assert [hs[c] + tail.spacers(c, k) for k in range(c, top + 1)] == hs[c:]
    mid = min(hi, max(lo, c))
    assert folded[:mid - lo] == stages[:mid - lo]
    assert folded[mid - lo:] == ([Stage(1, (sum(st.spacer_sum for st in stages[mid - lo:]),))]
                                 if mid < hi else [])


@given(q1_tail_schedules(), st.integers(0, 200), st.integers(0, 3), st.data())
def test_q1_tail_walks_match_the_reference(schedule, extra, n, data):
    # build_block, telescope and cylinder_measure_bounds read the folded stage
    # past c; each equals what one reference stage per level gives, and a
    # block over a small budget is refused at the first level over it
    depth = schedule.prefix_len + extra
    assert heights(schedule, depth) == _reference_heights(schedule, depth)
    assert build_block(schedule, depth) == _reference_block(schedule, depth)
    budget = data.draw(st.integers(1, 400))
    over = [(k, h) for k, h in enumerate(_reference_heights(schedule, depth)) if h > budget]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rankone.blocks.DEFAULT_SYMBOL_BUDGET", budget)
        if over:
            want = f"^block needs {over[0][1]} symbols by level {over[0][0]}, over the budget of {budget}$"
            with pytest.raises(BudgetError, match=want):
                build_block(schedule, depth)
        else:
            assert build_block(schedule, depth) == _reference_block(schedule, depth)
    if n <= depth:
        hs = _reference_heights(schedule, depth)
        hi = Fraction(prod(_reference_stage(schedule, k).q for k in range(n, depth)), hs[depth])
        bound = _reference_tail_bound(schedule, depth)
        assert cylinder_measure_bounds(schedule, n, depth) == (
            MeasureBracket(Fraction(0), hi, False) if bound is None
            else MeasureBracket(max(Fraction(0), hi * (1 - bound)), hi, True)
        )
    cuts = data.draw(st.lists(st.integers(1, depth), max_size=3, unique=True)) if depth else []
    levels = [0, *sorted(cuts)]
    tele = telescope(schedule, levels)
    hs = _reference_heights(schedule, levels[-1])
    assert tele.heights == tuple(hs[m] for m in levels)
    assert tele.stages == tuple(_reference_window(schedule, a, b) for a, b in zip(levels, levels[1:]))
