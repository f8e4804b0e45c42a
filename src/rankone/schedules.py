"""Cutting-and-stacking parameter schedules.

A rank-one construction is driven by a stage sequence: stage n cuts the
current tower into ``q_n`` columns and inserts ``a[n][i]`` spacer levels
above column i, so the heights satisfy

    h_0 = 1,    h_{n+1} = q_n * h_n + sum_i a[n][i].

Infinite schedules are encoded as a finite explicit prefix plus an
optional periodic tail that repeats the last ``tail_period`` explicit
stages forever.  That encoding keeps tail questions decidable: eventual
height growth, whether q > 1 occurs infinitely often, and convergence
of the spacer-ratio series sum_n (sum_i a[n][i]) / h_{n+1}.  One private
tail object, cached on the schedule, answers them all.  A tail whose q
product is 1 is closed: past its start c = prefix - p, its heights, the
spacer total of a level range and the first level at or above a height
are read in closed form, and the walks that build a word, a window or a
copy count get those levels as one folded q = 1 stage, so none of them
resolves a stage past the first period.  A frozen tail is a closed one
without spacers.  One search, ``_first_level_at_least``, finds the first
level at or above a height for the greedy level walk and the block budget.

All arithmetic here is exact: heights are Python ints, ratios are
``fractions.Fraction``.  Floats never enter.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice
from math import prod

PROVED_CONVERGENT = "proved-convergent"
PROVED_DIVERGENT = "proved-divergent"
UNKNOWN_AT_DEPTH = "unknown-at-depth"


class ScheduleError(ValueError):
    """A stage is structurally unusable (q < 1, negative spacers, bad shape)."""


class DepthError(Exception):
    """A stage beyond the resolvable range was requested."""


class BudgetError(ValueError):
    """A request would pass one of the size limits below; raised before its work starts,
    only by ``_check_budget``, whose message every refusal shares."""


# the longest word one call builds, the most copies in a telescoped window (64 MB of str),
# and the most bytes the kept heights of one schedule may take
DEFAULT_SYMBOL_BUDGET = 1 << 26
# the most floors one verify walk maps: chacon's depth-5 fiber, 797,161 floors in 30 s, fits
VERIFY_WALK_BUDGET = 1 << 20
# the deepest level a walk reads: a spec's levels or a --depth may name any level, and
# the height walk, which has no last level, stops here; the greedy walk reads a closed
# tail's levels in closed form and refuses a level past it as the height walk would
MAX_WALK_LEVELS = 1 << 21
# MAX_WALK_LEVELS + 1 heights, each below this one, fit DEFAULT_SYMBOL_BUDGET bytes: the
# height walk sizes only larger heights, since a budget check on every level costs time
_SMALL_HEIGHT = 1 << (8 * DEFAULT_SYMBOL_BUDGET // (MAX_WALK_LEVELS + 1))
# what one kept partial sum costs besides its digits: its Fraction, its slot in the
# report and, in validate's JSON, its string and line.  Measured as the slope of peak
# RSS of `validate --format json` on a frozen tail, whose sums are all 0: 172 bytes a
# level from 2^19 to 2^20 levels (CPython 3.11, x86-64; 80 with --format text)
PARTIAL_SUM_ENTRY_BYTES = 172


@dataclass(frozen=True)
class Stage:
    """One cut-and-stack step: q columns, a[i] spacers above column i.

    ``spacer_sum`` is cached on the instance, outside equality and hashing.
    """

    q: int
    a: tuple[int, ...]

    @cached_property
    def spacer_sum(self) -> int:
        return sum(self.a)

    def issues(self) -> list[str]:
        """Structural problems, empty when the stage is well-formed."""
        out = []
        if self.q < 1:
            out.append(f"q={self.q} < 1")
        if len(self.a) != self.q:
            out.append(f"len(a)={len(self.a)} != q={self.q}")
        if any(x < 0 for x in self.a):
            out.append("negative spacer count")
        return out


@dataclass(frozen=True)
class _Tail:
    """A sound periodic tail: level c + r + jp, for r < p and j >= 0, reads
    the explicit stage c + r, where c = prefix_len - p.

    ``runs[r]`` is the spacer total of levels c..c+r-1, so ``runs[p]`` is
    S, the period's.  A tail whose q product Q is 1 cuts nothing, so past
    c it is closed: its heights are read in closed form, h_{c+r+jp} =
    h_{c+r} + jS, and so are the spacer total of a level range and the
    first level at or above a height.  A frozen tail is a closed one with
    S = 0.
    """

    start: int                  # c
    period: int                 # p
    q_product: int              # Q
    runs: tuple[int, ...]
    max_spacers: int            # the largest spacer sum of a tail stage
    final_runs: bool            # some tail stage ends in a positive run

    @property
    def closed(self) -> bool:
        return self.q_product == 1

    @property
    def frozen(self) -> bool:
        """Whether past c no level changes a height or a block."""
        return self.closed and not self.runs[-1]

    def spacers(self, lo: int, hi: int) -> int:
        """The spacer total of levels lo..hi-1, for c <= lo <= hi: on a
        closed tail h_hi = h_lo + spacers(lo, hi)."""
        j, r = divmod(hi - self.start, self.period)
        i, s = divmod(lo - self.start, self.period)
        return (j - i) * self.runs[-1] + self.runs[r] - self.runs[s]

    def first_level(self, h_c: int, x: int) -> int | None:
        """The least level k >= c with h_k >= x on a closed tail, from h_c:
        the least over the p residues r of c + r + jp, with j the fewest
        periods that lift h_{c+r} to x; None when no level reaches x."""
        total = self.runs[-1]
        if not total:
            return self.start if h_c >= x else None
        return min(self.start + r + max(0, (x - h_c - run + total - 1) // total) * self.period
                   for r, run in enumerate(self.runs[:-1]))

    def mass_past(self, h: int) -> Fraction | None:
        """A bound on sum_{k >= t} spacers_k / h_{k+1} for t >= prefix_len,
        from h = h_t: one period multiplies the height by at least Q, so
        the terms are dominated by (p max_spacers / h) Q/(Q-1) when Q >= 2.
        None when no bound is provable: a Q = 1 tail with spacers, whose
        series diverges."""
        if not self.max_spacers:
            return Fraction(0)
        if self.q_product < 2:
            return None
        return Fraction(self.period * self.max_spacers, h) * Fraction(self.q_product, self.q_product - 1)


@dataclass(frozen=True)
class ParamSchedule:
    """Explicit stages plus an optional periodic tail.

    ``tail_period=None`` means the schedule is only known up to its
    explicit prefix; ``tail_period=p`` means the last p explicit stages
    repeat forever.

    Each stage's structural check, the tail, the heights and the level
    table are cached on the instance, outside equality and hashing.
    """

    stages: tuple[Stage, ...]
    tail_period: int | None = None

    def __post_init__(self):
        if self.tail_period is not None:
            if not self.stages:
                raise ScheduleError("periodic tail requires at least one explicit stage")
            if not 1 <= self.tail_period <= len(self.stages):
                raise ScheduleError(
                    f"tail period {self.tail_period} outside 1..{len(self.stages)}"
                )

    @property
    def prefix_len(self) -> int:
        return len(self.stages)

    @cached_property
    def _problems(self) -> tuple[tuple[str, ...], ...]:
        """Structural issues of each explicit stage, checked once."""
        return tuple(tuple(st.issues()) for st in self.stages)

    @cached_property
    def _tail(self) -> _Tail | None:
        """The periodic tail, None for a bare prefix; raises ScheduleError on
        a bad tail stage.

        The only reader of the tail's stages as a group: every tail
        question is answered from this object, so each meets the same
        structural check.
        """
        p = self.tail_period
        if p is None:
            return None
        if any(self._problems[-p:]):
            raise ScheduleError("tail contains a structurally invalid stage")
        tail = self.stages[-p:]
        runs = tuple(accumulate((st.spacer_sum for st in tail), initial=0))
        return _Tail(len(self.stages) - p, p, prod(st.q for st in tail), runs,
                     max(st.spacer_sum for st in tail), any(st.a[-1] for st in tail))

    @cached_property
    def _heights(self) -> list[int]:
        """h_0..h_k for the k stages resolved so far; ``_height_walk`` is its
        only writer and extends it in place."""
        return [1]

    @cached_property
    def _levels(self) -> list[tuple[int, ...]]:
        """Copy starts of the levels resolved so far; ``_floor_tables`` is its
        only writer and extends it in place."""
        return []

    def stage(self, n: int) -> Stage:
        """Resolve stage n, reading through the periodic tail when present.

        Any n >= 0 resolves: a walk to a requested level meets its depth
        rule in ``_stages``, which refuses the level before any stage is
        read, and the height walk, which has no last level, stops itself at
        MAX_WALK_LEVELS.
        """
        if n < 0:
            raise ValueError(f"stage index {n} < 0")
        count = len(self.stages)
        if n < count:
            idx = n
        elif self.tail_period is not None:
            idx = count - self.tail_period + (n - count) % self.tail_period
        else:
            raise DepthError(
                f"stage {n} unresolvable: {count} explicit stages and no tail"
            )
        if self._problems[idx]:
            raise ScheduleError(f"stage {n}: " + "; ".join(self._problems[idx]))
        return self.stages[idx]

    def to_json_dict(self) -> dict:
        tail: dict = (
            {"kind": "none"}
            if self.tail_period is None
            else {"kind": "periodic", "period": self.tail_period}
        )
        return {
            "stages": [{"q": s.q, "a": list(s.a)} for s in self.stages],
            "tail": tail,
        }

    @classmethod
    def from_json_dict(cls, doc, where: str = "$") -> "ParamSchedule":
        """Strict parse of the schedule JSON form; unknown keys are rejected."""
        error = ScheduleError
        _json_object(doc, where, error, ("stages", "tail"))
        stages = []
        for idx, raw in enumerate(_json_array(doc["stages"], f"{where}.stages", error)):
            spot = f"{where}.stages[{idx}]"
            _json_object(raw, spot, error, ("q", "a"))
            q = _json_int(raw["q"], f"{spot}.q", error)
            stages.append(Stage(q, _json_ints(raw["a"], f"{spot}.a", error)))
        spot = f"{where}.tail"
        tail = _json_object(doc["tail"], spot, error, ("kind",), ("period",))
        if tail["kind"] not in ("none", "periodic"):
            raise error(f"tail kind must be 'none' or 'periodic' at {spot}.kind")
        periodic = tail["kind"] == "periodic"
        _json_object(tail, spot, error, ("kind", "period") if periodic else ("kind",))
        period = _json_int(tail["period"], f"{spot}.period", error) if periodic else None
        try:
            return cls(tuple(stages), period)
        except ScheduleError as exc:  # __post_init__'s period range
            raise error(f"{exc} at {spot}.period") from None


# the strict JSON reader of the schedule, spec and path forms: each check
# raises the caller's error class, with a message ending " at <JSON path>"


def _json_object(doc, where: str, error: type[Exception], required, optional=()) -> dict:
    """doc, an object with every required field and no field outside
    required and optional; its keys are checked in document order."""
    if not isinstance(doc, dict):
        raise error(f"expected an object at {where}")
    for key in doc:
        if key not in required and key not in optional:
            raise error(f"unknown field {key!r} at {where}.{key}")
    for key in required:
        if key not in doc:
            raise error(f"missing field {key!r} at {where}.{key}")
    return doc


def _json_array(value, where: str, error: type[Exception]) -> list:
    if not isinstance(value, list):
        raise error(f"expected an array at {where}")
    return value


def _json_int(value, where: str, error: type[Exception]) -> int:
    """value, an integer; JSON true and false are not integers."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"expected an integer at {where}")
    return value


def _json_ints(value, where: str, error: type[Exception]) -> tuple[int, ...]:
    items = _json_array(value, where, error)
    return tuple(_json_int(x, f"{where}[{i}]", error) for i, x in enumerate(items))


def _check_budget(what: str, need: int, unit: str, budget: int, level: int | None = None, *,
                  bound: str = "", power: bool = False, hint: str = "") -> None:
    """Refuse a request that needs more than its budget with BudgetError.

    The one place a cost meets a budget, so every refusal reads "<what>
    needs <bound><need> <unit>[ by level <level>], over the budget of
    <budget><hint>".  With ``power`` the need is the exponent e of a cost
    2^e too large to build as an int, compared by its exponent; its bound
    then ends in "2^".
    """
    if need >= budget.bit_length() if power else need > budget:
        at = "" if level is None else f" by level {level}"
        raise BudgetError(f"{what} needs {bound}{need} {unit}{at}, over the budget of {budget}{hint}")


def _stages(schedule: ParamSchedule, start: int, stop: int) -> Iterator[Stage]:
    """The stages of levels start..stop-1, resolved lazily in level order.

    Every walk to a requested level meets its depth rule here.  Before any
    stage is read, stop < 0 is refused with ValueError and stop >
    MAX_WALK_LEVELS with BudgetError; a bad or missing stage raises at the
    level where the walk reaches it.
    """
    if stop < 0:
        raise ValueError(f"depth {stop} < 0")
    _check_budget("stage walk", stop, "levels", MAX_WALK_LEVELS)
    return map(schedule.stage, range(start, stop))


def heights(schedule: ParamSchedule, n: int) -> list[int]:
    """Tower heights h_0..h_n from the stage recursion, exact.

    Past the depth rule of ``_stages`` they are ``_heights_at``'s, so the
    first level at which the kept heights could pass the size budget is
    refused.  The caller gets a fresh list it may change.  Every reader of
    the heights calls this, ``_heights_at`` or ``_first_level_at_least``,
    but the partial-sum check, which reads them level by level from the walk.
    """
    _stages(schedule, n, n)  # the depth rule, before levels[-1] is read
    return _heights_at(schedule, range(n + 1))


def _closed_tail(schedule: ParamSchedule) -> _Tail | None:
    """The schedule's tail when it is closed, else None; a tail with a bad
    stage is not, so a walk through it meets that stage at its own level."""
    p = schedule.tail_period
    if p is None or any(schedule._problems[-p:]) or not schedule._tail.closed:
        return None
    return schedule._tail


def _heights_at(schedule: ParamSchedule, levels: Sequence[int]) -> list[int]:
    """h_m for each of the increasing levels, with the refusals of the
    height walk to levels[-1].

    The height walk is advanced to the last level, or on a closed tail to
    c, and the heights past c are read in closed form; the first level over
    the height budget up to the last level is then found by bisection,
    since its cost grows with the level.
    """
    n = levels[-1]
    tail = _closed_tail(schedule)
    c = n if tail is None else min(n, tail.start)
    _stages(schedule, n, n)
    hs = schedule._heights
    kept = len(hs)
    if kept <= c:
        next(islice(_height_walk(schedule, kept), c - kept, None))
    _refuse_first_over(c + 1, n + 1, lambda k: (_height_bytes(k, hs[c] + tail.spacers(c, k)),))
    return [hs[m] if m <= c else hs[c] + tail.spacers(c, m) for m in levels]


def _first_level_at_least(schedule: ParamSchedule, lo: int, hi: int, x: int) -> int | None:
    """The least level k >= lo with h_k >= x, for h_{lo-1} < x.

    The height walk is read through level hi - 1, and hi is returned when
    no level below it reaches x.  On a closed tail the walk stops at c,
    and a level past it is the tail's first level at or above x, read in
    closed form: it may lie at or past hi, and it is None on a frozen tail
    that never reaches x.
    """
    tail = _closed_tail(schedule)
    closed = tail is not None and tail.start < hi
    stop = max(lo, tail.start + 1) if closed else hi
    for k, h in enumerate(islice(_height_walk(schedule, lo), stop - lo), lo):
        if h >= x:
            return k
    return tail.first_level(schedule._heights[tail.start], x) if closed else hi


def _folded_stages(schedule: ParamSchedule, start: int, stop: int) -> Iterator[Stage]:
    """The stages of levels start..stop-1 as ``_stages`` resolves them, past
    its depth rule, except that on a closed tail the levels past c come as
    one q = 1 stage whose run is their spacer total, read in closed form:
    a height, a copy count and a block are the same from it, and no stage
    past the prefix is resolved.  It is the last stage, so every stage
    before it has its own level.
    """
    _stages(schedule, stop, stop)
    tail = _closed_tail(schedule)
    mid = stop if tail is None else min(stop, max(start, tail.start))
    folded = [Stage(1, (tail.spacers(mid, stop),))] if mid < stop else []
    return chain(_stages(schedule, start, mid), folded)


def _height_walk(schedule: ParamSchedule, k: int) -> Iterator[int]:
    """h_k, h_{k+1}, ...: the kept heights, then one resolved stage per level;
    k is at most the number of heights kept.

    The only writer of ``schedule._heights``.  A level past the kept list
    is checked against the size budget before it is kept: heights never
    decrease, so (k + 1) times the bytes of h_k bounds h_0..h_k.  Each
    entry is written at its index from the entry below it, so a walker in
    another thread at the same level rewrites the same value and a reader
    never sees a wrong list.  A bad or missing stage raises where ``stage``
    reads it.  The walk has no last level of its own, so it stops at level
    MAX_WALK_LEVELS: the next level is refused with the depth rule's
    BudgetError, ``stage walk needs 2097153 levels, ...``, before its stage
    is read.
    """
    hs = schedule._heights
    while k < len(hs):
        yield hs[k]
        k += 1
    stage, h = schedule.stage, hs[k - 1]
    for k in range(k, MAX_WALK_LEVELS + 1):
        st = stage(k - 1)
        h = st.q * h + st.spacer_sum
        if h >= _SMALL_HEIGHT:
            _check_budget("height list", _height_bytes(k, h), "bytes", DEFAULT_SYMBOL_BUDGET, k,
                          bound="up to ")
        hs[k:k + 1] = (h,)
        yield h
    _check_budget("stage walk", MAX_WALK_LEVELS + 1, "levels", MAX_WALK_LEVELS)


def _height_bytes(k: int, h: int) -> int:
    """What the height walk charges level k of height h: (k + 1) times the
    bytes of h, 0 below _SMALL_HEIGHT.  Both grow with k, as heights do."""
    return (k + 1) * h.bit_length() // 8 if h >= _SMALL_HEIGHT else 0


def _refuse_first_over(lo: int, hi: int, costs) -> None:
    """Refuse the least level k in lo..hi-1 at which one of costs(k), the
    bytes of the height list and then of the partial sums, passes
    DEFAULT_SYMBOL_BUDGET, as the level walks would: a level's height is
    checked before its sums.  No cost decreases with k, so k is found by
    bisection, and no level is read."""
    k = bisect_left(range(hi), True, lo, key=lambda k: max(costs(k)) > DEFAULT_SYMBOL_BUDGET)
    for what, need in zip(("height list", "partial sum list"), costs(k) if k < hi else ()):
        _check_budget(what, need, "bytes", DEFAULT_SYMBOL_BUDGET, k, bound="up to ")


def _floor_tables(schedule: ParamSchedule, n: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """(hs, table): the heights h_0..h_n from ``heights``, and table[k],
    the copy starts of level k, for k < n at least.

    starts[i] = i h_k + a[0] + ... + a[i-1] is the floor of tower k+1 where
    copy i begins, so starts[q] = h_{k+1}, and the spacer run above copy i
    fills the floors starts[i] + h_k up to starts[i + 1].  The table is
    kept on the schedule and extended in place, each row written at its
    index from h_k and stage k, so a walker in another thread at the same
    row rewrites the same value.
    """
    hs = heights(schedule, n)
    table = schedule._levels
    for k in range(len(table), n):
        table[k:k + 1] = [tuple(accumulate((hs[k] + x for x in schedule.stage(k).a), initial=0))]
    return hs, table


def tail_mass_bound(schedule: ParamSchedule, start: int) -> Fraction | None:
    """Rigorous upper bound on sum_{k>=start} spacers_k / h_{k+1}.

    Exact terms, added pairwise by ``_exact_sum``, are used up to the end
    of the explicit prefix; past it the tail's ``mass_past`` bounds the
    rest.  Returns None when no bound is provable (bare prefix, or a tail
    whose q product is 1 with positive spacers, whose series in fact
    diverges).
    """
    tail = schedule._tail
    if tail is None:
        return None
    t0 = max(start, schedule.prefix_len)
    rest = tail.mass_past(_heights_at(schedule, [t0])[0])
    exact = _exact_sum(_ratio_terms(schedule, t0, start)) if start < t0 else Fraction(0)
    return None if rest is None else exact + rest


@dataclass(frozen=True)
class RatioSumReport:
    """Partial spacer-ratio sum plus what the tail implies about the series."""

    partial: Fraction
    verdict: str                      # proved-convergent / proved-divergent / unknown-at-depth
    total_bound: Fraction | None      # upper bound on the full series when proved-convergent


def spacer_ratio_sum(schedule: ParamSchedule, n: int) -> RatioSumReport:
    """Exact partial sum sum_{k<n} spacers_k / h_{k+1} with a tail verdict;
    the terms are added pairwise, by ``_exact_sum``."""
    return _ratio_report(schedule, n, _exact_sum(_ratio_terms(schedule, n)))


def _exact_sum(terms: Iterable[Fraction]) -> Fraction:
    """sum(terms, Fraction(0)), added pairwise like a binary counter.

    After i terms, parts holds one sum of 2^b consecutive terms for each
    set bit b of i, largest first: term i merges the parts of the low set
    bits of i, so only O(log n) partial sums are kept and each addition
    meets operands of about the same size.  On a series whose denominators
    grow with every term that is much cheaper than a running total.  The
    sum is exact either way, so it equals the sequential one.
    """
    parts: list[Fraction] = []
    for count, term in enumerate(terms):
        while count & 1:
            term = parts.pop() + term
            count >>= 1
        parts.append(term)
    return sum(reversed(parts), Fraction(0))


def _ratio_terms(schedule: ParamSchedule, n: int, start: int = 0) -> Iterator[Fraction]:
    """The terms spacers_k / h_{k+1} for start <= k < n."""
    hs = heights(schedule, n)[start + 1:]
    return (Fraction(st.spacer_sum, h) for st, h in zip(_stages(schedule, start, n), hs))


def _ratio_report(schedule: ParamSchedule, n: int, partial: Fraction) -> RatioSumReport:
    # tail_mass_bound gives None exactly on a bare prefix or a divergent tail
    bound = tail_mass_bound(schedule, n)
    if bound is not None:
        return RatioSumReport(partial, PROVED_CONVERGENT, partial + bound)
    verdict = UNKNOWN_AT_DEPTH if schedule.tail_period is None else PROVED_DIVERGENT
    return RatioSumReport(partial, verdict, None)


@dataclass(frozen=True)
class ValidityReport:
    """Structural and asymptotic health of a schedule.

    ``q_gt1_infinitely_often`` is decided exactly on periodic tails and
    is None for bare prefixes and bad tails.  ``not_defined_everywhere_risk``
    flags an eventually trivial tail (q = 1, no spacers): the construction
    then freezes and the map is not defined almost everywhere.
    """

    structural_issues: tuple[str, ...]
    q_gt1_stages: tuple[int, ...]
    q_gt1_infinitely_often: bool | None
    partial_sums: tuple[Fraction, ...]
    ratio: RatioSumReport | None      # None when a stage the report reads is bad
    not_defined_everywhere_risk: bool

    @property
    def tail_verdict(self) -> str:
        return UNKNOWN_AT_DEPTH if self.ratio is None else self.ratio.verdict

    @property
    def ok(self) -> bool:
        return (
            not self.structural_issues
            and self.q_gt1_infinitely_often is not False
            and not self.not_defined_everywhere_risk
        )

    def to_json_dict(self) -> dict:
        """The report; an ``ok`` one also carries its ratio sum and bound."""
        doc = {
            "structural_issues": list(self.structural_issues),
            "q_gt1_stages": list(self.q_gt1_stages),
            "q_gt1_infinitely_often": self.q_gt1_infinitely_often,
            "partial_sums": [str(s) for s in self.partial_sums],
            "tail_verdict": self.tail_verdict,
            "not_defined_everywhere_risk": self.not_defined_everywhere_risk,
            "ok": self.ok,
        }
        if self.ok:
            bound = self.ratio.total_bound
            doc["ratio_partial_sum"] = str(self.ratio.partial)
            doc["ratio_total_bound"] = None if bound is None else str(bound)
        return doc


def validate(schedule: ParamSchedule, depth: int) -> ValidityReport:
    """Inspect every stage the report reads, and sum the series only when
    they are all well-formed; never raises on bad stages.

    On a bare prefix those are the stages below ``depth``.  With a periodic
    tail they are all explicit stages: the tail recurs past any depth, and
    its bound sums exact terms through the whole prefix.  The partial sums
    are kept one per level, so they are added one after another, after
    ``_check_partial_sums`` has bounded their size: partial sums that could
    pass the size budget are refused with BudgetError before any is added.
    """
    problems = schedule._problems
    periodic = schedule.tail_period is not None
    n = depth if periodic else min(depth, schedule.prefix_len)
    issues = tuple(
        f"stage {k}: {msg}"
        for k in range(schedule.prefix_len if periodic else n)
        for msg in problems[k]
    )
    q_gt1 = tuple(
        k for k, st in enumerate(schedule.stages) if not problems[k] and st.q > 1
    )
    first_tail = schedule.prefix_len - (schedule.tail_period or 0)
    tail = None if any(problems[first_tail:]) else schedule._tail
    partials: tuple[Fraction, ...] = ()
    ratio = None
    if not issues:
        _check_partial_sums(schedule, n)
        sums = list(accumulate(_ratio_terms(schedule, n), initial=Fraction(0)))
        partials = tuple(sums[1:])
        ratio = _ratio_report(schedule, n, sums[-1])
    return ValidityReport(
        structural_issues=issues,
        q_gt1_stages=q_gt1,
        q_gt1_infinitely_often=None if tail is None else not tail.closed,
        partial_sums=partials,
        ratio=ratio,
        not_defined_everywhere_risk=tail is not None and tail.frozen,
    )


def _check_partial_sums(schedule: ParamSchedule, n: int) -> None:
    """Refuse the partial sums S_1..S_n of the spacer-ratio series, level
    by level from the height walk, at the first level k whose sums S_1..S_k
    could take more than DEFAULT_SYMBOL_BUDGET bytes.

    S_k = sum_{j<k} spacers_j / h_{j+1} has a denominator dividing the
    product of the h_{j+1} with spacers_j > 0, and S_k is at most the
    number of those terms, so S_k takes at most twice that product's bits,
    plus PARTIAL_SUM_ENTRY_BYTES for the objects that hold it.  On a tail
    without spacers the sums have no digits, and that cost alone refuses
    level 390,168.  The walk checks each height against its own budget
    before this level's sums are checked, so no height past level k is read.

    A frozen tail is walked only up to c: past it the height stays the
    same and the sums gain no digits, so each level adds the same cost,
    and the first level over either budget is found by bisection.
    """
    _stages(schedule, n, n)  # the depth rule, before any stage is read
    tail = _closed_tail(schedule)
    stop = min(n, tail.start) if tail is not None and tail.frozen else n
    bits = total = 0
    for k, (st, h) in enumerate(zip(_stages(schedule, 0, stop), _height_walk(schedule, 1)), 1):
        if st.spacer_sum:
            bits += h.bit_length()
        total += 2 * bits
        _check_budget("partial sum list", total // 8 + PARTIAL_SUM_ENTRY_BYTES * k, "bytes",
                      DEFAULT_SYMBOL_BUDGET, k, bound="up to ")
    h = schedule._heights[stop]  # the height of every level past stop, if any
    _refuse_first_over(stop + 1, n + 1, lambda k: (
        _height_bytes(k, h), (total + 2 * bits * (k - stop)) // 8 + PARTIAL_SUM_ENTRY_BYTES * k
    ))


# the first growth base of the greedy level selection
GROWTH_BASE = 2


def choose_telescoping_levels(schedule: ParamSchedule, count: int) -> list[int]:
    """Greedy level selection m_0 = 0 < m_1 < ... < m_count.

    m_{j+1} is the least level m > m_j with h_m >= GROWTH_BASE**(j+1) * h_{m_j},
    which forces sum_j H_j / H_{j+1} <= sum_j GROWTH_BASE**-(j+1) < 1.
    """
    if count < 0:
        raise ValueError(f"count {count} < 0")
    return [0, *islice(_greedy_levels(schedule, GROWTH_BASE), count)]


def _greedy_levels(schedule: ParamSchedule, growth_base: int) -> Iterator[int]:
    """m_1, m_2, ... of the greedy selection, each as soon as it is found.

    A bad tail stage raises at once.  Each level is the first one at or
    above its target, found by ``_first_level_at_least``.  That search
    reads the height walk, which checks each level past the kept heights
    against the size budget before keeping it, so a refusal names the
    first level over the budget, as ``heights`` does; the walk also fails
    on reaching a bad or missing stage.  A level past c on a closed tail
    is read in closed form and refused as the height walk would refuse it:
    at the first level up to it over the height budget, which only a
    height of 2^255 or more can pass, found by bisection, or past
    MAX_WALK_LEVELS.  On a frozen tail no level reaches the target, so
    DepthError is raised instead.
    """
    schedule._tail  # a bad tail stage raises at once

    def walk() -> Iterator[int]:
        level, target, scale = 0, growth_base, growth_base  # times h_0 = 1
        while True:
            level = _first_level_at_least(schedule, level + 1, MAX_WALK_LEVELS + 1, target)
            if level is None:
                raise DepthError(f"periodic tail adds no height growth; cannot reach h >= {target}")
            # the height walk's refusals of a level past c; a level it walked passes both
            h = _heights_at(schedule, [min(level, MAX_WALK_LEVELS)])[0]
            _check_budget("stage walk", min(level, MAX_WALK_LEVELS + 1), "levels", MAX_WALK_LEVELS)
            yield level
            scale *= growth_base
            target = scale * h

    return walk()
