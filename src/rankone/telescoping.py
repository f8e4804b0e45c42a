"""Level telescoping and the expansive spacer replacement.

Collapsing levels m_n <= k < m_{n+1} of a schedule into one stage gives
Q_n = prod q_k cuts with heights H_n = h_{m_n} preserved.  The spacer
run above collapsed copy i is read off the mixed-radix digits of i:
writing i = g_0 + g_1 q_{m_n} + g_2 q_{m_n} q_{m_n+1} + ..., the copy is
followed by the runs of every level whose lower digits are all maximal,

    A[n][i] = a[m_n][g_0] + ... + a[m_n + l][g_l],

where l is the first digit index with g_l < q_{m_n+l} - 1 (or the last
digit when all are maximal).

``telescope`` reads that rule one digit at a time, by the block
recursion: level k turns the window's runs R so far into the
concatenation over g < q_k of R[:-1] + [R[-1] + a[k][g]].  It builds
that by repetition: R * q_k, then the q_k run ends, at the positions
g len(R) + len(R) - 1, set to R[-1] + a[k][g].

The replacement then rebuilds each stage so that its final spacer run
strictly dominates all others: keep copies 0..cut, where cut is the
largest index whose tail of the stage,

    (Q_n - cut - 1) H_n + A[n][cut] + ... + A[n][Q_n - 1],

still exceeds max_i A[n][i], and overwrite everything above copy `cut`
with that many spacers.  Heights are unchanged and the total spacer
mass at most doubles plus H_n, so summability survives.  The result is
one ExpansiveModel, the object that ``expand`` prints and ``verify`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Sequence

from .schedules import (
    DEFAULT_SYMBOL_BUDGET,
    GROWTH_BASE,
    ParamSchedule,
    Stage,
    _check_budget,
    _folded_stages,
    _greedy_levels,
    _heights_at,
)

# build_expansive's number of attempts, doubling the growth base each time
MAX_RETRIES = 6


class SpacerReplacementError(Exception):
    """The replacement has no valid cut at some stage."""


def digit_decomposition(i: int, radices: Sequence[int]) -> list[int]:
    """Mixed-radix digits of i, least significant first."""
    total = prod(radices)
    if not 0 <= i < total:
        raise ValueError(f"value {i} outside 0..{total - 1}")
    digits = []
    for q in radices:
        digits.append(i % q)
        i //= q
    return digits


@dataclass(frozen=True)
class TelescopedSchedule:
    """A schedule regrouped along levels m_0 < m_1 < ... < m_N."""

    base: ParamSchedule
    levels: tuple[int, ...]
    stages: tuple[Stage, ...]     # one (Q, A) stage per collapsed window
    heights: tuple[int, ...]      # H_n = base height at m_n

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "m": list(self.levels),
            "H": list(self.heights),
            "stages": [{"Q": s.q, "A": list(s.a)} for s in self.stages],
        }


def _checked_levels(levels: Sequence[int]) -> tuple[int, ...]:
    """levels as a tuple, once they start at 0 and increase strictly."""
    levels = tuple(levels)
    if not levels or levels[0] != 0:
        raise ValueError("levels must start at 0")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    return levels


def telescope(schedule: ParamSchedule, levels: Sequence[int]) -> TelescopedSchedule:
    """Collapse the windows [m_n, m_{n+1}) into single stages.

    Once the levels pass ``_checked_levels``, the windows are walked in
    order before the heights are read: a window that ends past
    MAX_WALK_LEVELS is refused with BudgetError before its first stage is
    read, and one of more than DEFAULT_SYMBOL_BUDGET copies, as many as
    build_block's symbols, at the first level that passes the budget.
    Windows past c on a tail whose q product is 1 read its levels as one
    folded stage (``_folded_stages``), and their heights in closed form.
    """
    levels = _checked_levels(levels)
    windows = list(zip(levels, levels[1:]))
    for lo, hi in windows:
        # a window of Q copies describes a block of at least Q symbols; a folded
        # stage, the last of its window, has one copy
        what, copies = f"window [{lo}, {hi})", 1
        for k, st in enumerate(_folded_stages(schedule, lo, hi), lo):
            copies *= st.q
            _check_budget(what, copies, "copies", DEFAULT_SYMBOL_BUDGET, k)
    hs = _heights_at(schedule, levels)
    stages = []
    for (lo, hi), h_lo, h_hi in zip(windows, hs, hs[1:]):
        runs = [0]
        for st in _folded_stages(schedule, lo, hi):
            m, last = len(runs), runs[-1]
            runs *= st.q
            for end, x in zip(range(m - 1, m * st.q, m), st.a):
                runs[end] = last + x
        st = Stage(len(runs), tuple(runs))
        assert st.q * h_lo + st.spacer_sum == h_hi, "telescoped heights must agree"
        stages.append(st)
    return TelescopedSchedule(
        base=schedule,
        levels=levels,
        stages=tuple(stages),
        heights=tuple(hs),
    )


@dataclass(frozen=True)
class ExpansiveModel:
    """The telescoped source, its replaced target, and the map's parameters.

    cut and top_run are stored, not read off the target: the conjugacy is
    defined by them, and verify_isomorphism checks the target against
    them, so a model whose cut or top run alone is wrong fails there.
    """

    telescoped: TelescopedSchedule
    target: ParamSchedule           # replaced stages (Q', A')
    cut: tuple[int, ...]            # last kept copy per stage
    top_run: tuple[int, ...]        # spacers installed above the kept copies

    @cached_property
    def source(self) -> ParamSchedule:
        return ParamSchedule(self.telescoped.stages, tail_period=None)

    @property
    def heights(self) -> tuple[int, ...]:
        return self.telescoped.heights

    @property
    def num_stages(self) -> int:
        return self.telescoped.num_stages

    @property
    def warnings(self) -> tuple[int, ...]:
        """Stages left with a single copy (q > 1 must still recur overall)."""
        return tuple(n for n, st in enumerate(self.target.stages) if st.q == 1)

    def to_json_dict(self) -> dict:
        tele = self.telescoped
        rows = zip(tele.stages, self.target.stages, self.cut, self.top_run)
        return {
            "base": tele.base.to_json_dict(),
            "m": list(tele.levels),
            "H": list(tele.heights),
            "stages": [
                {
                    "Q": st.q,
                    "A": list(st.a),
                    "A_max": max(st.a),
                    "cut": cut,
                    "top_run": top_run,
                    "Q_new": new.q,
                    "A_new": list(new.a),
                }
                for st, new, cut, top_run in rows
            ],
            "warnings": list(self.warnings),
            "replaced_schedule": self.target.to_json_dict(),
        }


def expansive_replace(telescoped: TelescopedSchedule) -> ExpansiveModel:
    """Rebuild every stage with a dominating final spacer run.

    At stage n the cut is the largest copy index whose tail mass
    (Q-cut-1) H + sum(A[cut:]) strictly exceeds max(A); it exists for
    Q >= 2 because the full sum at index 0 is at least H + max(A).
    """
    stages, cuts, top_runs = [], [], []
    for n, st in enumerate(telescoped.stages):
        high = telescoped.heights[n]
        if st.q < 2:
            raise SpacerReplacementError(
                f"stage {n}: a single-copy stage (Q={st.q}) has no valid cut"
            )
        spacer_max = max(st.a)
        top_run = 0
        for cut in range(st.q - 1, -1, -1):
            top_run += st.a[cut]
            if top_run > spacer_max:
                break
            top_run += high
        assert top_run > spacer_max
        assert (st.q - cut - 2) * high + sum(st.a[cut + 1:]) <= spacer_max
        new = Stage(cut + 1, st.a[:cut] + (top_run,))
        assert new.q * high + new.spacer_sum == st.q * high + st.spacer_sum
        assert new.spacer_sum <= 2 * st.spacer_sum + high
        stages.append(new)
        cuts.append(cut)
        top_runs.append(top_run)
    target = ParamSchedule(tuple(stages), tail_period=None)
    return ExpansiveModel(telescoped, target, tuple(cuts), tuple(top_runs))


def build_expansive(schedule: ParamSchedule, stages: int) -> ExpansiveModel:
    """Choose levels greedily, telescope, and replace, end to end.

    A stage may legitimately collapse to a single copy (Q' = 1); that is
    reported via ExpansiveModel.warnings.  Retries with a doubled growth
    base only when the replacement is impossible (some window multiplies
    no cuts at all) or degenerate (every stage collapses to one copy),
    since a wider window restores Q >= 2.  A window that starts where
    every later stage has q = 1 fails as soon as the walk picks it.
    """
    if stages < 0:
        raise ValueError(f"count {stages} < 0")
    tail = schedule._tail
    factor = GROWTH_BASE
    last_error: Exception | None = None
    for _ in range(MAX_RETRIES):
        walk = _greedy_levels(schedule, factor)
        m = [0]
        for n in range(stages):
            # the tail's q product is 1 and every explicit stage from m[n] on
            # has q = 1: the window collapses to Q = 1 and a larger growth
            # base only moves it further up, so retrying cannot help
            if tail is not None and tail.closed and all(st.q == 1 for st in schedule.stages[m[n]:]):
                raise SpacerReplacementError(
                    f"stage {n}: every level from {m[n]} on has q = 1 "
                    "(the periodic tail's q product is 1), so no growth base "
                    "gives this window a cut"
                )
            m.append(next(walk))
        try:
            model = expansive_replace(telescope(schedule, m))
            if model.target.stages and all(st.q == 1 for st in model.target.stages):
                raise SpacerReplacementError("every replaced stage kept a single copy")
            return model
        except SpacerReplacementError as exc:
            last_error = exc
        factor *= 2
    raise SpacerReplacementError(
        f"no usable telescoping after {MAX_RETRIES} growth doublings: {last_error}"
    )
