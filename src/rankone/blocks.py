"""Symbolic blocks and spacer-arrangement diagnostics.

Blocks are plain strings over {0, 1}: B_0 = "0" and

    B_{n+1} = B_n 1^{a[n][0]} B_n 1^{a[n][1]} ... B_n 1^{a[n][q_n - 1]},

so len(B_n) = h_n and the number of 0s in B_n is prod_{k<n} q_k.
One body, ``_block_prefix``, builds B_n and its prefixes B_n[:L]: each
B_k is a prefix of B_{k+1}, so a prefix needs only the levels up to the
first block of L symbols.  ``build_block`` and the Vershik orbit of the
minimal path (``diagram.code_minimal_orbit``) both read it.
Every walk here reads its stages through the schedule's one stage walk,
so a negative depth, or one past MAX_WALK_LEVELS, is refused before any
stage is read.  Past c = prefix - p on a periodic tail whose q product
is 1, the levels come as one folded q = 1 stage whose run is their
spacer total, read in closed form, so B_n is B_c followed by that many
1s and no stage past the prefix is resolved; on a frozen tail the run
is empty and B_n = B_c.  Construction is also guarded by a symbol
budget: before any string is materialized, the first level up to n whose
height passes it is found by the greedy level walk's search and refused,
so a refusal never walks the heights past that level; past c on such a
tail that level is found by bisection over the closed-form heights.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .schedules import (DEFAULT_SYMBOL_BUDGET, UNKNOWN_AT_DEPTH, ParamSchedule, Stage, _check_budget,
                        _first_level_at_least, _folded_stages, _heights_at, _stages)

KALIKOW_BOUNDED = "bounded"
KALIKOW_UNBOUNDED = "unbounded"


def build_block(schedule: ParamSchedule, n: int) -> str:
    """The stage-n block B_n; its length h_n is checked against the budget,
    at the first level up to n over it, before any level is built."""
    _stages(schedule, n, n)  # the depth rule, before any height is read
    k = min(n, _first_level_at_least(schedule, 1, n + 1, DEFAULT_SYMBOL_BUDGET + 1))
    h = _heights_at(schedule, [k])[0]
    _check_budget("block", h, "symbols", DEFAULT_SYMBOL_BUDGET, k)
    return _block_prefix(_folded_stages(schedule, 0, n), h)


def _block_prefix(stages: Iterable[Stage], length: int) -> str:
    """B_n[:length], for the stages of levels 0..n-1: B_n itself when h_n <= length.

    The one body of the block recursion.  B_k is a prefix of B_{k+1}, so the
    walk stops at the first level whose block has length symbols, and it
    builds no level past it.  The block is kept as b followed by a run of 1s:
    a single-copy level only lengthens the run, so a q = 1 tail costs no
    rebuild, and a level of q >= 2 copies joins them once, each followed by
    its run of 1s as a separate piece, so no copy is built before the join.
    Only the level that reaches length is cut: its copies stop there, the
    last one and its run of 1s cut to fit, so no piece is built past length.
    With length h_n nothing is cut, and B_n is built once.
    """
    b, run = "0"[:length], 0  # B_0, cut to length
    for st in stages:
        if len(b) + run >= length:
            break
        if st.q == 1:
            run += st.a[0]
            continue
        pieces, size = [], 0
        for x in st.a:
            pieces += (b[:length - size], "1" * min(run + x, length - size - len(b)))
            size += len(b) + run + x
            if size >= length:
                break
        b, run = "".join(pieces), 0
    return b + "1" * min(run, length - len(b))


@dataclass(frozen=True)
class KalikowReport:
    """Witness values for the unbounded-final-run criterion.

    witnesses[n] = max over 0 <= m <= n and 0 <= i < q_{n+1} of
    a[m][q_m-1] + a[m+1][q_{m+1}-1] + ... + a[n][q_n-1] + a[n+1][i].
    The criterion asks for sup_n witnesses[n] = infinity, which forces
    arbitrarily long spacer runs in the blocks.  The verdict is decided
    exactly on periodic tails and is unknown-at-depth otherwise.
    Spacer runs are nonnegative, so m = 0 always attains the maximum.
    """

    witnesses: tuple[int, ...]
    verdict: str


def kalikow_sup_condition(schedule: ParamSchedule, depth: int) -> KalikowReport:
    """Witnesses for n = 0..depth (needs stages up to depth+1)."""
    _stages(schedule, depth, depth)  # the depth rule, before any stage is read
    witnesses = []
    finals = 0  # a[0][q_0-1] + ... + a[n][q_n-1]
    for n in range(depth + 1):
        nxt = schedule.stage(n + 1)
        finals += schedule.stage(n).a[-1]
        witnesses.append(finals + max(nxt.a))
    tail = schedule._tail
    if tail is None:
        verdict = UNKNOWN_AT_DEPTH
    elif tail.final_runs:
        # every extra tail stage adds a positive final run to the sum
        verdict = KALIKOW_UNBOUNDED
    else:
        # final runs vanish on the tail, so witnesses are eventually
        # constant-sum plus a value from the finite set of tail spacers
        verdict = KALIKOW_BOUNDED
    return KalikowReport(tuple(witnesses), verdict)


@dataclass(frozen=True)
class Occurrences:
    count: int
    distinct_gaps: tuple[int, ...]


def period_doubling_occurrences(length: int, pattern: str) -> Occurrences:
    """How many (possibly overlapping) matches of pattern the length-symbol
    prefix of the period-doubling word has, and the sorted distinct gaps
    between consecutive match starts; the length is checked against the
    symbol budget first.

    The word, the fixed point of 0 -> 01, 1 -> 00 starting from 0, is never
    built.  Its blocks A_n = s^n(0) and B_n = s^n(1) grow as A_{n+1} = A_n B_n
    and B_{n+1} = A_n A_n from A_0 = "0" and B_0 = "1", and the prefix is
    A_{n1} A_{n2} ... over the set bits n1 > n2 > ... of length: the block
    after a prefix of 2^{n1} + ... + 2^{n(i-1)} symbols is s^{ni} of a symbol
    at an even index, and every such symbol is 0.  A segment is summarised
    by its length, match count, first and last match, distinct gaps, and
    its first and last len(pattern) - 1 symbols; two summaries join by
    adding the matches that cross the seam, so each of the O(log length)
    joins reads at most 2 len(pattern) - 2 symbols.
    """
    if length < 1:
        raise ValueError(f"length {length} < 1")
    _check_budget("period-doubling prefix", length, "symbols", DEFAULT_SYMBOL_BUDGET)
    if not pattern:
        raise ValueError("empty pattern")
    if len(pattern) > length:
        raise ValueError("pattern longer than the word")
    k = len(pattern) - 1

    def join(x, y):
        # a summary: (length, count, [first, last] or [], gaps, head, tail)
        size, count, ends, gaps, head, tail = x
        y_size, y_count, y_ends, y_gaps, y_head, y_tail = y
        seam = tail + y_head
        cross = [size - len(tail) + i for i in range(len(tail)) if seam.startswith(pattern, i)]
        y_ends = [size + p for p in y_ends]
        starts = [*ends[-1:], *cross, *y_ends[:1]]  # the matches next to the seam, in order
        every = [*ends[:1], *starts, *y_ends[-1:]]
        end = tail + y_tail
        return (size + y_size, count + y_count + len(cross), every[:1] + every[-1:],
                gaps | y_gaps | {q - p for p, q in zip(starts, starts[1:])},
                (head + y_head)[:k], end[max(len(end) - k, 0):])

    a, b = ((1, int(c == pattern), [0, 0] if c == pattern else [], frozenset(), c[:k], c[:k])
            for c in "01")
    prefix = (0, 0, [], frozenset(), "", "")  # the blocks of the set bits below n, highest first
    for n in range(length.bit_length()):
        if length >> n & 1:
            prefix = join(a, prefix)
        a, b = join(a, b), join(a, a)  # A_{n+1}, B_{n+1}
    return Occurrences(prefix[1], tuple(sorted(prefix[3])))
