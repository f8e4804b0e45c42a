"""Symbolic blocks and spacer-arrangement diagnostics.

Blocks are plain strings over {0, 1}: B_0 = "0" and

    B_{n+1} = B_n 1^{a[n][0]} B_n 1^{a[n][1]} ... B_n 1^{a[n][q_n - 1]},

so len(B_n) = h_n and the number of 0s in B_n is prod_{k<n} q_k.
Every walk here reads its stages through the schedule's one stage walk,
so a negative depth, or one past MAX_WALK_LEVELS, is refused before any
stage is read.  Construction is also guarded by a symbol budget: before
any string is materialized, the lengths h_{k+1} = q_k h_k + sum a[k] are
checked against it level by level, and the first one over it is refused,
so a refusal never walks the heights past that level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .schedules import DEFAULT_SYMBOL_BUDGET, UNKNOWN_AT_DEPTH, ParamSchedule, _check_budget, _stages

KALIKOW_BOUNDED = "bounded"
KALIKOW_UNBOUNDED = "unbounded"


def build_block(schedule: ParamSchedule, n: int) -> str:
    """The stage-n block B_n; the lengths h_1..h_n are checked against the
    budget, stopping at the first one over it, before any level is built.

    The block is kept as b followed by a run of 1s: a single-copy level
    only lengthens the run, so a q = 1 tail costs no rebuild, and a level
    of q >= 2 copies joins them once, each followed by its run of 1s as a
    separate piece, so no copy is built before the join.
    """
    h = 1
    for k, st in enumerate(_stages(schedule, 0, n), 1):
        h = st.q * h + st.spacer_sum
        _check_budget("block", h, "symbols", DEFAULT_SYMBOL_BUDGET, k)
    b, run = "0", 0
    for st in _stages(schedule, 0, n):
        if st.q == 1:
            run += st.a[0]
        else:
            pieces = [b] * (2 * st.q)
            pieces[1::2] = ["1" * (run + x) for x in st.a]
            b, run = "".join(pieces), 0
    return b + "1" * run


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
    summary = schedule._tail_summary
    if summary is None:
        verdict = UNKNOWN_AT_DEPTH
    elif summary[2]:
        # every extra tail stage adds a positive final run to the sum
        verdict = KALIKOW_UNBOUNDED
    else:
        # final runs vanish on the tail, so witnesses are eventually
        # constant-sum plus a value from the finite set of tail spacers
        verdict = KALIKOW_BOUNDED
    return KalikowReport(tuple(witnesses), verdict)


def period_doubling_prefix(length: int) -> str:
    """Prefix of the fixed point of 0 -> 01, 1 -> 00 starting from 0; its
    length is checked against the symbol budget first."""
    if length < 1:
        raise ValueError(f"length {length} < 1")
    _check_budget("period-doubling prefix", length, "symbols", DEFAULT_SYMBOL_BUDGET)
    w = "0"
    while len(w) < length:
        # s^{n+1}(0) = s^n(0) s^n(1), and s^n(1) is s^n(0) with its last symbol flipped
        w += w[:-1] + ("1" if w[-1] == "0" else "0")
    return w[:length]


class _Indicator(dict):
    """A ``str.translate`` table: c to "1", every other character to "0".
    On ASCII text CPython caches each character's translation, so one
    translate runs at C speed; other text calls ``__missing__`` per symbol."""

    def __init__(self, c: str):
        super().__init__({ord(c): "1"})

    def __missing__(self, key: int) -> str:
        return "0"


# a byte with a set bit
_NONZERO = re.compile(rb"[^\x00]")


@dataclass(frozen=True)
class Occurrences:
    count: int
    distinct_gaps: tuple[int, ...]


def occurrence_spacing(w: str, pattern: str) -> Occurrences:
    """How many (possibly overlapping) matches there are, and the sorted
    distinct gaps between consecutive match positions.

    Bit-parallel (shift-and): the word is read as one big int per pattern
    character, whose bit len(w) - 1 - i is set where w[i] is that
    character.  Shifting the indicator of pattern[j] left by j and ANDing
    over j sets bit len(w) - 1 - i exactly where a match starts at i.  Each
    set bit but the lowest has a gap to the next lower one; round g clears
    the bits whose gap is g.  Gaps are disjoint parts of the word, so once
    round g is done fewer than len(w) / (g + 1) bits are left: at most 64
    rounds leave at most len(w) / 64, and a scan of the masks' bytes, one
    per 8 symbols, reads each of their gaps.  The cost is O(len(w)) bit
    operations per round, whatever the number of matches.
    """
    if not pattern:
        raise ValueError("empty pattern")
    n = len(w)
    if len(pattern) > n:
        raise ValueError("pattern longer than the word")
    # base 2 is exempt from the int <-> str digit limit
    indicator = {c: int(w.translate(_Indicator(c)), 2) for c in set(pattern)}
    mask = -1
    for j, c in enumerate(pattern):
        mask &= indicator[c] << j
    gaps = set()
    rest, g = mask & (mask - 1), 0  # every match but the last in the word
    while rest.bit_count() * 64 > n:
        g += 1
        hits = rest & (mask << g)
        if hits:
            gaps.add(g)
            rest ^= hits
    if rest:
        # big-endian bytes of equal length, so byte b of each holds the same
        # 8 bits; a bit's next lower match lies in its own byte or the next
        # nonzero byte of the mask
        size = (mask.bit_length() + 7) // 8
        matches, left = mask.to_bytes(size, "big"), rest.to_bytes(size, "big")
        search = _NONZERO.search
        for hit in _NONZERO.finditer(left):
            b = hit.start()
            bits = left[b]
            while bits:
                top = bits.bit_length()  # bit top - 1 of byte b
                bits ^= 1 << (top - 1)
                below = matches[b] & ((1 << (top - 1)) - 1)  # the lower matches in byte b
                c = b if below else search(matches, b + 1).start()
                gaps.add(8 * (c - b) + top - (below or matches[c]).bit_length())
    return Occurrences(mask.bit_count(), tuple(sorted(gaps)))
