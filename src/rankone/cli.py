"""Command-line interface.

Systems come from a JSON spec file or a named preset; subcommands cover
heights, validation, blocks, telescoping, the expansive build,
successor orbits, cylinder measures, DOT export, isomorphism
verification, and the period-doubling gap check.  ``vershik`` prints the
minimal path's orbit as B_D[:L], read off the block recursion by
``code_minimal_orbit``; it overflows exactly when h_D < L.  Output is
deterministic: identical spec, flags, and seed give identical bytes.

Each subcommand accepts only the flags its handler reads (see
``COMMANDS``), except ``verify --exhaustive``: no handler reads it, and
it only excludes ``--samples``.  Any other flag is an argparse error.

A handler ``_cmd_*(spec, args)`` returns ``(exit code, document, text)``
and writes nothing; ``spec`` is None for ``pd-check``.  A refusal that
keeps a partial result, ``vershik``'s overflow, raises ``PartialResult``
with it, and ``main`` writes the result before the error line, so a
failed write leaves only its own.
``telescope`` and ``expand`` give no text, ``dot`` and
``expand --emit-blocks`` no document.  Only ``main`` reads ``--format``:
it writes the text under ``--format text`` or when there is no document,
else the document as JSON (a library object through its
``to_json_dict``), inside the handlers' error handling, so an unwritable
``--out`` exits 2.  The JSON is encoded in full before any of it is
written, so an encoding error leaves stdout empty.

Exit codes: 0 success, 1 a verification found violations, 2 bad input
or an unsatisfiable request.  A request past a size limit raises
``BudgetError``, a ``ValueError``, before its work starts, always from
the library's one budget check, so every refusal line reads "error:
<what> needs <amount> <unit>[ by level <k>], over the budget of <B>"
(verify's add a hint); this module does no budget arithmetic.  verify
checks its walk before the model is built: on greedy levels every
growth base gives H_D >= 2^(D(D+1)/2), so exhaustive verify refuses
depth 6 and beyond before it walks a level, and from depth 6 on a
sample of K > 2^20 floors, K < 2^(D(D+1)/2); on a spec's levels H_D is
read once the levels pass telescope's list checks, before any window
is built.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache

from .blocks import build_block, period_doubling_occurrences
from .diagram import code_minimal_orbit, cylinder_measure_bounds, export_dot
from .isomorphism import _precheck_walk, verify_isomorphism
from .schedules import (
    DepthError,
    ParamSchedule,
    ScheduleError,
    Stage,
    _json_ints,
    _json_object,
    choose_telescoping_levels,
    heights,
    validate,
)
from .telescoping import (
    ExpansiveModel,
    SpacerReplacementError,
    build_expansive,
    expansive_replace,
    telescope,
)

ODOMETER = ParamSchedule((Stage(2, (0, 0)),), tail_period=1)
CHACON = ParamSchedule((Stage(3, (0, 1, 0)),), tail_period=1)

PRESET_SCHEDULES: dict[str, ParamSchedule] = {
    "dyadic-odometer": ODOMETER,
    "chacon": CHACON,
}


class SpecFileError(ValueError):
    """A spec file is malformed; the message carries the JSON path."""


class PartialResult(ValueError):
    """A refused request whose partial result is still written: main writes
    the document or text first, then the error line, and exits 2."""

    def __init__(self, message: str, doc: object, text: str):
        super().__init__(message)
        self.doc, self.text = doc, text


@dataclass(frozen=True)
class SystemSpec:
    schedule: ParamSchedule
    telescope_levels: tuple[int, ...] | None


def _preset_schedule(name: str) -> ParamSchedule:
    # a fresh schedule per spec, so what one command caches on it (heights,
    # stage checks) does not outlive the command
    preset = PRESET_SCHEDULES[name]
    return ParamSchedule(preset.stages, preset.tail_period)


def parse_spec(text: str) -> SystemSpec:
    """Strict parse of a system spec file; unknown fields are rejected."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    _json_object(doc, "$", SpecFileError, (), ("schedule", "preset", "telescope_levels"))
    if ("schedule" in doc) == ("preset" in doc):
        raise SpecFileError("exactly one of 'schedule' and 'preset' is required at $")
    if "preset" in doc:
        if not isinstance(doc["preset"], str) or doc["preset"] not in PRESET_SCHEDULES:
            known = ", ".join(sorted(PRESET_SCHEDULES))
            raise SpecFileError(
                f"unknown preset {doc['preset']!r} at $.preset (known: {known})"
            )
        schedule = _preset_schedule(doc["preset"])
    else:
        try:
            schedule = ParamSchedule.from_json_dict(doc["schedule"], where="$.schedule")
        except ScheduleError as exc:
            raise SpecFileError(str(exc)) from exc
    levels = None
    if "telescope_levels" in doc:
        levels = _json_ints(doc["telescope_levels"], "$.telescope_levels", SpecFileError)
    return SystemSpec(schedule, levels)


def _emit(pieces: list[str], out: str | None) -> None:
    with nullcontext(sys.stdout) if out is None else open(out, "w") as fh:
        fh.writelines(pieces)
        if not pieces[-1].endswith("\n"):
            fh.write("\n")


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _dumps(doc) -> list[str]:
    """The pieces of ``json.dumps(doc, sort_keys=True, indent=2)``, byte
    for byte once joined.

    Before Python 3.13 any ``indent`` sends ``json`` to its pure-Python
    encoder, which yields once per element.  Here a container whose
    children are all plain scalars is written by one C-encoder call, with
    the newline and indent of its children inside the item separator, and
    then framed; only containers holding anything else are walked.  Every
    piece is appended to one list, so no level copies what the levels
    inside it wrote.  A library result is rendered through its own
    to_json_dict, only here.
    """
    if not isinstance(doc, dict):
        doc = doc.to_json_dict()
    pieces: list[str] = []
    _write(doc, "\n", pieces)
    return pieces


def _write(value, newline: str, pieces: list[str]) -> None:
    # newline is "\n" plus the indent of the line value starts on
    if not isinstance(value, (dict, list, tuple)) or not value:
        pieces.append(json.dumps(value))
        return
    inner = newline + "  "
    sep = "," + inner
    children = value.values() if isinstance(value, dict) else value
    # tested at C level: a generator here costs most of the gain
    if set(map(type, children)) <= _SCALARS:
        text = json.dumps(value, sort_keys=True, separators=(sep, ": "))
        pieces += (text[0] + inner, text[1:-1], newline + text[-1])
        return
    keyed = isinstance(value, dict)
    lead = ("{" if keyed else "[") + inner  # what each child's text follows
    for k, v in sorted(value.items()) if keyed else enumerate(value):
        if keyed:
            # each key as the encoder writes it, quotes included, cut from {key: 0}
            lead += json.dumps({k: 0})[1:-4] + ": "
        pieces.append(lead)
        lead = sep
        _write(v, inner, pieces)
    pieces.append(newline + ("}" if keyed else "]"))


def _stage_count(spec: SystemSpec, args: argparse.Namespace) -> int:
    """--stages (default 3), which a spec's telescope_levels replace."""
    if args.stages is None:
        return 3
    if spec.telescope_levels is not None:
        raise SpecFileError(
            f"--stages conflicts with $.telescope_levels in {args.spec}; "
            "the levels fix the telescoping windows"
        )
    return args.stages


def _levels_for(spec: SystemSpec, stages: int) -> list[int]:
    if spec.telescope_levels is not None:
        return list(spec.telescope_levels)
    return choose_telescoping_levels(spec.schedule, stages)


def _expansive_model(spec: SystemSpec, stages: int) -> ExpansiveModel:
    if spec.telescope_levels is not None:
        return expansive_replace(telescope(spec.schedule, spec.telescope_levels))
    return build_expansive(spec.schedule, stages)


# (exit code, document or None, text or None); see the module docstring
Result = tuple[int, object, str | None]


def _cmd_heights(spec: SystemSpec, args: argparse.Namespace) -> Result:
    hs = heights(spec.schedule, args.depth)
    return 0, {"h": hs}, " ".join(str(h) for h in hs)


def _cmd_validate(spec: SystemSpec, args: argparse.Namespace) -> Result:
    report = validate(spec.schedule, args.depth)
    lines = [f"ok: {report.ok}"]
    lines += [f"structural: {msg}" for msg in report.structural_issues]
    lines.append(f"q>1 infinitely often: {report.q_gt1_infinitely_often}")
    lines.append(f"tail verdict: {report.tail_verdict}")
    if report.not_defined_everywhere_risk:
        lines.append("risk: the map is not defined almost everywhere")
    return 0, report, "\n".join(lines)


def _cmd_block(spec: SystemSpec, args: argparse.Namespace) -> Result:
    word = build_block(spec.schedule, args.depth)
    return 0, {"block": word, "length": len(word)}, word


def _cmd_telescope(spec: SystemSpec, args: argparse.Namespace) -> Result:
    return 0, telescope(spec.schedule, _levels_for(spec, _stage_count(spec, args))), None


def _cmd_expand(spec: SystemSpec, args: argparse.Namespace) -> Result:
    model = _expansive_model(spec, _stage_count(spec, args))
    if not args.emit_blocks:
        return 0, model, None
    words = [build_block(model.target, n) for n in range(1, model.num_stages + 1)]
    return 0, None, "\n".join(words)


def _cmd_vershik(spec: SystemSpec, args: argparse.Namespace) -> Result:
    coding = code_minimal_orbit(spec.schedule, args.depth, args.length)
    doc = {
        "word": coding.word,
        "overflow": None if coding.overflow is None else coding.overflow.depth,
    }
    if coding.overflow is None:
        return 0, doc, coding.word
    raise PartialResult(
        f"orbit overflowed depth {coding.overflow.depth} after "
        f"{len(coding.word)} symbols; increase --depth",
        doc, coding.word,
    )


def _cmd_measure(spec: SystemSpec, args: argparse.Namespace) -> Result:
    level = args.stages
    depth = args.depth if args.depth is not None else max(level, 8)
    bracket = cylinder_measure_bounds(spec.schedule, level, depth)
    doc = {
        "level": level,
        "depth": depth,
        "lo": str(bracket.lo),
        "hi": str(bracket.hi),
        "width": str(bracket.width),
        "tail_bounded": bracket.tail_bounded,
    }
    text = f"base cylinder at level {level}: mass in [{bracket.lo}, {bracket.hi}]" + (
        "" if bracket.tail_bounded else " (no tail bound, lo pinned to 0)"
    )
    return 0, doc, text


def _cmd_dot(spec: SystemSpec, args: argparse.Namespace) -> Result:
    return 0, None, export_dot(spec.schedule, args.depth)


def _cmd_verify(spec: SystemSpec, args: argparse.Namespace) -> Result:
    if args.samples is None and args.seed is not None:
        raise ValueError("--seed needs --samples: an exhaustive run uses no seed")
    _precheck_walk(spec.schedule, spec.telescope_levels, args.depth, args.samples)
    model = _expansive_model(spec, args.depth)
    report = verify_isomorphism(model, args.depth, samples=args.samples, seed=args.seed or 0)
    lines = [
        f"depth {report.depth}: tested {report.paths_tested} paths, "
        f"{len(report.failures)} failures",
    ]
    for check, count in sorted(report.failure_counts().items()):
        lines.append(f"  {check}: {count}")
    for reason, count in report.exclusions:
        lines.append(f"  skipped ({reason}): {count}")
    lines.append(f"exceptional mass partial sum: {report.exceptional_mass_partial_sum}")
    lines.append("PASS" if report.passed else "FAIL")
    return (0 if report.passed else 1), report, "\n".join(lines)


def _cmd_pd_check(spec: None, args: argparse.Namespace) -> Result:
    """Check that the gaps between the 0100s of the period-doubling word are
    all multiples of 4.  Block recursion cannot give every gap that form, so
    the word has no stage schedule, and no preset names it."""
    pattern = "0100"
    if args.length < len(pattern):
        raise ValueError(f"--length {args.length} is shorter than the pattern {pattern}")
    occ = period_doubling_occurrences(args.length, pattern)
    bad = [g for g in occ.distinct_gaps if g % 4]
    doc = {
        "length": args.length,
        "occurrences": occ.count,
        "gaps_all_multiples_of_4": not bad,
        "distinct_gaps": list(occ.distinct_gaps),
    }
    if bad:
        return 1, doc, f"violations: {bad}"
    text = f"all gaps ≡ 0 mod 4 ({occ.count} occurrences in {args.length} symbols)"
    return 0, doc, text


# argparse keywords of each flag a subcommand may read
_FLAGS = {
    "depth": {"type": int, "metavar": "N"},
    "stages": {"type": int, "metavar": "N"},
    "length": {"type": int, "metavar": "L"},
    "seed": {"type": int, "metavar": "S"},
    "samples": {"type": int, "metavar": "K"},
    "exhaustive": {"action": "store_true"},
    "emit_blocks": {"action": "store_true"},
    "format": {"choices": ["json", "text"]},
}
_POSITIVE = ("depth", "stages", "length", "samples")

# subcommand -> (handler, takes --spec/--preset, {flag it reads: default});
# every subcommand also takes --out.  measure's depth default is computed
# from its level (--stages): max(level, 8).  None marks a flag left out:
# --stages (3) is refused next to a spec's telescope_levels, and verify's
# --seed (0) without --samples.
COMMANDS = {
    "heights": (_cmd_heights, True, {"depth": 4, "format": "json"}),
    "validate": (_cmd_validate, True, {"depth": 8, "format": "json"}),
    "block": (_cmd_block, True, {"depth": 4, "format": "text"}),
    "telescope": (_cmd_telescope, True, {"stages": None}),
    "expand": (_cmd_expand, True, {"stages": None, "emit_blocks": False}),
    "vershik": (_cmd_vershik, True, {"depth": 4, "length": 64, "format": "text"}),
    "measure": (_cmd_measure, True, {"stages": 1, "depth": None, "format": "json"}),
    "dot": (_cmd_dot, True, {"depth": 3}),
    "verify": (
        _cmd_verify,
        True,
        {"depth": 3, "samples": None, "exhaustive": False, "seed": None, "format": "text"},
    ),
    "pd-check": (_cmd_pd_check, False, {"length": 1 << 14, "format": "text"}),
}


@cache  # built once per process; parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankone",
        description="rank-one cutting-and-stacking toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, takes_system, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        if takes_system:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--spec", metavar="FILE", help="JSON system spec file")
            group.add_argument("--preset", choices=sorted(PRESET_SCHEDULES))
        # verify tests a seeded sample or the whole fiber, never both
        paths = p.add_mutually_exclusive_group() if "exhaustive" in flags else p
        for flag, default in flags.items():
            target = paths if flag in ("samples", "exhaustive") else p
            target.add_argument(
                "--" + flag.replace("_", "-"), default=default, **_FLAGS[flag]
            )
        p.add_argument("--out", metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, takes_system, _ = COMMANDS[args.command]
    try:
        for name in _POSITIVE:
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        spec = None
        if takes_system:
            if args.spec is None:
                spec = SystemSpec(_preset_schedule(args.preset), None)
            else:
                with open(args.spec) as fh:
                    spec = parse_spec(fh.read())
        try:
            code, doc, text = handler(spec, args)
            refusal = None
        except PartialResult as exc:
            code, doc, text, refusal = 2, exc.doc, exc.text, exc
        json_out = doc is not None and getattr(args, "format", None) != "text"
        _emit(_dumps(doc) if json_out else [text], args.out)
        if refusal is not None:
            raise refusal  # once the partial result is written
        return code
    except (DepthError, SpacerReplacementError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
