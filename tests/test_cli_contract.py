"""The CLI's exit contract, fuzzed through ``main``.

Hypothesis draws a spec file (valid, malformed, not JSON, or missing), a
subcommand and a value for any of the flags it takes.  Every call must
return 0, 1 or 2 without raising.  Exit 2 writes exactly one ``error: ``
line and nothing to stdout, except ``vershik``'s overflow, which keeps its
partial word.  Depths, stage counts and samples stay at most 6 and
lengths at most 4096, so no call needs a resource limit: exhaustive
``verify`` is drawn at depths up to 3, whose fibers hold a few thousand
floors.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rankone.cli import COMMANDS, main

SMALL = st.integers(-1, 6)

# the values each flag is drawn from
FLAG_VALUES = {
    "depth": SMALL,
    "stages": SMALL,
    "length": st.integers(-1, 4096),
    "seed": st.integers(-3, 10**6),
    "samples": SMALL,
    "format": st.sampled_from(["json", "text"]),
}


def stages():
    """Stage objects, now and then malformed in shape, type or sign."""
    good = st.integers(1, 4).flatmap(
        lambda q: st.fixed_dictionaries(
            {"q": st.just(q), "a": st.lists(st.integers(0, 3), min_size=q, max_size=q)}
        )
    )
    bad = st.fixed_dictionaries(
        {"q": st.one_of(st.integers(-1, 3), st.just("2"), st.booleans()),
         "a": st.one_of(st.lists(st.integers(-1, 3), max_size=4), st.just(7))},
        optional={"extra": st.just(0)},
    )
    return st.one_of(good, good, good, bad)


def schedules():
    tail = st.one_of(
        st.just({"kind": "none"}),
        st.builds(lambda p: {"kind": "periodic", "period": p}, st.integers(-1, 5)),
        st.just({"kind": "periodic"}),
        st.just({"kind": "cyclic", "period": 1}),
    )
    return st.fixed_dictionaries({"stages": st.lists(stages(), max_size=4), "tail": tail})


def spec_documents():
    system = st.one_of(
        st.builds(lambda s: {"schedule": s}, schedules()),
        st.builds(lambda p: {"preset": p}, st.sampled_from(["chacon", "dyadic-odometer", "tent"])),
        st.just({}),
        st.just({"preset": "chacon", "schedule": {"stages": [], "tail": {"kind": "none"}}}),
    )
    levels = st.lists(st.integers(-1, 6), max_size=4)
    return st.one_of(
        system,
        st.builds(lambda doc, lv: {**doc, "telescope_levels": lv}, system, levels),
    )


def spec_texts():
    """What a spec file holds: a document, cut or not, or bytes that are not UTF-8."""
    doc = spec_documents().map(json.dumps)
    cut = st.tuples(doc, st.integers(0, 40)).map(lambda t: t[0][: t[1]])
    return st.one_of(doc, doc, doc, cut, st.just(b"\xff{}"), st.just(None))


@st.composite
def invocations(draw):
    """(argv, spec text): the argv ends in --spec when the text is to be written
    to a spec file, and OUT stands for the directory that holds it."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, takes_system, flags = COMMANDS[command]
    argv = [command]
    for flag in sorted(flags):
        if flag in ("exhaustive", "emit_blocks"):
            if draw(st.booleans()):
                argv.append("--" + flag.replace("_", "-"))
        elif draw(st.booleans()):
            argv += ["--" + flag, str(draw(FLAG_VALUES[flag]))]
    # --samples and --exhaustive exclude each other in the parser
    if "--exhaustive" in argv and "--samples" in argv:
        argv.remove("--exhaustive")
    if command == "verify" and "--samples" not in argv:
        # an exhaustive walk stays at depth 3 or less, as the module says
        if "--depth" in argv:
            spot = argv.index("--depth") + 1
            argv[spot] = str(min(int(argv[spot]), 3))
    if draw(st.integers(0, 3)) == 0:
        # an --out under a missing directory cannot be written
        argv += ["--out", draw(st.sampled_from(["OUT/out.txt", "OUT/missing/out.txt"]))]
    text = None
    if takes_system:
        if draw(st.booleans()):
            argv += ["--preset", draw(st.sampled_from(["chacon", "dyadic-odometer"]))]
        else:
            text = draw(spec_texts())
            argv.append("--spec")
            if text is None:
                argv.append("OUT/missing.json")  # no such file
    return argv, text


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
# an overflowed orbit that cannot be written: one error line, the write's
@example((["vershik", "--depth", "1", "--length", "400", "--out", "OUT/missing/out.txt",
           "--preset", "chacon"], None))
def test_cli_exit_contract(spec_dir, invocation):
    argv, text = invocation
    argv = [arg.replace("OUT", str(spec_dir)) for arg in argv]
    if argv[-1] == "--spec":
        spec = spec_dir / "spec.json"
        if isinstance(text, bytes):
            spec.write_bytes(text)
        else:
            spec.write_text(text)
        argv.append(str(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code != 2:
        assert err == ""
        return
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    if argv[0] == "vershik" and err.startswith("error: orbit overflowed depth "):
        # the overflow keeps its partial word: the whole block of the tower
        if "--out" not in argv:
            word = json.loads(out)["word"] if "json" in argv else out[:-1]
            assert word and set(word) <= set("01") and out.endswith("\n")
    else:
        assert out == ""
