"""End-to-end checks of the command-line entry point."""

import dataclasses
import hashlib
import json
import operator
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import WIDE_RUNS
from hypothesis import example, given
from hypothesis import strategies as st

import rankone
from rankone import (
    BudgetError,
    ParamSchedule,
    PathError,
    ScheduleError,
    build_expansive,
    path_from_json_dict,
    telescope,
    verify_isomorphism,
)
from rankone.cli import (
    CHACON,
    ODOMETER,
    SpecFileError,
    _build_parser,
    _dumps,
    main,
    parse_spec,
)

CHACON_DOC = {
    "stages": [{"q": 3, "a": [0, 1, 0]}],
    "tail": {"kind": "periodic", "period": 1},
}


def test_parse_spec_schedule_and_levels():
    spec = parse_spec(json.dumps({"schedule": CHACON_DOC, "telescope_levels": [0, 1, 3]}))
    assert spec.schedule is not None
    assert spec.schedule.stages[0].q == 3
    assert spec.telescope_levels == (0, 1, 3)


def test_parse_spec_preset():
    spec = parse_spec('{"preset": "chacon"}')
    # a fresh copy, so nothing cached on it outlives one command
    assert spec.schedule == CHACON and spec.schedule is not CHACON
    # the period-doubling word has no stage schedule, so no preset names it
    with pytest.raises(SpecFileError) as err:
        parse_spec('{"preset": "period-doubling"}')
    assert str(err.value) == (
        "unknown preset 'period-doubling' at $.preset (known: chacon, dyadic-odometer)"
    )


@pytest.mark.parametrize(
    "text, needle",
    [
        ("[]", "expected an object"),
        ("{", "invalid JSON"),
        ('{"preset": "chacon", "schedule": {}}', "exactly one"),
        ("{}", "exactly one"),
        ('{"preset": "nope"}', "$.preset"),
        ('{"preset": []}', "$.preset"),
        ('{"preset": {}}', "$.preset"),
        ('{"schedule": {"stages": [], "tail": {"kind": "none"}}, "k": 1}', "$.k"),
        ('{"preset": "chacon", "telescope_levels": [0, "x"]}', "$.telescope_levels"),
        ('{"schedule": {"stages": 3, "tail": {"kind": "none"}}}', "$.schedule.stages"),
        # ParamSchedule checks the period range; the reader adds where
        ('{"schedule": {"stages": [{"q": 2, "a": [0, 0]}], '
         '"tail": {"kind": "periodic", "period": 3}}}',
         "tail period 3 outside 1..1 at $.schedule.tail.period"),
    ],
)
def test_parse_spec_rejects(text, needle):
    with pytest.raises(SpecFileError) as err:
        parse_spec(text)
    assert needle in str(err.value)


# the field and kind names of the spec, schedule and path forms
_NAMES = st.sampled_from([
    "schedule", "preset", "telescope_levels", "stages", "tail", "q", "a",
    "kind", "period", "none", "periodic", "chacon", "root", "edges", "level",
    "i", "j", "tower", "spacer", "down", "nonspacer",
])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=3) | _NAMES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_NAMES | st.text(max_size=2), inner, max_size=4),
    max_leaves=16,
)


@given(_JSON_VALUES)
# the period range is checked by ParamSchedule itself, and still located
@example({"stages": [], "tail": {"kind": "periodic", "period": 1}})
@example({"stages": [{"q": 2, "a": [0, 0]}], "tail": {"kind": "periodic", "period": 3}})
def test_parsers_raise_only_their_own_errors(value):
    for parse, error in (
        (lambda v: parse_spec(json.dumps(v)), SpecFileError),
        (ParamSchedule.from_json_dict, ScheduleError),
        (path_from_json_dict, PathError),
    ):
        try:
            parse(value)
        except error as exc:
            # every message says where in the document it failed
            assert " at $" in str(exc)


def test_parse_errors_do_not_depend_on_the_hash_seed(tmp_path):
    # three unknown tail fields: the first in document order is named
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({"schedule": {
        "stages": [], "tail": {"kind": "none", "xa": 1, "yb": 2, "zc": 3},
    }}))
    src = str(Path(rankone.__file__).parents[1])
    errs = set()
    for seed in "0123":
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "rankone.cli", "validate", "--spec", str(spec)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 2
        errs.add(run.stderr)
    assert errs == {"error: unknown field 'xa' at $.schedule.tail.xa\n"}


def test_heights_json_and_text(capsys):
    assert main(["heights", "--preset", "chacon", "--depth", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"h": [1, 4, 13, 40]}
    assert main(["heights", "--preset", "chacon", "--depth", "3", "--format", "text"]) == 0
    assert capsys.readouterr().out == "1 4 13 40\n"


def test_block_command(capsys):
    assert main(["block", "--preset", "chacon", "--depth", "2"]) == 0
    assert capsys.readouterr().out == "0010001010010\n"
    # the lengths are checked level by level, so a depth at the level cap
    # costs 17 levels, and one past it none
    for depth, error in (
        ("2097152", "block needs 193710244 symbols by level 17, over the budget of 67108864"),
        ("100000000", "stage walk needs 100000000 levels, over the budget of 2097152"),
    ):
        start = time.perf_counter()
        assert main(["block", "--preset", "chacon", "--depth", depth]) == 2
        assert time.perf_counter() - start < 0.2
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_expand_emit_blocks(capsys):
    code = main(["expand", "--preset", "dyadic-odometer", "--stages", "2", "--emit-blocks"])
    assert code == 0
    assert capsys.readouterr().out == "01\n01010111\n"


def test_expand_json(capsys):
    assert main(["expand", "--preset", "chacon", "--stages", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == [0, 1, 3]
    assert doc["stages"][0]["Q_new"] == 2
    assert doc["stages"][0]["A_new"] == [0, 2]


def test_telescope_deterministic(capsys):
    assert main(["telescope", "--preset", "chacon", "--stages", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["telescope", "--preset", "chacon", "--stages", "2"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["m"] == [0, 1, 3]
    assert doc["H"] == [1, 4, 40]


def test_vershik_word(capsys):
    assert main(["vershik", "--preset", "chacon", "--depth", "2", "--length", "13"]) == 0
    assert capsys.readouterr().out == "0010001010010\n"
    # orbit longer than the truncation: partial word on stdout, exit 2
    assert main(["vershik", "--preset", "chacon", "--depth", "1", "--length", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "0010\n"
    assert captured.err == "error: orbit overflowed depth 1 after 4 symbols; increase --depth\n"


def test_measure_json(capsys):
    assert main(["measure", "--preset", "chacon", "--stages", "1", "--depth", "15"]) == 0
    doc = json.loads(capsys.readouterr().out)
    lo_n, lo_d = doc["lo"].split("/")
    assert int(lo_n) / int(lo_d) == pytest.approx(2 / 9, abs=1e-6)
    assert doc["tail_bounded"] is True


def test_dot_output(capsys):
    assert main(["dot", "--preset", "dyadic-odometer", "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert out.count("->") == 5


def test_verify_text_and_json(capsys):
    assert main(["verify", "--preset", "chacon", "--depth", "2", "--exhaustive"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(
        ["verify", "--preset", "chacon", "--depth", "2", "--samples", "10",
         "--seed", "3", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["paths_tested"] == 10


def test_verify_failure_lists_each_check(monkeypatch, capsys):
    # a model with a wrong cut, as in test_verify_detects_wrong_cut: exit 1,
    # one line per failing check in sorted order, then FAIL
    model = build_expansive(CHACON, 3)
    bad = dataclasses.replace(model, cut=(0,) + model.cut[1:])
    monkeypatch.setattr("rankone.cli._expansive_model", lambda spec, stages: bad)
    assert main(["verify", "--preset", "chacon", "--depth", "3"]) == 1
    report = verify_isomorphism(bad, 3)
    counts = sorted(report.failure_counts().items())
    assert counts
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"depth 3: tested {report.paths_tested} paths, {len(report.failures)} failures"
    assert lines[1:1 + len(counts)] == [f"  {check}: {count}" for check, count in counts]
    assert lines[-1] == "FAIL"


def test_verify_samples_past_sys_maxsize(capsys):
    # H_10 of the chacon model passes sys.maxsize, so floors are drawn one by one
    assert main(["verify", "--preset", "chacon", "--depth", "10", "--samples", "100"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("depth 10: tested 100 paths, 0 failures\n")
    assert out.endswith("PASS\n")


def test_verify_walk_budget(tmp_path, capsys):
    # this spec's depth-4 model has H_4 = 17,610,329,152 floors: refused at once.
    # Without a spec's levels the greedy model at depth 23 has H_23 >= 2^276
    # floors, refused before the model is built; so is a sample over the
    # budget at depth 22, since H_22 >= 2^253 leaves the walk K floors.
    # A spec's levels give H_D = h_{m_D} before any window is built: the
    # odometer's [0, 21, 42] has H_2 = 2^42 floors
    stages = [(1, [3]), (1, [3]), (1, [0]), (3, [2, 2, 0]), (2, [1, 2]), (3, [2, 3, 3]),
              (1, [3])]
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({"schedule": {
        "stages": [{"q": q, "a": a} for q, a in stages],
        "tail": {"kind": "periodic", "period": 5},
    }}))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"preset": "dyadic-odometer", "telescope_levels": [0, 21, 42]}))
    for argv, walk in (
        (["--spec", str(spec), "--depth", "4"], "verify needs 17610329152 floors"),
        (["--spec", str(wide), "--depth", "2"], "verify needs 4398046511104 floors"),
        (["--preset", "chacon", "--depth", "23"],
         "verify --depth 23 needs at least 2^276 floors"),
        (["--preset", "chacon", "--depth", "22", "--samples", "2000000"],
         "verify needs 2000000 floors"),
    ):
        start = time.perf_counter()
        assert main(["verify", *argv]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {walk}, over the budget of 1048576; pass --samples K with K <= 1048576\n"
        )


# the shape of every size refusal, as CI greps it
_REFUSAL = re.compile(
    r"^error: .+ needs (at least |up to )?(\d+|2\^\d+) [a-z]+( by level \d+)?, "
    r"over the budget of \d+(; .+)?$"
)


def test_size_refusals_share_one_shape(tmp_path, capsys):
    # the size-refusal commands of CI's timeout-3 loop, through main
    far = tmp_path / "far.json"
    far.write_text(json.dumps({"schedule": LINEAR_TAIL_DOC, "telescope_levels": [0, 10**8]}))
    frozen = tmp_path / "frozen.json"
    frozen.write_text(json.dumps({"schedule": FROZEN_TAIL_DOC}))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"preset": "dyadic-odometer", "telescope_levels": [0, 21, 42]}))
    linear = tmp_path / "linear.json"
    linear.write_text(json.dumps({"schedule": LINEAR_TAIL_DOC}))
    for args in (
        "verify --preset chacon --depth 23",
        "verify --preset chacon --depth 23 --samples 2000000",
        f"verify --spec {wide} --depth 2",
        "pd-check --length 67108865",
        "block --preset chacon --depth 40",
        "block --preset chacon --depth 100000000",
        "heights --preset dyadic-odometer --depth 100000000",
        "validate --preset chacon --depth 100000000",
        "validate --preset chacon --depth 1004",
        f"validate --spec {linear} --depth 2097152",
        f"validate --spec {frozen} --depth 2097152",
        "telescope --preset chacon --stages 1000",
        "verify --preset chacon --depth 1000 --samples 5",
        "dot --preset chacon --depth 100000000",
        "dot --preset chacon --depth 300000",
        f"heights --spec {frozen} --depth 100000000",
        "vershik --preset chacon --depth 100000000 --length 5",
        f"telescope --spec {far}",
    ):
        assert main(args.split()) == 2, args
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and _REFUSAL.match(err.rstrip("\n")), (args, err)


def test_pd_check(capsys):
    assert main(["pd-check", "--length", "1024", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gaps_all_multiples_of_4"] is True
    assert all(g % 4 == 0 for g in doc["distinct_gaps"])
    # one symbol past the budget is refused before the word is built
    start = time.perf_counter()
    assert main(["pd-check", "--length", "67108865"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: period-doubling prefix needs 67108865 symbols, over the budget of 67108864\n"
    )
    # shorter than 0100: refused before the word is built, naming the flag
    for length in ("1", "2", "3"):
        assert main(["pd-check", "--length", length]) == 2
        assert capsys.readouterr() == (
            "", f"error: --length {length} is shorter than the pattern 0100\n"
        )
    # the benchmark's word, pinned by the digest of perfbench/expected.json
    assert main(["pd-check", "--length", "4194304", "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "f86a08e01aaa945acbaacbde855c01c375bd2e0c86365e68ee9fe78abddb08ee"
    )


def test_pd_check_violations(monkeypatch, capsys):
    # 0100 starts at 0, 3 and 7: of the gaps 3 and 4 only 3 is a violation
    monkeypatch.setattr("rankone.cli.period_doubling_prefix", lambda length: "01001000100")
    assert main(["pd-check", "--length", "11"]) == 1
    assert capsys.readouterr() == ("violations: [3]\n", "")
    assert main(["pd-check", "--length", "11", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "length": 11,
        "occurrences": 3,
        "gaps_all_multiples_of_4": False,
        "distinct_gaps": [3, 4],
    }


def test_schedule_less_preset_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["heights", "--preset", "period-doubling"])
    assert exc.value.code == 2
    assert "invalid choice: 'period-doubling'" in capsys.readouterr().err


def test_removed_variant_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["variant", "--preset", "chacon"])
    assert exc.value.code == 2
    assert "invalid choice: 'variant'" in capsys.readouterr().err


def test_spec_file_round_trip(tmp_path, capsys):
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({"schedule": CHACON_DOC, "telescope_levels": [0, 1, 3]}))
    assert main(["telescope", "--spec", str(spec)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == [0, 1, 3]
    assert main(["verify", "--spec", str(spec), "--depth", "2", "--exhaustive"]) == 0
    capsys.readouterr()

    missing = tmp_path / "nope.json"
    assert main(["heights", "--spec", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "blocks.txt"
    code = main(
        ["expand", "--preset", "dyadic-odometer", "--stages", "2",
         "--emit-blocks", "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "01\n01010111\n"


def test_bad_cli_bounds(capsys):
    assert main(["heights", "--preset", "chacon", "--depth", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["verify", "--preset", "chacon", "--samples", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


FLAG_VALUES = {
    "--depth": ["3"], "--stages": ["2"], "--length": ["9"], "--seed": ["5"],
    "--samples": ["3"], "--exhaustive": [], "--emit-blocks": [], "--picks": ["0"],
    "--format": ["json"],
}
READS = {
    "heights": {"--depth", "--format"},
    "validate": {"--depth", "--format"},
    "block": {"--depth", "--format"},
    "telescope": {"--stages"},
    "expand": {"--stages", "--emit-blocks"},
    "vershik": {"--depth", "--length", "--format"},
    "measure": {"--stages", "--depth", "--format"},
    "dot": {"--depth"},
    "verify": {"--depth", "--seed", "--samples", "--exhaustive", "--format"},
    "pd-check": {"--length", "--format"},
}


def _argv(command, *flags):
    system = [] if command == "pd-check" else ["--preset", "chacon"]
    return [command, *system, *flags]


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, reads in READS.items() for f in sorted(reads)]
)
def test_read_flags_accepted(command, flag):
    # verify reads --seed only to pick its --samples
    extra = ["--samples", "3"] if (command, flag) == ("verify", "--seed") else []
    args = _build_parser().parse_args(_argv(command, flag, *FLAG_VALUES[flag], *extra))
    assert args.command == command


@pytest.mark.parametrize(
    "argv",
    [
        _argv(c, f, *FLAG_VALUES[f])
        for c, reads in READS.items()
        for f in sorted(FLAG_VALUES.keys() - reads)
    ]
    + [
        _argv("heights", "--format", "dot"),
        _argv("dot", "--format", "dot"),
        _argv("verify", "--samples", "5", "--exhaustive"),
    ],
    ids=" ".join,
)
def test_unread_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_unused_flag_combinations_rejected(tmp_path, capsys):
    assert main(["verify", "--preset", "chacon", "--seed", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: --seed needs --samples")
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({"schedule": CHACON_DOC, "telescope_levels": [0, 1, 3]}))
    for command in ("telescope", "expand"):
        assert main([command, "--spec", str(spec), "--stages", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --stages conflicts with $.telescope_levels")
        assert str(spec) in err
        assert main([command, "--spec", str(spec)]) == 0
        capsys.readouterr()


def test_validate_reports_bad_tail_stage_past_depth(tmp_path, capsys):
    # the invalid stage 2 repeats forever, so depth 2 must not hide it
    doc = {
        "stages": [{"q": 2, "a": [0, 1]}, {"q": 2, "a": [1, 0]}, {"q": 2, "a": [-1, 0]}],
        "tail": {"kind": "periodic", "period": 1},
    }
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({"schedule": doc}))
    assert main(["validate", "--spec", str(spec), "--depth", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["structural_issues"] == ["stage 2: negative spacer count"]
    assert main(["validate", "--spec", str(spec), "--depth", "2", "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("ok: False\nstructural: stage 2:")


def test_validate_bare_prefix_shorter_than_depth(tmp_path, capsys):
    # the series is summed as far as the prefix resolves, with no verdict
    doc = {"stages": [{"q": 2, "a": [0, 1]}, {"q": 3, "a": [1, 0, 2]}], "tail": {"kind": "none"}}
    spec = tmp_path / "bare.json"
    spec.write_text(json.dumps({"schedule": doc}))
    assert main(["validate", "--spec", str(spec)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["partial_sums"] == ["1/3", "7/12"]
    assert report["tail_verdict"] == "unknown-at-depth"
    assert report["ratio_partial_sum"] == "7/12"
    assert report["ratio_total_bound"] is None


def test_validate_bad_stage_between_depth_and_tail(tmp_path, capsys):
    # stage 1 is below the tail and past depth 1, but the tail bound sums
    # through it, so the report names it
    doc = {
        "stages": [{"q": 2, "a": [0, 0]}, {"q": 2, "a": [0]}, {"q": 2, "a": [0, 1]}],
        "tail": {"kind": "periodic", "period": 1},
    }
    spec = tmp_path / "mid.json"
    spec.write_text(json.dumps({"schedule": doc}))
    assert main(["validate", "--spec", str(spec), "--depth", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["structural_issues"] == ["stage 1: len(a)=1 != q=2"]


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("rankone ")]


def test_readme_commands_run(capsys):
    lines = _readme_commands()
    assert len(lines) == len(READS)
    for argv in lines:
        assert main(argv) == 0, argv
        capsys.readouterr()


def _each_format(argv):
    """argv once per --format its command takes (once if it takes none)."""
    if "--format" not in READS[argv[0]]:
        return [argv]
    if "--format" in argv:
        i = argv.index("--format")
        argv = argv[:i] + argv[i + 2:]
    return [[*argv, "--format", fmt] for fmt in ("json", "text")]


def test_out_file_holds_stdout_bytes(tmp_path, capsys):
    target = tmp_path / "out.txt"
    for command in _readme_commands():
        for argv in _each_format(command):
            assert main(argv) == 0, argv
            stdout = capsys.readouterr().out
            assert main([*argv, "--out", str(target)]) == 0, argv
            assert capsys.readouterr().out == ""
            assert target.read_bytes() == stdout.encode(), argv


def test_unwritable_out_is_a_located_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    for command in _readme_commands():
        for argv in _each_format(command):
            assert main([*argv, "--out", str(target)]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert str(target) in captured.err


def test_validate_text_at_large_depth(capsys):
    # the text report prints no fraction, so the int->str digit limit that
    # the JSON partial sums reach at this depth does not apply to it
    argv = ["validate", "--preset", "chacon", "--depth", "600", "--format", "text"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert "ok: True" in out
    assert "tail verdict: proved-convergent" in out


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["verify", "--preset", "chacon", "--depth", "3", "--exhaustive"],
            "16aca01b18f1cc6b5e976729843294535365e80e55f623506f7064075d63d4d8",
        ),
        (
            ["verify", "--preset", "chacon", "--depth", "3", "--exhaustive", "--format", "json"],
            "c89762b135c24228d5acc238724456f694debb0eb23d9381a0a0784ef1ccbd22",
        ),
        (
            ["telescope", "--preset", "chacon", "--stages", "2"],
            "4d31d79563b74d8a1c253527f85c0416aa331bbb299f73fbb30b555ba175c5c3",
        ),
        (
            ["expand", "--preset", "dyadic-odometer", "--stages", "2", "--emit-blocks"],
            "8af32e69385d0d8037353d23eda71903fc2bccbbd23ea79ba266777b8cd0d583",
        ),
    ],
)
def test_readme_output_digest(argv, digest, capsys):
    # pins the exact bytes of README commands (verify also in its JSON form)
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# past level 1 every q is 1, so heights grow by 3 per level and no
# window above level 1 has a cut, whatever the growth base
LINEAR_TAIL_DOC = {
    "stages": [
        {"q": 2, "a": [0, 2]},
        {"q": 4, "a": [1, 3, 0, 0]},
        {"q": 1, "a": [2]},
        {"q": 1, "a": [3]},
    ],
    "tail": {"kind": "periodic", "period": 1},
}


def test_linear_tail_fails_fast(tmp_path, capsys):
    spec = tmp_path / "linear.json"
    spec.write_text(json.dumps({"schedule": LINEAR_TAIL_DOC}))
    for argv in (
        ["verify", "--depth", "3", "--samples", "200"],
        ["verify", "--depth", "8", "--samples", "200"],
        ["expand"],
        ["expand", "--stages", "8"],
    ):
        t0 = time.perf_counter()
        assert main([argv[0], "--spec", str(spec), *argv[1:]]) == 2
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: stage 2: every level from 2 on has q = 1")
    assert main(["telescope", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["m"] == [0, 1, 2, 49]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ab004a6f8a358055a63166c6b08ba08d31cc117cb01f77598edcfb106b3c1d94"
    )
    # the greedy walk steps the q = 1 tail a period at a time, and refuses
    # the seventh level, past MAX_WALK_LEVELS, as the height walk would
    t0 = time.perf_counter()
    assert main(["telescope", "--spec", str(spec), "--stages", "7"]) == 2
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr() == (
        "",
        "error: stage walk needs 2097153 levels, over the budget of 2097152\n",
    )


def test_validate_partial_sums_fail_fast(tmp_path, capsys):
    # a linear tail's heights stay small, but each partial sum S_k takes up to
    # 2 * sum_{j<=k} bits(h_j) bits plus PARTIAL_SUM_ENTRY_BYTES, and S_1..S_k
    # together pass 2^26 bytes at level 6476: refused there, before any sum is
    # added or any later height read
    spec = tmp_path / "linear.json"
    spec.write_text(json.dumps({"schedule": LINEAR_TAIL_DOC}))
    for depth, seconds in ((200000, 1.0), (2097152, 0.2)):
        t0 = time.perf_counter()
        assert main(["validate", "--spec", str(spec), "--depth", str(depth)]) == 2
        assert time.perf_counter() - t0 < seconds
        assert capsys.readouterr() == (
            "",
            "error: partial sum list needs up to 67127781 bytes by level 6476, "
            "over the budget of 67108864\n",
        )


def test_validate_frozen_tail_is_budgeted(tmp_path, capsys):
    # the frozen tail's sums are all 0, so only their entries count: 172 bytes
    # each pass 2^26 bytes at level 390168, refused before any sum is added
    spec = tmp_path / "frozen.json"
    spec.write_text(json.dumps({"schedule": FROZEN_TAIL_DOC}))
    t0 = time.perf_counter()
    assert main(["validate", "--spec", str(spec), "--depth", "2097152"]) == 2
    assert time.perf_counter() - t0 < 3
    assert capsys.readouterr() == (
        "",
        "error: partial sum list needs up to 67108896 bytes by level 390168, "
        "over the budget of 67108864\n",
    )


# from stage 1 on every stage is q = 1 with no spacers: the tower stops growing
FROZEN_TAIL_DOC = {
    "stages": [{"q": 2, "a": [0, 0]}, {"q": 1, "a": [0]}],
    "tail": {"kind": "periodic", "period": 1},
}


def test_frozen_tail_risk(tmp_path, capsys):
    spec = tmp_path / "frozen.json"
    spec.write_text(json.dumps({"schedule": FROZEN_TAIL_DOC}))
    assert main(["validate", "--spec", str(spec), "--format", "text"]) == 0
    assert capsys.readouterr() == (
        "ok: False\n"
        "q>1 infinitely often: False\n"
        "tail verdict: proved-convergent\n"
        "risk: the map is not defined almost everywhere\n",
        "",
    )


_HEIGHTS_OVER = "height list needs up to {} bytes by level {}, over the budget of 67108864"
_LEVEL_OVER = "stage walk needs 100000000 levels, over the budget of 2097152"


@pytest.mark.parametrize(
    "argv, seconds, error",
    [
        # a depth past the level cap is refused before any stage is read
        (["heights", "--preset", "dyadic-odometer", "--depth", "100000000"], 0.2, _LEVEL_OVER),
        (["validate", "--preset", "chacon", "--depth", "100000000"], 0.2, _LEVEL_OVER),
        # the partial sums pass their budget level by level, long before the heights do
        (["validate", "--preset", "chacon", "--depth", "2097152"], 1.0,
         "partial sum list needs up to 67144947 bytes by level 1003, over the budget of 67108864"),
        # the greedy walk reads the height walk, which refuses the first level over the budget
        (["telescope", "--preset", "chacon", "--stages", "1000"], 1.0,
         _HEIGHTS_OVER.format(67111531, 18404)),
        (["verify", "--preset", "chacon", "--depth", "1000", "--samples", "5"], 1.0,
         _HEIGHTS_OVER.format(67111531, 18404)),
        # no size budget stops these walks on the frozen tail, whose heights stay 2
        (["vershik", "--preset", "chacon", "--depth", "100000000", "--length", "5"], 0.2,
         _LEVEL_OVER),
        (["block", "--spec", "frozen", "--depth", "100000000"], 0.2, _LEVEL_OVER),
        (["heights", "--spec", "frozen", "--depth", "100000000"], 0.2, _LEVEL_OVER),
        (["validate", "--spec", "frozen", "--depth", "100000000"], 0.2, _LEVEL_OVER),
        (["measure", "--spec", "frozen", "--depth", "100000000"], 0.2, _LEVEL_OVER),
        # dot counts its lines from the flag and the stages before building any
        (["dot", "--preset", "chacon", "--depth", "100000000"], 1.0,
         "dot of depth 100000000 needs at least 4677777974 characters by level 0, "
         "over the budget of 67108864"),
    ],
    ids=[
        "heights", "validate", "validate-under-cap", "telescope", "verify", "vershik",
        "block-frozen", "heights-frozen", "validate-frozen", "measure-frozen", "dot",
    ],
)
def test_depth_flags_are_budgeted(tmp_path, capsys, argv, seconds, error):
    spec = tmp_path / "frozen.json"
    spec.write_text(json.dumps({"schedule": FROZEN_TAIL_DOC}))
    argv = [str(spec) if arg == "frozen" else arg for arg in argv]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < seconds
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_verify_depth_past_the_spec_windows(tmp_path, capsys):
    # the spec's two windows decide the depth before any window is built
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"preset": "dyadic-odometer", "telescope_levels": [0, 21, 42]}))
    t0 = time.perf_counter()
    assert main(["verify", "--spec", str(spec), "--depth", "3"]) == 2
    assert time.perf_counter() - t0 < 0.2
    assert capsys.readouterr() == ("", "error: depth 3 exceeds the 2 stages\n")


def test_spec_levels_past_the_level_budget(tmp_path, capsys):
    # a window's last level is checked against MAX_WALK_LEVELS before its
    # stages are read: every window of this tail has 8 copies, so no other
    # budget would stop the walk through its stages
    spec = tmp_path / "far.json"
    for top in (3_000_000, 100_000_000):
        spec.write_text(json.dumps({"schedule": LINEAR_TAIL_DOC, "telescope_levels": [0, top]}))
        for argv in (["telescope"], ["expand"], ["verify", "--depth", "1", "--samples", "5"]):
            t0 = time.perf_counter()
            assert main([argv[0], "--spec", str(spec), *argv[1:]]) == 2
            assert time.perf_counter() - t0 < 1.0
            assert capsys.readouterr() == (
                "",
                f"error: stage walk needs {top} levels, over the budget of 2097152\n",
            )


def test_verify_wide_window(tmp_path, capsys):
    # one telescoped stage of 3,888 copies: the floor arithmetic bisects
    # the copy starts instead of stepping down through them
    doc = {
        "schedule": {
            "stages": [{"q": len(a), "a": list(a)} for a in WIDE_RUNS],
            "tail": {"kind": "none"},
        },
        "telescope_levels": [0, 9],
    }
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps(doc))
    assert main(["verify", "--spec", str(spec), "--depth", "1", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("depth 1: tested 8351 paths, 0 failures\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1a35ea6f964c38754248f7a26bf29de2e28d2bf4c67d40ea24f9b135c5141092"
    )


def test_telescope_window_over_the_budget(tmp_path, capsys):
    # levels [0, 30] of the odometer make 2^30 copies; [0, 18] stays allowed
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"preset": "dyadic-odometer", "telescope_levels": [0, 30]}))
    t0 = time.perf_counter()
    assert main(["telescope", "--spec", str(spec)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        "error: window [0, 30) needs 134217728 copies by level 26, "
        "over the budget of 67108864\n"
    )
    with pytest.raises(BudgetError, match=(
        r"^window \[0, 30\) needs 134217728 copies by level 26, over the budget of 67108864$"
    )):
        telescope(ODOMETER, [0, 30])
    spec.write_text(json.dumps({"preset": "dyadic-odometer", "telescope_levels": [0, 18]}))
    assert main(["telescope", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["stages"][0]["A"]) == 1 << 18
    # the benchmark's telescope item, pinned to the same bytes
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0749e2a5e07898ca24f461d4d6e8a32691c1e78458834c954db7a890921bfced"
    )


_DIGITS_1000 = st.integers(10**999, 10**1000 - 1)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | _DIGITS_1000
    | _DIGITS_1000.map(operator.neg)
    | st.floats()
    | st.text(st.sampled_from('"\\\n\t/aé€😀\x00') | st.characters())
)
_JSON_KEYS = st.text(st.sampled_from('"\\\nké€') | st.characters(), max_size=4)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_JSON_KEYS, inner, max_size=5),
    max_leaves=30,
)


@given(st.dictionaries(_JSON_KEYS, _JSON_DOCS, max_size=5))
@example({})
@example({"": [], "a": {}, "b": (), "c": [[], {}, [1, [2]], {"x": [3]}]})
# keys that are not str are quoted, as json writes them
@example({1: [[]], -3: {2.5: [1], False: [[]]}, 7: {None: [[]]}})
def test_dumps_is_json_dumps(doc):
    assert "".join(_dumps(doc)) == json.dumps(doc, sort_keys=True, indent=2)


# every subcommand that writes a document, on both presets, in its JSON form
_JSON_COMMANDS = [
    [c, *(["--preset", preset] if preset else []),
     *(["--format", "json"] if "--format" in READS[c] else [])]
    for c in READS
    if c != "dot"
    for preset in (["chacon", "dyadic-odometer"] if c != "pd-check" else [None])
]


@pytest.mark.parametrize("argv", _JSON_COMMANDS, ids=" ".join)
def test_json_output_is_json_dumps(argv, capsys):
    # the odometer's vershik orbit overflows at the default depth: exit 2,
    # with the partial document still written
    assert main(argv) == (2 if argv[:3] == ["vershik", "--preset", "dyadic-odometer"] else 0)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_int_digit_limit_still_raises(capsys):
    # the writer turns ints into text as json does, so CPython's int->str
    # digit limit still applies, whichever path an int takes through it
    for doc in ({"h": 10**5000}, {"h": [10**5000]}, {"h": [10**5000, []]}):
        with pytest.raises(ValueError, match="Exceeds the limit"):
            "".join(_dumps(doc))
    # the benchmark's known-defect probe: validate's JSON partial sums pass
    # it; chacon's heights pass it from h_9013 on, after 9,013 heights are
    # encoded: the whole document is encoded before any of it is written,
    # so stdout stays empty
    for argv in (["validate", "--preset", "chacon", "--depth", "600"],
                 ["heights", "--preset", "chacon", "--depth", "9200"]):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "",
            "error: Exceeds the limit (4300 digits) for integer string conversion; "
            "use sys.set_int_max_str_digits() to increase the limit\n",
        )
