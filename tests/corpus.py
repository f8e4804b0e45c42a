"""A behaviour corpus of the CLI: a fixed list of invocations, one digest each.

Each invocation runs in-process through ``rankone.cli.main``.  Its digest
is the sha256 of the JSON list [exit code, stdout, stderr], with the
directory holding the corpus's spec files written as ``SPECS`` in the
argv and in stderr, so a digest does not depend on where the files are.
``corpus.txt`` holds one line per invocation: the digest, then the argv.

After an intended output change, rewrite ``corpus.txt`` with

    PYTHONPATH=src python tests/corpus.py

and list each changed invocation, old digest and new, with the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from rankone.cli import main

DIGESTS = Path(__file__).with_name("corpus.txt")
PLACEHOLDER = "SPECS"

# past level 1 every q is 1, and the heights grow by 3 per level
LINEAR_TAIL_DOC = {
    "stages": [
        {"q": 2, "a": [0, 2]},
        {"q": 4, "a": [1, 3, 0, 0]},
        {"q": 1, "a": [2]},
        {"q": 1, "a": [3]},
    ],
    "tail": {"kind": "periodic", "period": 1},
}
# from stage 1 on every stage is q = 1 with no spacers: the heights stay 2
FROZEN_TAIL_DOC = {
    "stages": [{"q": 2, "a": [0, 0]}, {"q": 1, "a": [0]}],
    "tail": {"kind": "periodic", "period": 1},
}
# q = 1 throughout: one run of 2^300 spacers, then one spacer per level, so
# the kept heights h_0..h_k pass the byte budget near level 1.78 million
HUGE_TAIL_DOC = {
    "stages": [{"q": 1, "a": [2**300]}, {"q": 1, "a": [1]}],
    "tail": {"kind": "periodic", "period": 1},
}
# the same run of 2^300 spacers, then a frozen tail: every height past level 0 is 2^300 + 1
FROZEN_HUGE_TAIL_DOC = {
    "stages": [{"q": 1, "a": [2**300]}, {"q": 1, "a": [0]}],
    "tail": {"kind": "periodic", "period": 1},
}


def _seeded_spec(index: int) -> dict:
    """Spec number index: bare or periodic, q 1-4, runs 0-3; every tenth
    has a malformed stage, every seventh a frozen and every fifth a linear
    tail (q = 1 throughout), and every third carries telescope_levels."""
    rng = random.Random(27_000 + index)
    stages = []
    for _ in range(rng.randint(1, 4)):
        q = rng.randint(1, 4)
        stages.append({"q": q, "a": [rng.randint(0, 3) for _ in range(q)]})
    period = rng.choice([None, rng.randint(1, len(stages))])
    if index % 7 == 3:
        stages.append({"q": 1, "a": [0]})
        period = 1
    elif index % 5 == 4:
        stages += [{"q": 1, "a": [rng.randint(1, 3)]} for _ in range(rng.randint(1, 2))]
        period = rng.randint(1, 2) if len(stages) > 2 else 1
    if index % 10 == 0:
        bad = stages[rng.randrange(len(stages))]
        bad["a"] = [-1] if rng.random() < 0.5 else bad["a"] + [0]
    tail = {"kind": "none"} if period is None else {"kind": "periodic", "period": period}
    doc: dict = {"schedule": {"stages": stages, "tail": tail}}
    if index % 3 == 2:
        top = len(stages) + (0 if period is None else 4)
        doc["telescope_levels"] = [0, *sorted(rng.sample(range(1, top + 1), min(2, top)))]
    return doc


def spec_documents() -> dict[str, dict]:
    """The spec files of the corpus, by file name."""
    docs = {f"seeded{i:02d}.json": _seeded_spec(i) for i in range(30)}
    docs["linear.json"] = {"schedule": LINEAR_TAIL_DOC}
    docs["frozen.json"] = {"schedule": FROZEN_TAIL_DOC}
    docs["huge.json"] = {"schedule": HUGE_TAIL_DOC}
    docs["frozenhuge.json"] = {"schedule": FROZEN_HUGE_TAIL_DOC}
    return docs


def _preset_invocations(preset: str) -> list[list[str]]:
    system = ["--preset", preset]
    out = []
    for command, flag, values, formats in (
        ("heights", "--depth", (3, 6), ("json", "text")),
        ("validate", "--depth", (3, 6), ("json", "text")),
        ("block", "--depth", (2, 4), ("text", "json")),
        ("vershik", "--depth", (4, 6), ("text", "json")),
        ("measure", "--stages", (1, 2), ("json", "text")),
        ("telescope", "--stages", (2, 3), ()),
        ("expand", "--stages", (2, 3), ()),
        ("dot", "--depth", (2, 3), ()),
    ):
        for value in values:
            argv = [command, *system, flag, str(value)]
            out += [[*argv, "--format", fmt] for fmt in formats] or [argv]
            if command == "expand":
                out.append([*argv, "--emit-blocks"])
    for depth in ("2", "3"):
        argv = ["verify", *system, "--depth", depth]
        out += [
            argv,
            [*argv, "--exhaustive"],
            [*argv, "--samples", "40", "--seed", "7"],
            [*argv, "--format", "json"],
        ]
    return out


def invocations() -> list[list[str]]:
    """Every argv of the corpus, spec paths under PLACEHOLDER."""
    out = _preset_invocations("chacon") + _preset_invocations("dyadic-odometer")
    # 2^26 is the longest word pd-check counts in, and one symbol more is refused
    for length in ("16", "1000", "16384", "67108864", "67108865"):
        out += [["pd-check", "--length", length, "--format", fmt] for fmt in ("text", "json")]
    for name in spec_documents():
        spec = ["--spec", f"{PLACEHOLDER}/{name}"]
        if name.startswith("seeded"):
            out += [
                ["heights", *spec, "--depth", "6"],
                ["validate", *spec, "--depth", "6"],
                ["telescope", *spec],
                ["expand", *spec],
                ["verify", *spec, "--samples", "40", "--seed", "7"],
                ["verify", *spec, "--depth", "2", "--exhaustive"],
                ["verify", *spec, "--depth", "3", "--exhaustive"],
            ]
    # the linear tail's sixth level is 1,747,665 and its seventh lies past the level cap
    linear = ["--spec", f"{PLACEHOLDER}/linear.json"]
    for stages in (2, 3, 4, 5, 6, 7):
        out.append(["telescope", *linear, "--stages", str(stages)])
    out += [["block", *linear, "--depth", "2097152"],
            ["measure", *linear, "--stages", "1", "--depth", "2097152"],
            ["heights", *linear, "--depth", "100000"]]
    frozen = ["--spec", f"{PLACEHOLDER}/frozen.json"]
    for stages in range(2, 8):
        out.append(["telescope", *frozen, "--stages", str(stages)])
    out.append(["heights", *frozen, "--depth", "100000"])
    # the height list of the 2^300 tail is refused at level 1,783,624, below the level cap
    huge = ["--spec", f"{PLACEHOLDER}/huge.json"]
    out += [["heights", *huge, "--depth", "2097152"], ["telescope", *huge, "--stages", "2"],
            ["block", *huge, "--depth", "2097152"]]
    # the same prefix frozen: the greedy walk's refusal comes before any height refusal,
    # the height list is refused at the same level, and the block at level 1
    frozenhuge = ["--spec", f"{PLACEHOLDER}/frozenhuge.json"]
    out += [["telescope", *frozenhuge, "--stages", "2"], ["heights", *frozenhuge, "--depth", "2097152"],
            ["block", *frozenhuge, "--depth", "2097152"]]
    # 400 symbols pass the end of the short towers, whose orbits overflow
    for name in spec_documents():
        argv = ["vershik", "--spec", f"{PLACEHOLDER}/{name}", "--depth", "6"]
        out += [argv, [*argv, "--length", "400"]]
    # a prefix of 2^20 symbols of a block of about 3^30, and one symbol past the budget
    chacon = ["vershik", "--preset", "chacon", "--depth", "30", "--length"]
    out += [[*chacon, "1048576"], [*chacon, "1048576", "--format", "json"], [*chacon, "67108865"]]
    return out


def digest(argv: list[str], directory: Path) -> str:
    """The digest of one corpus invocation, its spec files in directory."""
    real = str(directory)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.replace(PLACEHOLDER, real) for arg in argv])
    record = [code, stdout.getvalue(), stderr.getvalue().replace(real, PLACEHOLDER)]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def compute(directory: Path) -> dict[str, str]:
    """argv (joined by spaces) -> digest, for every invocation of the corpus,
    after writing the spec files into directory."""
    for name, doc in spec_documents().items():
        (directory / name).write_text(json.dumps(doc))
    return {" ".join(argv): digest(argv, directory) for argv in invocations()}


def committed() -> dict[str, str]:
    """The digests of corpus.txt, by argv."""
    lines = DIGESTS.read_text().splitlines()
    return {argv: sha for sha, argv in (line.split(" ", 1) for line in lines)}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = compute(Path(tmp))
    DIGESTS.write_text("".join(f"{sha} {argv}\n" for argv, sha in digests.items()))
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
