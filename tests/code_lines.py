"""Count the code lines of each module of ``src/rankone``.

A code line is a source line that holds at least one token other than a
comment or a docstring; blank lines count for nothing.  A docstring is a
string that is a statement on its own: the first token of a logical line
and the last before its NEWLINE.  Run from the root of the repository:

    python tests/code_lines.py

It prints one line per module, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rankone"
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NEWLINE:
                if not (len(logical) == 1 and logical[0].type == tokenize.STRING):
                    for t in logical:
                        lines.update(range(t.start[0], t.end[0] + 1))
                logical = []
            elif tok.type not in LAYOUT:
                logical.append(tok)
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:16} {n:6,}")
    print(f"{'total':16} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
