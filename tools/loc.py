"""Code lines of the Python files under a directory: blank lines, comments
and docstrings dropped.

    python3 tools/loc.py [DIR]

DIR is this checkout's ``src`` by default. A line counts when a token of a
statement lies on it, read with the standard library's ``tokenize``. A
statement made of string literals alone, a docstring or a bare string,
counts as no code, and so do lines holding only comments or whitespace.
A string that spans lines inside code counts on each line it spans. One
line per file, then the total, is printed.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif token.type not in _LAYOUT:
            statement.append(token)
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.dir.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(args.dir)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
