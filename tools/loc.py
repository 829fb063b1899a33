"""Code lines of the Python files under a directory: blank lines, comments
and docstrings dropped.

    python3 tools/loc.py [DIR] [--parent REV]

DIR is this checkout's ``src`` by default. A line counts when a token of a
statement lies on it, read with the standard library's ``tokenize``. A
statement made of string literals alone, a docstring or a bare string,
counts as no code, and so do lines holding only comments or whitespace.
A string that spans lines inside code counts on each line it spans. One
line per file, then the total, is printed.

With ``--parent REV`` the files of commit REV are exported as
``tools/bench_pairs.py`` exports them, and the same directory of both
trees is counted: each line holds REV's count, then this checkout's (0
where a tree lacks the file), and a last line the change in the total.
"""

from __future__ import annotations

import argparse
import io
import tempfile
import tokenize
from pathlib import Path

from bench_pairs import ROOT, export

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


def counts(directory: Path) -> dict[Path, int]:
    """Code lines of each Python file under ``directory``, by relative path."""
    return {path.relative_to(directory): code_lines(path.read_text(encoding="utf-8"))
            for path in directory.rglob("*.py")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src")
    parser.add_argument("--parent", metavar="REV",
                        help="count the same directory of commit REV beside it")
    args = parser.parse_args(argv)
    trees = [counts(args.dir)]
    if args.parent is not None:
        with tempfile.TemporaryDirectory(prefix="loc-") as tmp:
            export(args.parent, Path(tmp))
            trees.insert(0, counts(Path(tmp) / args.dir.resolve().relative_to(ROOT)))
    for name in sorted(set().union(*trees)):
        print("".join(f"{tree.get(name, 0):6d} " for tree in trees) + str(name))
    totals = [sum(tree.values()) for tree in trees]
    print("".join(f"{total:6d} " for total in totals) + "total")
    if args.parent is not None:
        print(f"{totals[1] - totals[0]:+6d} change in total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
