"""Count the lines of each module of src/cgaweyl, two ways.

Run ``python scripts/loc.py`` from anywhere; it takes no options and needs
only the standard library.  Per module, and in total, it prints

* ``wc -l``: every line, as ``wc -l`` counts them;
* ``code``: the lines that hold a token of code.  Comments, blank lines
  and docstrings hold none.  A docstring is any statement made of string
  literals alone, and a token that spans lines counts each of them.

Refactors are judged by how these counts move, so both are printed the
same way every time.
"""
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cgaweyl"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of code."""
    lines: set[int] = set()
    statement: list = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        if any(t.type != tokenize.STRING for t in statement):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(lines)


def main() -> None:
    rows = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        rows.append((path.name, text.count("\n"), code_lines(text)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'wc -l':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")


if __name__ == "__main__":
    main()
