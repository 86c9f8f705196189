"""Every CLI report pinned section by section: ``golden_cli.json``.

For each pinned command the list holds its argv, the one-line reason it is
run, its exit code, the byte length and sha256 of its standard output, and,
for every section of that report in order, its position, title, family,
byte length and the sha256 of its JSON.  A command whose argv asks for
``--format markdown`` is pinned by its whole bytes alone: its report has
no sections to pin.  A section's JSON is
``json.dumps(section, sort_keys=True, indent=2)`` in UTF-8, the layout the
report gives it before indenting it into ``sections``.  Titles repeat (the
four ``sl(2) closure`` sections of ``all`` have an empty family), so a
section is named by its position and title together.  A pinned command
writes nothing to standard error.

``tests/test_cli.py`` checks every pin in-process, and
``scripts/interp_matrix.sh`` under each supported interpreter.  As a
script, which needs only the standard library,

    python tests/golden.py

runs every pinned command through the ``cgaweyl`` script on PATH, prints
one line per command and exits 1 unless each run matches its pin.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

PIN_PATH = Path(__file__).resolve().parent / "golden_cli.json"


def load_pin() -> dict:
    return json.loads(PIN_PATH.read_text(encoding="utf-8"))


def _digest(data: bytes) -> tuple[int, str]:
    return len(data), hashlib.sha256(data).hexdigest()


def section_pins(doc: dict) -> list[dict]:
    """The pin of every section of a parsed report, in report order."""
    out = []
    for i, sec in enumerate(doc["sections"]):
        size, sha = _digest(json.dumps(sec, sort_keys=True, indent=2).encode("utf-8"))
        out.append({"position": i, "title": sec.get("title", ""),
                    "family": sec.get("family", ""), "bytes": size, "sha256": sha})
    return out


def _name(pin: dict) -> str:
    return f"section {pin['position']} ({pin['title']!r}, family {pin['family']!r})"


def is_markdown(argv) -> bool:
    """Whether ``argv`` asks for a ``--format markdown`` report."""
    return any(a == "--format" and b == "markdown" for a, b in zip(argv, argv[1:]))


def _section_mismatch(text: str, pin: dict) -> str | None:
    """Every section of the JSON report ``text`` that differs from ``pin``."""
    try:
        doc = json.loads(text)
        sections = section_pins(doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"report is not a JSON report with sections: {exc}"
    pinned = pin.get("sections")
    if pinned is None:
        return "the pin of a JSON report holds no sections"
    problems = [f"{_name(want)} differs in "
                + ", ".join(k for k in want if got.get(k) != want[k])
                for want, got in zip(pinned, sections) if got != want]
    if len(sections) != len(pinned):
        longer = max(pinned, sections, key=len)
        first = longer[min(len(sections), len(pinned))]
        problems.append(f"{len(sections)} sections where the pin has "
                        f"{len(pinned)}; first unmatched: {_name(first)}")
    return "; ".join(problems) or None


def mismatch(text: str, pin: dict) -> str | None:
    """Every way the report ``text`` differs from ``pin``, or None.

    A JSON report's sections are compared first, and every one that
    differs is named, so a change that moves some sections shows that the
    others did not move; the whole-report length and sha256 are compared
    last, so a change outside every section (or a wrong whole-report pin)
    still fails.  A markdown report (by its pin's argv, never by a missing
    ``sections`` key) is compared by its whole bytes alone.
    """
    markdown = is_markdown(pin["argv"])
    if not markdown:
        problem = _section_mismatch(text, pin)
        if problem is not None:
            return problem
    size, sha = _digest(text.encode("utf-8"))
    if (size, sha) != (pin["bytes"], pin["sha256"]):
        where = "" if markdown else " outside the sections"
        return (f"whole report differs{where}: {size} bytes, "
                f"sha256 {sha}; pinned {pin['bytes']} bytes, sha256 {pin['sha256']}")
    return None


def command_mismatch(pin: dict, code: int, text: str, err: str = "") -> str | None:
    """How a run of the pinned command ``pin`` differs from it, or None.

    ``code`` is the run's exit code, ``text`` its standard output and
    ``err`` its standard error; the message names the command, and the
    sections as :func:`mismatch` does.
    """
    if code != pin["exit"]:
        problem = f"exit code {code}, pinned {pin['exit']}"
    elif err:
        problem = f"wrote {len(err)} characters to stderr: {err.splitlines()[0]!r}"
    else:
        problem = mismatch(text, pin)
    return None if problem is None else f"cgaweyl {' '.join(pin['argv'])}: {problem}"


def _run_commands() -> int:
    """Run every pinned command through the installed script; 1 on any mismatch."""
    exe = shutil.which("cgaweyl")
    if exe is None:
        print("no cgaweyl script on PATH")
        return 1
    status = 0
    for pin in load_pin()["commands"]:
        run = subprocess.run([exe, *pin["argv"]], capture_output=True)
        problem = command_mismatch(pin, run.returncode, run.stdout.decode("utf-8"),
                                   run.stderr.decode("utf-8", "replace"))
        if problem is None:
            print(f"ok    cgaweyl {' '.join(pin['argv'])}  # {pin['reason']}")
        else:
            print(f"FAIL  {problem}")
            status = 1
    return status


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python tests/golden.py")
    sys.exit(_run_commands())
