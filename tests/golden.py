"""The golden `cgaweyl all` report and CLI reports, pinned section by section.

``golden_all.json`` holds the byte length and sha256 of the whole JSON
report and, for every section in order, its position, title, family, byte
length and the sha256 of its JSON.  A section's JSON is
``json.dumps(section, sort_keys=True, indent=2)`` in UTF-8, the layout the
report gives it before indenting it into ``sections``.  Titles repeat (the
four ``sl(2) closure`` sections all have an empty family), so a section is
named by its position and title together.

``golden_cli.json`` pins the report of every other CLI smoke command the
same way: for each, its argv, the one-line reason it is run, its exit code,
the byte length and sha256 of its standard output, and the pin of every
section of that report.

``tests/test_cli.py`` checks both pins in-process, and
``scripts/interp_matrix.sh`` checks the `all` report against its pin.  As a
script, which needs only the standard library,

    python tests/golden.py REPORT

checks the report file REPORT, prints the first mismatch and exits 1 on
any, and

    python tests/golden.py --commands

runs every command of ``golden_cli.json`` through the ``cgaweyl`` script
on PATH, prints one line per command and exits 1 unless each exit code
and report match their pin.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

PIN_PATH = Path(__file__).resolve().parent / "golden_all.json"
CLI_PIN_PATH = PIN_PATH.with_name("golden_cli.json")


def load_pin(path: Path = PIN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


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


def mismatch(text: str, pin: dict) -> str | None:
    """The first way the report ``text`` differs from ``pin``, or None.

    Sections are compared first, in order, so a change inside one names
    it; the whole-report length and sha256 are compared last, so a change
    outside every section (or a wrong whole-report pin) still fails.
    """
    try:
        doc = json.loads(text)
        sections = section_pins(doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"report is not a JSON report with sections: {exc}"
    for want, got in zip(pin["sections"], sections):
        if got != want:
            fields = ", ".join(k for k in want if got.get(k) != want[k])
            return f"{_name(want)} differs in {fields}"
    if len(sections) != len(pin["sections"]):
        longer = max(pin["sections"], sections, key=len)
        first = longer[min(len(sections), len(pin["sections"]))]
        return (f"{len(sections)} sections where the pin has "
                f"{len(pin['sections'])}; first unmatched: {_name(first)}")
    size, sha = _digest(text.encode("utf-8"))
    if (size, sha) != (pin["bytes"], pin["sha256"]):
        return (f"whole report differs outside the sections: {size} bytes, "
                f"sha256 {sha}; pinned {pin['bytes']} bytes, sha256 {pin['sha256']}")
    return None


def command_mismatch(pin: dict, code: int, text: str) -> str | None:
    """The first way a run of the pinned command ``pin`` differs, or None.

    ``code`` is the run's exit code and ``text`` its standard output; the
    message names the command, and the section as :func:`mismatch` does.
    """
    problem = (f"exit code {code}, pinned {pin['exit']}" if code != pin["exit"]
               else mismatch(text, pin))
    return None if problem is None else f"cgaweyl {' '.join(pin['argv'])}: {problem}"


def _run_commands() -> int:
    """Run every pinned CLI command through the installed script; 1 on any mismatch."""
    exe = shutil.which("cgaweyl")
    if exe is None:
        print("no cgaweyl script on PATH")
        return 1
    status = 0
    for pin in load_pin(CLI_PIN_PATH)["commands"]:
        run = subprocess.run([exe, *pin["argv"]], capture_output=True)
        problem = command_mismatch(pin, run.returncode, run.stdout.decode("utf-8"))
        if problem is None:
            print(f"ok    cgaweyl {' '.join(pin['argv'])}  # {pin['reason']}")
        else:
            print(f"FAIL  {problem}")
            status = 1
    return status


if __name__ == "__main__":
    if sys.argv[1:] == ["--commands"]:
        sys.exit(_run_commands())
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/golden.py REPORT | --commands")
    problem = mismatch(Path(sys.argv[1]).read_text(encoding="utf-8"), load_pin())
    if problem is not None:
        print(problem)
        sys.exit(1)
