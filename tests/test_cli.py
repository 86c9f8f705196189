"""CLI contract: exit codes, deterministic reports, schema, atomic output."""
import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import golden
from cgaweyl.cli import (COMMANDS, OPTIONS, REPORT_DIR_ENV, SCHEMA, ConfigError,
                          build_parser, main, parse_rational, run)

# the `all` report, pinned section by section and byte for byte in
# tests/golden_all.json (its whole-report sha256 is the one that
# perfbench/workloads.py gates on)
GOLDEN = golden.load_pin()
REPO = Path(__file__).resolve().parent.parent
# every other CI smoke command, pinned the same way in tests/golden_cli.json
CLI_PINS = golden.load_pin(golden.CLI_PIN_PATH)["commands"]


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_osc_exits_zero(capsys):
    code, out = run_main(["verify", "--family", "osc-l1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == SCHEMA
    assert doc["ok"] is True


def test_verify_free_without_calibration_exits_one(capsys):
    code, out = run_main(["verify", "--family", "free-l1"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    failed = [e for s in doc["sections"] for e in s["entries"]
              if e["status"] == "failed"]
    assert [e["lhs"] for e in failed] == ["[z+, z-]"]


def test_verify_free_with_calibration(capsys):
    code, out = run_main(["verify", "--family", "free-l1", "--calibrate"], capsys)
    assert code == 0
    doc = json.loads(out)
    section = doc["sections"][0]
    assert section["summary"]["exact_after_calibration"] == 1
    assert any("z0 -> z0 + (-2)" in note for note in section["notes"])


def test_zplus_sign_report(capsys, monkeypatch):
    """`verify --family free-general` checks the table once per sign of z+
    and reads the sign report off those two checks."""
    from cgaweyl import verify
    checked, check = [], verify.verify_table
    monkeypatch.setattr(verify, "verify_table",
                        lambda fam, table: checked.append(fam) or check(fam, table))
    code, out = run_main(["verify", "--family", "free-general", "--l", "2"], capsys)
    assert code == 0
    table, signs = json.loads(out)["sections"]
    assert table["ok"] and len(checked) == 2
    assert signs["title"] == "z+ sign report"
    assert signs["notes"] == ["printed_minus_dtau: table fails", "plus_dtau: table holds"]


def test_onshell_probe_exit_codes(capsys):
    code, _ = run_main(["onshell", "--family", "osc-l1"], capsys)
    assert code == 0
    code, out = run_main(["onshell", "--family", "osc-l1", "--omega", "2"], capsys)
    assert code == 1
    doc = json.loads(out)
    failing = [e["lhs"] for s in doc["sections"] for e in s["entries"]
               if e["status"] == "failed"]
    assert failing     # the report names the generators that break


def test_exit_status_soundness(capsys):
    """Exit 0 must mean zero failed entries in the emitted report."""
    configs = [
        ["verify", "--family", "osc-l1", "--gamma", "2", "--xi", "1/3"],
        ["verify", "--family", "free-general", "--l", "2"],
        ["onshell", "--family", "free-l1"],
        ["spectrum", "--family", "osc-l1", "--emax", "3", "--k", "1"],
        ["similarity"],
        ["infinite", "--omega1", "1", "--omega2", "1", "--cutoff", "2",
         "--emax", "3", "--k", "1"],
    ]
    for argv in configs:
        code, out = run_main(argv, capsys)
        doc = json.loads(out)
        failed = [e for s in doc["sections"] for e in s.get("entries", [])
                  if e["status"] == "failed"]
        bad_rows = [r for s in doc["sections"] for r in s.get("rows", [])
                    if not r["verified"]]
        if code == 0:
            assert doc["ok"] and not failed and not bad_rows, argv
        else:
            assert not doc["ok"], argv


def test_report_determinism(tmp_path, capsys):
    argv = ["infinite", "--omega1", "2", "--omega2", "3", "--cutoff", "2",
            "--emax", "3", "--k", "1"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_markdown_rendering(capsys):
    code, out = run_main(["verify", "--family", "osc-l1",
                          "--format", "markdown"], capsys)
    assert code == 0
    assert "## commutator table cga-l1" in out
    assert "- [z+, z0] = (-1)*z+ : exact" in out
    assert out.rstrip().endswith("overall ok: true")


@pytest.mark.parametrize("argv, levels, extra", [
    (["spectrum", "--family", "free-general", "--l", "2", "--emax", "2",
      "--k", "0"],
     "level multiplicities: E=0: 1, E=1: 2, E=2: 5",
     "- state (n1=0,m1=1,n2=0,m2=0,k=0) : E = 1 : verified"),
    (["infinite", "--cutoff", "2", "--emax", "1", "--k", "0"],
     "level multiplicities: E=0: 1, E=1: 2",
     "- [j0(-2), j0(-1)] =  : skipped  residual: mode index outside truncation"),
], ids=["spectrum-free-general-2", "infinite"])
def test_markdown_rows_levels_and_residuals(argv, levels, extra, capsys):
    """Every spectrum row of the JSON report has its Markdown line, and the
    level multiplicities and residual texts are printed."""
    code, out = run_main(argv + ["--format", "markdown"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert levels in lines
    assert extra in lines
    state = re.compile(r"- state \((.*)\) : E = (\S+) : verified")
    printed = sorted((sorted(tuple(kv.split("=")) for kv in m[1].split(",")), m[2])
                     for m in map(state.fullmatch, lines) if m)
    _, doc = run_main(argv, capsys)     # JSON keys come back sorted
    rows = sorted((sorted((k, str(v)) for k, v in r["quantum_numbers"].items()),
                   r["eigenvalue"])
                  for s in json.loads(doc)["sections"] for r in s.get("rows", []))
    assert rows and printed == rows
    assert out.rstrip().endswith("overall ok: true")


def test_markdown_determinism(tmp_path, capsys):
    argv = ["similarity", "--format", "markdown"]
    a, b = tmp_path / "a.md", tmp_path / "b.md"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_report_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path / "reports"))
    code, out = run_main(["spectrum", "--emax", "2", "--k", "0"], capsys)
    assert code == 0
    target = tmp_path / "reports" / "spectrum.json"
    assert target.exists()
    assert json.loads(target.read_text())["ok"] is True
    assert str(target) in out


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_report_file_mode_follows_the_umask(tmp_path, capsys, umask):
    """--output gives the report the mode a plain open() would, 0o666 less
    the umask, as a shell redirect does, not the 0600 of its temp file;
    the umask is restored afterwards."""
    target = tmp_path / "r.json"
    previous = os.umask(umask)
    try:
        assert main(["verify", "--family", "osc-l1", "--output", str(target)]) == 0
    finally:
        os.umask(previous)
    capsys.readouterr()
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


def test_unwritable_report_path_exits_two(tmp_path, capsys, monkeypatch):
    """A report path that is a directory, or a report directory that is a
    regular file, is one error line and exit 2; no temp file is left."""
    target = tmp_path / "taken"
    target.mkdir()
    err = _assert_one_error_line(
        ["verify", "--family", "osc-l1", "--output", str(target)], capsys)
    assert err == f"error: cannot write report to {target}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(target.iterdir()) == []
    plain = tmp_path / "plain"
    plain.write_text("keep\n")
    monkeypatch.setenv(REPORT_DIR_ENV, str(plain))
    err = _assert_one_error_line(["verify", "--family", "osc-l1"], capsys)
    assert err == (f"error: cannot write report to {plain / 'verify.json'}: "
                   "File exists\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "taken"]
    assert plain.read_text() == "keep\n"


def _assert_one_error_line(argv, capsys) -> str:
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "", argv
    assert len(captured.err.splitlines()) == 1, (argv, captured.err)
    assert captured.err.startswith("error: "), argv
    assert "Traceback" not in captured.err
    return captured.err


def test_config_errors_exit_two(capsys):
    for argv in (["verify", "--family", "free-general", "--l", "0"],
                 ["infinite", "--cutoff", "1"],
                 ["verify", "--family", "xi0", "--cutoff", "1"],
                 ["onshell", "--family", "xi0", "--cutoff", "0"],
                 ["spectrum", "--family", "xi0", "--cutoff", "0"],
                 ["spectrum", "--emax", "-1"],
                 ["spectrum", "--k", "-1"],
                 ["verify", "--family", "osc-l1", "--gamma", "0"],
                 ["verify", "--family", "xi0", "--omega1", "0"],
                 ["verify", "--family", "nope"],
                 ["verify"],
                 []):
        _assert_one_error_line(argv, capsys)
    # a bad value keeps its reason
    assert "not an exact p/q rational: '0.5'" in _assert_one_error_line(
        ["verify", "--family", "osc-l1", "--gamma", "0.5"], capsys)
    assert "zero denominator in '1/0'" in _assert_one_error_line(
        ["verify", "--family", "osc-l1", "--gamma", "1/0"], capsys)
    # a value that looks like an option, not like a negative p/q, is missing
    assert "expected one argument" in _assert_one_error_line(
        ["similarity", "--xi", "-x"], capsys)
    # options that do not apply to the chosen family: one line each
    for argv in (["onshell", "--family", "xi0", "--omega", "2"],
                 ["verify", "--family", "osc-l1", "--l", "3"],
                 ["verify", "--family", "free-l1", "--l", "3"],
                 ["verify", "--family", "xi0", "--l", "3"],
                 ["spectrum", "--family", "osc-l1", "--l", "3"],
                 ["spectrum", "--family", "xi0", "--l", "3"]):
        _assert_one_error_line(argv, capsys)


@pytest.mark.parametrize("argv, option", [
    (["similarity"], "--gamma"),
    (["similarity"], "--xi"),
    (["onshell", "--family", "free-l1"], "--omega"),
    (["spectrum", "--family", "xi0", "--emax", "1", "--k", "0"], "--omega1"),
    (["spectrum", "--family", "xi0", "--emax", "1", "--k", "0"], "--omega2"),
])
def test_negative_fraction_as_a_separate_token(argv, option, capsys):
    """``--option -p/q`` reads -p/q as the value, as ``--option=-p/q`` does."""
    joined = run_main(argv + [f"{option}=-3/2"], capsys)
    assert joined[0] in (0, 1)
    assert run_main(argv + [option, "-3/2"], capsys) == joined


def test_help_is_not_an_error(capsys):
    assert main(["verify", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: cgaweyl verify")
    assert "--calibrate" in captured.out and captured.err == ""


# A value other than the default for each option (None: a flag), and the
# smallest sizes, which every configuration of the table test starts from.
_OTHER_VALUE = {"gamma": "2", "xi": "3", "l": "2", "omega": "2", "emax": "2",
                "k": "1", "omega1": "2", "omega2": "3", "cutoff": "3",
                "calibrate": None}
_SMALLEST = {"cutoff": "2", "emax": "1", "k": "0"}


def _option_argv(name, value):
    return [f"--{name}"] if value is None else [f"--{name}", value]


def _table_configs():
    """(command, family, the options it reads, its argv without options)."""
    for command, spec in COMMANDS.items():
        for family, reads in spec.families.items():
            base = [command] + ([] if family is None else ["--family", family])
            yield command, family, reads, base


def test_table_rejects_every_option_a_family_does_not_read(capsys):
    assert set(_OTHER_VALUE) == set(OPTIONS)
    for command, family, reads, base in _table_configs():
        for name in OPTIONS:
            if name not in reads:
                _assert_one_error_line(
                    base + _option_argv(name, _OTHER_VALUE[name]), capsys)
    # options that once exited 0 here, given at their default value, or
    # several at once
    for argv in (["verify", "--family", "osc-l1", "--omega1", "2", "--cutoff", "5"],
                 ["verify", "--family", "free-general", "--l", "2", "--gamma", "3"],
                 ["verify", "--family", "xi0", "--calibrate"],
                 ["verify", "--family", "xi0", "--xi", "3"],
                 ["spectrum", "--family", "free-general", "--gamma", "3"],
                 ["onshell", "--family", "osc-l1", "--omega1", "5"],
                 ["verify", "--family", "free-general", "--gamma", "symbolic"],
                 ["onshell", "--family", "free-l1", "--omega1", "1"],
                 ["verify", "--family", "osc-l1", "--l", "1"],
                 ["spectrum", "--family", "osc-l1", "--l", "1"],
                 ["spectrum", "--l", "1", "--cutoff", "3"],
                 ["spectrum", "--l", "2", "--xi", "symbolic"]):
        _assert_one_error_line(argv, capsys)


# Reports that do not record gamma/xi: these options change what is checked,
# but the emitted bytes are the same at every value.
_NOT_IN_REPORT = {("onshell", family, name)
                  for family in ("free-l1", "osc-l1") for name in ("gamma", "xi")} \
    | {("onshell", "xi0", "gamma"), ("spectrum", "osc-l1", "gamma"),
       ("spectrum", "osc-l1", "xi"), ("spectrum", "xi0", "gamma")}


def _run_logging_reads(argv):
    """(options the command read, exit status, report) for one command line."""
    read = set()

    class ReadLog(argparse.Namespace):
        def __getattribute__(self, name):
            if name in OPTIONS:
                read.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv, ReadLog())
    read.clear()          # drop what argparse itself looked up
    status, doc = run(args)
    return read, status, json.dumps(doc, sort_keys=True)


def test_table_options_a_family_reads_change_its_report():
    unchanged = set()
    for command, family, reads, base in _table_configs():
        if not reads:
            continue
        for name in reads:
            if name in _SMALLEST:
                base += [f"--{name}", _SMALLEST[name]]
        read, status, reference = _run_logging_reads(base)
        assert read == set(reads), base      # the table matches the cmd_ body
        assert status in (0, 1), base
        for name in reads:
            argv = base + _option_argv(name, _OTHER_VALUE[name])
            _, status, report = _run_logging_reads(argv)
            assert status in (0, 1), argv
            if report == reference:
                unchanged.add((command, family, name))
    assert unchanged == _NOT_IN_REPORT


def test_bad_rational_rejected():
    with pytest.raises(ConfigError, match="not an exact p/q rational"):
        parse_rational("1.5e3")
    with pytest.raises(ConfigError, match="zero denominator"):
        parse_rational("1/0")


def test_spectrum_report_rows(capsys):
    code, out = run_main(["spectrum", "--family", "xi0", "--omega1", "2",
                          "--omega2", "3", "--emax", "2", "--k", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    section = next(s for s in doc["sections"] if "spectrum table" in s["title"])
    rows = section["rows"]
    assert all(set(r["quantum_numbers"]) == {"m", "n", "k"} for r in rows)
    assert {r["eigenvalue"] for r in rows} == {"0", "2", "3", "4", "5", "6"}


def test_spectrum_family_dispatch_by_l(capsys):
    code, out = run_main(["spectrum", "--l", "2", "--emax", "2", "--k", "0"],
                         capsys)
    assert code == 0
    doc = json.loads(out)
    assert any("free-general(l=2)" in s.get("family", "")
               for s in doc["sections"])
    # --l 1 picks osc-l1, which reads no --l: the same report as --family osc-l1
    assert run_main(["spectrum", "--l", "1", "--emax", "1", "--k", "0"], capsys) \
        == run_main(["spectrum", "--family", "osc-l1", "--emax", "1", "--k", "0"],
                    capsys)


@pytest.fixture(scope="module")
def all_report():
    """(exit status, standard output) of `cgaweyl all`, run once per module."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["all"])
    return code, buf.getvalue()


def test_all_runs_clean(all_report):
    code, out = all_report
    assert code == 0
    problem = golden.mismatch(out, GOLDEN)
    assert problem is None, problem
    data = out.encode("utf-8")
    assert len(data) == GOLDEN["bytes"]
    assert hashlib.sha256(data).hexdigest() == GOLDEN["sha256"]
    doc = json.loads(out)
    assert doc["ok"] is True
    statuses = {e["status"] for s in doc["sections"]
                for e in s.get("entries", [])}
    assert "failed" not in statuses


def _one_byte_changed(out, position):
    """The report ``out`` with one character of one entry string of the
    section at ``position`` changed (same length), re-emitted."""
    doc = json.loads(out)
    sec = doc["sections"][position]
    key = "entries" if sec.get("entries") else "rows"
    item = sec[key][len(sec[key]) // 2]
    field = next(k for k, v in sorted(item.items()) if isinstance(v, str) and v)
    text = item[field]
    item[field] = text[:-1] + ("x" if text[-1] != "x" else "y")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_golden_pin_names_the_section_a_one_byte_change_is_in(all_report):
    _, out = all_report
    sections = GOLDEN["sections"]
    for position in (0, len(sections) // 2, len(sections) - 1):
        changed = _one_byte_changed(out, position)
        assert len(changed) == len(out)
        problem = golden.mismatch(changed, GOLDEN)
        pin = sections[position]
        assert problem == (f"section {position} ({pin['title']!r}, family "
                           f"{pin['family']!r}) differs in sha256")


def test_golden_pin_still_checks_the_whole_report(all_report):
    """A wrong whole-report pin fails with every section matching, and so
    does a change outside the sections."""
    _, out = all_report
    wrong = dict(GOLDEN, sha256="0" * 64)
    assert golden.mismatch(out, wrong).startswith("whole report differs")
    outside = out.replace('"schema": ', '"schema":  ', 1)
    assert golden.mismatch(outside, GOLDEN).startswith("whole report differs")
    assert golden.mismatch(out, dict(GOLDEN, sections=GOLDEN["sections"][:-1])) \
        .startswith(f"{len(GOLDEN['sections'])} sections where the pin has")


@pytest.mark.parametrize("pin", CLI_PINS, ids=[" ".join(p["argv"]) for p in CLI_PINS])
def test_cli_report_matches_its_pin(pin, capsys):
    """Each pinned smoke command, run in-process, exits with its pinned code
    and prints its pinned report, section by section and byte for byte."""
    code, out = run_main(pin["argv"], capsys)
    problem = golden.command_mismatch(pin, code, out)
    assert problem is None, problem


def test_cli_pin_names_the_command_and_the_section(capsys):
    """A one-byte change in one section of a pinned report names the command
    and that section; a changed exit code fails and names the command."""
    pin = next(p for p in CLI_PINS if p["argv"][:3] == ["spectrum", "--family", "xi0"])
    code, out = run_main(pin["argv"], capsys)
    command = f"cgaweyl {' '.join(pin['argv'])}"
    for position in range(len(pin["sections"])):
        changed = _one_byte_changed(out, position)
        assert len(changed) == len(out)
        want = pin["sections"][position]
        assert golden.command_mismatch(pin, code, changed) == (
            f"{command}: section {position} ({want['title']!r}, family "
            f"{want['family']!r}) differs in sha256")
    assert golden.command_mismatch(pin, 1 - code, out) == (
        f"{command}: exit code {1 - code}, pinned {code}")


def test_smoke_step_reads_its_commands_from_the_pin():
    """The CI smoke step runs the pinned commands through golden.py and
    lists no other cgaweyl command than `all`, which golden_all.json pins;
    the pin keeps an exit-1 case."""
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    lines = [line.split("#")[0].strip() for line in workflow.splitlines()]
    assert "python tests/golden.py --commands" in lines
    listed = [line for line in lines if "cgaweyl " in line]
    assert listed == ['cgaweyl all > "$RUNNER_TEMP/all.json"']
    assert [p["argv"] for p in CLI_PINS if p["exit"] == 1] == [["verify", "--family", "free-l1"]]
    assert len({tuple(p["argv"]) for p in CLI_PINS}) == len(CLI_PINS)


def test_golden_commands_runs_each_pin_through_the_script(tmp_path):
    """``golden.py --commands`` runs each pinned command through the
    ``cgaweyl`` on PATH, prints ok with its reason or the first mismatch,
    and exits 1 unless every command matches."""
    (tmp_path / "tests").mkdir()
    shutil.copy(REPO / "tests" / "golden.py", tmp_path / "tests" / "golden.py")
    doc = {"sections": [{"title": "t", "family": "f", "entries": []}], "ok": True}
    report = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    data = report.encode()
    pin = {"exit": 0, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
           "sections": golden.section_pins(doc)}
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "cgaweyl"  # a stand-in that prints ``report`` for any argv
    script.write_text(f"#!{sys.executable}\nimport sys\nsys.stdout.write({report!r})\n")
    script.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")

    def run_with(pins):
        (tmp_path / "tests" / "golden_cli.json").write_text(json.dumps({"commands": pins}))
        return subprocess.run([sys.executable, str(tmp_path / "tests" / "golden.py"),
                               "--commands"], capture_output=True, text=True, env=env)

    good = dict(pin, argv=["similarity"], reason="why")
    proc = run_with([good])
    assert (proc.returncode, proc.stdout) == (0, "ok    cgaweyl similarity  # why\n")
    proc = run_with([good, dict(good, argv=["verify", "--family", "free-l1"], exit=1)])
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[1] == \
        "FAIL  cgaweyl verify --family free-l1: exit code 0, pinned 1"


def _matrix_copy(tmp_path, report, pin, command_pin):
    """A checkout holding ``scripts/interp_matrix.sh``, ``tests/golden.py``,
    the pin ``pin`` of `all`, ``command_pin`` as the one pinned command and
    a stand-in ``cgaweyl.cli`` that prints ``report`` for any argv."""
    for rel in ("scripts/interp_matrix.sh", "tests/golden.py"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO / rel, tmp_path / rel)
    (tmp_path / "tests" / "golden_all.json").write_text(json.dumps(pin))
    (tmp_path / "tests" / "golden_cli.json").write_text(
        json.dumps({"commands": [command_pin]}))
    pkg = tmp_path / "src" / "cgaweyl"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(f"import sys\nsys.stdout.write({report!r})\n")
    return tmp_path / "scripts" / "interp_matrix.sh"


def _run_matrix(root, report, pin, command_pin):
    script = _matrix_copy(root, report, pin, command_pin)
    return subprocess.run(["bash", str(script)], capture_output=True, text=True)


def test_interp_matrix_exits_one_on_a_mismatch(tmp_path):
    """A wrong section pin or whole-report pin of `all`, or a wrong pin of
    a CLI command, makes the script exit 1 and name what differs; the
    right pins pass on every interpreter it finds, each pinned command run
    through a `cgaweyl` that uses that interpreter."""
    doc = {"sections": [{"title": "t", "family": "f", "entries": []}], "ok": True}
    report = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    data = report.encode()
    pin = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
           "sections": golden.section_pins(doc)}
    command = dict(pin, argv=["similarity"], reason="why", exit=0)
    wrong_pins = {"section": (dict(pin, sections=[dict(pin["sections"][0], bytes=1)]),
                              command),
                  "whole": (dict(pin, sha256="0" * 64), command),
                  "command": (pin, dict(command, exit=1))}
    for name, (wrong, wrong_command) in wrong_pins.items():
        proc = _run_matrix(tmp_path / name, report, wrong, wrong_command)
        assert proc.returncode == 1, proc.stdout
        assert "FAIL" in proc.stdout
        if "no interpreter found" in proc.stdout:
            continue
        if name == "section":
            assert "section 0 ('t', family 'f') differs in bytes\n" in proc.stdout
        if name == "command":
            assert "FAIL  cgaweyl similarity: exit code 0, pinned 1\n" in proc.stdout
    proc = _run_matrix(tmp_path / "ok", report, pin, command)
    if "no interpreter found" in proc.stdout:
        pytest.skip("no pyenv interpreter of the matrix is installed")
    assert proc.returncode == 0, proc.stdout
    assert "all and 1 pinned commands\n" in proc.stdout


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "cgaweyl.cli", "verify",
                           "--family", "osc-l1", "--gamma", "1", "--xi", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
