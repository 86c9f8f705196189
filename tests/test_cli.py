"""CLI contract: exit codes, deterministic reports, schema, atomic output."""
import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import golden
from cgaweyl import build_ladder, spectrum
from cgaweyl.cli import (COMMANDS, OPTIONS, REPORT_DIR_ENV, SCHEMA, ConfigError,
                          _json_text, build_parser, main, parse_rational, run)

REPO = Path(__file__).resolve().parent.parent
# every CI smoke command, its report pinned section by section and byte for
# byte in tests/golden_cli.json
CLI_PINS = golden.load_pin()["commands"]
# the `all` report (its whole-report sha256 is the one that
# perfbench/workloads.py gates on)
ALL_PIN = next(p for p in CLI_PINS if p["argv"] == ["all"])


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


def test_similarity_fails_on_a_broken_map(capsys, monkeypatch):
    """A map whose every image is off by x fails every entry, each entry
    prints its difference, and `similarity` exits 1."""
    from cgaweyl import verify, weyl
    sound = verify.free_to_osc
    monkeypatch.setattr(verify, "free_to_osc", lambda g, table: (
        sound(g, table) + weyl.WeylElement.var(table, "x")))
    entries = verify.verify_similarity().entries
    assert len(entries) == 15 and {e.status for e in entries} == {"failed"}
    assert {e.lhs: e.residual_text for e in entries if e.residual_text != "(1) * x"} \
        == {"z0": "(1) * x + (-2)"}
    code, out = run_main(["similarity"], capsys)
    assert code == 1
    first = json.loads(out)["sections"][0]
    assert first["summary"]["failed"] == 15 and first["ok"] is False


def test_probe_fails_where_the_state_is_not_an_eigenstate(capsys, monkeypatch):
    """A lambda whose y^lambda is not an eigenstate fails its probe entry,
    and the spectrum command exits 1."""
    from cgaweyl import spectrum
    probe = spectrum.continuous_probe

    def fails_at_7_3(H, lam):
        if lam == Fraction(7, 3):
            raise spectrum.NotEigenstate("not a scalar multiple")
        return probe(H, lam)
    monkeypatch.setattr(spectrum, "continuous_probe", fails_at_7_3)
    code, out = run_main(["spectrum", "--family", "osc-l1", "--emax", "3", "--k", "1"],
                         capsys)
    assert code == 1
    section = next(s for s in json.loads(out)["sections"]
                   if s["title"] == "continuous-spectrum probe")
    assert [(e["lhs"], e["status"], e["residual_text"], e["factor_text"])
            for e in section["entries"] if e["status"] != "exact"] == \
        [("H y^(7/3)", "failed", "got None", "")]
    assert section["summary"]["exact"] == 3


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


def _random_json(rng: random.Random, depth: int = 0):
    """A random document: nested dicts and lists, empty ones included, of
    strings with JSON's own punctuation, newlines and non-ASCII text, ints,
    bools and None."""
    def text():
        return "".join(rng.choice(['a', 'Z', '{', '}', '[', ']', ',', ':', '"', '\\',
                                   '\n', ' ', 'é', 'ü', '中', '\U0001F600', '0'])
                       for _ in range(rng.randint(0, 6)))
    kind = rng.randint(0, 9 if depth < 4 else 5)
    if kind <= 5:
        return rng.choice([text(), rng.randint(-10**20, 10**20), rng.randint(-3, 3),
                           True, False, None])
    items = [_random_json(rng, depth + 1) for _ in range(rng.choice((0, 1, 2, 4)))]
    if kind <= 7:
        return items
    return {text(): item for item in items}


def test_json_text_is_the_indented_dump():
    """The report writer gives the bytes of ``json.dumps(doc, sort_keys=True,
    indent=2)`` and a newline, on random nested documents and on the edge
    cases named here."""
    rng = random.Random(3302)
    docs = [{}, [], [{}], {"a": []}, {"a": [[], {}, [[]], {"b": {}}]}, "{}[],:\"\n",
            {"é": "中\n", "": None, "k": True, "n": -7, "z": [False, 0, ""]},
            [{"x": {"y": [1, {"z": "}]"}]}}, {"x": 1}, []], {1: [2], 3: {"a": None}},
            {"a": {2: [], 1: {"b": True}}}]
    docs += [_random_json(rng) for _ in range(400)]
    docs += [{"s": d, "t": [d, {"u": d}]} for d in docs[:60]]
    for doc in docs:
        assert _json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n", doc


@pytest.mark.skipif(os.name != "posix", reason="POSIX symlinks and FIFOs")
def test_report_is_written_through_a_symlink(tmp_path, capsys):
    """--output on a symlink writes the file it points to and leaves the
    link in place, also when the file does not exist yet."""
    argv = ["verify", "--family", "osc-l1", "--output"]
    expected = json.dumps(run(build_parser().parse_args(argv[:3]))[1],
                          sort_keys=True, indent=2) + "\n"
    (tmp_path / "reports").mkdir()
    for name, existing in (("old.json", True), ("new.json", False)):
        target, link = tmp_path / "reports" / name, tmp_path / f"link-{name}"
        if existing:
            target.write_text("stale\n")
        link.symlink_to(target)
        assert main(argv + [str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text(encoding="utf-8") == expected
    capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == ["new.json",
                                                                         "old.json"]


@pytest.mark.skipif(os.name != "posix", reason="POSIX symlinks and FIFOs")
def test_report_is_written_into_a_fifo_in_place(tmp_path, capsys):
    """--output on a FIFO writes the report into it, for a reader on the
    other end, and leaves the FIFO where it was; so does a symlink to it."""
    argv = ["verify", "--family", "osc-l1", "--output"]
    expected = json.dumps(run(build_parser().parse_args(argv[:3]))[1],
                          sort_keys=True, indent=2) + "\n"
    fifo, link = tmp_path / "pipe", tmp_path / "link"
    os.mkfifo(fifo)
    link.symlink_to(fifo)
    for path in (fifo, link):
        got = []

        def read():
            with open(fifo, "rb") as fh:
                got.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        assert main(argv + [str(path)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive(), "the report never reached the FIFO"
        assert got == [expected.encode("utf-8")]
        assert fifo.is_fifo()
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "pipe"]


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
    assert "not an exact p/q rational: '2\\n'" in _assert_one_error_line(
        ["spectrum", "--family", "xi0", "--omega1", "2\n", "--emax", "1"], capsys)
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
    for text in ("1.5e3", "3/2\n", "-1/3\n"):  # a final newline is stray too
        with pytest.raises(ConfigError, match="not an exact p/q rational"):
            parse_rational(text)
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


def _spectrum_run(argv, capsys):
    """(exit status, document, spectrum-table section) of a spectrum run."""
    code, out = run_main(argv, capsys)
    doc = json.loads(out)
    return code, doc, next(s for s in doc["sections"]
                           if s["title"].startswith("spectrum table"))


def test_a_failed_row_fails_the_spectrum(monkeypatch, capsys):
    """One row whose eigenvalue check fails makes the record's ok false,
    and with it the section's, the document's and the exit status."""
    table = spectrum.spectrum_table(build_ladder(2), 2)
    assert table.ok
    table.rows[3].verified = False
    assert not table.ok and table.to_dict()["ok"] is False
    calls, eigencheck = itertools.count(), spectrum.eigencheck
    monkeypatch.setattr(spectrum, "eigencheck", lambda H, psi: (
        None if next(calls) == 3 else eigencheck(H, psi)))
    code, doc, section = _spectrum_run(
        ["spectrum", "--family", "free-general", "--l", "2", "--emax", "2",
         "--k", "0"], capsys)
    assert [r["verified"] for r in section["rows"]].count(False) == 1
    assert (code, doc["ok"], section["ok"]) == (1, False, False)


def test_a_failed_multiplicity_check_fails_the_osc_spectrum(monkeypatch, capsys):
    """osc-l1's E + 1 multiplicity check is part of its record: a miscount
    with every row verified reads NO in the note and fails the section, the
    document and the exit status."""
    argv = ["spectrum", "--family", "osc-l1", "--emax", "2", "--k", "0"]
    code, doc, section = _spectrum_run(argv, capsys)
    assert section["notes"] == ["per-level (m,n) multiplicity equals E+1: yes"]
    assert (code, doc["ok"], section["ok"]) == (0, True, True)
    spectrum_table = spectrum.spectrum_table

    def miscounted(*args):
        table = spectrum_table(*args)
        table.level_multiplicity[Fraction(2)] -= 1
        return table
    monkeypatch.setattr(spectrum, "spectrum_table", miscounted)
    code, doc, section = _spectrum_run(argv, capsys)
    assert all(r["verified"] for r in section["rows"])
    assert section["level_multiplicity"]["2"] == 2
    assert section["notes"] == ["per-level (m,n) multiplicity equals E+1: NO"]
    assert (code, doc["ok"], section["ok"]) == (1, False, False)


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
    """(exit status, standard output, standard error) of `cgaweyl all`, run
    once per module."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["all"])
    return code, out.getvalue(), err.getvalue()


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
    _, out, _ = all_report
    sections = ALL_PIN["sections"]
    for position in (0, len(sections) // 2, len(sections) - 1):
        changed = _one_byte_changed(out, position)
        assert len(changed) == len(out)
        problem = golden.mismatch(changed, ALL_PIN)
        pin = sections[position]
        assert problem == (f"section {position} ({pin['title']!r}, family "
                           f"{pin['family']!r}) differs in sha256")


def test_golden_pin_names_every_section_that_differs(all_report):
    """Changes in two sections name both, in report order, and no other."""
    _, out, _ = all_report
    sections = ALL_PIN["sections"]
    first, last = 1, len(sections) - 2
    changed = _one_byte_changed(_one_byte_changed(out, last), first)
    assert golden.mismatch(changed, ALL_PIN) == "; ".join(
        f"section {i} ({sections[i]['title']!r}, family {sections[i]['family']!r}) "
        "differs in sha256" for i in (first, last))


def test_golden_pin_still_checks_the_whole_report(all_report):
    """A wrong whole-report pin fails with every section matching, and so
    does a change outside the sections."""
    _, out, _ = all_report
    wrong = dict(ALL_PIN, sha256="0" * 64)
    assert golden.mismatch(out, wrong).startswith("whole report differs")
    outside = out.replace('"schema": ', '"schema":  ', 1)
    assert golden.mismatch(outside, ALL_PIN).startswith("whole report differs")
    assert golden.mismatch(out, dict(ALL_PIN, sections=ALL_PIN["sections"][:-1])) \
        .startswith(f"{len(ALL_PIN['sections'])} sections where the pin has")


def test_golden_markdown_pin_is_the_whole_report(all_report, capsys):
    """A pin whose argv asks for markdown is compared by its whole bytes,
    and a pinned markdown report differs from its pin in one changed byte;
    a JSON pin whose sections are missing never passes."""
    assert golden.is_markdown(["all", "--format", "markdown"])
    assert not golden.is_markdown(["all", "--format", "json"])
    assert not golden.is_markdown(["markdown", "--format"])
    pins = [p for p in CLI_PINS if golden.is_markdown(p["argv"])]
    assert [p["argv"][0] for p in pins] == ["verify", "spectrum"]
    for pin in pins:
        assert "sections" not in pin
        code, out = run_main(pin["argv"], capsys)
        assert golden.command_mismatch(pin, code, out) is None
        changed = out.replace(" : exact", " : exacT", 1)
        assert golden.mismatch(changed, pin).startswith("whole report differs: ")
    _, out, _ = all_report
    no_sections = {k: v for k, v in ALL_PIN.items() if k != "sections"}
    assert golden.mismatch(out, no_sections) == "the pin of a JSON report holds no sections"


@pytest.mark.parametrize("pin", CLI_PINS, ids=[" ".join(p["argv"]) for p in CLI_PINS])
def test_cli_report_matches_its_pin(pin, capsys, request):
    """Each pinned smoke command, run in-process, exits with its pinned code,
    prints its pinned report, section by section and byte for byte, and
    writes nothing to stderr.  `all` reuses the module's one run."""
    if pin["argv"] == ["all"]:
        code, out, err = request.getfixturevalue("all_report")
    else:
        code = main(pin["argv"])
        out, err = capsys.readouterr()
    problem = golden.command_mismatch(pin, code, out, err)
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
    names no cgaweyl command of its own; the pin keeps its one exit-1 case,
    as JSON and as markdown, and holds `all` once."""
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    lines = [line.split("#")[0].strip() for line in workflow.splitlines()]
    assert "run: python tests/golden.py" in lines
    assert [line for line in lines if "cgaweyl " in line] == []
    assert [p["argv"] for p in CLI_PINS if p["exit"] == 1] == [
        ["verify", "--family", "free-l1"],
        ["verify", "--family", "free-l1", "--format", "markdown"]]
    assert [p["argv"] for p in CLI_PINS].count(["all"]) == 1
    assert len({tuple(p["argv"]) for p in CLI_PINS}) == len(CLI_PINS)


def test_golden_commands_runs_each_pin_through_the_script(tmp_path):
    """``golden.py`` runs each pinned command through the ``cgaweyl`` on
    PATH, prints ok with its reason or the mismatch, and exits 1 unless
    every command matches; a run that writes to stderr does not, and the
    script takes no argument."""
    (tmp_path / "tests").mkdir()
    shutil.copy(REPO / "tests" / "golden.py", tmp_path / "tests" / "golden.py")
    doc = {"sections": [{"title": "t", "family": "f", "entries": []}], "ok": True}
    report = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    data = report.encode()
    pin = {"exit": 0, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
           "sections": golden.section_pins(doc)}
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    # a stand-in that prints ``report`` for any argv, and a warning for `onshell`
    script = bin_dir / "cgaweyl"
    script.write_text(f"#!{sys.executable}\nimport sys\nsys.stdout.write({report!r})\n"
                      "if sys.argv[1:] == ['onshell']:\n"
                      "    print('a warning', file=sys.stderr)\n")
    script.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")

    def run_with(pins, *args):
        (tmp_path / "tests" / "golden_cli.json").write_text(json.dumps({"commands": pins}))
        return subprocess.run([sys.executable, str(tmp_path / "tests" / "golden.py"), *args],
                              capture_output=True, text=True, env=env)

    good = dict(pin, argv=["similarity"], reason="why")
    proc = run_with([good])
    assert (proc.returncode, proc.stdout) == (0, "ok    cgaweyl similarity  # why\n")
    proc = run_with([good, dict(good, argv=["verify", "--family", "free-l1"], exit=1)])
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[1] == \
        "FAIL  cgaweyl verify --family free-l1: exit code 0, pinned 1"
    proc = run_with([good, dict(good, argv=["onshell"])])
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[1] == \
        "FAIL  cgaweyl onshell: wrote 10 characters to stderr: 'a warning'"
    proc = run_with([good], "--commands")
    assert (proc.returncode, proc.stdout) == (1, "")


def _run_matrix(root, report, pins, bench_ok=True):
    """Run ``scripts/interp_matrix.sh`` in a checkout holding it,
    ``tests/golden.py``, ``pins`` as the pinned commands, a stand-in
    ``cgaweyl.cli`` that prints ``report`` for any argv, and one stand-in
    benchmark test that passes if ``bench_ok``."""
    for rel in ("scripts/interp_matrix.sh", "tests/golden.py"):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO / rel, root / rel)
    (root / "tests" / "golden_cli.json").write_text(json.dumps({"commands": pins}))
    bench = root / "perfbench" / "tests"
    bench.mkdir(parents=True)
    (bench / "test_stand_in.py").write_text(
        "import unittest\n\n\nclass T(unittest.TestCase):\n"
        f"    def test_it(self):\n        self.assertTrue({bench_ok})\n")
    pkg = root / "src" / "cgaweyl"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(f"import sys\nsys.stdout.write({report!r})\n")
    return subprocess.run(["bash", str(root / "scripts" / "interp_matrix.sh")],
                          capture_output=True, text=True)


def test_interp_matrix_exits_one_on_a_mismatch(tmp_path):
    """A wrong section pin, whole-report pin or exit code of a pinned command
    makes the script exit 1 and name what differs; the right pins pass on
    every interpreter it finds, each command run through a `cgaweyl` that
    uses that interpreter."""
    doc = {"sections": [{"title": "t", "family": "f", "entries": []}], "ok": True}
    report = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    data = report.encode()
    pin = {"argv": ["similarity"], "reason": "why", "exit": 0, "bytes": len(data),
           "sha256": hashlib.sha256(data).hexdigest(), "sections": golden.section_pins(doc)}
    wrong = [dict(pin, argv=["verify"], sections=[dict(pin["sections"][0], bytes=1)]),
             dict(pin, argv=["spectrum"], sha256="0" * 64),
             dict(pin, argv=["onshell"], exit=1)]
    proc = _run_matrix(tmp_path / "wrong", report, [pin, *wrong])
    assert proc.returncode == 1, proc.stdout
    assert "FAIL" in proc.stdout
    if "no interpreter found" not in proc.stdout:
        for line in ("cgaweyl verify: section 0 ('t', family 'f') differs in bytes",
                     "cgaweyl spectrum: whole report differs outside the sections",
                     "cgaweyl onshell: exit code 0, pinned 1"):
            assert f"      FAIL  {line}" in proc.stdout
    proc = _run_matrix(tmp_path / "bench", report, [pin], bench_ok=False)
    assert proc.returncode == 1, proc.stdout
    if "no interpreter found" not in proc.stdout:
        assert ": perfbench tests\n" in proc.stdout and "FAIL  3." in proc.stdout
    proc = _run_matrix(tmp_path / "ok", report, [pin])
    if "no interpreter found" in proc.stdout:
        pytest.skip("no pyenv interpreter of the matrix is installed")
    assert proc.returncode == 0, proc.stdout
    assert ": 1 pinned commands\n" in proc.stdout
    assert ": perfbench tests, Ran 1 test" in proc.stdout


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "cgaweyl.cli", "verify",
                           "--family", "osc-l1", "--gamma", "1", "--xi", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_loc_script_counts_every_line_and_the_code_lines():
    """``scripts/loc.py`` prints one row per module and a total: its wc -l
    and the lines holding code, so no comment, blank line or docstring."""
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "loc.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    modules = sorted((REPO / "src" / "cgaweyl").glob("*.py"))
    assert [r[0] for r in rows] == [p.name for p in modules] + ["total"]
    lines = [len(p.read_text().splitlines()) for p in modules]
    assert [int(r[1]) for r in rows] == lines + [sum(lines)]
    assert all(0 < int(r[2]) < int(r[1]) for r in rows)
    spec = importlib.util.spec_from_file_location("loc", REPO / "scripts" / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    source = ('"""module doc"""\n\nimport x  # why\n\n\ndef f():\n'
              '    """doc\n    text"""\n    # a comment\n'
              '    s = """a\nb"""\n    return (s\n            + "c")\n')
    assert loc.code_lines(source) == 6
