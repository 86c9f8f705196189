"""CLI contract: exit codes, deterministic reports, schema, atomic output."""
import hashlib
import json
import os
import subprocess
import sys

import pytest

from cgaweyl.cli import REPORT_DIR_ENV, SCHEMA, main, parse_rational

# the `all` report, pinned byte for byte (same value as perfbench/workloads.py)
GOLDEN_ALL_BYTES = 1_693_160
GOLDEN_ALL_SHA256 = \
    "9f894a56ba386127e3ca03585819c4071e81574e7a7250bd24f84798d7d3af3c"


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


def test_config_errors_exit_two(capsys):
    assert main(["verify", "--family", "osc-l1", "--gamma", "0.5"]) == 2
    assert main(["verify", "--family", "free-general", "--l", "0"]) == 2
    assert main(["infinite", "--cutoff", "1"]) == 2
    assert main(["verify", "--family", "xi0", "--cutoff", "1"]) == 2
    assert main(["onshell", "--family", "xi0", "--cutoff", "0"]) == 2
    assert main(["spectrum", "--family", "xi0", "--cutoff", "0"]) == 2
    assert main(["spectrum", "--emax", "-1"]) == 2
    assert main(["spectrum", "--k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    # options that do not apply to the chosen family: one line each
    for argv in (["onshell", "--family", "xi0", "--omega", "2"],
                 ["verify", "--family", "osc-l1", "--l", "3"],
                 ["verify", "--family", "free-l1", "--l", "3"],
                 ["verify", "--family", "xi0", "--l", "3"],
                 ["spectrum", "--family", "osc-l1", "--l", "3"],
                 ["spectrum", "--family", "xi0", "--l", "3"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


def test_bad_rational_rejected():
    with pytest.raises(Exception):
        parse_rational("1.5e3")


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


def test_all_runs_clean(capsys):
    code, out = run_main(["all"], capsys)
    assert code == 0
    data = out.encode("utf-8")
    assert len(data) == GOLDEN_ALL_BYTES
    assert hashlib.sha256(data).hexdigest() == GOLDEN_ALL_SHA256
    doc = json.loads(out)
    assert doc["ok"] is True
    statuses = {e["status"] for s in doc["sections"]
                for e in s.get("entries", [])}
    assert "failed" not in statuses


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "cgaweyl.cli", "verify",
                           "--family", "osc-l1", "--gamma", "1", "--xi", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
