"""Import guard: every module loads under the running interpreter, the
module graph scalar -> weyl -> realizations -> {verify, spectrum} -> cli
has no back edge, and README's quick tour runs as written."""
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

MODULES = ("scalar", "weyl", "realizations", "verify", "spectrum", "cli")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)


def test_every_module_imports_in_a_fresh_interpreter():
    proc = run_fresh("import cgaweyl\n"
                     + "".join(f"import cgaweyl.{m}\n" for m in MODULES))
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_every_public_name():
    proc = run_fresh("import cgaweyl\n"
                     "names = {}\n"
                     "exec('from cgaweyl import *', names)\n"
                     "missing = [n for n in cgaweyl.__all__ if n not in names]\n"
                     "assert not missing, missing\n")
    assert proc.returncode == 0, proc.stderr


def test_calibrated_free_family_does_not_load_verify():
    proc = run_fresh(
        "import sys\n"
        "from cgaweyl.realizations import build_free_l1\n"
        "build_free_l1(verbatim=False)\n"
        "assert 'cgaweyl.verify' not in sys.modules, 'verify was imported'\n")
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_tour_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
