"""Import guard: every module loads under the running interpreter, the
module graph scalar -> weyl -> realizations -> verify -> spectrum -> cli
has no back edge, no module but weyl names a private weyl attribute, and
README's quick tour runs as written."""
import ast
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

# the import order: a module imports only modules before it
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


def imported_modules(source: str) -> set[str]:
    """The ``cgaweyl`` modules that ``source`` imports: ``from .x import``,
    ``from . import x``, and their absolute ``cgaweyl`` forms; ``""``
    stands for the package itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "cgaweyl":
                    continue
                module = module[len("cgaweyl."):]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name if a.name in MODULES else "" for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] if "." in a.name else ""
                         for a in node.names if a.name.split(".")[0] == "cgaweyl")
    return found


def test_the_graph_guard_finds_every_form_of_import():
    source = ("from .weyl import mul\n"
              "from . import realizations as rz, verify\n"
              "from cgaweyl.spectrum import spectrum_table\n"
              "import cgaweyl.cli\n"
              "from . import coef\n"
              "import json\n"
              "def f():\n    from .scalar import Coef\n")
    assert imported_modules(source) == {"weyl", "realizations", "verify",
                                        "spectrum", "cli", "", "scalar"}


def test_modules_import_only_modules_before_them():
    """Each module's imports of the package point back along MODULES; the
    package's ``__init__`` may import any module, and no module imports
    the package or lies outside MODULES."""
    back = {}
    for path in sorted((SRC / "cgaweyl").glob("*.py")):
        name = path.stem
        if name == "__init__":
            allowed = set(MODULES)
        elif name in MODULES:
            allowed = set(MODULES[:MODULES.index(name)])
        else:
            back[name] = "not in MODULES"
            continue
        wrong = imported_modules(path.read_text(encoding="utf-8")) - allowed
        if wrong:
            back[name] = sorted(wrong)
    assert not back, back


def private_weyl_names(source: str) -> list[str]:
    """The ``_``-prefixed names of ``cgaweyl.weyl`` that ``source`` imports
    or reads: ``from .weyl import _x``, or ``w._x`` and ``getattr(w, "_x")``
    for a ``w`` bound to the weyl module (``cgaweyl.weyl._x`` included)."""
    tree = ast.parse(source)
    modules, found = {"cgaweyl.weyl"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for alias in node.names:
                if base in (".weyl", "cgaweyl.weyl") and alias.name.startswith("_"):
                    found.append(alias.name)
                if base in (".", "cgaweyl") and alias.name == "weyl":
                    modules.add(alias.asname or "weyl")
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names
                           if a.name == "cgaweyl.weyl" and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner, name = node.value, node.attr
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            owner, name = node.args[0], node.args[1].value
        else:
            continue
        if name.startswith("_") and ast.unparse(owner) in modules:
            found.append(name)
    return found


def test_the_guard_finds_every_way_of_naming_a_private():
    source = ("from .weyl import _a, mul\n"
              "from cgaweyl.weyl import _b\n"
              "from . import weyl as w\n"
              "import cgaweyl.weyl\n"
              "w._c(getattr(w, '_d'), cgaweyl.weyl._e, mul._f, w.apply_to)\n")
    assert sorted(private_weyl_names(source)) == ["_a", "_b", "_c", "_d", "_e"]


def test_only_weyl_names_a_private_weyl_attribute():
    """The checks reach the kernels through weyl's public functions alone,
    so that only weyl knows the packed form."""
    found = {path.name: names for path in sorted((SRC / "cgaweyl").glob("*.py"))
             if path.name != "weyl.py"
             and (names := private_weyl_names(path.read_text(encoding="utf-8")))}
    assert not found, found
