"""Every light pinned report re-derived on the slow reference kernels.

The program reaches the kernels only through six public names of
``cgaweyl.weyl``: ``mul``, ``mul_sum``, ``commutator``, ``apply_to``,
``bracket_residual`` and ``eigenvalue``.  The run rebinds each of them,
in every ``cgaweyl`` namespace that holds it and in ``tests/helpers``
(whose ``reference_eigencheck`` calls ``apply_to``), to the references
of ``tests/helpers``, which are built from ``Coef`` arithmetic and the
uncached reordering generator, and then runs every pinned command of
``golden_cli.json`` but the two heavy ones.  Each must give its pinned
exit code, an empty stderr and its pinned bytes.

The two heavy pins take about 27 s on the references together and are
left to a scale-sweep job:
``verify --family free-general --l 12`` and
``spectrum --family free-general --l 2 --emax 12 --k 1``.
"""
import sys

import golden
import helpers
from cgaweyl import weyl
from cgaweyl.cli import main
from cgaweyl.scalar import coef

HEAVY = (["verify", "--family", "free-general", "--l", "12"],
         ["spectrum", "--family", "free-general", "--l", "2", "--emax", "12", "--k", "1"])
PINS = [p for p in golden.load_pin()["commands"] if p["argv"] not in HEAVY]
SEAM = ("mul", "mul_sum", "commutator", "apply_to", "bracket_residual", "eigenvalue")


def reference_kernels(sign: int = 1) -> dict:
    """The six seam names bound to references; ``sign=-1`` flips the bracket."""
    def commutator(a, b):
        ab, ba = helpers.reference_mul(a, b), helpers.reference_mul(b, a)
        return ab - ba if sign > 0 else ba - ab

    def bracket_residual(a, b, g, c):
        residual = commutator(a, b) - g.scaled(coef(c))
        return None if residual.is_zero() else residual

    return {"mul": helpers.reference_mul, "mul_sum": helpers.reference_mul_sum,
            "commutator": commutator,
            "apply_to": helpers.reference_apply_to,
            "bracket_residual": bracket_residual,
            "eigenvalue": helpers.reference_eigencheck}


def _reference_run(monkeypatch, capsys, kernels: dict) -> list:
    """(pin, problem or None, seam names called) per light pin, run with
    ``kernels`` rebound.  An exception is a problem."""
    called = set()

    def counted(name, fn):
        return lambda *args: called.add(name) or fn(*args)

    holders = [m for n, m in sorted(sys.modules.items())
               if n == "cgaweyl" or n.startswith("cgaweyl.")] + [helpers]
    for name in SEAM:
        original, reference = getattr(weyl, name), counted(name, kernels[name])
        for holder in holders:
            if vars(holder).get(name) is original:
                monkeypatch.setattr(holder, name, reference)
    out = []
    try:
        for pin in PINS:
            called.clear()
            try:
                code = main(pin["argv"])
            except Exception as exc:  # noqa: BLE001  (a failing run, named)
                capsys.readouterr()
                problem = f"raised {type(exc).__name__}: {exc}"
            else:
                text, err = capsys.readouterr()
                problem = golden.command_mismatch(pin, code, text, err)
            out.append((pin, problem, set(called)))
    finally:
        monkeypatch.undo()
    return out


def test_light_pins_hold_on_the_reference_kernels(monkeypatch, capsys):
    assert len(PINS) == len(golden.load_pin()["commands"]) - len(HEAVY)
    assert ["all"] in [p["argv"] for p in PINS]
    results = _reference_run(monkeypatch, capsys, reference_kernels())
    problems = [problem for _, problem, _ in results if problem is not None]
    assert not problems, "\n".join(problems)
    assert set().union(*(called for *_, called in results)) == set(SEAM)


def test_a_sign_flipped_reference_bracket_fails_the_run(monkeypatch, capsys):
    """The run compares something: with [a, b] computed as b*a - a*b, every
    pinned command that takes a bracket mismatches its pin or raises.  The
    two `similarity` pins take none (they map generators with products
    alone), so the flip leaves them as they are."""
    results = _reference_run(monkeypatch, capsys, reference_kernels(sign=-1))
    bracketed = [(pin, problem) for pin, problem, called in results
                 if called & {"commutator", "bracket_residual"}]
    held = [" ".join(pin["argv"]) for pin, problem in bracketed if problem is None]
    assert not held, held
    assert len(bracketed) == len(PINS) - 2
