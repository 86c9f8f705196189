"""Lowest-weight representation: ground state, ladder-generated eigenstates,
exact eigenvalue tables, and the continuous-spectrum probe.

One record per target (a family of kind "ladder", "osc-l1" or "xi0"),
built by :func:`_ladder`, supplies everything the spectrum functions read
beyond the family's own generators: the annihilators of the ground state,
the ladder relations [H, op] = e*op with their energies e, and the walk
that generates the table's states from the ground state 1.  A row's
level is the sum of the e of its creation operators, each e being the one
its relation certifies.

States are derivative-free elements (polynomials in the space variables).
For exponential-time families the operator H carries no d[t] and every
creation operator factors as e^(c*t) times a t-free operator, so states
are evaluated on the t = 0 slice (e^(c*t) -> 1) without affecting
eigenvalues.  For the general-ell families H has tau-dependent
coefficients and eigenstates are exact polynomial identities in tau as
well, so no slice is taken there.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalar import as_fraction
from .weyl import (
    WeylElement,
    apply_to,
    bracket_residual,
    eigenvalue,
    remap,
    term_count,
)
from .realizations import GeneratorFamily, build_H
from .verify import VerificationReport


class ZeroState(ValueError):
    """Eigenvalue check on the zero state."""


class NotEigenstate(ValueError):
    """The probe state failed to reproduce a scalar eigenvalue."""


def at_time_zero(e: WeylElement) -> WeylElement:
    """Evaluate exponential weights at t = 0 (e^(c*t) -> 1)."""
    out: dict = {}
    for (mon, der), c in e.terms.items():
        key = (mon[:-1] + (0,), der)
        s = out.get(key)
        out[key] = c if s is None else s + c
    return WeylElement(e.table, out)


@dataclass(frozen=True)
class _Ladder:
    """The ladder structure of one spectrum target.

    Operators are named by the target family's generators.  ``relations``
    rows are (name, e, rhs) for [H, op] = e*op, ``rhs`` printing e*op by
    the operator's role (raising, lowering or zero), not by the sign of e.
    ``stages`` rows are (label, name, budget index, cost) in application
    order; a state's quantum numbers are its stage counts in reverse
    order.  ``order`` is the rows' sort key.
    """

    family: GeneratorFamily
    ell: int
    annihilators: tuple
    relations: tuple
    stages: tuple
    sliced: bool
    order: object


def _ladder(target) -> _Ladder:
    """The ladder record of a ladder family or of an ell = 1 family."""
    if target.kind == "ladder":
        ell = target.params.ell
        relations, stages = [], [("k", "a0d", 0, 1)]
        for n in range(1, ell + 1):
            relations += [(f"a{n}d", n, f"{n}*a{n}d"), (f"b{n}d", n, f"{n}*b{n}d"),
                          (f"a{n}", -n, f"-{n}*a{n}"), (f"b{n}", -n, f"-{n}*b{n}")]
        for j in range(ell, 0, -1):
            stages += [(f"m{j}", f"a{j}d", 1, j), (f"n{j}", f"b{j}d", 1, j)]
        return _Ladder(
            family=target, ell=ell,
            annihilators=("a0", *(f"{x}{n}" for n in range(1, ell + 1)
                                  for x in "ab")),
            relations=(*relations, ("a0d", 0, "0"), ("a0", 0, "0")),
            stages=tuple(stages), sliced=False, order=tuple)
    if target.kind not in ("osc-l1", "xi0"):
        raise ValueError(f"no ladder operators for family kind {target.kind!r}")
    # v_{-1} raises by omega2, w_{-1} by omega1 (both 1 for osc-l1)
    w1, w2 = ((target.params.omega1, target.params.omega2)
              if target.kind == "xi0" else (1, 1))
    return _Ladder(
        family=target, ell=1,
        annihilators=("v+1", "w+1", "v0"),
        relations=(("v+1", -w1, f"-({w1})*v+1"), ("w+1", -w2, f"-({w2})*w+1"),
                   ("v-1", w2, f"({w2})*v-1"), ("w-1", w1, f"({w1})*w-1"),
                   ("v0", 0, "0"), ("w0", 0, "0")),
        stages=(("k", "w0", 0, 1), ("n", "w-1", 1, 1), ("m", "v-1", 1, 1)),
        sliced=True, order=lambda qn: (qn[0] + qn[1], *qn))


def ground_state_verify(target) -> tuple[bool, str | None]:
    """Check that the constant state is killed by every annihilator.

    Returns (ok, offending operator name).
    """
    rec = _ladder(target)
    psi0 = WeylElement.const(rec.family.table, 1)
    for name in rec.annihilators:
        if not apply_to(rec.family[name], psi0).is_zero():
            return False, name
    return True, None


def _from_ground(rec: _Ladder, qn: tuple[int, ...]) -> WeylElement:
    """The state with quantum numbers ``qn``, applied stage by stage to 1."""
    psi = WeylElement.const(rec.family.table, 1)
    for (_, name, _, _), count in zip(rec.stages, reversed(qn)):
        for _ in range(count):
            psi = apply_to(rec.family[name], psi)
    return at_time_zero(psi) if rec.sliced else psi


def build_state(fam: GeneratorFamily, m: int, n: int, k: int) -> WeylElement:
    """The ell=1 state v_{-1}^m w_{-1}^n w_0^k applied to 1, at t = 0."""
    rec = _ladder(fam)
    if not rec.sliced:
        raise ValueError("build_state expects an exponential-time family")
    return _from_ground(rec, (m, n, k))


def build_state_general(ladder: GeneratorFamily,
                        occupations: tuple[tuple[int, int], ...],
                        zero_modes: int = 0) -> WeylElement:
    """The state prod_j (b_j^+)^{n_j} (a_j^+)^{m_j} (a_0^+)^k applied to 1.

    ``occupations[j-1] = (n_j, m_j)`` for j = 1..ell.  Zero modes use a_0^+
    (b_0 differs only by sign).
    """
    rec = _ladder(ladder)
    if rec.sliced:
        raise ValueError("build_state_general expects a ladder family")
    if len(occupations) != rec.ell:
        raise ValueError("one (n_j, m_j) pair per mode j = 1..ell required")
    qn = tuple(c for n_j, m_j in occupations for c in (n_j, m_j))
    return _from_ground(rec, qn + (zero_modes,))


def eigencheck(H: WeylElement, psi: WeylElement) -> Fraction | None:
    """The exact eigenvalue E with H psi = E psi, or None.

    E must be a plain rational (parameter-free).  The check is
    :func:`cgaweyl.weyl.eigenvalue`, which compares H psi with E psi
    inside the kernel, without building H psi as ``Coef`` values.
    """
    if psi.is_zero():
        raise ZeroState("eigencheck on the zero state")
    return eigenvalue(H, psi)


@dataclass
class SpectrumRow:
    """One table row; ``labels`` names its quantum numbers."""

    quantum_numbers: tuple[int, ...]
    eigenvalue: Fraction
    verified: bool
    state_terms: int
    labels: tuple[str, ...]

    def to_dict(self, ell: int) -> dict:
        return {
            "l": ell,
            "level": str(self.eigenvalue),
            "quantum_numbers": dict(zip(self.labels, self.quantum_numbers)),
            "eigenvalue": str(self.eigenvalue),
            "verified": self.verified,
            "state_terms": self.state_terms,
        }


def _state_walk(psi: WeylElement, stages, budgets: tuple[int, ...],
                counts: tuple[int, ...] = ()):
    """Depth-first walk of a creation-operator application tree.

    ``stages`` lists (operator, budget index, cost) in application order,
    so the state with counts (c_1, ..., c_s) is op_s^c_s ... op_1^c_1 psi.
    Yields (counts, state) once for every count vector whose costs fit
    ``budgets``.  Each state is one apply_to from its parent (the state
    with the last nonzero count lowered by one), and only the states on
    the current path are held.  Every state but ``psi`` is an apply_to
    result, whose terms the kernel decodes only when they are first read;
    the walk, the zero checks, the eigenvalue checks and the term counts
    never read them.
    """
    if not stages:
        yield counts, psi
        return
    (op, pool, cost), rest = stages[0], stages[1:]
    left = list(budgets)
    count = 0
    while True:
        yield from _state_walk(psi, rest, tuple(left), counts + (count,))
        left[pool] -= cost
        if left[pool] < 0:
            return
        psi = apply_to(op, psi)
        count += 1


def _table_states(target, e_max: int, zero_mode_cutoff: int):
    """(quantum numbers, level, state) for every spectrum-table row.

    The states come from one :func:`_state_walk` over the record's stages,
    rooted at the ground row that :func:`build_state` or
    :func:`build_state_general` gives (the constant state 1), so each
    costs one apply_to; those builders remain the from-ground reference.
    On the t = 0 slice the walk applies the sliced creation operators,
    which commutes with apply_to because they carry no d[t].  A row's
    level is the sum of its counts times the stage energies, an int
    where the energies are ints.  Rows come
    in walk order, not table order.  :func:`spectrum_table` reads the
    states through the kernel's checks alone (``weyl.eigenvalue`` and
    ``weyl.term_count``), so their terms stay undecoded.
    """
    rec = _ladder(target)
    energy = {name: e for name, e, _ in rec.relations}
    stages, energies = [], []
    for _, name, pool, cost in rec.stages:
        op = rec.family[name]
        stages.append((at_time_zero(op) if rec.sliced else op, pool, cost))
        energies.append(energy[name])
    root = (build_state(target, 0, 0, 0) if rec.sliced
            else build_state_general(target, ((0, 0),) * rec.ell))
    for counts, psi in _state_walk(root, stages, (zero_mode_cutoff, e_max)):
        level = sum(e * c for e, c in zip(energies, counts))
        yield counts[::-1], level, psi


def spectrum_table(target, e_max: int, zero_mode_cutoff: int = 0) -> VerificationReport:
    """Enumerate and verify every lowest-weight eigenstate up to e_max.

    ell = 1 families: states (m, n, k), eigenvalue m + n (or the
    frequency-weighted combination for the two-frequency family), rows
    ordered by m + n, then m, then k.  General ell: occupation vectors
    with E = sum j (n_j + m_j), plus a_0^+ zero modes, rows ordered by
    (n_1, m_1, ..., n_ell, m_ell, k).  A level's multiplicity counts its
    rows' quantum numbers without the zero-mode count k, the last one.
    """
    rec = _ladder(target)
    H = at_time_zero(build_H(target)) if rec.sliced else build_H(target)
    labels = tuple(label for label, *_ in reversed(rec.stages))
    rows, seen = [], {}
    for qn, level, psi in _table_states(target, e_max, zero_mode_cutoff):
        eigenvalue, value = Fraction(level), eigencheck(H, psi)
        rows.append(SpectrumRow(qn, eigenvalue,
                                value is not None and value == eigenvalue,
                                term_count(psi), labels))
        # keyed by the walk's level, an int on integer ladders: a Fraction
        # key would cost a Python-level hash and == on every row
        seen.setdefault(level, set()).add(qn[:-1])
    rows.sort(key=lambda row: rec.order(row.quantum_numbers))
    return VerificationReport(
        f"spectrum table ({rec.family.name})", rec.family.name, rows=rows,
        l=rec.ell, e_max=Fraction(e_max), zero_mode_cutoff=zero_mode_cutoff,
        level_multiplicity={Fraction(lvl): len(seen[lvl]) for lvl in sorted(seen)})


def ladder_relations_check(target) -> "list[tuple[str, bool, str]]":
    """Operator identities [H, g] = e g for the raising/lowering set.

    Returns (description, ok, residual text) triples.  Each [H, g] is
    compared with e g by ``weyl.bracket_residual``, so a relation that
    holds builds no element.
    """
    rec = _ladder(target)
    H = build_H(target)
    out = []
    for name, e, rhs in rec.relations:
        op = rec.family[name]
        residual = bracket_residual(H, op, op, e)
        out.append((f"[H, {name}] = {rhs}", residual is None,
                    "" if residual is None else residual.text()))
    return out


def continuous_probe(H: WeylElement, lam) -> Fraction:
    """Check H y^lambda = lambda y^lambda and return the eigenvalue.

    lambda must be a rational above -1/2 (the normalizable range for the
    gaussian-measure inner product).  H is transplanted onto a table where
    y admits rational powers.
    """
    lam = as_fraction(lam)
    if 2 * lam <= -1:
        raise ValueError(f"lambda must exceed -1/2, got {lam}")
    probe_table = H.table.widened("y")
    Hp = at_time_zero(remap(H, probe_table))
    psi = WeylElement.var(probe_table, "y", lam)
    value = eigencheck(Hp, psi)
    if value is None:
        raise NotEigenstate(f"H applied to y^{lam} is not a scalar multiple")
    return value
