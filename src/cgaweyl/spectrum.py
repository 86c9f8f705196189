"""Lowest-weight representation: ground state, ladder-generated eigenstates,
exact eigenvalue tables, and the continuous-spectrum probe.

States are derivative-free elements (polynomials in the space variables).
For exponential-time families the operator H carries no d[t] and every
creation operator factors as e^(c*t) times a t-free operator, so states
are evaluated on the t = 0 slice (e^(c*t) -> 1) without affecting
eigenvalues.  For the general-ell families H has tau-dependent
coefficients and eigenstates are exact polynomial identities in tau as
well, so no slice is taken there.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalar import as_fraction
from .weyl import (
    RAT,
    WeylElement,
    _eigenvalue,
    apply_to,
    commutator,
    remap,
)
from .realizations import (
    GeneratorFamily,
    LadderSet,
    build_H,
)


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


def ground_state(fam_or_ladder) -> WeylElement:
    table = fam_or_ladder.family.table if isinstance(fam_or_ladder, LadderSet) \
        else fam_or_ladder.table
    return WeylElement.const(table, 1)


def annihilators(target) -> dict[str, WeylElement]:
    """The operators required to kill the ground state."""
    if isinstance(target, LadderSet):
        out = {}
        for n in range(target.ell + 1):
            out[f"a{n}"] = target.a[n]
            if n >= 1:
                out[f"b{n}"] = target.b[n]
        return out
    if target.kind in ("osc-l1", "xi0"):
        return {name: target[name] for name in ("v+1", "w+1", "v0")}
    raise ValueError(f"no annihilator set for family kind {target.kind!r}")


def ground_state_verify(target) -> tuple[bool, str | None]:
    """Check that the constant state is killed by every annihilator.

    Returns (ok, offending operator name).
    """
    psi0 = ground_state(target)
    for name, op in annihilators(target).items():
        if not apply_to(op, psi0).is_zero():
            return False, name
    return True, None


def build_state(fam: GeneratorFamily, m: int, n: int, k: int) -> WeylElement:
    """The ell=1 state v_{-1}^m w_{-1}^n w_0^k applied to 1, at t = 0."""
    if fam.kind not in ("osc-l1", "xi0"):
        raise ValueError("build_state expects an exponential-time family")
    psi = ground_state(fam)
    for name, count in (("w0", k), ("w-1", n), ("v-1", m)):
        op = fam[name]
        for _ in range(count):
            psi = apply_to(op, psi)
    return at_time_zero(psi)


def build_state_general(ladder: LadderSet,
                        occupations: tuple[tuple[int, int], ...],
                        zero_modes: int = 0) -> WeylElement:
    """The state prod_j (b_j^+)^{n_j} (a_j^+)^{m_j} (a_0^+)^k applied to 1.

    ``occupations[j-1] = (n_j, m_j)`` for j = 1..ell.  Zero modes use a_0^+
    (b_0 differs only by sign).
    """
    if len(occupations) != ladder.ell:
        raise ValueError("one (n_j, m_j) pair per mode j = 1..ell required")
    psi = ground_state(ladder)
    for _ in range(zero_modes):
        psi = apply_to(ladder.ad[0], psi)
    for j in range(ladder.ell, 0, -1):
        n_j, m_j = occupations[j - 1]
        for _ in range(m_j):
            psi = apply_to(ladder.ad[j], psi)
        for _ in range(n_j):
            psi = apply_to(ladder.bd[j], psi)
    return psi


def eigencheck(H: WeylElement, psi: WeylElement) -> Fraction | None:
    """The exact eigenvalue E with H psi = E psi, or None.

    E must be a plain rational (parameter-free).  The check runs on the
    int numerators that apply_to's kernel produces, one gamma^a xi^b block
    at a time, without building H psi as ``Coef`` values: H psi and psi
    must have the same blocks and keys, and every numerator of H psi must
    be E times psi's, exactly (``weyl._eigenvalue``).
    """
    if psi.is_zero():
        raise ZeroState("eigencheck on the zero state")
    return _eigenvalue(H, psi)


@dataclass
class SpectrumRow:
    quantum_numbers: tuple[int, ...]
    eigenvalue: Fraction
    verified: bool
    state_terms: int

    def to_dict(self, ell: int, labels: tuple[str, ...]) -> dict:
        return {
            "l": ell,
            "level": str(self.eigenvalue),
            "quantum_numbers": dict(zip(labels, self.quantum_numbers)),
            "eigenvalue": str(self.eigenvalue),
            "verified": self.verified,
            "state_terms": self.state_terms,
        }


@dataclass
class SpectrumTable:
    ell: int
    family: str
    e_max: Fraction
    zero_mode_cutoff: int
    labels: tuple[str, ...]
    rows: list[SpectrumRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.verified for r in self.rows)

    def level_multiplicities(self) -> dict[Fraction, int]:
        """Count of distinct non-zero-mode quantum numbers per level."""
        seen: dict[Fraction, set] = {}
        for r in self.rows:
            base = r.quantum_numbers[:-1] if "k" in self.labels else r.quantum_numbers
            seen.setdefault(r.eigenvalue, set()).add(base)
        return {lvl: len(s) for lvl, s in seen.items()}

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "l": self.ell,
            "e_max": str(self.e_max),
            "zero_mode_cutoff": self.zero_mode_cutoff,
            "rows": [r.to_dict(self.ell, self.labels) for r in self.rows],
            "level_multiplicity": {str(k): v for k, v in
                                   sorted(self.level_multiplicities().items())},
            "ok": self.ok,
        }


def _state_walk(psi: WeylElement, stages, budgets: tuple[int, ...],
                counts: tuple[int, ...] = ()):
    """Depth-first walk of a creation-operator application tree.

    ``stages`` lists (operator, budget index, cost) in application order,
    so the state with counts (c_1, ..., c_s) is op_s^c_s ... op_1^c_1 psi.
    Yields (counts, state) once for every count vector whose costs fit
    ``budgets``.  Each state is one apply_to from its parent (the state
    with the last nonzero count lowered by one), and only the states on
    the current path are held.
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

    The states come from one :func:`_state_walk` rooted at the ground row
    that :func:`build_state` or :func:`build_state_general` gives, so each
    costs one apply_to; those builders remain the from-ground reference.
    The ell = 1 walk applies the creation operators on the t = 0 slice,
    which commutes with apply_to because they carry no d[t].  Rows come in
    walk order, not table order.
    """
    budgets = (zero_mode_cutoff, e_max)
    if isinstance(target, LadderSet):
        stages = [(target.ad[0], 0, 1)]
        for j in range(target.ell, 0, -1):
            stages += [(target.ad[j], 1, j), (target.bd[j], 1, j)]
        root = build_state_general(target, ((0, 0),) * target.ell)
        for counts, psi in _state_walk(root, stages, budgets):
            # counts are (k, m_ell, n_ell, ..., m_1, n_1)
            qn = counts[:0:-1] + counts[:1]
            level = sum((i // 2 + 1) * c for i, c in enumerate(qn[:-1]))
            yield qn, Fraction(level), psi
        return
    fam = target
    if fam.kind == "osc-l1":
        weight_m, weight_n = Fraction(1), Fraction(1)
    else:
        # v_{-1} raises by omega2, w_{-1} by omega1
        weight_m, weight_n = fam.params.omega2, fam.params.omega1
    stages = [(at_time_zero(fam[name]), pool, 1)
              for name, pool in (("w0", 0), ("w-1", 1), ("v-1", 1))]
    for (k, n, m), psi in _state_walk(build_state(fam, 0, 0, 0), stages, budgets):
        yield (m, n, k), weight_m * m + weight_n * n, psi


def spectrum_table(target, e_max: int, zero_mode_cutoff: int = 0) -> SpectrumTable:
    """Enumerate and verify every lowest-weight eigenstate up to e_max.

    ell = 1 families: states (m, n, k), eigenvalue m + n (or the
    frequency-weighted combination for the two-frequency family), rows
    ordered by m + n, then m, then k.  General ell: occupation vectors
    with E = sum j (n_j + m_j), plus a_0^+ zero modes, rows ordered by
    (n_1, m_1, ..., n_ell, m_ell, k).
    """
    if isinstance(target, LadderSet):
        H = build_H(target)
        labels = tuple(x for j in range(1, target.ell + 1)
                       for x in (f"n{j}", f"m{j}")) + ("k",)
        table = SpectrumTable(target.ell, f"free-general(l={target.ell})",
                              Fraction(e_max), zero_mode_cutoff, labels)

        def order(qn):
            return qn
    else:
        if target.kind not in ("osc-l1", "xi0"):
            raise ValueError(f"no spectrum table for family kind {target.kind!r}")
        H = at_time_zero(build_H(target))
        table = SpectrumTable(1, target.name, Fraction(e_max), zero_mode_cutoff,
                              ("m", "n", "k"))

        def order(qn):
            m, n, k = qn
            return (m + n, m, k)

    for qn, level, psi in _table_states(target, e_max, zero_mode_cutoff):
        value = eigencheck(H, psi)
        table.rows.append(SpectrumRow(qn, level,
                                      value is not None and value == level,
                                      len(psi.terms)))
    table.rows.sort(key=lambda row: order(row.quantum_numbers))
    return table


def ladder_relations_check(target) -> "list[tuple[str, bool, str]]":
    """Operator identities [H, g] = c g for the raising/lowering set.

    Returns (description, ok, residual text) triples.
    """
    out = []

    def check(label: str, residual: WeylElement):
        out.append((label, residual.is_zero(),
                    "" if residual.is_zero() else residual.text()))

    if isinstance(target, LadderSet):
        H = build_H(target)
        for n in range(1, target.ell + 1):
            check(f"[H, a{n}d] = {n}*a{n}d",
                  commutator(H, target.ad[n]) - n * target.ad[n])
            check(f"[H, b{n}d] = {n}*b{n}d",
                  commutator(H, target.bd[n]) - n * target.bd[n])
            check(f"[H, a{n}] = -{n}*a{n}",
                  commutator(H, target.a[n]) + n * target.a[n])
            check(f"[H, b{n}] = -{n}*b{n}",
                  commutator(H, target.b[n]) + n * target.b[n])
        check("[H, a0d] = 0", commutator(H, target.ad[0]))
        check("[H, a0] = 0", commutator(H, target.a[0]))
        return out

    fam = target
    H = build_H(fam)
    if fam.kind == "osc-l1":
        wplus = {"v+1": Fraction(1), "w+1": Fraction(1)}
        wminus = {"v-1": Fraction(1), "w-1": Fraction(1)}
    elif fam.kind == "xi0":
        w1, w2 = fam.params.omega1, fam.params.omega2
        wplus = {"v+1": w1, "w+1": w2}
        wminus = {"v-1": w2, "w-1": w1}
    else:
        raise ValueError(f"no ladder relations for family kind {fam.kind!r}")
    for name, c in wplus.items():
        check(f"[H, {name}] = -({c})*{name}", commutator(H, fam[name]) + c * fam[name])
    for name, c in wminus.items():
        check(f"[H, {name}] = ({c})*{name}", commutator(H, fam[name]) - c * fam[name])
    check("[H, v0] = 0", commutator(H, fam["v0"]))
    check("[H, w0] = 0", commutator(H, fam["w0"]))
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
    probe_table = H.table.widened("y", RAT)
    Hp = at_time_zero(remap(H, probe_table))
    psi = WeylElement.var(probe_table, "y", lam)
    value = eigencheck(Hp, psi)
    if value is None:
        raise NotEigenstate(f"H applied to y^{lam} is not a scalar multiple")
    return value
