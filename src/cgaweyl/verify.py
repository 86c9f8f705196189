"""Exact verification machinery.

Structure-constant tables are checked by computing every commutator of a
family: a listed pair must equal its one stated term, c * g or the scalar
c, and an unlisted pair must commute.  One pair loop, :func:`_residuals`,
serves every table check and the calibration.  It takes each [a, b] in the
packed form of the commutator kernel (int numerators per gamma^a xi^b block
and packed key) and compares it on those numerators with c * g, the
scalar entry as c * 1 (``weyl._bracket_residual``), so a pair that holds
builds no element; only a failing pair builds [a, b] and its residual,
[a, b] minus the expected side, whose text the report prints.  The sl(2)
closure, the [z-, Omega_1] and [Omega, theta(1)] checks and the spectrum's
ladder relations go through the same comparator.  Additive-constant
calibration finds scalar shifts g -> g + delta_g absorbing constant
residuals: commutators are blind to the shifts, and each entry names one
generator, so each delta_g is one exact division.
On-shell invariance [g, Omega] = f * Omega is certified by derivative-free
factor extraction, and the similarity map between the two ell=1 pictures
is diffed generator by generator.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub

from .scalar import COEF_ZERO, Coef, NotDivisible, as_fraction, coef
from .weyl import (
    DomainViolation,
    WeylElement,
    _bracket_residual,
    _commutator_core,
    commutator,
    free_to_osc,
    mul,
    remap,
)
from .realizations import (
    XI0_LOOP_PREFIXES,
    GeneratorFamily,
    InvariantTriplet,
    build_H,
    build_free_general,
    build_free_l1,
    build_osc_l1,
    build_triplet,
    closed_form_triplet,
    deformed_degree0,
    factorial_sign,
    gen_name,
    general_invariant_explicit,
    general_invariant_ladder,
    general_order,
    kappa,
    ladder_over,
    loop_name,
)


class UnknownGenerator(KeyError):
    """A relation references a generator absent from the family."""


class InconsistentSystem(ValueError):
    """The calibration system has no solution."""

    def __init__(self, msg: str, failing: list[str]):
        super().__init__(msg)
        self.failing = failing


# ---------------------------------------------------------------------------
# report records

EXACT = "exact"
CALIBRATED = "exact-after-calibration"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass
class EntryResult:
    family: str
    lhs: str
    expected: str
    status: str
    residual_text: str = ""
    factor_text: str = ""

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class VerificationReport:
    title: str
    family: str
    params: dict[str, str] = field(default_factory=dict)
    entries: list[EntryResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        out = {EXACT: 0, CALIBRATED: 0, FAILED: 0, SKIPPED: 0}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return all(e.status != FAILED for e in self.entries)

    def failing(self) -> list[EntryResult]:
        return [e for e in self.entries if e.status == FAILED]

    def to_dict(self) -> dict:
        c = self.counts
        return {
            "title": self.title,
            "family": self.family,
            "params": dict(sorted(self.params.items())),
            "entries": [e.to_dict() for e in self.entries],
            "notes": list(self.notes),
            "summary": {
                "total": len(self.entries),
                "exact": c[EXACT],
                "exact_after_calibration": c[CALIBRATED],
                "failed": c[FAILED],
                "skipped": c[SKIPPED],
            },
            "ok": self.ok,
        }


def _residual_entry(family: str, lhs: str, expected: str,
                    residual: WeylElement | None) -> EntryResult:
    """Exact when the residual is None or vanishes, else failed with its text."""
    if residual is None or residual.is_zero():
        return EntryResult(family, lhs, expected, EXACT)
    return EntryResult(family, lhs, expected, FAILED, residual.text())


# ---------------------------------------------------------------------------
# relation tables

@dataclass(frozen=True)
class RelationEntry:
    """[left, right] = c * name, or the scalar c when ``name`` is None.

    ``c`` (an int, ``Fraction`` or ``Coef``) has at most one term
    q * gamma^a * xi^b, the form ``weyl._is_multiple`` compares against.
    """

    left: str
    right: str
    c: Coef
    name: str | None = None

    def __post_init__(self):
        c = coef(self.c)
        if len(c.terms) > 1:
            raise ValueError(f"[{self.left}, {self.right}]: coefficient "
                             f"{c.text()} has more than one term")
        object.__setattr__(self, "c", c)


@dataclass
class RelationTable:
    """Expected commutators [left, right] = c * name, or a scalar c.

    Pairs of scope generators absent from ``entries`` are asserted to
    commute exactly.  ``skips`` marks pairs whose expected right-hand side
    falls outside a mode truncation and therefore cannot be checked.
    """

    name: str
    scope: tuple[str, ...]
    entries: dict[tuple[str, str], RelationEntry]
    skips: set[tuple[str, str]] = field(default_factory=set)

    def lookup(self, a: str, b: str) -> tuple[int, RelationEntry] | None:
        e = self.entries.get((a, b))
        if e is not None:
            return 1, e
        e = self.entries.get((b, a))
        if e is not None:
            return -1, e
        return None

    def pairs(self):
        for i, a in enumerate(self.scope):
            for b in self.scope[i + 1:]:
                yield a, b


def _entry_map(entries) -> dict[tuple[str, str], RelationEntry]:
    out = {}
    for e in entries:
        key = (e.left, e.right)
        if key in out or (e.right, e.left) in out:
            raise ValueError(f"duplicate relation for {key}")
        out[key] = e
    return out


def _conformal_rows(ell: int) -> list[RelationEntry]:
    """sl(2) and r acting on v_a, w_a (|a| <= ell): common to every ell."""
    entries = [
        RelationEntry("z0", "z+", 1, "z+"),
        RelationEntry("z0", "z-", -1, "z-"),
        RelationEntry("z+", "z-", 2, "z0"),
    ]
    for a in range(-ell, ell + 1):
        v, w = gen_name("v", a), gen_name("w", a)
        if a:
            entries.append(RelationEntry("z0", v, a, v))
            entries.append(RelationEntry("z0", w, a, w))
        if a < ell:
            entries.append(RelationEntry("z+", v, ell - a, gen_name("v", a + 1)))
            entries.append(RelationEntry("z+", w, ell - a, gen_name("w", a + 1)))
        if a > -ell:
            entries.append(RelationEntry("z-", v, ell + a, gen_name("v", a - 1)))
            entries.append(RelationEntry("z-", w, ell + a, gen_name("w", a - 1)))
        entries.append(RelationEntry("r", v, 1, v))
        entries.append(RelationEntry("r", w, -1, w))
    return entries


def cga_l1_table(fam: GeneratorFamily) -> RelationTable:
    """The full ell=1 commutator table, including the extra generator q."""
    g, x = fam.params.gamma, fam.params.xi
    entries = _conformal_rows(1) + [RelationEntry("r", "q", -2, "q")]
    for k in (1, 0, -1):
        entries.append(RelationEntry(gen_name("v", k), "q", g / x, gen_name("w", k)))
    entries.append(RelationEntry("v+1", "w-1", -2, "theta"))
    entries.append(RelationEntry("v0", "w0", 1, "theta"))
    entries.append(RelationEntry("v-1", "w+1", -2, "theta"))
    return RelationTable("cga-l1", fam.order, _entry_map(entries))


def general_commutator_table(ell: int) -> RelationTable:
    """The commutator table of the general-ell family (gamma = xi = 1)."""
    entries = _conformal_rows(ell)
    for n in range(0, ell + 1):
        I = factorial_sign(ell + n, ell)
        entries.append(RelationEntry(gen_name("v", n), gen_name("w", -n), -I))
        if n:
            entries.append(RelationEntry(gen_name("v", -n), gen_name("w", n), -I))
    return RelationTable(f"cga-general(l={ell})", general_order(ell),
                         _entry_map(entries))


def ladder_ccr_table(ladder: GeneratorFamily) -> RelationTable:
    """Canonical commutation relations of a ladder family."""
    ell = ladder.params.ell
    names = [f"a{n}" for n in range(ell + 1)] + [f"a{n}d" for n in range(ell + 1)] \
        + [f"b{n}" for n in range(ell + 1)] + [f"b{n}d" for n in range(ell + 1)]
    entries = []
    for n in range(ell + 1):
        entries.append(RelationEntry(f"a{n}", f"a{n}d", 1))
        entries.append(RelationEntry(f"b{n}", f"b{n}d", 1))
    entries.append(RelationEntry("a0", "b0", -1))
    entries.append(RelationEntry("a0d", "b0d", -1))
    return RelationTable(f"ladder-ccr(l={ell})", tuple(names), _entry_map(entries))


def xi0_core_table(fam: GeneratorFamily) -> RelationTable:
    """Heisenberg pairs of the xi=0 limit operators, with frequency weights."""
    w1, w2 = fam.params.omega1, fam.params.omega2
    entries = [
        RelationEntry("v+1", "w-1", -2 * w1 * w1),
        RelationEntry("v-1", "w+1", -2 * w2 * w2),
        RelationEntry("v0", "w0", w2),
        RelationEntry("z0", "v+1", w1, "v+1"),
        RelationEntry("z0", "w-1", -w1, "w-1"),
        RelationEntry("z0", "w+1", w2, "w+1"),
        RelationEntry("z0", "v-1", -w2, "v-1"),
    ]
    scope = ("z0", "v+1", "v0", "v-1", "w+1", "w0", "w-1")
    return RelationTable("xi0-core", scope, _entry_map(entries))


def xi0_loop_rules(w1: Fraction, w2: Fraction) -> dict[tuple[str, str], tuple]:
    """The xi=0 loop algebra as data: (p1, p2) -> (p3, shift, c0, cn, cm) states

        [p1(n), p2(m)] = (c0 + cn*n + cm*m) * p3(n + m + shift)

    for all integers n, m; every right side is affine in (n, m).  Prefix
    pairs absent in both orders commute.
    """
    r, h = w2 / w1, w2 / 2
    rules = {
        ("j+", "j-"): ("j0", 0, 2 * w2, 0, 0),
        ("j+", "w"): ("rho", -1, w2, 0, 0),
        ("j+", "v"): ("u", -1, w2, 0, 0),
        ("j-", "rho"): ("w", 1, w2, 0, 0),
        ("j-", "u"): ("v", 1, w2, 0, 0),
        ("chi", "chi"): ("chi", 0, 0, -r, r),
        ("chi", "rho"): ("rho", 0, r, 0, r),
        ("chi", "v"): ("v", 0, -r, 0, r),
        ("rho", "v"): ("theta", 0, w2, 0, 0),
        ("u", "w"): ("theta", 0, w2, 0, 0),
    }
    # j0 and r act diagonally: [p1(n), p(m)] = c * p(n + m)
    for p1, row in (("j0", {"j+": w2, "j-": -w2, "w": -h, "rho": h, "v": -h, "u": h}),
                    ("r", {"w": 1, "rho": 1, "v": -1, "u": -1})):
        for p, c in row.items():
            rules[(p1, p)] = (p, 0, c, 0, 0)
    for p in ("j0", "j+", "j-", "r", "w", "u", "theta"):
        rules[("chi", p)] = (p, 0, 0, 0, r)
    return rules


def _loop_bracket(rules, p1: str, n: int, p2: str, m: int):
    """[p1(n), p2(m)] as (coefficient, p3, mode), or None when they commute."""
    if (p1, p2) in rules:
        p3, shift, c0, cn, cm = rules[(p1, p2)]
        return c0 + cn * n + cm * m, p3, n + m + shift
    if (p2, p1) in rules:
        c, p3, k = _loop_bracket(rules, p2, m, p1, n)
        return -c, p3, k
    return None


def xi0_loop_table(fam: GeneratorFamily) -> RelationTable:
    """The truncated infinite-algebra table; results outside |n| <= N are
    skipped, zero coefficients (as in [chi(n), j0(0)]) are kept."""
    N = fam.params.cutoff
    rules = xi0_loop_rules(fam.params.omega1, fam.params.omega2)
    modes = [(p, n) for p in XI0_LOOP_PREFIXES for n in range(-N, N + 1)]
    scope = tuple(loop_name(p, n) for p, n in modes)
    entries = {}
    skips: set[tuple[str, str]] = set()
    for i, (a, (p1, n)) in enumerate(zip(scope, modes)):
        for b, (p2, m) in zip(scope[i + 1:], modes[i + 1:]):
            if abs(n + m) > N:
                skips.add((a, b))
                continue
            bracket = _loop_bracket(rules, p1, n, p2, m)
            if bracket is None:
                continue
            c, p3, k = bracket
            if abs(k) > N:
                skips.add((a, b))
                continue
            entries[(a, b)] = RelationEntry(a, b, c, loop_name(p3, k))
    return RelationTable(f"xi0-loop(N={N})", scope, entries, skips)


# ---------------------------------------------------------------------------
# table verification and calibration

def _expected_text(entry: RelationEntry | None, sign: int = 1) -> str:
    if entry is None or (entry.name is None and entry.c.is_zero()):
        return "0"
    c = f"({(sign * entry.c).text()})"
    return c if entry.name is None else f"{c}*{entry.name}"


def _residuals(fam: GeneratorFamily, table: RelationTable, brackets=None):
    """Yield (a, b, sign, entry, bracket, residual) for every scope pair, in order.

    ``bracket`` is [a, b] in the packed form of ``weyl._commutator_core``,
    taken from ``brackets[a, b]`` when given, and None for a pair skipped by
    the truncation.  It is compared on the packed forms with the expected
    side sign * c * g (``weyl._bracket_residual``), where g is the entry's
    generator, or the constant 1 for a scalar entry; a pair that must
    commute (``entry`` None) has c = 0.  ``residual`` is None when they are
    equal, and otherwise [a, b] minus the expected side, built only then.
    """
    gens = fam.generators
    for a in table.scope:
        if a not in gens:
            raise UnknownGenerator(a)
    one = WeylElement.const(fam.table, 1)
    for a, b in table.pairs():
        if (a, b) in table.skips or (b, a) in table.skips:
            yield a, b, 1, None, None, None
            continue
        found = table.lookup(a, b)
        sign, entry = found if found else (1, None)
        bracket = (brackets[a, b] if brackets is not None
                   else _commutator_core(gens[a], gens[b]))
        c, g = COEF_ZERO, one
        if entry is not None:
            c = sign * entry.c
            if entry.name is not None:
                if entry.name not in gens:
                    raise UnknownGenerator(entry.name)
                g = gens[entry.name]
        yield a, b, sign, entry, bracket, _bracket_residual(bracket, g, c)


def _table_report(fam: GeneratorFamily, table: RelationTable,
                  brackets=None) -> VerificationReport:
    """:func:`verify_table`, reading [a, b] from ``brackets`` when given."""
    report = VerificationReport(title=f"commutator table {table.name}",
                                family=fam.name,
                                params=fam.params.describe())
    for a, b, sign, entry, bracket, residual in _residuals(fam, table, brackets):
        lhs = f"[{a}, {b}]"
        if bracket is None:
            report.entries.append(EntryResult(fam.name, lhs, "", SKIPPED,
                                              "mode index outside truncation"))
        elif residual is None:
            report.entries.append(EntryResult(
                fam.name, lhs, _expected_text(entry, sign), EXACT))
        else:
            report.entries.append(_residual_entry(
                fam.name, lhs, _expected_text(entry, sign), residual))
    return report


def verify_table(fam: GeneratorFamily, table: RelationTable) -> VerificationReport:
    """Check every scope pair: listed entries exactly, unlisted pairs to zero."""
    return _table_report(fam, table)


def calibrate_constants(fam: GeneratorFamily, table: RelationTable
                        ) -> tuple[dict[str, Coef], VerificationReport]:
    """Find the additive scalar shifts making the table hold, exactly.

    Since [g + d_g, h + d_h] = [g, h], only right-hand sides depend on the
    shifts, and an entry [a, b] = c * g with c != 0 moves by c * d_g: its
    constant residual must equal c * d_g.  The first such entry for g fixes
    d_g, every later one must give the same d_g, and every other pair needs
    a zero residual; otherwise :class:`InconsistentSystem` names the pairs
    that disagree, each with the pair that fixed its d_g.  For the same
    reason the commutators are computed once, in packed form: the shifted
    family's table is checked against them.
    """
    deltas = {name: COEF_ZERO for name in table.scope}
    fixed_by: dict[str, str] = {}
    bad: set[str] = set()
    pair_entries: list[RelationEntry | None] = []
    brackets = {}
    for a, b, sign, entry, bracket, residual in _residuals(fam, table):
        pair_entries.append(entry)
        if bracket is None:
            continue
        brackets[a, b] = bracket
        value = COEF_ZERO if residual is None else residual.constant_value()
        lhs_label = f"[{a}, {b}]"
        if value is None:
            raise InconsistentSystem(
                f"{lhs_label} has a non-scalar residual; additive shifts "
                f"cannot absorb it", [lhs_label])
        c = COEF_ZERO if entry is None else sign * entry.c
        if c.is_zero() or entry.name is None:
            if not value.is_zero():
                bad.add(lhs_label)
        elif entry.name not in fixed_by:
            fixed_by[entry.name] = lhs_label
            deltas[entry.name] = value / c
        elif value != c * deltas[entry.name]:
            bad.update((lhs_label, fixed_by[entry.name]))
    if bad:
        raise InconsistentSystem("no additive-constant solution", sorted(bad))

    # checking the shifted right-hand sides is the exact certificate of the shifts
    report = _table_report(fam.shifted(deltas), table, brackets)
    report.title = f"commutator table {table.name} (calibrated)"
    for entry_result, entry in zip(report.entries, pair_entries):
        d_used = entry is not None and not deltas.get(entry.name, COEF_ZERO).is_zero()
        if entry_result.status == EXACT and d_used:
            entry_result.status = CALIBRATED
    nonzero = {k: v for k, v in deltas.items() if not v.is_zero()}
    report.notes.append("calibration shifts: " + (
        ", ".join(f"{k} -> {k} + ({v.text()})" for k, v in sorted(nonzero.items()))
        if nonzero else "none"))
    return deltas, report


# ---------------------------------------------------------------------------
# on-shell invariance

def _deriv_key(der):
    return (der[-1], sum(der), der)


def extract_scalar_factor(comm: WeylElement, omega: WeylElement
                          ) -> WeylElement | None:
    """Find the derivative-free f with comm = f * omega, or None.

    Splits both sides by derivative multi-index: a scalar multiplier cannot
    change derivative content, so f is obtained by exact division of the
    maximal-derivative parts, then certified globally.
    """
    if comm.is_zero():
        return WeylElement.zero(comm.table)
    table = omega.table
    om_parts: dict = {}
    for (mon, der), c in omega.terms.items():
        om_parts.setdefault(der, {})[mon] = c
    cm_parts: dict = {}
    for (mon, der), c in comm.terms.items():
        cm_parts.setdefault(der, {})[mon] = c
    dmax = max(om_parts, key=_deriv_key)
    if max(map(_deriv_key, cm_parts)) > _deriv_key(dmax):
        return None
    om_d = om_parts[dmax]
    work = dict(cm_parts.get(dmax, {}))
    if not work:
        return None
    # the tuple order is total and products preserve it, so leads divide
    lead_mon = max(om_d)
    lead_c = om_d[lead_mon]
    f_terms: dict[tuple[tuple, tuple], Coef] = {}
    fuel = 8 * (len(work) + len(om_d)) + 64
    while work:
        fuel -= 1
        if fuel < 0:
            return None
        mc = max(work)
        cc = work[mc]
        try:
            fc = cc / lead_c
        except NotDivisible:
            return None
        fm = tuple(map(sub, mc, lead_mon))
        key = (fm, table.zeros)
        f_terms[key] = f_terms.get(key, COEF_ZERO) + fc
        for m2, c2 in om_d.items():
            pm = tuple(map(add, fm, m2))
            s = work.get(pm, COEF_ZERO) - fc * c2
            if s.is_zero():
                work.pop(pm, None)
            else:
                work[pm] = s
    try:
        f = WeylElement(table, f_terms)
    except DomainViolation:
        return None
    return f if mul(f, omega) == comm else None


def onshell_check(gens: dict[str, WeylElement], omegas: dict[str, WeylElement],
                  family_label: str,
                  expected: dict[tuple[str, str], WeylElement | str] | None = None,
                  ) -> VerificationReport:
    """Certify [g, Omega] = f * Omega for every (generator, Omega) pair.

    With ``expected`` given, each extracted factor (or commuting pair) must
    match the stated one; otherwise any successful factorization passes.
    """
    report = VerificationReport(title="on-shell invariance",
                                family=family_label)
    for om_name, om in omegas.items():
        for g_name, g in gens.items():
            lhs = f"[{g_name}, {om_name}]"
            comm = commutator(g, om)
            f = extract_scalar_factor(comm, om)
            if f is None:
                report.entries.append(EntryResult(
                    family_label, lhs, f"f*{om_name}", FAILED,
                    residual_text=comm.text()))
                continue
            factor_text = "commutes" if f.is_zero() else f.text()
            status = EXACT
            want = expected.get((g_name, om_name), "commutes") if expected is not None else None
            expected_text = f"f*{om_name}"
            if expected is not None:
                if want == "commutes":
                    expected_text = "0"
                    if not f.is_zero():
                        status = FAILED
                else:
                    expected_text = f"({want.text()})*{om_name}"
                    if f != want:
                        status = FAILED
            report.entries.append(EntryResult(
                family_label, lhs, expected_text, status,
                factor_text=factor_text))
    return report


def expected_onshell_factors(fam: GeneratorFamily
                             ) -> dict[tuple[str, str], WeylElement | str]:
    """The stated multiplier functions for the ell=1 triplets and the xi=0 family."""
    table = fam.table
    out: dict[tuple[str, str], WeylElement | str] = {}
    if fam.kind in ("free-l1", "osc-l1"):
        # the time factor tau^p, or e^(p t) in the exponential-time picture
        if fam.kind == "free-l1":
            time = lambda p: WeylElement.var(table, "tau", p)  # noqa: E731
        else:
            time = lambda p: WeylElement.exp_t(table, p)  # noqa: E731
        out[("z0", "Omega+1")] = WeylElement.const(table, 1)
        out[("z0", "Omega-1")] = WeylElement.const(table, -1)
        out[("z+", "Omega0")] = time(-1)
        out[("z+", "Omega-1")] = 2 * time(-1)
        out[("z-", "Omega+1")] = 2 * time(1)
        out[("z-", "Omega0")] = time(1)
    elif fam.kind == "xi0":
        w1, w2, N = fam.params.omega1, fam.params.omega2, fam.params.cutoff
        for n in range(-N, N + 1):
            kappa_n = kappa(n, w1, w2)
            out[(loop_name("j+", n), "Omega")] = \
                w2 * mul(kappa_n, WeylElement.exp_t(table, -w2))
            out[(loop_name("j-", n), "Omega")] = \
                w2 * mul(kappa_n, WeylElement.exp_t(table, w2))
    else:
        raise ValueError(f"no on-shell expectations for kind {fam.kind!r}")
    return out


def verify_sl2(triplet: InvariantTriplet, weight) -> VerificationReport:
    """Check [O0, O+-] = +-weight O+- and [O+, O-] = 2 weight O0 exactly."""
    w = as_fraction(weight)
    report = VerificationReport(title=f"sl(2) closure (weight {w})", family="")
    named = triplet.named()
    for a, b, c, g in (("Omega0", "Omega+1", w, "Omega+1"),
                       ("Omega0", "Omega-1", -w, "Omega-1"),
                       ("Omega+1", "Omega-1", 2 * w, "Omega0")):
        residual = _bracket_residual(_commutator_core(named[a], named[b]),
                                     named[g], coef(c))
        report.entries.append(_residual_entry("", f"[{a}, {b}]", f"({c})*{g}", residual))
    return report


def omega_rigidity_check(fam: GeneratorFamily, omega) -> VerificationReport:
    """On-shell probe of the deformed degree-0 operator at a given omega.

    The deformed equation admits the full symmetry family only at
    omega = 1; at other values at least one generator must fail.
    """
    op = deformed_degree0(fam, omega)
    report = onshell_check(fam.generators, {"Omega0(omega)": op}, fam.name)
    report.title = f"omega-rigidity probe at omega={as_fraction(omega)}"
    report.params = dict(fam.params.describe(), omega=str(as_fraction(omega)))
    return report


# ---------------------------------------------------------------------------
# similarity map between the two ell=1 pictures

def _diff_entry(family: str, name: str, image: WeylElement, target: WeylElement,
                sign_flip: bool = False) -> EntryResult:
    """Classify image - target: exact, constant-shift, sign-flip or failed."""
    diff = image - target
    if diff.is_zero():
        return EntryResult(family, name, name, EXACT)
    const = diff.constant_value()
    if const is not None:
        return EntryResult(family, name, name, "constant-shift",
                           factor_text=f"delta = {const.text()}")
    if sign_flip and (image + target).is_zero():
        return EntryResult(family, name, name, "sign-flip", factor_text="factor = -1")
    return EntryResult(family, name, name, FAILED, residual_text=diff.text())


def verify_similarity(gamma=None, xi=None) -> VerificationReport:
    """Map every exponential-time generator (and the invariant triplet)
    through the similarity/time transform and diff against the tau picture.

    Statuses: exact, constant-shift (difference is a scalar, recorded), or
    mismatch.
    """
    osc = build_osc_l1(gamma, xi)
    free = build_free_l1(gamma, xi)
    report = VerificationReport(title="similarity map (exponential-time -> tau)",
                                family="osc-l1 -> free-l1",
                                params=free.params.describe())
    targets: dict[str, WeylElement] = dict(free.generators)
    free_triplet = closed_form_triplet(free)
    targets.update(free_triplet.named())
    sources: dict[str, WeylElement] = dict(osc.generators)
    sources.update(build_triplet(osc).named())

    for name, g in sources.items():
        report.entries.append(_diff_entry(
            report.family, name, free_to_osc(g, free.table), targets[name]))
    return report


# ---------------------------------------------------------------------------
# general ell

def verify_general_invariant(ell: int) -> VerificationReport:
    """Degree-1 invariant operator checks for one value of ell.

    (i) the explicit differential form equals the ladder quadratic;
    (ii) [z-, Omega_1] = -2 Omega_0 with
    Omega_0 = z0 + sum n (a_n^+ a_n + b_n^+ b_n) + ell(ell+1)/2;
    (iii) the canonical commutation relations and the n=0 identifications.
    """
    fam = build_free_general(ell, verbatim=False)
    ladder = ladder_over(fam)
    label = fam.name
    report = VerificationReport(title="degree-1 invariant operator",
                                family=label, params=fam.params.describe())

    explicit = general_invariant_explicit(ell)
    quad = general_invariant_ladder(ladder)
    report.entries.append(_residual_entry(
        label, "Omega_1 (explicit)", "Omega_1 (ladder quadratic)", explicit - quad))

    H = build_H(ladder)
    omega0 = fam["z0"] + H + WeylElement.const(
        fam.table, Fraction(ell * (ell + 1), 2))
    report.entries.append(_residual_entry(
        label, "[z-, Omega_1]", "-2*Omega_0",
        _bracket_residual(_commutator_core(fam["z-"], explicit), omega0, coef(-2))))

    report.entries.append(_residual_entry(
        label, "b0 + a0d", "0", ladder["b0"] + ladder["a0d"]))
    report.entries.append(_residual_entry(
        label, "b0d - a0", "0", ladder["b0d"] - ladder["a0"]))

    ccr = verify_table(ladder, ladder_ccr_table(ladder))
    report.entries.extend(ccr.entries)
    return report


def general_vs_l1_diff() -> VerificationReport:
    """Machine-readable diff of the general family at ell=1 against the
    ell=1 family at gamma = xi = 1 (never silently patched)."""
    g1 = build_free_general(1, verbatim=True)
    f11 = build_free_l1(1, 1, verbatim=True)
    report = VerificationReport(title="general(l=1) vs l1 family diff",
                                family="free-general(l=1) vs free-l1(1,1)")
    for name in g1.order:
        mapped = remap(g1[name], f11.table, {"x1": "x", "y1": "y"})
        report.entries.append(_diff_entry(report.family, name, mapped, f11[name],
                                          sign_flip=True))
    report.notes.append("statuses other than 'failed' are documented "
                        "printing discrepancies, not errors")
    return report


# ---------------------------------------------------------------------------
# xi = 0 sector

XI0_SUBALGEBRA = {"j0": "h1", "j+": "h1", "j-": "h1", "chi": "h2", "r": "h3",
                  "w": "h4", "rho": "h4", "v": "h4", "u": "h4", "theta": "h4"}

# the subalgebras that a bracket of two subalgebras may land in
_XI0_BRACKETS = {frozenset(pair.split()): set(into.split()) for pair, into in (
    ("h1", "h1"), ("h2", "h2"), ("h3", ""), ("h4", "h4"), ("h1 h2", "h1"),
    ("h1 h3", ""), ("h2 h3", "h3"), ("h1 h4", "h4"), ("h2 h4", "h4"), ("h3 h4", "h4"))}


def verify_subalgebra_structure(fam: GeneratorFamily) -> VerificationReport:
    """Truncated infinite-algebra check plus subalgebra containment notes;
    containment is checked once per rule of ``xi0_loop_rules``, for all modes."""
    if fam.kind != "xi0":
        raise ValueError("subalgebra structure is defined for the xi0 family")
    if fam.params.cutoff < 2:
        raise ValueError("mode cutoff must be >= 2 for the structure check")
    table = xi0_loop_table(fam)
    report = verify_table(fam, table)
    report.title = f"infinite-algebra truncation {table.name}"
    rules = xi0_loop_rules(fam.params.omega1, fam.params.omega2)
    for (p1, p2), (p3, *_) in rules.items():
        allowed = _XI0_BRACKETS[frozenset((XI0_SUBALGEBRA[p1], XI0_SUBALGEBRA[p2]))]
        if XI0_SUBALGEBRA[p3] not in allowed:
            report.notes.append(f"[{p1}(n), {p2}(m)] lands in "
                                f"{XI0_SUBALGEBRA[p3]} outside {sorted(allowed)}")
    report.notes.append(
        "subalgebras: h1 = loop sl(2) (j0, j+, j-); h2 = Witt (chi); "
        "h3 = abelian (r); h4 = (w, rho, v, u, theta) with theta central in h4; "
        "structure h2 |x (h1 + h3), then (h1+h2+h3) |x h4")
    report.entries.append(_residual_entry(
        fam.name, "[Omega, theta(1)]", "0",
        _bracket_residual(_commutator_core(fam["Omega"], fam[loop_name("theta", 1)]),
                          fam["Omega"], COEF_ZERO)))
    return report
