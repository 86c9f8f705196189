"""Verification machinery: tables, calibration, on-shell witnesses, maps."""
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cgaweyl import verify
from cgaweyl.scalar import COEF_ZERO, Coef
from cgaweyl.weyl import (NAT, RAT, VarTable, WeylElement, _commutator_core,
                          _is_multiple, _Undecoded, apply_to, bracket_residual,
                          commutator, mul, parse_element, remap)
from helpers import (COEF_POOL, PLAIN_TABLE, RAT_EXPONENT_POOL, RAT_TABLE, TIME_TABLE,
                     random_element, reference_mul)
from cgaweyl.realizations import (
    build_free_general,
    build_free_l1,
    build_ladder,
    build_osc_l1,
    build_triplet,
    build_xi0,
    closed_form_triplet,
    general_table,
    loop_name,
)
from cgaweyl.verify import (
    CALIBRATED,
    EXACT,
    FAILED,
    InconsistentSystem,
    RelationEntry,
    RelationTable,
    UnknownGenerator,
    calibrate_constants,
    cga_l1_table,
    expected_onshell_factors,
    extract_scalar_factor,
    general_commutator_table,
    general_vs_l1_diff,
    omega_rigidity_check,
    onshell_check,
    verify_general_invariant,
    verify_similarity,
    verify_sl2,
    verify_subalgebra_structure,
    verify_table,
    xi0_core_table,
    xi0_loop_table,
)


def entry_by_lhs(report, lhs):
    return next(e for e in report.entries if e.lhs == lhs)


# -- table verification -----------------------------------------------------

def test_osc_table_all_exact_at_symbolic_parameters():
    fam = build_osc_l1()
    report = verify_table(fam, cga_l1_table(fam))
    assert report.ok
    assert report.counts[EXACT] == len(report.entries) == 66


def test_osc_specific_entries():
    fam = build_osc_l1()
    g, x = fam.params.gamma, fam.params.xi
    assert commutator(fam["r"], fam["q"]) == -2 * fam["q"]
    for k in ("v+1", "v0", "v-1"):
        w = "w" + k[1:]
        assert commutator(fam[k], fam["q"]) == (g / x) * fam[w], k


def test_free_table_fails_only_on_the_constant():
    fam = build_free_l1()
    report = verify_table(fam, cga_l1_table(fam))
    assert not report.ok
    fails = report.failing()
    assert [e.lhs for e in fails] == ["[z+, z-]"]
    assert fails[0].residual_text == "(-4)"


def test_unknown_generator_rejected():
    fam = build_osc_l1()
    table = cga_l1_table(fam)
    bad = RelationTable(table.name, table.scope + ("ghost",), table.entries)
    with pytest.raises(UnknownGenerator):
        verify_table(fam, bad)


# -- calibration ---------------------------------------------------------------

def test_calibration_finds_the_single_shift():
    fam = build_free_l1()
    deltas, report = calibrate_constants(fam, cga_l1_table(fam))
    assert deltas["z0"] == Coef.const(-2)
    assert all(v.is_zero() for k, v in deltas.items() if k != "z0")
    assert report.ok
    assert report.counts[CALIBRATED] == 1


@pytest.mark.parametrize("gamma, xi", [(None, None), (2, Fraction(1, 3))])
def test_corrected_free_family_matches_calibration(gamma, xi):
    verbatim = build_free_l1(gamma, xi)
    deltas, report = calibrate_constants(verbatim, cga_l1_table(verbatim))
    assert report.ok
    reference = verbatim.shifted(deltas)
    built = build_free_l1(gamma, xi, verbatim=False)
    assert built.order == reference.order
    for name in reference.order:
        assert built[name] == reference[name], name


def test_calibration_report_is_the_shifted_family_table_report():
    """The shifts change no commutator, and the report is the shifted
    family's table report, with the entries the shifts fix marked
    calibrated."""
    fam = build_free_l1()
    table = cga_l1_table(fam)
    deltas, report = calibrate_constants(fam, table)
    pairs = list(table.pairs())
    shifted = fam.shifted(deltas)
    assert shifted["z0"] != fam["z0"]
    for a, b in pairs:
        assert commutator(fam[a], fam[b]) == commutator(shifted[a], shifted[b])
    reference = verify_table(shifted, table).to_dict()
    got = report.to_dict()
    assert got["title"] == reference["title"] + " (calibrated)"
    assert got["notes"] == ["calibration shifts: z0 -> z0 + (-2)"]
    assert [e["status"] for e in got["entries"]].count(CALIBRATED) == 1
    for e in got["entries"]:
        if e["status"] == CALIBRATED:
            e["status"] = EXACT
    assert got["entries"] == reference["entries"]


def test_calibration_on_consistent_family_is_trivial():
    fam = build_osc_l1()
    deltas, report = calibrate_constants(fam, cga_l1_table(fam))
    assert all(v.is_zero() for v in deltas.values())
    assert report.ok and report.counts[CALIBRATED] == 0


def test_corrupted_table_is_inconsistent():
    fam = build_osc_l1()
    table = cga_l1_table(fam)
    entries = dict(table.entries)
    entries[("z0", "z+")] = RelationEntry("z0", "z+", 2, "z+")
    bad = RelationTable(table.name, table.scope, entries)
    with pytest.raises(InconsistentSystem) as err:
        calibrate_constants(fam, bad)
    assert "[z+, z0]" in str(err.value.failing) or "[z0, z+]" in str(err.value.failing)


def test_scalar_corruption_reports_minimal_subset():
    # a wrong coefficient on the central theta is unfixable: the d_theta that
    # [v+1, w-1] asks for breaks [v0, w0] and [v-1, w+1], so each of those
    # is named together with the pair that fixed d_theta
    fam = build_osc_l1()
    table = cga_l1_table(fam)
    entries = dict(table.entries)
    entries[("v+1", "w-1")] = RelationEntry("v+1", "w-1", -1, "theta")
    bad = RelationTable(table.name, table.scope, entries)
    with pytest.raises(InconsistentSystem) as err:
        calibrate_constants(fam, bad)
    assert err.value.failing == ["[v+1, w-1]", "[v-1, w+1]", "[v0, w0]"]


def test_kept_zero_with_a_constant_residual_is_inconsistent_in_any_table():
    """[v+1, w-1] = 0 * theta leaves the residual -2, which no shift moves:
    the whole table and the two-generator table of that pair both fail."""
    fam = build_osc_l1()
    table = cga_l1_table(fam)
    entry = RelationEntry("v+1", "w-1", 0, "theta")
    whole = RelationTable(table.name, table.scope,
                          {**table.entries, ("v+1", "w-1"): entry})
    pair = RelationTable(table.name, ("v+1", "w-1"), {("v+1", "w-1"): entry})
    for bad in (whole, pair):
        with pytest.raises(InconsistentSystem) as err:
            calibrate_constants(fam, bad)
        assert err.value.failing == ["[v+1, w-1]"]


def test_table_texts_are_kept_per_sign_and_coefficient():
    """A table check prints each (sign, coefficient) once, and every pair's
    expected side equals its text printed afresh, whichever sign came first."""
    for fam, table in ((build_free_general(2, verbatim=False), general_commutator_table(2)),
                       (build_osc_l1(), cga_l1_table(build_osc_l1()))):
        report = verify_table(fam, table)
        signs = set()
        for (a, b), entry in zip(table.pairs(), report.entries):
            found = table.lookup(a, b)
            sign, rel = found if found else (1, None)
            signs.add((sign, rel is not None and rel.c == Coef.const(1)))
            assert entry.expected == verify._expected_text(rel, sign), (a, b)
        assert {(1, True), (-1, True)} <= signs


def test_relation_entry_is_one_term():
    """An entry is c * name or the scalar c, with c of at most one term."""
    for c, name in ((Coef.gamma() + Coef.xi(), "w0"), (Coef.gamma() + 1, None)):
        with pytest.raises(ValueError):
            RelationEntry("v0", "q", c, name)
    entry = RelationEntry("v0", "q", Coef.gamma() / Coef.xi(), "w0")
    assert verify._expected_text(entry, -1) == "((-gamma)/(xi))*w0"
    assert RelationEntry("a", "b", Fraction(-1, 2)).c == Coef.const(Fraction(-1, 2))
    assert verify._expected_text(RelationEntry("a", "b", Fraction(-1, 2))) == "(-1/2)"
    assert verify._expected_text(RelationEntry("a", "b", 0, "g")) == "(0)*g"
    assert verify._expected_text(RelationEntry("a", "b", 0)) == "0"


# -- general ell -----------------------------------------------------------------

@pytest.mark.parametrize("ell", [1, 2, 3])
def test_general_table_holds_with_consistent_sign(ell):
    fam = build_free_general(ell, verbatim=False)
    assert verify_table(fam, general_commutator_table(ell)).ok


def test_general_table_specific_row_l3():
    fam = build_free_general(3, verbatim=False)
    table = general_commutator_table(3)
    report = verify_table(fam, table)
    assert report.ok
    # [z+, v_a] = (l - a) v_{a+1} across the whole index range
    for a in range(-3, 4):
        name = f"v{a:+d}" if a else "v0"
        succ = f"v{a + 1:+d}" if a + 1 else "v0"
        c = commutator(fam["z+"], fam[name])
        assert c == (3 - a) * fam[succ] if a < 3 else c.is_zero()


@pytest.mark.parametrize("ell", range(1, 7))
def test_general_table_scope_is_the_family_order(ell):
    assert general_commutator_table(ell).scope == build_free_general(ell).order


def test_general_checks_build_no_extra_family(monkeypatch):
    """The table reads the generator order without building the family; the
    invariant checks build the general family once and take the ladder from it."""
    calls, build = [], verify.build_free_general
    monkeypatch.setattr(verify, "build_free_general",
                        lambda *args, **kw: calls.append(args) or build(*args, **kw))
    general_commutator_table(3)
    assert calls == []
    verify_general_invariant(1)
    assert calls == [(1,)]


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_ladder_is_a_family_over_the_general_one(ell):
    ladder = build_ladder(ell)
    assert (ladder.kind, ladder.name) == ("ladder", f"free-general(l={ell})")
    assert ladder.table == general_table(ell)
    scope = verify.ladder_ccr_table(ladder).scope
    assert len(scope) == 4 * (ell + 1)
    assert sorted(ladder.order) == sorted(scope)


def test_general_vs_l1_diff_documents_the_discrepancies():
    report = general_vs_l1_diff()
    by_status = {e.lhs: e.status for e in report.entries if e.status != EXACT}
    assert by_status == {"z+": "sign-flip", "z0": "constant-shift"}


@pytest.mark.parametrize("ell", [1, 2])
def test_general_invariant_checks(ell):
    report = verify_general_invariant(ell)
    assert report.ok
    assert entry_by_lhs(report, "Omega_1 (explicit)").status == EXACT
    assert entry_by_lhs(report, "[z-, Omega_1]").status == EXACT
    assert entry_by_lhs(report, "b0 + a0d").status == EXACT
    # the CCR entries close the report, exactly as the ladder family's table
    ladder = build_ladder(ell)
    ccr = verify_table(ladder, verify.ladder_ccr_table(ladder)).entries
    assert len(report.entries) == 4 + len(ccr)
    assert [e.to_dict() for e in report.entries[4:]] == [e.to_dict() for e in ccr]


# -- on-shell -----------------------------------------------------------------

def test_factor_extraction_free_family():
    fam = build_free_l1(verbatim=False)
    trip = build_triplet(fam)
    tau = WeylElement.var(fam.table, "tau", -1)
    f = extract_scalar_factor(commutator(fam["z+"], trip.minus), trip.minus)
    assert f == 2 * tau
    f0 = extract_scalar_factor(commutator(fam["z+"], trip.zero), trip.zero)
    assert f0 == tau


def test_factor_extraction_rejects_non_multiples():
    fam = build_osc_l1()
    trip = build_triplet(fam)
    assert extract_scalar_factor(fam["v+1"], trip.zero) is None
    # a multi-term leading coefficient: exact division or no factor
    omega = parse_element("(gamma + xi) * d[x]", fam.table)
    comm = parse_element("(gamma^2 - xi^2) * x * d[x]", fam.table)
    assert extract_scalar_factor(comm, omega) == parse_element(
        "(gamma - xi) * x", fam.table)
    assert extract_scalar_factor(parse_element("(gamma) * d[x]", fam.table),
                                 omega) is None


def _geometric_factor(symbolic: bool):
    """Omega = c * (x - 1) * d[y] and f = 1 + x + ... + x^99, c = gamma + xi
    or 1: f * Omega = c * (x^100 - 1) * d[y] needs 100 steps of long division."""
    table = build_osc_l1().table
    x = WeylElement.var(table, "x")
    c = Coef.gamma() + Coef.xi() if symbolic else 1
    omega = c * mul(x - WeylElement.const(table, 1), WeylElement.deriv(table, "y"))
    f = sum((WeylElement.var(table, "x", k) for k in range(100)), WeylElement.zero(table))
    return f, omega


@pytest.mark.parametrize("symbolic", [False, True])
def test_factor_extraction_finds_a_long_exact_factor(symbolic):
    f, omega = _geometric_factor(symbolic)
    assert extract_scalar_factor(mul(f, omega), omega) == f


def test_factor_extraction_rejects_a_long_non_factor():
    """(x^100 + 1) * d[y] over (x - 1) * d[y]: the remainder 2 * d[y] asks
    for x^-1, below the box of every exact quotient."""
    _, omega = _geometric_factor(False)
    table = omega.table
    comm = mul(WeylElement.var(table, "x", 100) + WeylElement.const(table, 1),
               WeylElement.deriv(table, "y"))
    assert extract_scalar_factor(comm, omega) is None


def test_onshell_full_suites():
    for builder, kw in ((build_osc_l1, {}), (build_free_l1, {"verbatim": False})):
        fam = builder(**kw)
        trip = build_triplet(fam)
        report = onshell_check(fam.generators, trip.named(), fam.name,
                               expected_onshell_factors(fam))
        assert report.ok, report.failing()
        assert len(report.entries) == 36
        # witnesses never carry derivatives
        for e in report.entries:
            if e.factor_text not in ("", "commutes"):
                f = parse_element(e.factor_text, fam.table)
                assert f.is_scalar_function()


def test_onshell_verbatim_free_zero_operator_fails():
    fam = build_free_l1()           # printed constant
    trip = build_triplet(fam)
    report = onshell_check({"z+": fam["z+"]}, {"Omega0": trip.zero}, fam.name)
    assert not report.ok


def test_sl2_closures():
    osc = build_osc_l1()
    assert verify_sl2(build_triplet(osc), 1).ok
    free = build_free_l1(verbatim=False)
    assert verify_sl2(build_triplet(free), 1).ok


def test_sl2_broken_normalization_detected():
    """A broken normalization or a wrong weight fails, and each failing
    entry prints [a, b] - c * g built from the full commutator."""
    from cgaweyl.realizations import InvariantTriplet
    trip = build_triplet(build_osc_l1())
    broken = InvariantTriplet(2 * trip.plus, trip.zero, trip.minus)
    report = verify_sl2(broken, 1)
    assert not report.ok
    entry = entry_by_lhs(report, "[Omega+1, Omega-1]")
    assert entry.status == FAILED
    assert entry.residual_text == (commutator(broken.plus, broken.minus)
                                   - 2 * broken.zero).text()
    w = Fraction(2)
    report = verify_sl2(trip, w)
    for lhs, a, b, c, g in (("[Omega0, Omega+1]", trip.zero, trip.plus, w, trip.plus),
                            ("[Omega0, Omega-1]", trip.zero, trip.minus, -w, trip.minus),
                            ("[Omega+1, Omega-1]", trip.plus, trip.minus, 2 * w, trip.zero)):
        entry = entry_by_lhs(report, lhs)
        assert entry.status == FAILED
        assert entry.residual_text == (commutator(a, b) - c * g).text()


def test_omega_rigidity():
    osc = build_osc_l1()
    assert omega_rigidity_check(osc, 1).ok
    probe = omega_rigidity_check(osc, 2)
    assert not probe.ok
    assert "[w+1, Omega0(omega)]" in [e.lhs for e in probe.failing()]
    free = build_free_l1(verbatim=False)
    assert omega_rigidity_check(free, 1).ok
    assert not omega_rigidity_check(free, 2).ok


# -- similarity -----------------------------------------------------------------

def test_similarity_diff():
    report = verify_similarity()
    statuses = {e.lhs: e.status for e in report.entries}
    assert statuses["z0"] == "constant-shift"
    assert entry_by_lhs(report, "z0").factor_text == "delta = -2"
    others = {k: v for k, v in statuses.items() if k != "z0"}
    assert set(others.values()) == {EXACT}
    assert len(report.entries) == 15     # 12 generators + 3 invariant operators


def test_similarity_at_rational_parameters():
    report = verify_similarity(Fraction(2), Fraction(3))
    assert not any(e.status == FAILED for e in report.entries)


# -- xi = 0 sector ----------------------------------------------------------------

def test_xi0_core_table():
    fam = build_xi0(2, 3)
    report = verify_table(fam, xi0_core_table(fam))
    assert report.ok
    assert commutator(fam["v+1"], fam["w-1"]) == \
        WeylElement.const(fam.table, -8)     # -2 w1^2
    assert commutator(fam["v-1"], fam["w+1"]) == \
        WeylElement.const(fam.table, -18)    # -2 w2^2


def test_xi0_loop_table_specific_entries():
    fam = build_xi0(2, 3, cutoff=2)
    w1, w2 = fam.params.omega1, fam.params.omega2
    chi = lambda n: fam[loop_name("chi", n)]  # noqa: E731
    assert commutator(chi(1), chi(-1)) == (w2 / w1 * -2) * chi(0)
    u1, wm1 = fam[loop_name("u", 1)], fam[loop_name("w", -1)]
    assert commutator(u1, wm1) == w2 * fam[loop_name("theta", 0)]
    r1, rm1 = fam[loop_name("r", 1)], fam[loop_name("r", -1)]
    assert commutator(r1, rm1).is_zero()


def test_xi0_subalgebra_structure():
    for w1, w2 in [(1, 1), (3, 2), (3, 5), (5, 3)]:
        fam = build_xi0(w1, w2, cutoff=2)
        report = verify_subalgebra_structure(fam)
        assert report.ok, (w1, w2, report.failing())
        assert not [n for n in report.notes if "outside" in n]
        kappa_entry = entry_by_lhs(report, "[Omega, theta(1)]")
        assert kappa_entry.status == EXACT


def _patch_loop_rules(monkeypatch, change):
    """Make verify read xi0_loop_rules through ``change(rules)``."""
    original = verify.xi0_loop_rules
    monkeypatch.setattr(verify, "xi0_loop_rules",
                        lambda w1, w2: change(original(w1, w2)))


def _flip_witt(rules):
    """r*(m - n) -> r*(m + n) in the rule for [chi(n), chi(m)]."""
    p3, shift, c0, cn, cm = rules[("chi", "chi")]
    rules[("chi", "chi")] = (p3, shift, c0, -cn, cm)
    return rules


def test_xi0_subalgebra_structure_catches_a_flipped_witt_coefficient(monkeypatch):
    """r*(m - n) -> r*(m + n) in [chi(n), chi(m)] fails for every n != 0."""
    _patch_loop_rules(monkeypatch, _flip_witt)
    report = verify_subalgebra_structure(build_xi0(2, 3, cutoff=2))
    assert {e.lhs for e in report.failing()} == {
        f"[chi({n}), chi({m})]" for n in range(-2, 3) for m in range(n + 1, 3)
        if n != 0 and abs(n + m) <= 2}


def test_failing_residual_text_is_the_commutator_minus_the_expected_side(monkeypatch):
    """A listed pair is compared first and its difference built only when it
    fails; that difference is [a, b] - expected, as the text shows."""
    _patch_loop_rules(monkeypatch, _flip_witt)
    fam = build_xi0(2, 3, cutoff=2)
    table = xi0_loop_table(fam)
    report = verify_table(fam, table)
    assert len(report.failing()) == 6
    for e in report.entries:
        a, b = e.lhs[1:-1].split(", ")
        found = table.lookup(a, b)
        if e.status != FAILED:
            assert e.residual_text == "" or e.status == verify.SKIPPED
            continue
        residual = commutator(fam[a], fam[b]) - _expected_element(fam, *found)
        assert not residual.is_zero()
        assert e.residual_text == residual.text()


def test_xi0_subalgebra_structure_notes_a_rule_outside_its_subalgebra(monkeypatch):
    """[r, w] sent into the loop sl(2) h1 leaves the ideal h4 it must land in."""
    def misplace(rules):
        rules[("r", "w")] = ("j0",) + rules[("r", "w")][1:]
        return rules

    _patch_loop_rules(monkeypatch, misplace)
    report = verify_subalgebra_structure(build_xi0(2, 3, cutoff=2))
    assert "[r(n), w(m)] lands in h1 outside ['h4']" in report.notes
    assert not report.ok


def test_xi0_loop_table_skips_out_of_range_modes():
    fam = build_xi0(1, 1, cutoff=2)
    table = xi0_loop_table(fam)
    report = verify_table(fam, table)
    assert report.ok
    assert report.counts["skipped"] > 0


def test_xi0_onshell_factors():
    fam = build_xi0(2, 3, cutoff=2)
    gens = {name: fam[name] for name in fam.order if "(" in name}
    report = onshell_check(gens, {"Omega": fam["Omega"]}, fam.name,
                           expected_onshell_factors(fam))
    assert report.ok, report.failing()


@pytest.mark.parametrize("w1, w2", [(1, 1), (2, 3)])
def test_factor_extraction_budget_covers_the_reported_xi0_truncation(w1, w2):
    """Every on-shell pair that ``cgaweyl all`` checks (symbolic gamma,
    cutoff 3) factors: extract_scalar_factor answers None only when no
    exact quotient exists, so a None here would be a wrong FAIL."""
    fam = build_xi0(w1, w2, cutoff=3)
    omega = fam["Omega"]
    pairs = [name for name in fam.order if "(" in name]
    assert len(pairs) == 70
    for name in pairs:
        comm = commutator(fam[name], omega)
        assert extract_scalar_factor(comm, omega) is not None, name


def test_xi0_sl2_at_both_frequency_pairs():
    for w1, w2 in ((1, 1), (2, 3)):
        fam = build_xi0(w1, w2)
        trip = build_triplet(fam)
        assert verify_sl2(trip, fam.params.omega2).ok, (w1, w2)


# -- Jacobi on family triples (sampled here; acceptance runs the full sets) ----

def test_jacobi_on_l1_family_triples():
    from itertools import combinations
    fam = build_osc_l1()
    names = list(fam.order)
    pairwise = {(a, b): commutator(fam[a], fam[b])
                for a, b in combinations(names, 2)}
    for a, b, c in combinations(names, 3):
        total = commutator(pairwise[(a, b)], fam[c]) \
            + commutator(pairwise[(b, c)], fam[a]) \
            - commutator(pairwise[(a, c)], fam[b])
        assert total.is_zero(), (a, b, c)


# -- the split-form table check against its element-level reference -----------

def _expected_element(fam, sign, entry):
    """The expected side sign * c * g, or the scalar sign * c, as an element."""
    c = sign * entry.c
    return WeylElement.const(fam.table, c) if entry.name is None \
        else fam[entry.name].scaled(c)


def _reference_residual(fam, table, a, b, bracket=None):
    """[a, b] minus its expected side, built from elements."""
    residual = commutator(fam[a], fam[b]) if bracket is None else bracket
    found = table.lookup(a, b)
    return residual if found is None else residual - _expected_element(fam, *found)


def _reference_entries(fam, table):
    """(status, residual text) per scope pair, from elements: [a, b] minus
    the expected side, built with ``commutator``."""
    out = []
    for a, b in table.pairs():
        if (a, b) in table.skips or (b, a) in table.skips:
            out.append((verify.SKIPPED, "mode index outside truncation"))
            continue
        residual = _reference_residual(fam, table, a, b)
        out.append((EXACT, "") if residual.is_zero()
                   else (FAILED, residual.text()))
    return out


def _checked_entries(fam, table):
    """(status, residual text) per scope pair of ``verify_table``, after
    asserting that the split-form comparison alone gave each verdict: an
    exact pair built no residual, a failed one a nonzero residual."""
    entries = verify_table(fam, table).entries
    for e, (*_, skipped, residual) in zip(entries, verify._residuals(fam, table)):
        if not skipped:
            assert (residual is None) == (e.status == EXACT), e.lhs
    return [(e.status, e.residual_text) for e in entries]


def _xi0_case(w1, w2):
    fam = build_xi0(w1, w2, cutoff=2)
    return fam, xi0_loop_table(fam)


def _l1_case(build, gamma, xi):
    fam = build(gamma, xi)
    return fam, cga_l1_table(fam)


def _ccr_case(ell):
    ladder = build_ladder(ell)
    return ladder, verify.ladder_ccr_table(ladder)


# every kind of table the check runs on: label -> () -> (family, table)
_REFERENCE_CASES = {
    "xi0(2, 3)": lambda: _xi0_case(2, 3),
    "xi0(3/2, 5/7)": lambda: _xi0_case(Fraction(3, 2), Fraction(5, 7)),
    "osc-l1": lambda: _l1_case(build_osc_l1, None, None),
    "free-l1": lambda: _l1_case(build_free_l1, None, None),
    "osc-l1(2, -3)": lambda: _l1_case(build_osc_l1, 2, -3),
    "free-l1(2, -3)": lambda: _l1_case(build_free_l1, 2, -3),
    "general(2)": lambda: (build_free_general(2, verbatim=False),
                           general_commutator_table(2)),
    "general(2, verbatim)": lambda: (build_free_general(2), general_commutator_table(2)),
    "ladder-ccr(2)": lambda: _ccr_case(2),
}


def _bumped(c, step):
    """c with its rational factor moved by ``step``: still one term."""
    return Coef({k: q + step for k, q in c.terms.items()}) if c else Coef.const(step)


def _neighbour(fam, name, rng):
    order = fam.order
    i = order.index(name)
    return order[i - 1 if i and (i + 1 == len(order) or rng.random() < 0.5) else i + 1]


def _mutants(fam, table, rng):
    """(kind, left, right, mutated entry) for up to three seeded picks of
    every kind of mistake a table can carry."""
    listed = sorted(table.entries.values(), key=lambda e: (e.left, e.right))
    named = [e for e in listed if e.name is not None]
    kept_zero = [e for e in named if e.c.is_zero()]
    commuting = [(a, b) for a, b in table.pairs()
                 if table.lookup(a, b) is None and (a, b) not in table.skips]
    one = Coef.const(1)

    def pick(pool):
        return rng.sample(pool, min(3, len(pool)))

    for e in pick(named):
        step = 1 if rng.random() < 0.5 else -1
        yield "coefficient +-1", e.left, e.right, replace(e, c=_bumped(e.c, step))
    for e in pick(named):
        yield "coefficient * gamma", e.left, e.right, replace(e, c=e.c * Coef.gamma())
    for e in pick(named):
        yield "neighbouring target", e.left, e.right, \
            replace(e, name=_neighbour(fam, e.name, rng))
    for e in pick(listed):
        name = rng.choice(fam.order) if e.name is None else None
        yield "scalar <-> generator", e.left, e.right, replace(e, name=name)
    for e in pick(kept_zero):
        yield "kept zero made nonzero", e.left, e.right, replace(e, c=one)
    for a, b in pick(commuting):
        name = rng.choice(fam.order) if rng.random() < 0.5 else None
        yield "must-commute pair given an entry", a, b, RelationEntry(a, b, one, name)


@pytest.mark.parametrize("label", list(_REFERENCE_CASES))
def test_table_check_matches_the_element_reference(label):
    """Every scope pair of every kind of table gets the status and the
    residual text of [a, b] minus the expected side built as elements."""
    fam, table = _REFERENCE_CASES[label]()
    assert _checked_entries(fam, table) == _reference_entries(fam, table)


@pytest.mark.parametrize("label", list(_REFERENCE_CASES))
def test_mutated_tables_match_the_element_reference(label):
    """A wrong coefficient, target or scalar, a kept zero made nonzero, or
    an entry for a pair that must commute: the check and its reference give
    the same status and residual text, pair by pair (each mutant is checked
    on the two-generator table of its pair)."""
    fam, table = _REFERENCE_CASES[label]()
    rng = random.Random(1709)
    kinds, failed = set(), set()
    for kind, a, b, entry in _mutants(fam, table, rng):
        pair = RelationTable(table.name, (a, b), {(entry.left, entry.right): entry})
        got = _checked_entries(fam, pair)
        assert got == _reference_entries(fam, pair), (kind, a, b)
        kinds.add(kind)
        if got[0][0] == FAILED:
            failed.add(kind)
    assert failed == kinds  # every kind of mistake is caught at least once


def _calibration_oracle(fam, table, brackets):
    """What calibrating ``table`` must give, from elements: (the pairs that
    :class:`InconsistentSystem` names, the shifts).  Each pair [a, b] =
    c * g gives d_g = residual / c, collected per generator.  The pairs
    whose d_g differs from the first one for g are named together with that
    first pair, and so is every pair with no generator term and a nonzero
    residual.  The first residual that is not a scalar is named alone."""
    per_generator, bad = {}, set()
    for a, b in table.pairs():
        label = f"[{a}, {b}]"
        value = _reference_residual(fam, table, a, b, brackets[a, b]).constant_value()
        if value is None:
            return [label], None
        sign, entry = table.lookup(a, b) or (1, None)
        if entry is None or entry.name is None or entry.c.is_zero():
            if value:
                bad.add(label)
            continue
        per_generator.setdefault(entry.name, []).append(
            (label, value / (sign * entry.c)))
    for (first, d), *rest in per_generator.values():
        wrong = {label for label, other in rest if other != d}
        if wrong:
            bad |= wrong | {first}
    return sorted(bad), {g: rows[0][1] for g, rows in per_generator.items()}


def _perturbed(fam, table, rng):
    """``table`` with one or two entries changed, each still one term; half
    the picks are theta entries, whose residuals stay scalars."""
    entries = dict(table.entries)
    theta = [k for k in sorted(entries) if entries[k].name == "theta"]
    for _ in range(rng.randint(1, 2)):
        key = rng.choice(theta if rng.random() < 0.5 else sorted(entries))
        e, kind = entries[key], rng.randrange(4)
        if kind == 0:
            e = replace(e, c=_bumped(e.c, rng.choice((1, -1))))
        elif kind == 1:
            e = replace(e, c=e.c * rng.choice((Coef.gamma(), Coef.const(2))))
        elif kind == 2:
            e = replace(e, name=_neighbour(fam, e.name, rng))
        else:
            e = replace(e, name=None)
        entries[key] = e
    return RelationTable(table.name, table.scope, entries)


@pytest.mark.parametrize("build", [build_osc_l1, build_free_l1])
@pytest.mark.parametrize("gamma, xi", [(None, None), (2, Fraction(1, 3))])
def test_calibration_matches_per_generator_brute_force(build, gamma, xi):
    """On one-term perturbations of the l = 1 table, calibration raises
    naming exactly the pairs that disagree on some d_g, or returns the
    brute-force shifts, under which the table holds."""
    fam = build(gamma, xi)
    table = cga_l1_table(fam)
    brackets = {(a, b): commutator(fam[a], fam[b]) for a, b in table.pairs()}
    # every theta entry doubled: one consistent d_theta for the three of them
    doubled = RelationTable(table.name, table.scope, {
        k: replace(e, c=2 * e.c) if e.name == "theta" else e
        for k, e in table.entries.items()})
    rng = random.Random(2503)
    outcomes = set()
    for bad in [doubled] + [_perturbed(fam, table, rng) for _ in range(12)]:
        failing, shifts = _calibration_oracle(fam, bad, brackets)
        if failing:
            with pytest.raises(InconsistentSystem) as err:
                calibrate_constants(fam, bad)
            assert err.value.failing == failing
            outcomes.add("one pair" if len(failing) == 1 else "several pairs")
            continue
        deltas, report = calibrate_constants(fam, bad)
        assert report.ok and verify_table(fam.shifted(deltas), bad).ok
        assert {g: d for g, d in deltas.items() if d} == \
            {g: d for g, d in shifts.items() if d}
        outcomes.add("shifts")
    assert outcomes == {"one pair", "several pairs", "shifts"}


def test_one_term_comparator():
    """``_is_multiple`` on its own: a coefficient gamma^a xi^b shifts g's
    blocks, a g off the bracket's lattice is no match, and c = 0 asks the
    bracket to vanish."""
    fam = build_osc_l1()
    core, w0 = _commutator_core(fam["v0"], fam["q"]), fam["w0"]
    g_over_x = Coef.gamma() / Coef.xi()
    assert _is_multiple(core, w0, g_over_x)  # [v0, q] = (gamma/xi) w0
    assert _is_multiple(core, w0.scaled(2), g_over_x * Fraction(1, 2))
    for c in (Coef.gamma(), -g_over_x, g_over_x * 2, Coef.const(1), COEF_ZERO):
        assert not _is_multiple(core, w0, c)
    table = VarTable(("x",), (RAT,))
    x = lambda p: WeylElement.var(table, "x", p)  # noqa: E731
    d = WeylElement.deriv(table, "x")
    one = WeylElement.const(table, 1)
    assert _is_multiple(_commutator_core(d, x(1)), one, Coef.const(1))
    assert not _is_multiple(_commutator_core(d, x(1)), x(Fraction(1, 2)), Coef.const(1))
    assert not _is_multiple(_commutator_core(d, x(2)), x(Fraction(1, 2)), Coef.const(2))
    assert _is_multiple(_commutator_core(x(1), x(2)), one, COEF_ZERO)
    assert _is_multiple(_commutator_core(x(1), x(2)), WeylElement.zero(table),
                        Coef.const(1))
    assert not _is_multiple(_commutator_core(d, x(1)), one, COEF_ZERO)


def test_bracket_residual_against_a_wider_g():
    """When g's stored packed form is wider than the bracket's, the
    bracket's sums are widened to it before they are compared."""
    table = VarTable(("x",), (NAT,))
    x, d = WeylElement.var(table, "x"), WeylElement.deriv(table, "x")
    half_x2 = WeylElement.var(table, "x", 2).scaled(Fraction(1, 2))
    g = WeylElement.var(table, "x")
    mul(g, WeylElement.var(table, "x", 300))  # stores g's form at a wider width
    assert g._packed[1][2] > _commutator_core(d, half_x2)[3]
    assert bracket_residual(d, half_x2, g, 1) is None
    assert bracket_residual(d, half_x2, g, 2) == -x


def test_bracket_residual_is_none_or_the_built_residual():
    """``bracket_residual`` gives None exactly when [a, b] = c * g, and
    otherwise the element [a, b] - c * g, text included, also where g's
    unit does not divide the bracket's and where c is zero."""
    fam = build_osc_l1()
    names = list(fam.order)
    table = VarTable(("x",), (RAT,))
    x = lambda p: WeylElement.var(table, "x", p)  # noqa: E731
    d = WeylElement.deriv(table, "x")
    cases = [(d, x(1), WeylElement.const(table, 1), Coef.const(1)),
             (d, x(2), x(Fraction(1, 2)), Coef.const(2)),
             (d, x(Fraction(3, 2)), x(Fraction(1, 2)), Coef.const(Fraction(3, 2))),
             (x(1), x(2), x(1), COEF_ZERO),
             (d, x(1), x(1), COEF_ZERO)]
    rng = random.Random(719)
    for _ in range(40):
        a, b, g = (fam[rng.choice(names)] for _ in range(3))
        cases.append((a, b, g, rng.choice((COEF_ZERO, Coef.const(-1), Coef.gamma(),
                                            Coef.gamma() / Coef.xi()))))
    held = set()
    for a, b, g, c in cases:
        expected = commutator(a, b) - g.scaled(c)
        got = bracket_residual(a, b, g, c)
        held.add(got is None)
        if got is None:
            assert expected.is_zero()
        else:
            assert got == expected and got.text() == expected.text()
            assert not got.is_zero()
    assert held == {True, False}


def test_bracket_residual_matches_the_reference_bracket():
    """On random pairs, ``bracket_residual(a, b, g, c)`` is None exactly when
    the reference [a, b] - c * g vanishes, and is that element otherwise.
    The pairs include ones that meet only through d[t] past e^(w*t), ones
    with fractional exponents, and ones whose slot supports are disjoint,
    with c * g zero and nonzero; a disjoint pair packs neither operand."""
    rng = random.Random(3301)
    t = TIME_TABLE

    def only(table, names, **kw):
        """A random element whose slots are all among ``names`` (and time)."""
        sub = VarTable(names, tuple(table.domains[table.index(n)] for n in names),
                       table.has_time)
        return remap(random_element(sub, rng, **kw), table)

    dt, e2 = WeylElement.time_deriv(t), WeylElement.exp_t(t, 2)
    y, dx = WeylElement.var(t, "y"), WeylElement.deriv(t, "x")
    cases = [(mul(y, dt), mul(e2, dx)),   # meets only through d[t] past e^(2t)
             (mul(e2, dx), mul(y, dt))]
    for _ in range(30):
        cases.append((random_element(t, rng, weights=(0, 1, -2)),
                      random_element(t, rng, weights=(0, 1, -2))))
        cases.append(tuple(random_element(RAT_TABLE, rng, weights=(0, Fraction(1, 2)),
                                          powers=RAT_EXPONENT_POOL) for _ in range(2)))
        cases.append((only(PLAIN_TABLE, ("x",)), only(PLAIN_TABLE, ("y", "u"))))
        cases.append((only(RAT_TABLE, ("x",), powers=RAT_EXPONENT_POOL),
                      only(RAT_TABLE, ("y",), powers=RAT_EXPONENT_POOL)))
    held, disjoint = set(), set()
    for a, b in cases:
        g = random_element(a.table, rng)
        for c in (COEF_ZERO, rng.choice(COEF_POOL)):
            a, b = (WeylElement(e.table, e.terms) for e in (a, b))  # unpacked
            bracket = reference_mul(a, b) - reference_mul(b, a)
            expected = bracket - g.scaled(c)
            got = bracket_residual(a, b, g, c)
            held.add(got is None)
            assert (got is None) == expected.is_zero()
            if got is not None:
                assert got == expected and got.text() == expected.text()
            if bracket.is_zero() and a._packed is None and b._packed is None:
                disjoint.add(c.is_zero())
    assert held == {True, False} and disjoint == {True, False}
    a, b = cases[0]
    assert bracket_residual(a, b, e2, 1) is not None
    assert bracket_residual(a, b, mul(y, mul(e2, dx)), 2) is None


def test_disjoint_supports_keep_the_checks_of_the_kernel():
    """A support-disjoint bracket still rejects operands over two tables,
    and an undecoded ``apply_to`` operand is not decoded for the test."""
    x = WeylElement.var(PLAIN_TABLE, "x")
    with pytest.raises(ValueError, match="different variable tables"):
        bracket_residual(x, WeylElement.var(TIME_TABLE, "y"), x, 1)
    state = apply_to(WeylElement.var(PLAIN_TABLE, "y"), x)
    assert type(state) is _Undecoded
    assert bracket_residual(state, WeylElement.deriv(PLAIN_TABLE, "u"), x, 0) is None
    assert type(state) is _Undecoded
    assert bracket_residual(WeylElement.deriv(PLAIN_TABLE, "x"), state,
                            WeylElement.var(PLAIN_TABLE, "y"), 1) is None


def test_missing_generator_on_the_right_side_is_rejected():
    """A right side naming a generator the family lacks raises, also with a
    zero coefficient, for a pair whose bracket it would then match."""
    fam = build_xi0(2, 3, cutoff=2)
    table = xi0_loop_table(fam)
    a, b = "j0(0)", "chi(1)"
    entry = table.entries[a, b]
    assert entry.c.is_zero()
    for c in (COEF_ZERO, Coef.const(1)):
        bad = RelationTable(table.name, (a, b),
                            {(a, b): replace(entry, c=c, name="ghost(1)")})
        with pytest.raises(UnknownGenerator):
            verify_table(fam, bad)
