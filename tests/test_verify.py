"""Verification machinery: tables, calibration, on-shell witnesses, maps."""
from fractions import Fraction

import pytest

from cgaweyl import verify
from cgaweyl.scalar import COEF_ZERO, Coef
from cgaweyl.weyl import WeylElement, commutator, mul, parse_element
from cgaweyl.realizations import (
    build_free_general,
    build_free_l1,
    build_ladder,
    build_osc_l1,
    build_triplet,
    build_xi0,
    closed_form_triplet,
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
    zplus_sign_report,
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


def test_calibration_computes_each_commutator_once(monkeypatch):
    """The shifted right-hand sides are checked against the commutators of
    the first pass: each equals the one recomputed on the shifted family,
    and the report is the shifted family's table report, with the entries
    the shifts fix marked calibrated."""
    fam = build_free_l1()
    table = cga_l1_table(fam)
    calls = []
    original = verify.commutator
    monkeypatch.setattr(verify, "commutator",
                        lambda a, b: calls.append((a, b)) or original(a, b))
    deltas, report = calibrate_constants(fam, table)
    monkeypatch.undo()
    pairs = list(table.pairs())
    assert len(calls) == len(pairs) == 66
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
    entries[("z0", "z+")] = RelationEntry("z0", "z+",
                                          ((Coef.const(2), "z+"),), COEF_ZERO)
    bad = RelationTable(table.name, table.scope, entries)
    with pytest.raises(InconsistentSystem) as err:
        calibrate_constants(fam, bad)
    assert "[z+, z0]" in str(err.value.failing) or "[z0, z+]" in str(err.value.failing)


def test_scalar_corruption_reports_minimal_subset():
    # shifting a central term by a constant is unfixable: theta has no delta
    # freedom that enters [v+1, w-1] without breaking [v0, w0]
    fam = build_osc_l1()
    table = cga_l1_table(fam)
    entries = dict(table.entries)
    entries[("v+1", "w-1")] = RelationEntry("v+1", "w-1",
                                            ((Coef.const(-2), "theta"),),
                                            Coef.const(5))
    entries[("v0", "w0")] = RelationEntry("v0", "w0",
                                          ((Coef.const(1), "theta"),), COEF_ZERO)
    bad = RelationTable(table.name, table.scope, entries)
    with pytest.raises(InconsistentSystem) as err:
        calibrate_constants(fam, bad)
    failing = set(err.value.failing)
    assert "[v+1, w-1]" in failing


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


def test_zplus_sign_report():
    rep = zplus_sign_report(2)
    assert rep == {"printed_minus_dtau": False, "plus_dtau": True}


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


def test_require_onshell_factor():
    from cgaweyl.verify import FactorizationFailed, require_onshell_factor
    fam = build_osc_l1()
    trip = build_triplet(fam)
    f = require_onshell_factor(fam["z-"], trip.plus)
    assert f == 2 * WeylElement.exp_t(fam.table, 1)
    from cgaweyl.realizations import deformed_degree0
    with pytest.raises(FactorizationFailed):
        require_onshell_factor(fam["w+1"], deformed_degree0(fam, 2))


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
    from cgaweyl.realizations import InvariantTriplet
    trip = build_triplet(build_osc_l1())
    broken = InvariantTriplet(2 * trip.plus, trip.zero, trip.minus)
    report = verify_sl2(broken, 1)
    assert not report.ok
    assert entry_by_lhs(report, "[Omega+1, Omega-1]").status == FAILED


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
        sign, entry = found
        expected = WeylElement.zero(fam.table)
        for c, name in entry.rhs:
            expected = expected + fam[name].scaled(sign * c)
        residual = commutator(fam[a], fam[b]) - expected
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
    """extract_scalar_factor gives up when its fuel runs out, which can only
    turn a PASS into a FAIL; every on-shell pair that ``cgaweyl all`` checks
    (symbolic gamma, cutoff 3) must still factor within the budget."""
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
