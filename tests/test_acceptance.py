"""Acceptance suite: one test per criterion, every tolerance zero.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Runtime bounds are asserted where stated.
"""
import json
import random
import time
from fractions import Fraction
from itertools import combinations

from cgaweyl.scalar import Coef
from cgaweyl.weyl import WeylElement, apply_to, commutator, mul
from cgaweyl.realizations import (
    build_H,
    build_free_general,
    build_free_l1,
    build_ladder,
    build_osc_l1,
    build_triplet,
    build_xi0,
    loop_name,
)
from cgaweyl.spectrum import (
    at_time_zero,
    build_state,
    continuous_probe,
    eigencheck,
    ground_state_verify,
    ladder_relations_check,
    spectrum_table,
)
from cgaweyl.verify import (
    CALIBRATED,
    EXACT,
    calibrate_constants,
    cga_l1_table,
    expected_onshell_factors,
    omega_rigidity_check,
    onshell_check,
    verify_general_invariant,
    verify_similarity,
    verify_sl2,
    verify_subalgebra_structure,
    verify_table,
)

from helpers import PLAIN_TABLE, random_element, random_state


def report_line(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_osc_structure_constants():
    t0 = time.perf_counter()
    fam = build_osc_l1()                    # symbolic gamma, xi
    report = verify_table(fam, cga_l1_table(fam))
    elapsed = time.perf_counter() - t0
    ok = report.ok and report.counts[EXACT] == len(report.entries) \
        and elapsed < 5.0
    report_line(1, ok, f"osc-l1 table: {report.counts[EXACT]}/"
                       f"{len(report.entries)} exact in {elapsed:.2f}s")


def test_criterion_2_free_structure_constants_after_calibration():
    t0 = time.perf_counter()
    fam = build_free_l1()                   # symbolic, printed constants
    deltas, report = calibrate_constants(fam, cga_l1_table(fam))
    elapsed = time.perf_counter() - t0
    nonzero = {k: v.text() for k, v in deltas.items() if not v.is_zero()}
    ok = report.ok and nonzero == {"z0": "-2"} \
        and report.counts[CALIBRATED] >= 1 and elapsed < 5.0
    report_line(2, ok, f"free-l1 calibrated with shifts {nonzero} "
                       f"in {elapsed:.2f}s")


def test_criterion_3_onshell_witnesses():
    ok = True
    detail = []
    for fam in (build_osc_l1(), build_free_l1(verbatim=False)):
        trip = build_triplet(fam)
        report = onshell_check(fam.generators, trip.named(), fam.name,
                               expected_onshell_factors(fam))
        ok &= report.ok
        detail.append(f"{fam.name}: {report.counts[EXACT]}/"
                      f"{len(report.entries)}")
    free = build_free_l1(verbatim=False)
    trip = build_triplet(free)
    from cgaweyl.verify import extract_scalar_factor
    f = extract_scalar_factor(commutator(free["z-"], trip.plus), trip.plus)
    ok &= f == 2 * WeylElement.var(free.table, "tau")
    report_line(3, ok, "on-shell factors match the stated multipliers "
                       f"({'; '.join(detail)}; [z-, Omega+1] -> 2*tau)")


def test_criterion_4_sl2_closure():
    ok = verify_sl2(build_triplet(build_osc_l1()), 1).ok
    ok &= verify_sl2(build_triplet(build_free_l1(verbatim=False)), 1).ok
    for w1, w2 in ((1, 1), (2, 3)):
        fam = build_xi0(w1, w2)
        ok &= verify_sl2(build_triplet(fam), fam.params.omega2).ok
    report_line(4, ok, "sl(2) closes for both l=1 triplets and the xi=0 "
                       "triplet at (1,1) and (2,3)")


def test_criterion_5_omega_rigidity():
    osc = build_osc_l1()
    pass_at_1 = omega_rigidity_check(osc, 1).ok
    probe = omega_rigidity_check(osc, 2)
    broken = [e.lhs for e in probe.failing()]
    ok = pass_at_1 and not probe.ok and len(broken) > 0
    report_line(5, ok, f"deformed operator invariant at omega=1 only "
                       f"(omega=2 breaks {len(broken)} generators)")


def test_criterion_6_discrete_spectrum_l1():
    t0 = time.perf_counter()
    fam = build_osc_l1()                    # symbolic gamma, xi
    table = spectrum_table(fam, 6, 3)
    elapsed = time.perf_counter() - t0
    mults = table.level_multiplicity
    ok = table.ok and ground_state_verify(fam)[0] \
        and all(mults[Fraction(E)] == E + 1 for E in range(7)) \
        and elapsed < 10.0
    report_line(6, ok, f"H psi_(m,n,k) = (m+n) psi for m+n <= 6, k <= 3 "
                       f"({len(table.rows)} states, multiplicity E+1, "
                       f"{elapsed:.2f}s)")


def test_criterion_7_continuous_probe():
    H = build_H(build_osc_l1())
    values = {}
    for lam in (Fraction(0), Fraction(1), Fraction(7, 3), Fraction(-1, 4)):
        values[str(lam)] = continuous_probe(H, lam) == lam
    ok = all(values.values())
    report_line(7, ok, f"H y^lambda = lambda y^lambda for lambda in "
                       f"{sorted(values)}")


def test_criterion_8_general_ell():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for ell in (1, 2, 3, 4):
        inv = verify_general_invariant(ell)     # CCR, b0 = -a0d, Omega, Cartan
        ladder = build_ladder(ell)
        ok &= inv.ok and ground_state_verify(ladder)[0]
        table = spectrum_table(ladder, 6)
        ok &= table.ok
        detail.append(f"l={ell}: {len(table.rows)} states")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report_line(8, ok, "general-ell CCR + invariant identities + spectrum "
                       f"E = sum j(n_j+m_j) ({'; '.join(detail)}; "
                       f"{elapsed:.1f}s)")


def test_criterion_9_xi0_sector():
    fam = build_xi0(2, 3, cutoff=3)
    ok = all(flag for _, flag, _ in ladder_relations_check(fam))
    ok &= ground_state_verify(fam)[0]
    table = spectrum_table(fam, 5, 2)
    ok &= table.ok
    ok &= all(r.eigenvalue == 3 * r.quantum_numbers[0] + 2 * r.quantum_numbers[1]
              for r in table.rows)
    loops = verify_subalgebra_structure(fam)
    ok &= loops.ok
    ok &= commutator(fam["Omega"], fam[loop_name("theta", 1)]).is_zero()
    gens = {name: fam[name] for name in fam.order if "(" in name}
    onshell = onshell_check(gens, {"Omega": fam["Omega"]}, fam.name,
                            expected_onshell_factors(fam))
    ok &= onshell.ok
    report_line(9, ok, "xi=0 sector: ladder relations, spectrum 2m+3n, "
                       f"loop algebra ({loops.counts[EXACT]} exact pairs), "
                       "kappa commutes, on-shell factors")


def test_criterion_10_similarity_map():
    report = verify_similarity()
    statuses = {e.lhs: e.status for e in report.entries}
    mismatches = [k for k, v in statuses.items()
                  if v not in (EXACT, "constant-shift")]
    shifts = {k: v for k, v in statuses.items() if v == "constant-shift"}
    ok = len(report.entries) == 15 and not mismatches \
        and set(shifts) == {"z0"}
    report_line(10, ok, "similarity map: 14 exact, z0 up to the documented "
                        "additive constant, no mismatches")


def _jacobi_all_triples(gens: dict) -> bool:
    names = list(gens)
    pairwise = {(a, b): commutator(gens[a], gens[b])
                for a, b in combinations(names, 2)}
    for a, b, c in combinations(names, 3):
        total = commutator(pairwise[(a, b)], gens[c]) \
            + commutator(pairwise[(b, c)], gens[a]) \
            - commutator(pairwise[(a, c)], gens[b])
        if not total.is_zero():
            return False
    return True


def test_criterion_11a_jacobi_on_every_built_family():
    families = [build_free_l1(), build_osc_l1()]
    families += [build_free_general(ell, verbatim=False) for ell in (1, 2, 3, 4)]
    families.append(build_xi0(2, 3, cutoff=1))
    ok = True
    for fam in families:
        ok &= _jacobi_all_triples(fam.generators)
    # the N=3 truncation is sampled (its C(78,3) = 76,076 triples are
    # redundant with N=1)
    fam3 = build_xi0(2, 3, cutoff=3)
    rng = random.Random(20240809)
    names = list(fam3.order)
    for _ in range(300):
        a, b, c = rng.sample(names, 3)
        total = commutator(commutator(fam3[a], fam3[b]), fam3[c]) \
            + commutator(commutator(fam3[b], fam3[c]), fam3[a]) \
            + commutator(commutator(fam3[c], fam3[a]), fam3[b])
        ok &= total.is_zero()
    report_line(11, ok, "Jacobi identity exact on all generator triples of "
                        "every built family (xi0 N=3 sampled at 300 triples)")


def test_criterion_11b_randomized_property_suites():
    rng = random.Random(11081960)
    ok = True
    for _ in range(200):
        a = random_element(PLAIN_TABLE, rng)
        b = random_element(PLAIN_TABLE, rng)
        c = random_element(PLAIN_TABLE, rng)
        ok &= mul(mul(a, b), c) == mul(a, mul(b, c))
        f = random_state(PLAIN_TABLE, rng)
        ok &= apply_to(mul(a, b), f) == apply_to(a, apply_to(b, f))
    report_line(11, ok, "mul associativity and apply composition on 200 "
                        "randomized bounded elements")


def test_criterion_11c_report_determinism(tmp_path):
    from cgaweyl.cli import main
    argv = ["verify", "--family", "xi0", "--omega1", "2", "--omega2", "3",
            "--cutoff", "2"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    same = a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    report_line(11, same and doc["ok"], "reruns emit byte-identical reports")
