"""Lowest-weight spectra: ground states, eigenstates, degeneracies, probes."""
import itertools
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from cgaweyl.scalar import Coef
from cgaweyl.weyl import (NAT, RAT, VarTable, WeylElement, _apply_core,
                          _term_count, apply_to, parse_element, remap)
from cgaweyl.realizations import (
    build_H,
    build_free_general,
    build_free_l1,
    build_ladder,
    build_osc_l1,
    build_xi0,
)
from cgaweyl.spectrum import (
    NotEigenstate,
    ZeroState,
    _ladder,
    _state_walk,
    _table_states,
    at_time_zero,
    build_state,
    build_state_general,
    continuous_probe,
    eigencheck,
    ground_state_verify,
    ladder_relations_check,
    spectrum_table,
)

from helpers import (assert_packed, check_canonical, lattice_unit, reference_apply_to,
                     reference_eigencheck, split_form)


def test_ground_state_osc():
    ok, offender = ground_state_verify(build_osc_l1())
    assert ok and offender is None


def test_ground_state_ladder():
    ok, offender = ground_state_verify(build_ladder(3))
    assert ok and offender is None


def test_ground_state_verify_names_the_offender():
    """v0 plus a constant no longer kills 1; v+1 and w+1 still do."""
    fam = build_osc_l1().shifted({"v0": Coef.const(1)})
    assert ground_state_verify(fam) == (False, "v0")


@pytest.mark.parametrize("check", [
    ground_state_verify, ladder_relations_check,
    lambda fam: spectrum_table(fam, 2), build_H],
    ids=["ground_state_verify", "ladder_relations_check", "spectrum_table",
         "build_H"])
def test_unsupported_family_kind_raises(check):
    for fam in (build_free_l1(), build_free_general(2)):
        with pytest.raises(ValueError, match=fam.kind):
            check(fam)


def test_state_builders_reject_the_other_kind():
    with pytest.raises(ValueError, match="exponential-time"):
        build_state(build_ladder(1), 0, 0, 0)
    with pytest.raises(ValueError, match="ladder family"):
        build_state_general(build_osc_l1(), ((0, 0),))


def test_non_ground_state_detected():
    fam = build_osc_l1()
    x = WeylElement.var(fam.table, "x")
    # v+1 x != 0, so x cannot be the ground state
    assert not apply_to(at_time_zero(fam["v+1"]), x).is_zero()


def test_build_state_examples():
    fam = build_osc_l1()
    assert build_state(fam, 0, 0, 0) == WeylElement.const(fam.table, 1)
    assert build_state(fam, 1, 0, 0) == \
        parse_element("(2)/(xi) * y", fam.table)
    assert build_state(fam, 0, 1, 0) == \
        parse_element("(2*xi)/(gamma) * u + (-2)/(gamma) * x", fam.table)


def test_build_state_examples_at_unit_parameters():
    fam = build_osc_l1(1, 1)
    y = WeylElement.var(fam.table, "y")
    assert build_state(fam, 1, 0, 0) == 2 * y
    u, x = WeylElement.var(fam.table, "u"), WeylElement.var(fam.table, "x")
    assert build_state(fam, 0, 1, 0) == 2 * u - 2 * x


def test_eigencheck_examples():
    fam = build_osc_l1()
    H = at_time_zero(build_H(fam))
    assert eigencheck(H, build_state(fam, 1, 0, 0)) == 1
    assert eigencheck(H, build_state(fam, 2, 3, 5)) == 5
    mixed = WeylElement.var(fam.table, "x") + WeylElement.const(fam.table, 1)
    assert eigencheck(H, mixed) is None
    with pytest.raises(ZeroState):
        eigencheck(H, WeylElement.zero(fam.table))


EULER_TABLE = VarTable(("x", "y"), (NAT, NAT))


@pytest.mark.parametrize("H, psi, expected", [
    # eigenstate: x d[x] + y d[y] counts the degree
    ("(1) * x * d[x] + (1) * y * d[y]", "(1) * x^2 + (3) * x * y", Fraction(2)),
    # same keys, the y^2 coefficient off by a factor 2
    ("(1) * x * d[x] + (2) * y * d[y]", "(1) * x^2 + (1) * y^2", None),
    # the image has a key psi lacks
    ("(1) * x * d[x] + (1) * x", "(1) * x", None),
    # the image lacks a key of psi
    ("(1) * x * d[x]", "(1) * x + (1)", None),
    # the zero image is the eigenvalue 0
    ("(1) * d[x] + (1) * d[y]^2", "(5)", Fraction(0)),
    # a (gamma + xi) factor divides out exactly
    ("(1) * x * d[x] + (1) * y * d[y]", "(gamma + xi) * x^2 + (3*gamma) * x * y",
     Fraction(2)),
    # the x coefficient of the image, 2*gamma + xi, is no multiple of gamma + xi
    ("(1) * x * d[x] + (1) * y * d[y] + (1) * x * d[y]",
     "(gamma + xi) * x + (gamma) * y", None),
    # same blocks, but one block of the image lacks a key of psi's; the
    # two orders put the short block first and last
    ("(1) * x * d[x] + (1) * y * d[y]", "(1) * x^2 + (gamma) * y^2 + (gamma)",
     None),
    ("(1) * x * d[x] + (1) * y * d[y]", "(gamma) * x^2 + (1) * y^2 + (1)",
     None),
])
def test_eigencheck_certifies_term_by_term(H, psi, expected):
    H, psi = parse_element(H, EULER_TABLE), parse_element(psi, EULER_TABLE)
    assert eigencheck(H, psi) == expected
    assert reference_eigencheck(H, psi) == expected


def _probe(lam):
    """The continuous probe's operator and its state y^lam (osc-l1, symbolic)."""
    H = build_H(build_osc_l1())
    table = H.table.widened("y")
    return at_time_zero(remap(H, table)), WeylElement.var(table, "y", lam)


def _eigen_cases():
    """(label, H, psi) for the walked table states of each family, then the
    continuous probe's y^lambda for lambda in {1/3, -2/5, 4}."""
    for label, target, e_max, cutoff in (
            ("ladder-l1", build_ladder(1), 5, 1),
            ("ladder-l2", build_ladder(2), 4, 1),
            ("ladder-l3", build_ladder(3), 3, 1),
            ("osc-l1", build_osc_l1(), 4, 1),
            ("osc-l1(2,-3)", build_osc_l1(2, -3), 4, 1),
            ("xi0(2,3)", build_xi0(2, 3), 4, 1),
            ("xi0(3/2,5/7)", build_xi0(Fraction(3, 2), Fraction(5, 7)), 4, 1)):
        H = build_H(target)
        if _ladder(target).sliced:
            H = at_time_zero(H)
        for qn, _, psi in _table_states(target, e_max, cutoff):
            yield f"{label} {qn}", H, psi
    for lam in (Fraction(1, 3), Fraction(-2, 5), Fraction(4)):
        yield f"probe {lam}", *_probe(lam)


def _perturbed(psi, rng):
    """psi, psi with one numerator of its split form raised by 1, psi with
    one term dropped, and psi scaled by gamma, gamma + xi and -7/3."""
    yield "psi", psi
    key = rng.choice(list(psi.terms))
    c = psi.terms[key]
    blk = rng.choice(list(c.terms))
    bumped = dict(psi.terms)
    bumped[key] = Coef({**c.terms, blk: c.terms[blk] + Fraction(1, split_form(psi)[1])})
    yield "numerator+1", WeylElement(psi.table, bumped)
    dropped = dict(psi.terms)
    del dropped[key]
    yield "dropped", WeylElement(psi.table, dropped)
    for factor in (Coef.gamma(), Coef.gamma() + Coef.xi(), Fraction(-7, 3)):
        yield "scaled", psi.scaled(factor)


def _outcome(check, H, psi):
    """``check(H, psi)`` with its type, or ZeroState when it raises that."""
    try:
        value = check(H, psi)
    except ZeroState:
        return ZeroState
    return type(value), value


def test_eigencheck_matches_coef_reference():
    """On the split form, eigencheck returns exactly what the Coef-level
    reference returns, on eigenstates and on perturbed states alike, and
    on each unperturbed state under H times gamma and H times gamma + xi,
    whose image is a non-rational multiple of psi."""
    rng = random.Random(1501)
    seen, last_H, ops = Counter(), None, []
    for label, H, psi in _eigen_cases():
        # _eigen_cases yields each H's states in a row; last_H keeps the H
        # that ops belong to alive, so an `is` test cannot match a new H
        # that reuses a dropped one's address
        if H is not last_H:
            last_H, ops = H, [(H.scaled(Coef.gamma()), "H*gamma"),
                              (H.scaled(Coef.gamma() + Coef.xi()), "H*(gamma+xi)")]
        cases = [(H, how, state) for how, state in _perturbed(psi, rng)]
        cases += [(op, how, psi) for op, how in ops]
        for op, how, state in cases:
            got = _outcome(eigencheck, op, state)
            assert got == _outcome(reference_eigencheck, op, state), (label, how)
            seen[how, "zero state" if got is ZeroState
                 else "none" if got[1] is None else "value"] += 1
    # every unperturbed or rescaled state is an eigenstate; the other
    # perturbations reach both other outcomes
    assert set(seen) >= {("psi", "value"), ("numerator+1", "none"),
                         ("dropped", "none"), ("dropped", "zero state"),
                         ("scaled", "value"), ("H*gamma", "none"),
                         ("H*(gamma+xi)", "none")}
    assert not {("psi", "none"), ("scaled", "none")} & set(seen)


HALF_TABLE = VarTable(("x", "y"), (RAT, NAT))


def test_eigencheck_rescales_psi_to_the_call_unit():
    """H has unit 2 (x^(1/2)), psi = x^2 unit 1: psi's keys are rescaled."""
    x, half = WeylElement.var(HALF_TABLE, "x"), Fraction(1, 2)
    H = (x * WeylElement.deriv(HALF_TABLE, "x")
         + WeylElement.var(HALF_TABLE, "x", half) * WeylElement.deriv(HALF_TABLE, "y"))
    psi = WeylElement.var(HALF_TABLE, "x", 2)
    assert psi == x * x
    assert psi._lattice == 1 and _apply_core(H, psi)[2] == 2
    assert psi._packed.keys() == {2}
    assert eigencheck(H, psi) == reference_eigencheck(H, psi) == 2
    assert type(eigencheck(H, psi)) is Fraction
    off = psi + WeylElement.var(HALF_TABLE, "x", half)
    assert eigencheck(H, off) is reference_eigencheck(H, off) is None


def test_eigencheck_on_fraction_valued_sums():
    """The continuous probe at fractional lambda sums Fraction numerators."""
    for lam in (Fraction(1, 3), Fraction(-2, 5)):
        H, psi = _probe(lam)
        sums, _, unit, _, _ = _apply_core(H, psi)
        assert unit == lam.denominator
        assert any(type(n) is Fraction for block in sums.values()
                   for n in block.values())
        assert eigencheck(H, psi) == reference_eigencheck(H, psi) == lam
        shifted = psi + WeylElement.var(psi.table, "y", lam + 1)
        assert eigencheck(H, shifted) is reference_eigencheck(H, shifted) is None


def test_eigencheck_scaling_invariance():
    fam = build_osc_l1()
    H = at_time_zero(build_H(fam))
    psi = build_state(fam, 2, 1, 1)
    from cgaweyl.scalar import Coef
    assert eigencheck(H, psi.scaled(Coef.gamma())) == 3
    assert eigencheck(H, psi.scaled(Coef.gamma() + Coef.xi())) == 3
    assert eigencheck(H, psi.scaled(Fraction(-7, 3))) == 3


def test_eigenvalue_additivity_symbolic():
    fam = build_osc_l1()
    H = at_time_zero(build_H(fam))
    for m in range(9):
        for n in range(9 - m):
            for k in range(9 - m - n):
                assert eigencheck(H, build_state(fam, m, n, k)) == m + n


def test_zero_mode_insensitivity():
    fam = build_osc_l1()
    H = at_time_zero(build_H(fam))
    for k in range(4):
        assert eigencheck(H, build_state(fam, 2, 1, k)) == 3


def test_exchange_consistency():
    """The eigenvalue depends only on the multiset of creation operators."""
    fam = build_osc_l1()
    H = at_time_zero(build_H(fam))
    psi0 = WeylElement.const(fam.table, 1)
    orders = [("v-1", "w-1", "w0"), ("w0", "v-1", "w-1"), ("w-1", "w0", "v-1")]
    for order in orders:
        psi = psi0
        for name in order:
            psi = apply_to(fam[name], psi)
        assert eigencheck(H, at_time_zero(psi)) == 2


def test_spectrum_table_l1_multiplicities():
    fam = build_osc_l1()
    table = spectrum_table(fam, 4, 2)
    assert table.ok
    mults = table.level_multiplicities()
    for E in range(5):
        assert mults[Fraction(E)] == E + 1


def test_spectrum_table_general_l2_example():
    ladder = build_ladder(2)
    table = spectrum_table(ladder, 4)
    assert table.ok
    # the state (n1, m1, n2, m2) = (0, 0, 1, 1) sits at E = 2 (1 + 1) = 4
    row = next(r for r in table.rows if r.quantum_numbers == (0, 0, 1, 1, 0))
    assert row.eigenvalue == 4
    levels = {r.eigenvalue for r in table.rows}
    assert levels == {Fraction(E) for E in range(5)}


def test_spectrum_general_zero_modes():
    ladder = build_ladder(2)
    table = spectrum_table(ladder, 2, zero_mode_cutoff=2)
    assert table.ok
    by_k = {r.quantum_numbers: r.eigenvalue for r in table.rows}
    assert by_k[(1, 0, 0, 0, 0)] == by_k[(1, 0, 0, 0, 2)] == 1


def test_two_frequency_spectrum():
    fam = build_xi0(2, 3)
    table = spectrum_table(fam, 5, 1)
    assert table.ok
    for row in table.rows:
        m, n, _ = row.quantum_numbers
        assert row.eigenvalue == 3 * m + 2 * n
    levels = {r.eigenvalue for r in table.rows}
    expected = {Fraction(2 * a + 3 * b) for a in range(6) for b in range(6)
                if a + b <= 5}
    assert levels == expected


def _from_ground(target, qn):
    """The row's state rebuilt from the ground state by the public builders."""
    if target.kind == "ladder":
        occ = tuple(zip(qn[0:-1:2], qn[1:-1:2]))
        return build_state_general(target, occ, qn[-1])
    return build_state(target, *qn)


@pytest.mark.parametrize("target, e_max, cutoff, table_order", [
    # general ell: occupations (n1, m1, n2, m2) lexicographically, then k
    (build_ladder(2), 4, 1,
     [occ + (k,) for occ in itertools.product(range(5), repeat=4)
      if sum(occ[:2]) + 2 * sum(occ[2:]) <= 4 for k in range(2)]),
    # ell = 1: by m + n, then m, then k
    (build_osc_l1(), 4, 2,
     [(m, t - m, k) for t in range(5) for m in range(t + 1) for k in range(3)]),
    (build_xi0(2, 3), 4, 1,
     [(m, t - m, k) for t in range(5) for m in range(t + 1) for k in range(2)]),
], ids=["ladder-l2", "osc-l1", "xi0-2-3"])
def test_incremental_states_match_from_ground_builders(target, e_max, cutoff,
                                                       table_order):
    """Each walked state equals its from-ground build; row order is unchanged."""
    walked = list(_table_states(target, e_max, cutoff))
    assert sorted(qn for qn, _, _ in walked) == sorted(table_order)
    for qn, _, psi in walked:
        assert psi == _from_ground(target, qn), qn
    table = spectrum_table(target, e_max, cutoff)
    assert [r.quantum_numbers for r in table.rows] == table_order
    assert table.ok


def test_ladder_relations():
    assert all(ok for _, ok, _ in ladder_relations_check(build_osc_l1()))
    assert all(ok for _, ok, _ in ladder_relations_check(build_xi0(2, 3)))
    assert all(ok for _, ok, _ in ladder_relations_check(build_ladder(2)))


def test_general_states_keep_tau():
    """General-ell eigenstates are exact polynomial identities in tau too."""
    ladder = build_ladder(1)
    H = build_H(ladder)
    psi = build_state_general(ladder, ((0, 1),))      # one a_1^+ quantum
    assert psi == parse_element("(1) * x1 + (-1) * tau * u", ladder.table)
    assert eigencheck(H, psi) == 1


def test_continuous_probe_values():
    H = build_H(build_osc_l1())
    for lam in (Fraction(0), Fraction(1), Fraction(7, 3), Fraction(-1, 4)):
        assert continuous_probe(H, lam) == lam


def test_continuous_probe_range_guard():
    H = build_H(build_osc_l1())
    with pytest.raises(ValueError):
        continuous_probe(H, Fraction(-1, 2))


def test_continuous_probe_detects_broken_operator():
    fam = build_osc_l1()
    bad = build_H(fam) + WeylElement.var(fam.table, "x")
    with pytest.raises(NotEigenstate):
        continuous_probe(bad, Fraction(1, 3))


@pytest.mark.parametrize("build, e_max, k, rows", [
    (lambda: build_ladder(2), 5, 1, 100),
    (build_osc_l1, 4, 2, 45),
    (lambda: build_xi0(2, 3), 5, 1, 42),
], ids=["ladder", "osc-l1", "xi0"])
def test_spectrum_table_calls_the_public_kernels_once_per_row(monkeypatch, build,
                                                              e_max, k, rows):
    """Each table row costs one public apply_to from its parent state, the
    root excepted, and one public eigencheck: the calls that the benchmark's
    tracer counts."""
    import cgaweyl.spectrum as spectrum
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(spectrum, "apply_to", counted("apply_to", spectrum.apply_to))
    monkeypatch.setattr(spectrum, "eigencheck", counted("eigencheck", spectrum.eigencheck))
    table = spectrum_table(build(), e_max, k)
    assert table.ok and len(table.rows) == rows
    assert calls == {"apply_to": rows - 1, "eigencheck": rows}


# -- walk states decode their terms on first read ----------------------------

LAZY_WALKS = {
    "ladder-l1": (lambda: build_ladder(1), 5, 1),
    "ladder-l2": (lambda: build_ladder(2), 4, 1),
    "ladder-l3": (lambda: build_ladder(3), 3, 1),
    "osc-l1": (build_osc_l1, 4, 1),
    "osc-l1-at-2--3": (lambda: build_osc_l1(2, -3), 4, 1),
    "xi0-2-3": (lambda: build_xi0(2, 3), 4, 1),
    "xi0-3/2-5/7": (lambda: build_xi0(Fraction(3, 2), Fraction(5, 7)), 4, 1),
}


def _undecoded(e) -> bool:
    """Whether the ``terms`` slot of ``e`` is still unset; reading the slot
    itself does not fill it."""
    try:
        WeylElement.terms.__get__(e, WeylElement)
    except AttributeError:
        return True
    return False


def _walks(target, e_max, cutoff):
    """(stage operators, walk) for the table's walk and, on an ell = 1
    family, for the same walk before the t = 0 slice, whose states carry
    e^(w t) and run on units above 1 (two w-1 steps on xi0 (3/2, 5/7) give
    e^(3t) on unit 2).  Each walk is ``_state_walk`` on the stages that
    ``_table_states`` uses, from the constant 1 and from the constant
    gamma + xi: every coefficient of a table state has one term, so only
    the second root puts each key of a state in two blocks."""
    rec = _ladder(target)
    ops = [rec.family[name] for _, name, _, _ in rec.stages]
    variants = [[at_time_zero(op) for op in ops], ops] if rec.sliced else [ops]
    for stage_ops in variants:
        stages = [(op, pool, cost) for op, (_, _, pool, cost) in zip(stage_ops, rec.stages)]
        for value in (1, Coef.gamma() + Coef.xi()):
            root = WeylElement.const(target.table, value)
            yield stage_ops, _state_walk(root, stages, (cutoff, e_max))


@pytest.mark.parametrize("case", list(LAZY_WALKS), ids=list(LAZY_WALKS))
def test_walked_states_decode_on_first_read(case):
    """Each walked state, built by apply_to, holds its packed form and no
    terms yet.  Its term count (distinct keys across blocks) and its unit
    are read before decoding; then its decoded terms equal the chain of
    reference_apply_to calls that built it and are canonical, the count is
    their length, the packed form is a fresh packing of them and the unit
    is theirs; once decoded, a state is a plain WeylElement.  Some states
    hold a key in more than one block, and on xi0 (3/2, 5/7) some run on a
    unit above their own."""
    build, e_max, cutoff = LAZY_WALKS[case]
    target = build()
    units, shared = set(), False
    for ops, walk in _walks(target, e_max, cutoff):
        reference = {}
        for counts, psi in walk:
            if not any(counts):  # the root, the constant 1
                reference[counts] = psi
                continue
            last = max(i for i, c in enumerate(counts) if c)
            parent = counts[:last] + (counts[last] - 1,) + counts[last + 1:]
            reference[counts] = reference_apply_to(ops[last], reference[parent])
            assert _undecoded(psi)
            count, lattice = _term_count(psi), psi._lattice
            (unit, form), = psi._packed.items()
            assert psi.is_zero() == (count == 0)
            assert _undecoded(psi) and isinstance(psi, WeylElement)
            assert psi == reference[counts], counts
            assert type(psi) is WeylElement
            check_canonical(psi)
            assert count == len(psi.terms)
            assert_packed(psi, unit, form)
            assert lattice == lattice_unit(psi.terms)
            units.add((unit, lattice))
            shared |= len(form[0]) > 1 and count < sum(map(len, form[0].values()))
    assert shared
    if case == "xi0-3/2-5/7":
        assert any(unit > lattice for unit, lattice in units)


def test_a_zero_result_is_zero_before_it_is_decoded():
    """An annihilator applied to the ground state gives a result that is
    zero, and that eigencheck rejects as the zero state, while its terms
    are still unset; decoded, it is the empty map on unit 1."""
    for target in (build_ladder(2), build_osc_l1(),
                   build_xi0(Fraction(3, 2), Fraction(5, 7))):
        rec = _ladder(target)
        H = at_time_zero(build_H(target)) if rec.sliced else build_H(target)
        one = WeylElement.const(target.table, 1)
        for name in rec.annihilators:
            zero = apply_to(target[name], one)
            assert zero.is_zero() and not zero and _term_count(zero) == 0
            with pytest.raises(ZeroState):
                eigencheck(H, zero)
            assert _undecoded(zero)
            assert zero.terms == {} and zero._lattice == 1


def test_threads_decode_shared_states_alike():
    """Four threads that read ``terms`` of the same undecoded walk states
    at once, each in its own seeded order, each get the single-threaded
    term maps, and every state keeps one of them."""
    def states():  # each table's states but its root, the constant 1
        return [psi for target, e_max, cutoff in ((build_osc_l1(), 4, 1),
                                                  (build_ladder(2), 4, 1))
                for _, _, psi in list(_table_states(target, e_max, cutoff))[1:]]

    expected = [dict(psi.terms) for psi in states()]
    shared = states()
    assert all(_undecoded(psi) for psi in shared)
    rng = random.Random(613)
    orders = [rng.sample(range(len(shared)), len(shared)) for _ in range(4)]
    results, interval = {}, sys.getswitchinterval()

    def work(n):
        results[n] = {i: shared[i].terms for i in orders[n]}

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for n in range(4):
        assert [results[n][i] for i in range(len(shared))] == expected
    assert [psi.terms for psi in shared] == expected
