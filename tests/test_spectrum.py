"""Lowest-weight spectra: ground states, eigenstates, degeneracies, probes."""
import itertools
import random
from fractions import Fraction

import pytest

from cgaweyl.weyl import NAT, VarTable, WeylElement, apply_to, parse_element
from cgaweyl.realizations import (
    LadderSet,
    build_H,
    build_free_l1,
    build_ladder,
    build_osc_l1,
    build_xi0,
)
from cgaweyl.spectrum import (
    NotEigenstate,
    ZeroState,
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


def test_ground_state_osc():
    ok, offender = ground_state_verify(build_osc_l1())
    assert ok and offender is None


def test_ground_state_ladder():
    ok, offender = ground_state_verify(build_ladder(3))
    assert ok and offender is None


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
])
def test_eigencheck_certifies_term_by_term(H, psi, expected):
    H, psi = parse_element(H, EULER_TABLE), parse_element(psi, EULER_TABLE)
    assert eigencheck(H, psi) == expected


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
    if isinstance(target, LadderSet):
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
    assert psi == parse_element("(1) * x1 + (-1) * tau * u", ladder.family.table)
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
