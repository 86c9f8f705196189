"""Coefficient ring: exact Laurent polynomials in gamma, xi over the rationals."""
import math
import operator
import random
from fractions import Fraction

import pytest

from cgaweyl.scalar import (
    COEF_ONE,
    Coef,
    DivisionByZero,
    NotDivisible,
    coef,
    join_blocks,
    split_blocks,
)
from helpers import (COEF_POOL, LAURENT_POOL, RATIONAL_POOL, random_coef,
                     random_point)


def test_like_term_addition():
    two_over_xi = Coef.const(2) / Coef.xi()
    assert two_over_xi + two_over_xi == Coef.const(4) / Coef.xi()


def test_inverse_pairs():
    g = Coef.gamma()
    assert (Coef.const(2) / g) * (g / Coef.const(2)) == COEF_ONE
    assert (Coef.const(1) / Coef.xi()) * Coef.xi() == COEF_ONE


def test_is_zero_via_cross_multiplication():
    x = Coef.xi()
    g = Coef.gamma()
    assert (x / x - Coef.const(1)).is_zero()
    assert not (g - x).is_zero()
    assert ((g * x - x * g) / x).is_zero()


def test_equality_ignores_representation():
    g, x = Coef.gamma(), Coef.xi()
    a = (Coef.const(2) * g) / (g * x)       # reducible representation
    b = Coef.const(2) / x
    assert a == b
    assert (g + x) / (g * x) == Coef.const(1) / g + Coef.const(1) / x


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Coef.const(1) / (Coef.xi() - Coef.xi())
    with pytest.raises(DivisionByZero):
        Coef.const(0).inv()


def test_instantiate_examples():
    two_over_xi = Coef.const(2) / Coef.xi()
    assert two_over_xi.instantiate(1, 1) == 2
    # a negative power met at a zero parameter
    with pytest.raises(DivisionByZero):
        two_over_xi.instantiate(1, 0)
    with pytest.raises(DivisionByZero):
        (Coef.xi() + Coef.gamma() ** -2).instantiate(0, 3)
    assert (Coef.gamma() * Coef.xi() + Coef.const(5)).instantiate(0, 0) == 5
    # the coefficient of the extra symmetry generator at gamma = xi = 1
    q_coef = Coef.xi() / (Coef.const(2) * Coef.gamma())
    assert q_coef.instantiate(1, 1) == Fraction(1, 2)


def test_as_fraction_detects_proportional_polynomials():
    g, x = Coef.gamma(), Coef.xi()
    c = (Coef.const(2) * g + Coef.const(2) * x) / (g + x)
    assert c.as_fraction() == 2
    assert (g / x).as_fraction() is None
    assert Coef.const(Fraction(-3, 7)).as_fraction() == Fraction(-3, 7)


def test_power_and_negative_power():
    g = Coef.gamma()
    assert g**3 == g * g * g
    assert (g**-2) * g * g == Coef.const(1)


def test_field_axioms_on_random_triples():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b, c = (random_coef(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a / b) * b == a


def test_division_is_exact_laurent_division():
    g, x = Coef.gamma(), Coef.xi()
    two = Coef.const(2)
    assert (two * g + two * x) / (g + x) == two
    assert ((two * g + two * x) / (g + x)).as_fraction() == 2
    assert (g * g - x * x) / (g + x) == g - x
    for bad in ((g, g + x), (COEF_ONE, g + x), (g + two, g * x - two),
                # lex order alone would never stop: gamma * xi^-n for every n
                (COEF_ONE + g, COEF_ONE + x)):
        with pytest.raises(NotDivisible):
            bad[0] / bad[1]
    with pytest.raises(NotDivisible):
        (g + x).inv()
    with pytest.raises(NotDivisible):
        (g + x) ** -1
    rng = random.Random(4243)
    pool = COEF_POOL + LAURENT_POOL
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(LAURENT_POOL)
        assert (a * b) / b == a
        if a.as_fraction() is not None:
            assert ((a * b) / b).as_fraction() == a.as_fraction()
        with pytest.raises(NotDivisible):
            (a * b + g ** 5) / b


def test_instantiate_is_a_ring_homomorphism():
    """At random nonzero rational points, instantiate commutes with + - *
    / scale ** inv and ==, on monomials and on multi-term values."""
    rng = random.Random(77)
    pool = COEF_POOL + LAURENT_POOL
    for _ in range(300):
        a, b = rng.choice(pool), rng.choice(pool)
        point = random_point(rng)
        va, vb = a.instantiate(*point), b.instantiate(*point)
        assert (a + b).instantiate(*point) == va + vb
        assert (a - b).instantiate(*point) == va - vb
        assert (a * b).instantiate(*point) == va * vb
        assert ((a * b) / b).instantiate(*point) == va
        q = rng.choice(RATIONAL_POOL + (0,))
        assert a.scale(q).instantiate(*point) == va * q
        n = rng.randint(0, 3)
        assert (a ** n).instantiate(*point) == va ** n
        if len(b.terms) == 1:
            assert (a / b).instantiate(*point) == va / vb
            assert b.inv().instantiate(*point) == 1 / vb
            assert (b ** -n).instantiate(*point) == vb ** -n
        others = [random_point(rng) for _ in range(3)]
        assert (a == b) == all(a.instantiate(*p) == b.instantiate(*p)
                               for p in [point] + others)


def test_coef_text_orders_terms_and_clears_negative_powers():
    c = Coef({(2, 0): 2, (0, 1): Fraction(-1, 3), (0, 0): 1})
    assert c.text() == "2*gamma^2 - 1/3*xi + 1"
    assert c.wrapped_text() == "(2*gamma^2 - 1/3*xi + 1)"
    # den = gamma^1 * xi^2 clears the negative powers; num is the value times den
    c = Coef.gamma() ** -1 + Coef.const(3) * Coef.xi() ** -2 - Coef.gamma()
    assert c.text() == c.wrapped_text() == "(-gamma^2*xi^2 + 3*gamma + xi^2)/(gamma*xi^2)"
    assert c.num.terms == {(2, 2): -1, (1, 0): 3, (0, 2): 1}
    assert c.den.terms == {(1, 2): 1}
    # positive powers common to every term stay in the numerator
    c = Coef.const(4) * Coef.gamma() ** 2 * Coef.xi()
    assert (c.text(), c.den.terms) == ("4*gamma^2*xi", {(0, 0): 1})
    assert Coef.const(0).text() == "0" and Coef.const(0).wrapped_text() == "(0)"


def test_coerce_rejects_floats():
    with pytest.raises(TypeError):
        coef(0.5)


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


def test_split_and_join_blocks_round_trip():
    """Laurent values split into int numerators per gamma^a * xi^b block,
    over the lcm of all their rational coefficients' denominators, and join
    back into the same Coefs, text included."""
    rng = random.Random(4241)
    pool = COEF_POOL + LAURENT_POOL + tuple(Coef.const(q) for q in RATIONAL_POOL)
    for _ in range(200):
        terms = {}
        for i in range(rng.randint(0, 4)):
            c = rng.choice(pool)
            if rng.random() < 0.4:
                c = c + rng.choice(pool) * rng.choice(pool)
            terms[i] = c
        blocks, den = split_blocks(terms)
        rationals = [v for c in terms.values() for v in c.terms.values()]
        assert den == math.lcm(1, *(q.denominator for q in rationals))
        assert all(type(n) is int for block in blocks.values()
                   for n in block.values())
        back = join_blocks(blocks, den)
        assert back.keys() == {i for i, c in terms.items() if c}
        for i, c in back.items():
            assert c == terms[i]
            assert c.text() == terms[i].text()
            assert all(type(v) is Fraction for v in c.terms.values())
    assert split_blocks({}) == ({}, 1)


def test_join_blocks_drops_zero_sums_and_reduces_the_denominator():
    g, x = Coef.gamma(), Coef.xi()
    joined = join_blocks({(0, 0): {"a": 0, "b": 3, "c": 0},
                          (-1, 0): {"a": 0, "b": 0, "c": 2},
                          (1, -2): {"c": Fraction(1, 2)}}, 6)
    assert joined.keys() == {"b", "c"}
    assert joined["b"].text() == Coef.const(Fraction(1, 2)).text() == "1/2"
    expected = Coef.const(Fraction(1, 3)) / g + g / (Coef.const(12) * x * x)
    assert joined["c"].text() == expected.text() == "(1/12*gamma^2 + 1/3*xi^2)/(gamma*xi^2)"
    assert join_blocks({(0, 0): {"a": Fraction(3, 2)}}, 9)["a"] == \
        Coef.const(Fraction(1, 6))
    assert join_blocks({(2, 1): {"a": 4}}, 1)["a"].text() == (
        Coef.const(4) * g * g * x).text() == "4*gamma^2*xi"


def test_constant_and_symbolic_operands_mix():
    """A plain int or Fraction on either side of + - * / acts as its
    ``Coef.const``, and the result instantiates to the rational operation."""
    rng = random.Random(4247)
    pool = COEF_POOL + LAURENT_POOL
    for _ in range(200):
        q, c = rng.choice(RATIONAL_POOL), rng.choice(pool)
        point = random_point(rng)
        vc = c.instantiate(*point)
        for sym, op in OPS.items():
            pairs = [((q, c), (Coef.const(q), c), (q, vc)),
                     ((c, q), (c, Coef.const(q)), (vc, q))]
            for (x, y), (cx, cy), (vx, vy) in pairs:
                if sym == "/" and len(cy.terms) > 1:
                    with pytest.raises(NotDivisible):
                        op(x, y)
                    continue
                got = op(x, y)
                assert got == op(cx, cy)
                assert got.text() == op(cx, cy).text()
                assert got.instantiate(*point) == op(vx, vy)
    assert type((Coef.const(3) / 2).as_fraction()) is Fraction
