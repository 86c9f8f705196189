"""Coefficient field: exact arithmetic in gamma, xi over the rationals."""
import math
import operator
import random
from fractions import Fraction

import pytest

from cgaweyl.scalar import (
    Coef,
    DenominatorVanishes,
    DivisionByZero,
    ParamPoly,
    coef,
    join_blocks,
    split_blocks,
)
from helpers import COEF_POOL, RATIONAL_POOL, disguised, random_coef


def test_like_term_addition():
    two_over_xi = Coef.const(2) / Coef.xi()
    assert two_over_xi + two_over_xi == Coef.const(4) / Coef.xi()


def test_inverse_pairs():
    g = Coef.gamma()
    assert ((Coef.const(2) / g) * (g / Coef.const(2))).is_one()
    assert ((Coef.const(1) / Coef.xi()) * Coef.xi()).is_one()


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
    with pytest.raises(DenominatorVanishes):
        two_over_xi.instantiate(1, 0)
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


def test_instantiate_is_a_ring_homomorphism():
    rng = random.Random(77)
    points = [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(-3)),
              (Fraction(1, 2), Fraction(5, 3))]
    for _ in range(100):
        a, b = random_coef(rng), random_coef(rng)
        gv, xv = rng.choice(points)
        assert (a * b).instantiate(gv, xv) == \
            a.instantiate(gv, xv) * b.instantiate(gv, xv)
        assert (a + b).instantiate(gv, xv) == \
            a.instantiate(gv, xv) + b.instantiate(gv, xv)


def test_parampoly_text_and_lead():
    p = ParamPoly({(2, 0): Fraction(2), (0, 1): Fraction(-1, 3), (0, 0): Fraction(1)})
    assert p.text() == "2*gamma^2 - 1/3*xi + 1"
    assert p.lead() == ((2, 0), Fraction(2))


def test_coerce_rejects_floats():
    with pytest.raises(TypeError):
        coef(0.5)


# -- the constant fast path against the ParamPoly path --------------------------

OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


def _param_poly_path(sym, a, b):
    """Coef's ParamPoly formulas for a op b, the fast path's reference."""
    if sym == "+":
        return Coef(a.num * b.den + b.num * a.den, a.den * b.den)
    if sym == "-":
        return Coef(a.num * b.den - b.num * a.den, a.den * b.den)
    if sym == "*":
        return Coef(a.num * b.num, a.den * b.den)
    return Coef(a.num * b.den, a.den * b.num)


def test_disguised_constants_take_the_param_poly_path():
    c = disguised(Coef.const(Fraction(-3, 2)))
    assert c.den.as_const() is None
    assert c.as_fraction() == Fraction(-3, 2)


def test_split_and_join_blocks_round_trip():
    """Values with monomial denominators split into int numerators per
    gamma^a * xi^b block, over the lcm of all their rational coefficients'
    denominators, and join back into Coefs with the same num, den and text;
    one disguised value leaves the whole map unsplit."""
    rng = random.Random(4241)
    pool = COEF_POOL + tuple(Coef.const(q) for q in RATIONAL_POOL)
    for _ in range(200):
        terms = {}
        for i in range(rng.randint(0, 4)):
            c = rng.choice(pool)
            if rng.random() < 0.4:
                c = c + rng.choice(pool) * rng.choice(pool)
            terms[i] = c
        split = split_blocks(terms)
        assert split is not None
        blocks, den = split
        rationals = [v for c in terms.values()
                     for v in (c.num.terms.values() if c else ())]
        assert den == math.lcm(1, *(q.denominator for q in rationals))
        assert all(type(n) is int for block in blocks.values()
                   for n in block.values())
        back = join_blocks(blocks, den)
        assert back.keys() == {i for i, c in terms.items() if c}
        for i, c in back.items():
            ref = terms[i]
            assert (c.num, c.den) == (ref.num, ref.den)
            assert c.text() == ref.text()
            assert c == ref
            q = c.as_fraction()
            assert q is None or type(q) is Fraction
        assert split_blocks({**terms, -1: disguised(Coef.const(5))}) is None
    assert split_blocks({}) == ({(0, 0): {}}, 1)
    assert split_blocks({0: Coef.gamma() / (Coef.gamma() + Coef.xi())}) is None


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


def test_constant_fast_path_matches_param_poly_path():
    rng = random.Random(4243)
    constants = [Coef.const(q) for q in RATIONAL_POOL + (0,)]
    constants += [c for c in COEF_POOL if c.den.as_const() is not None
                  and c.num.as_const() is not None]
    for _ in range(300):
        a, b = rng.choice(constants), rng.choice(constants)
        qa, qb = a.as_fraction(), b.as_fraction()
        for sym, op in OPS.items():
            if sym == "/" and not qb:
                for x, y in ((a, b), (disguised(a), disguised(b)), (a, qb)):
                    with pytest.raises(DivisionByZero):
                        op(x, y)
                continue
            fast = op(a, b)
            ref = _param_poly_path(sym, a, b)
            assert (fast.num, fast.den) == (ref.num, ref.den)
            assert fast.text() == ref.text()
            assert fast.as_fraction() == op(qa, qb)
            for mixed in (op(a, qb), op(qa, b)):
                assert (mixed.num, mixed.den) == (ref.num, ref.den)
            slow = op(disguised(a), disguised(b))
            assert slow.as_fraction() == op(qa, qb)
            assert fast == slow and slow == fast
        assert (a == b) == (disguised(a) == disguised(b)) == (qa == qb)
        assert (-a).text() == Coef(-a.num, a.den).text()
        q = rng.choice(RATIONAL_POOL + (0, 3))
        scaled, ref = a.scale(q), Coef(a.num.scale(Fraction(q)), a.den)
        assert (scaled.num, scaled.den) == (ref.num, ref.den)
        assert scaled == disguised(a).scale(q)


def test_constant_and_symbolic_operands_mix():
    rng = random.Random(4247)
    constants = [Coef.const(q) for q in RATIONAL_POOL]
    for _ in range(200):
        a, c = rng.choice(constants), rng.choice(COEF_POOL)
        for sym, op in OPS.items():
            for x, y in ((a, c), (c, a)):
                if sym == "/" and y.is_zero():
                    continue
                got = op(x, y)
                assert got == op(disguised(x), y)
                assert got.text() == _param_poly_path(sym, x, y).text()
