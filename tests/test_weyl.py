"""Normal ordering, products, application, substitutions, and serialization."""
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

from cgaweyl.scalar import Coef, split_blocks
from cgaweyl.weyl import (
    DER_NONE,
    INT,
    NAT,
    RAT,
    REORDER_CACHE_SIZE,
    DerivIndex,
    DomainViolation,
    Monomial,
    NonIntegerTimeWeight,
    VarTable,
    WeylElement,
    ZeroScaleFactor,
    anticommutator,
    apply_to,
    commutator,
    degree_of,
    element_to_text,
    free_to_osc,
    monomial,
    mul,
    parse_element,
    remap,
    substitute,
    _mk_deriv,
    _reorder_corrections,
    _reorder_options,
)
from cgaweyl.realizations import (
    build_free_general,
    build_free_l1,
    build_ladder,
    build_osc_l1,
    build_xi0,
)

from helpers import (
    COEF_POOL,
    LAURENT_POOL,
    PLAIN_TABLE,
    RATIONAL_POOL,
    RAT_EXPONENT_POOL,
    RAT_TABLE,
    TIME_TABLE,
    at_point,
    check_canonical,
    random_element,
    random_point,
    random_state,
    reference_apply_to,
    reference_mul,
    unchecked_element,
    with_fraction_exponents,
)


def V(name, p=1):
    return WeylElement.var(PLAIN_TABLE, name, p)


def D(name, k=1):
    return WeylElement.deriv(PLAIN_TABLE, name, k)


def test_heisenberg_relation():
    assert mul(D("x"), V("x")) == mul(V("x"), D("x")) + WeylElement.const(PLAIN_TABLE, 1)


def test_exponential_shift_rule():
    dt = WeylElement.time_deriv(TIME_TABLE)
    em = WeylElement.exp_t(TIME_TABLE, -1)
    assert mul(dt, em) == mul(em, dt) - em


def test_falling_factorial_with_rational_exponent():
    rat = VarTable(("x",), (RAT,))
    xh = WeylElement.var(rat, "x", Fraction(1, 2))
    dx = WeylElement.deriv(rat, "x")
    expected = mul(xh, dx) + Fraction(1, 2) * WeylElement.var(rat, "x", Fraction(-1, 2))
    assert mul(dx, xh) == expected


def test_higher_order_reordering():
    # d^2 x^2 = x^2 d^2 + 4 x d + 2
    lhs = mul(D("x", 2), V("x", 2))
    rhs = mul(V("x", 2), D("x", 2)) + 4 * mul(V("x"), D("x")) \
        + WeylElement.const(PLAIN_TABLE, 2)
    assert lhs == rhs


def test_leibniz_agrees_with_repeated_first_order_steps():
    for a in (2, 3):
        for p in (1, 2, 3):
            direct = mul(D("x", a), V("x", p))
            chained = V("x", p)
            for _ in range(a):
                chained = mul(D("x"), chained)
            assert direct == chained


def test_domain_violation_on_negative_power():
    with pytest.raises(DomainViolation):
        WeylElement.var(PLAIN_TABLE, "x", -1)


@pytest.mark.parametrize("weight, powers", [
    (0, {0: -1}),                 # x^-1 with x in NAT
    (0, {1: Fraction(1, 2)}),     # y^(1/2) with y in NAT
    (1, {}),                      # e^t in a table without time
], ids=["negative", "fractional", "time-weight"])
def test_results_never_carry_out_of_domain_terms(weight, powers):
    """Every result goes through the constructor's domain check, so an
    operand that bypassed it cannot pass its bad term on."""
    bad = unchecked_element(PLAIN_TABLE,
                            {(monomial(weight, powers), DER_NONE): Coef.const(1)})
    for build in (lambda: mul(bad, V("u")), lambda: bad + V("u"),
                  lambda: -bad, lambda: bad.scaled(2)):
        with pytest.raises(DomainViolation):
            build()


def test_commutator_antisymmetry_on_random_elements():
    rng = random.Random(101)
    for _ in range(50):
        a = random_element(PLAIN_TABLE, rng)
        assert commutator(a, a).is_zero()


@pytest.mark.parametrize("table, weights, powers, seed", [
    (PLAIN_TABLE, (0,), None, 113),
    (TIME_TABLE, (0, 1, -2, Fraction(1, 2)), None, 127),
    (RAT_TABLE, (0, 1, Fraction(-3, 2)), RAT_EXPONENT_POOL, 131),
], ids=["plain", "time", "rat"])
def test_reorder_memo_matches_generator(table, weights, powers, seed):
    """The memoized k >= 1 terms are the generator's options after its
    first, and that first option is always (1, mon, der)."""
    rng = random.Random(seed)
    keys = set()
    for _ in range(30):
        e = random_element(table, rng, max_terms=3, max_pow=3, max_der=3,
                           weights=weights, powers=powers)
        keys.update(e.terms)
    ders = {der for _, der in keys} | {DER_NONE}
    mons = {mon for mon, _ in keys}
    _reorder_corrections.cache_clear()
    for der in ders:
        for mon in mons:
            options = tuple(_reorder_options(der, mon))
            assert options[0] == (1, mon, der)
            cached = _reorder_corrections(der, mon)
            assert cached == options[1:]
            assert _reorder_corrections(der, mon) is cached
    info = _reorder_corrections.cache_info()
    assert info.misses == len(ders) * len(mons) <= REORDER_CACHE_SIZE
    assert info.maxsize == REORDER_CACHE_SIZE


def test_reorder_memo_is_shared_safely_by_threads():
    """Threads that fill and clear the memo at once, and fill the split-form
    slots of shared fresh operands at once, all get the single-threaded
    commutators."""
    pairs, fresh = [], []
    for fam in (build_free_general(2, verbatim=False), build_osc_l1()):
        gens = [WeylElement(g.table, g.terms) for g in fam.generators.values()]
        pairs += [(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]]
        fresh += gens
    expected = [commutator(WeylElement(a.table, a.terms),
                           WeylElement(b.table, b.terms)) for a, b in pairs]
    assert all(g._blocks is None for g in fresh)
    results, interval = {}, sys.getswitchinterval()

    def work(n):
        for k in range(3):
            if (n + k) % 2:
                _reorder_corrections.cache_clear()
            results[n, k] = [commutator(a, b) for a, b in pairs]

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
    assert len(results) == 12
    assert all(r == expected for r in results.values())
    assert all(g._blocks == split_blocks(g.terms) is not None for g in fresh)


def _assert_commutator_matches_products(a, b):
    reference = reference_mul(a, b) - reference_mul(b, a)
    fused = commutator(a, b)
    check_canonical(fused)
    assert fused == reference
    assert commutator(b, a) == -reference


@pytest.mark.parametrize("table, weights, powers, seed", [
    (PLAIN_TABLE, (0,), None, 103),
    (TIME_TABLE, (0, 1, -2, Fraction(1, 2)), None, 107),
    (RAT_TABLE, (0, 1, Fraction(-3, 2)), RAT_EXPONENT_POOL, 109),
], ids=["plain", "time", "rat"])
def test_commutator_matches_product_difference_random(table, weights, powers, seed):
    rng = random.Random(seed)
    for _ in range(80):
        a = random_element(table, rng, max_terms=3, weights=weights, powers=powers)
        b = random_element(table, rng, max_terms=3, weights=weights, powers=powers)
        _assert_commutator_matches_products(a, b)


@pytest.mark.parametrize("build", [
    lambda: build_free_general(3, verbatim=False),
    lambda: build_xi0(2, 3, cutoff=3),
], ids=["free-general-3", "xi0-2-3-N3"])
def test_commutator_matches_product_difference_on_family_generators(build):
    gens = list(build().generators.values())
    for i, a in enumerate(gens):
        assert commutator(a, a).is_zero()
        for b in gens[i + 1:]:
            _assert_commutator_matches_products(a, b)


def test_mul_associativity_random():
    rng = random.Random(11)
    for _ in range(120):
        a = random_element(PLAIN_TABLE, rng)
        b = random_element(PLAIN_TABLE, rng)
        c = random_element(PLAIN_TABLE, rng)
        assert mul(mul(a, b), c) == reference_mul(a, reference_mul(b, c))


def test_mul_associativity_with_time():
    rng = random.Random(13)
    for _ in range(60):
        a = random_element(TIME_TABLE, rng, weights=(0, 1, -1))
        b = random_element(TIME_TABLE, rng, weights=(0, 1, -1))
        c = random_element(TIME_TABLE, rng, weights=(0, 2, -1))
        assert mul(mul(a, b), c) == reference_mul(a, reference_mul(b, c))


def test_jacobi_identity_random():
    rng = random.Random(17)
    for _ in range(60):
        a = random_element(PLAIN_TABLE, rng)
        b = random_element(PLAIN_TABLE, rng)
        c = random_element(PLAIN_TABLE, rng)
        s = commutator(commutator(a, b), c) + commutator(commutator(b, c), a) \
            + commutator(commutator(c, a), b)
        assert s.is_zero()


# -- exponent types: int when integral, Fraction otherwise ----------------------

@pytest.mark.parametrize("table, weights, powers, seed", [
    (PLAIN_TABLE, (0,), None, 211),
    (TIME_TABLE, (0, 1, -2, Fraction(1, 2)), None, 223),
    (RAT_TABLE, (0, 1, Fraction(-3, 2)), RAT_EXPONENT_POOL, 227),
], ids=["plain", "time", "rat"])
def test_kernels_agree_on_int_and_fraction_exponents(table, weights, powers, seed):
    """mul, commutator and apply_to give equal elements and identical text
    whether integral exponents and weights are stored as int or Fraction.

    The fixed inputs first have terms that cancel inside one kernel call,
    so the zero sums must be dropped by the constructor; each result is
    also checked against its reference.
    """
    x, y = WeylElement.var(table, "x"), WeylElement.var(table, "y")
    dx, dy = WeylElement.deriv(table, "x"), WeylElement.deriv(table, "y")
    # (x - y)(x + y) = x^2 - y^2: the xy terms cancel
    assert mul(x - y, x + y) == \
        WeylElement.var(table, "x", 2) - WeylElement.var(table, "y", 2)
    cases = [(x - y, x + y, x * y),
             (dx + dy, x - y, x - y),                # 1 - 1
             (x * dx - y * dy, x * y, x * y)]        # xy - xy
    for a, b, f in cases[1:]:
        assert commutator(a, b).is_zero() and apply_to(a, f).is_zero()
    rng = random.Random(seed)
    for _ in range(60):
        a = random_element(table, rng, max_terms=3, weights=weights, powers=powers)
        b = random_element(table, rng, max_terms=3, weights=weights, powers=powers)
        f = random_state(table, rng)
        if table.has_time:
            f = f * WeylElement.exp_t(table, rng.choice(weights))
        cases.append((a, b, f))
    for a, b, f in cases:
        assert commutator(a, b) == reference_mul(a, b) - reference_mul(b, a)
        assert apply_to(a, f) == reference_apply_to(a, f)
        for op, u, v in ((mul, a, b), (commutator, a, b), (apply_to, a, f)):
            canonical = op(u, v)
            check_canonical(canonical)
            fu, fv = with_fraction_exponents(u), with_fraction_exponents(v)
            for args in ((fu, fv), (fu, v), (u, fv)):
                # a Fraction(2) key equals and hashes like 2, so without the
                # clear this call would read the int call's memo entries
                _reorder_corrections.cache_clear()
                other = op(*args)
                if op is not apply_to:
                    assert _reorder_corrections.cache_info().misses > 0
                assert other == canonical
                assert other.text() == canonical.text()


def test_keys_hash_once_and_compare_by_value():
    """Monomial and DerivIndex store their hash at construction; it is not
    part of equality or repr, and a Fraction(2) key still equals and hashes
    like 2."""
    mon = monomial(2, {0: 3, 1: Fraction(1, 2)})
    raw = Monomial(Fraction(2), ((0, Fraction(3)), (1, Fraction(1, 2))))
    assert raw == mon and hash(raw) == hash(mon) == hash((2, mon.powers))
    assert {raw: 1}[mon] == 1
    assert repr(mon) == "Monomial(weight=2, powers=((0, 3), (1, Fraction(1, 2))))"
    der = _mk_deriv({1: 2, 0: 1}, 3)
    assert der == DerivIndex(((0, 1), (1, 2)), 3)
    assert hash(der) == hash((der.orders, der.t_order))
    assert repr(der) == "DerivIndex(orders=((0, 1), (1, 2)), t_order=3)"


def test_integral_exponents_are_stored_as_int():
    half = Fraction(1, 2)
    built = [
        WeylElement.var(TIME_TABLE, "x", Fraction(2)),
        WeylElement.exp_t(TIME_TABLE, Fraction(4, 2)),
        mul(WeylElement.var(RAT_TABLE, "x", half), WeylElement.var(RAT_TABLE, "x", half)),
        mul(WeylElement.exp_t(RAT_TABLE, half), WeylElement.exp_t(RAT_TABLE, half)),
        parse_element("(1) * e^(2*t) * x^(6/3) * y^(1/2)", RAT_TABLE),
        with_fraction_exponents(V("x", 2)) * V("y"),
    ]
    for e in built:
        check_canonical(e)
    x_squared = built[0].terms
    ((mon, _),) = x_squared
    assert mon.powers == ((0, 2),) and type(mon.powers[0][1]) is int
    for fam in (build_free_l1(), build_osc_l1(), build_free_l1(2, 3),
                build_free_general(3, verbatim=False), build_xi0(2, 3, cutoff=3),
                build_ladder(2).family):
        for g in fam.generators.values():
            check_canonical(g)
    for g in build_osc_l1().generators.values():
        check_canonical(free_to_osc(g))
        check_canonical(substitute(g, {"x": Coef.const(3)}))
        check_canonical(remap(g, g.table.widened("y", RAT)))


# -- int numerators: monomial blocks -------------------------------------------

RATIONAL_COEFS = tuple(Coef.const(q) for q in RATIONAL_POOL)

def _kernel_cases(table, weights, powers, rng, coefs):
    """Random (a, b, f) with coefficients from ``coefs``; f is a state."""
    a, b = (random_element(table, rng, max_terms=3, weights=weights,
                           powers=powers, coefs=coefs)
            for _ in range(2))
    f = random_state(table, rng, coefs=coefs)
    if table.has_time:
        f = f * WeylElement.exp_t(table, rng.choice(weights))
    return a, b, f


def _assert_kernels_match_references(a, b, f, point):
    """Each kernel equals its Coef-arithmetic reference, coefficient text
    included, and instantiating its result at ``point`` gives the same
    kernel on the instantiated operands; returns the results."""
    out = []
    for op, u, v, reference in (
            (mul, a, b, reference_mul(a, b)),
            (commutator, a, b, reference_mul(a, b) - reference_mul(b, a)),
            (apply_to, a, f, reference_apply_to(a, f))):
        fast = op(u, v)
        check_canonical(fast)
        assert fast == reference
        assert fast.text() == reference.text()
        for key, c in fast.terms.items():
            assert c.text() == reference.terms[key].text()
        assert at_point(fast, *point) == op(at_point(u, *point), at_point(v, *point))
        out.append(fast)
    return out


@pytest.mark.parametrize("table, weights, powers, seed", [
    (PLAIN_TABLE, (0,), None, 307),
    (TIME_TABLE, (0, 1, -2, Fraction(1, 2)), None, 311),
    (RAT_TABLE, (0, 1, Fraction(-3, 2)), RAT_EXPONENT_POOL, 313),
], ids=["plain", "time", "rat"])
def test_int_numerator_kernels_match_coef_path(table, weights, powers, seed):
    """On parameter-free operands mul, commutator and apply_to run on one
    block of int numerators.  They equal their references, and every result
    coefficient prints as ``Coef.const`` of its value."""
    rng = random.Random(seed)
    for _ in range(40):
        a, b, f = _kernel_cases(table, weights, powers, rng, RATIONAL_COEFS)
        for e in (a, b, f):
            assert split_blocks(e.terms)[0].keys() <= {(0, 0)}
        for fast in _assert_kernels_match_references(a, b, f, random_point(rng)):
            for c in fast.terms.values():
                assert c.text() == Coef.const(c.as_fraction()).text()


@pytest.mark.parametrize("table, weights, powers, seed", [
    (PLAIN_TABLE, (0,), None, 331),
    (TIME_TABLE, (0, 1, -2, Fraction(1, 2)), None, 337),
    (RAT_TABLE, (0, 1, Fraction(-3, 2)), RAT_EXPONENT_POOL, 347),
], ids=["plain", "time", "rat"])
def test_block_kernels_match_coef_path(table, weights, powers, seed):
    """With gamma, xi, 2/xi, gamma/(2 xi) and multi-term Laurent values among
    the coefficients the kernels run once per pair of monomial blocks, and
    still give the Coef arithmetic's coefficients, text included, and
    commute with instantiation at random points."""
    rng = random.Random(seed)
    blocks_seen = set()
    for _ in range(40):
        a, b, f = _kernel_cases(table, weights, powers, rng,
                                COEF_POOL + LAURENT_POOL)
        for e in (a, b, f):
            blocks, _ = split_blocks(e.terms)
            blocks_seen.update(blocks)
        _assert_kernels_match_references(a, b, f, random_point(rng))
    assert {(1, 0), (0, 1), (0, -1), (1, -1), (0, 0)} <= blocks_seen


def test_parameter_free_calls_whose_terms_all_cancel_have_no_terms():
    half, third = Fraction(1, 2), Fraction(1, 3)
    xdx = mul(V("x"), D("x"))
    assert commutator(xdx, xdx).terms == {}
    assert apply_to(D("x", 3), V("x", 2)).terms == {}
    # 1 - 1, summed over the common denominator 6 inside the call
    assert apply_to(half * D("x") + third * D("y"), 2 * V("x") - 3 * V("y")).terms == {}


def test_terms_that_cancel_across_blocks_drop_the_key():
    """gamma*xi from the block pair ((1, 0), (0, 1)) cancels -xi*gamma from
    ((0, 1), (1, 0)), so the key has no term, while the other keys keep
    the blocks that survive."""
    g, x = Coef.gamma(), Coef.xi()
    a = g * D("x") - x * D("y")
    f = x * V("x") + g * V("y")
    assert apply_to(a, f).terms == {}
    assert commutator(a, f).terms == {}
    # (gamma + xi)(xi - gamma) u: the gamma*xi block cancels, the key stays
    got = mul(g * V("u") + x * V("u"), x * V("y") - g * V("y"))
    ((key, c),) = got.terms.items()
    assert c.text() == "-gamma^2 + xi^2"
    assert c.text() == (reference_mul(g * V("u") + x * V("u"),
                                      x * V("y") - g * V("y")).terms[key].text())


def test_sums_over_two_monomial_denominators_print_as_the_coef_path():
    """a/gamma + b/xi in one output term is (b*gamma + a*xi)/(gamma*xi),
    as Coef arithmetic writes it."""
    g, x = Coef.gamma(), Coef.xi()
    a = (Coef.const(2) / g) * D("x") + (Coef.const(Fraction(-3, 4)) / x) * D("y")
    f = V("x") * V("u") + V("y") * V("u")
    got = apply_to(a, f)
    expected = Coef.const(2) / g + Coef.const(Fraction(-3, 4)) / x
    assert got.terms == {(V("u").terms.popitem()[0][0], DER_NONE): expected}
    (c,) = got.terms.values()
    assert c.text() == expected.text() == "(-3/4*gamma + 2*xi)/(gamma*xi)"
    # divided once more by gamma: the denominator becomes gamma^2*xi
    got = mul(WeylElement.const(PLAIN_TABLE, Coef.const(1) / g), got)
    (c,) = got.terms.values()
    assert c.text() == (expected / g).text() == "(-3/4*gamma + 2*xi)/(gamma^2*xi)"


@pytest.mark.parametrize("build", [build_osc_l1, build_free_l1])
def test_symbolic_family_kernels_commute_with_instantiation(build):
    """Every coefficient of mul, commutator and apply_to on the symbolic
    generators, instantiated at a random nonzero point, equals the same
    kernel on the family built at that numeric gamma and xi."""
    rng = random.Random(353)
    symbolic = build()
    for _ in range(3):
        point = random_point(rng)
        numeric = build(*point)
        names = list(symbolic.generators)
        for p in names:
            a, a_num = symbolic[p], numeric[p]
            assert at_point(a, *point) == a_num
            f = random_state(symbolic.table, rng, coefs=COEF_POOL + LAURENT_POOL)
            assert (at_point(apply_to(a, f), *point)
                    == apply_to(a_num, at_point(f, *point)))
            for q in names:
                b, b_num = symbolic[q], numeric[q]
                assert at_point(mul(a, b), *point) == mul(a_num, b_num)
                assert at_point(commutator(a, b), *point) == commutator(a_num, b_num)


def test_unchecked_operands_fill_their_split_slot():
    """An element made without the constructor has no split form yet; a
    kernel computes it on first use, stores it, and reads it after."""
    rng = random.Random(349)
    for _ in range(10):
        a, b, f = _kernel_cases(TIME_TABLE, (0, 1, -2), None, rng, COEF_POOL)
        raw_a, raw_f = (unchecked_element(e.table, e.terms) for e in (a, f))
        assert not hasattr(raw_a, "_blocks") and not hasattr(raw_f, "_blocks")
        assert mul(raw_a, b) == mul(a, b)
        assert apply_to(raw_a, raw_f) == apply_to(a, f)
        assert raw_a._blocks == split_blocks(a.terms) is not None
        assert raw_f._blocks == split_blocks(f.terms)
        assert commutator(raw_a, b) == commutator(a, b)


# -- apply_to on dense exponent vectors ----------------------------------------

TAU_TABLE = VarTable(("tau", "x", "y"), (INT, INT, INT))


def _scalar_function(table, rng, powers, weights, coefs):
    """A random derivative-free element, exponents drawn from ``powers``."""
    out = WeylElement.zero(table)
    for _ in range(rng.randint(1, 4)):
        term = WeylElement.const(table, rng.choice(coefs))
        for name in table.names:
            term = term * WeylElement.var(table, name, rng.choice(powers))
        if table.has_time:
            term = term * WeylElement.exp_t(table, rng.choice(weights))
        out = out + term
    return out


def _shared_block_operator(table, rng, powers, weights, coefs):
    """F * D: one term m_j D per term of a random function F, all with the
    same derivative block D (d[t] included on a table with time)."""
    block = WeylElement.const(table, 1)
    for name in table.names:
        k = rng.randint(0, 2)
        if k:
            block = block * WeylElement.deriv(table, name, k)
    if table.has_time and rng.random() < 0.7:
        block = block * WeylElement.time_deriv(table, rng.randint(1, 2))
    return _scalar_function(table, rng, powers, weights, coefs) * block


def test_apply_to_spends_half_powers_to_an_int_exponent():
    """x^(1/2) d[x] on x^(3/2) is 3/2 x: the Fraction exponents sum to an
    integral value, stored as int."""
    half = Fraction(1, 2)
    x = WeylElement.var(RAT_TABLE, "x")
    a = WeylElement.var(RAT_TABLE, "x", half) * WeylElement.deriv(RAT_TABLE, "x")
    f = WeylElement.var(RAT_TABLE, "x", Fraction(3, 2))
    got = apply_to(a, f)
    check_canonical(got)
    assert got == reference_apply_to(a, f) == Fraction(3, 2) * x
    ((mon, _),) = got.terms
    assert mon.powers == ((0, 1),) and type(mon.powers[0][1]) is int
    # the same with the weights: e^(t/2) d[t] on e^(3t/2) is 3/2 e^(2t)
    a = WeylElement.exp_t(RAT_TABLE, half) * WeylElement.time_deriv(RAT_TABLE)
    got = apply_to(a, WeylElement.exp_t(RAT_TABLE, Fraction(3, 2)))
    check_canonical(got)
    assert got == Fraction(3, 2) * WeylElement.exp_t(RAT_TABLE, 2)
    assert type(next(iter(got.terms))[0].weight) is int


@pytest.mark.parametrize("table, powers, weights, coefs, seed", [
    (RAT_TABLE, RAT_EXPONENT_POOL, (0, 1, Fraction(-3, 2), Fraction(1, 2)),
     RATIONAL_COEFS, 401),
    (TAU_TABLE, (-2, -1, 0, 1, 2, 3), (0,), RATIONAL_COEFS, 409),
    (TIME_TABLE, (0, 1, 2, 3), (0, 1, -2, Fraction(1, 2), Fraction(-3, 2)),
     RATIONAL_COEFS, 419),
    (TIME_TABLE, (0, 1, 2, 3), (0, 1, Fraction(1, 2)), COEF_POOL, 421),
    (RAT_TABLE, RAT_EXPONENT_POOL, (0, Fraction(1, 3)), COEF_POOL, 431),
], ids=["rat", "int-tau", "exp-time", "symbolic-time", "symbolic-rat"])
def test_apply_to_matches_reference_on_dense_vectors(table, powers, weights,
                                                      coefs, seed):
    """apply_to equals the derivative-free part of the reference product,
    coefficient text included, when several terms of the operator share
    one derivative block, on Fraction exponents and weights, negative
    powers of tau, d[t] over exponential weights and gamma/xi blocks; and
    instantiating it at a random point gives apply_to on the instantiated
    operands."""
    rng = random.Random(seed)
    for _ in range(30):
        a = (_shared_block_operator(table, rng, powers, weights, coefs)
             + random_element(table, rng, max_terms=3, weights=weights,
                              powers=powers, coefs=coefs))
        f = _scalar_function(table, rng, powers, weights, coefs)
        got = apply_to(a, f)
        check_canonical(got)
        reference = reference_apply_to(a, f)
        assert got == reference
        assert got.text() == reference.text()
        point = random_point(rng)
        assert at_point(got, *point) == apply_to(at_point(a, *point),
                                                 at_point(f, *point))


def test_canonicality_is_idempotent():
    rng = random.Random(19)
    for _ in range(40):
        e = mul(random_element(PLAIN_TABLE, rng), random_element(PLAIN_TABLE, rng))
        check_canonical(e)
        rebuilt = WeylElement(e.table, dict(e.terms))
        assert rebuilt == e


def test_apply_basic():
    # the degree-0 operator applied to y gives back y (lambda = 1 eigenstate)
    f11 = build_osc_l1(1, 1)
    from cgaweyl.realizations import build_H
    from cgaweyl.spectrum import at_time_zero
    H = at_time_zero(build_H(f11))
    y = WeylElement.var(f11.table, "y")
    assert apply_to(H, y) == y


def test_apply_to_zero_state():
    rng = random.Random(23)
    zero = WeylElement.zero(PLAIN_TABLE)
    for _ in range(10):
        assert apply_to(random_element(PLAIN_TABLE, rng), zero).is_zero()


def test_apply_composition_property():
    rng = random.Random(29)
    for _ in range(100):
        a = random_element(PLAIN_TABLE, rng)
        b = random_element(PLAIN_TABLE, rng)
        f = random_state(PLAIN_TABLE, rng)
        assert apply_to(mul(a, b), f) == apply_to(a, apply_to(b, f))


def test_apply_rejects_operators():
    with pytest.raises(ValueError):
        apply_to(D("x"), D("x"))


def test_substitute_euler_invariance():
    lam = Coef.const(Fraction(5, 7))
    euler = mul(V("x"), D("x"))
    assert substitute(euler, {"x": lam}) == euler


def test_substitute_identity_map():
    rng = random.Random(31)
    one = Coef.const(1)
    for _ in range(30):
        e = random_element(PLAIN_TABLE, rng)
        assert substitute(e, {n: one for n in PLAIN_TABLE.names}) == e


def test_substitute_is_an_endomorphism():
    rng = random.Random(37)
    scales = {"x": Coef.const(2), "y": Coef.gamma(), "u": Coef.const(Fraction(1, 3))}
    for _ in range(40):
        a = random_element(PLAIN_TABLE, rng)
        b = random_element(PLAIN_TABLE, rng)
        assert substitute(mul(a, b), scales) == \
            mul(substitute(a, scales), substitute(b, scales))


def test_substitute_zero_scale_rejected():
    with pytest.raises(ZeroScaleFactor):
        substitute(V("x"), {"x": Coef.const(0)})


def test_dilation_maps_unit_parameters_to_general():
    """Solve the similarity scale factors from coefficient matching.

    Matching d[x] in v+1 and d[y] in w+1 fixes two factors; for gamma != xi
    a third scaling (of u, read off the d[u] coefficient of v0) is required.
    All eleven algebra generators then map exactly; the extra generator q
    maps to (xi/gamma) q.
    """
    base = build_free_l1(1, 1)
    target = build_free_l1()        # symbolic gamma, xi
    g, x = target.params.gamma, target.params.xi

    def coefficient_of(e, mon_der):
        return e.terms[mon_der]

    # scale factors: d[v] picks up 1/c_v, so c_v = 1 / (target coef)
    (vp_key,) = base["v+1"].terms
    c_x = Coef.const(1) / coefficient_of(target["v+1"], vp_key)
    (wp_key,) = base["w+1"].terms
    c_y = Coef.const(1) / coefficient_of(target["w+1"], wp_key)
    du_key = next(k for k in base["v0"].terms if k[1].orders
                  and base.table.names[k[1].orders[0][0]] == "u")
    c_u = Coef.const(1) / coefficient_of(target["v0"], du_key)
    assert (c_x, c_y, c_u) == (g.inv(), x.inv(), x / g)

    scales = {"x": c_x, "y": c_y, "u": c_u}
    algebra = [n for n in base.order if n != "q"]
    for name in algebra:
        assert substitute(base[name], scales) == target[name], name
    assert substitute(base["q"], scales) == (x / g) * target["q"]


def test_diagonal_parameters_need_only_two_scalings():
    base = build_free_l1(1, 1)
    target = build_free_l1(5, 5)
    c = Coef.const(Fraction(1, 5))
    scales = {"x": c, "y": c}
    for name in (n for n in base.order if n != "q"):
        assert substitute(base[name], scales) == target[name], name


# -- the exponential-time -> tau map ----------------------------------------

def test_free_to_osc_on_generators():
    osc = build_osc_l1()
    free = build_free_l1()
    assert free_to_osc(osc["z+"]) == free["z+"]
    assert free_to_osc(osc["v+1"]) == free["v+1"]
    assert free_to_osc(osc["theta"]) == free["theta"]
    # z0 maps to the calibrated constant, a shift of -2 against the printed one
    diff = free_to_osc(osc["z0"]) - free["z0"]
    assert diff.constant_value() == Coef.const(-2)


def test_free_to_osc_is_a_homomorphism_on_generators():
    osc = build_osc_l1(2, 3)
    names = list(osc.order)
    images = {n: free_to_osc(osc[n]) for n in names}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert free_to_osc(commutator(osc[a], osc[b])) == \
                commutator(images[a], images[b]), (a, b)


def test_free_to_osc_homomorphism_random():
    rng = random.Random(41)
    for _ in range(40):
        a = random_element(TIME_TABLE, rng, weights=(0, 1, -1))
        b = random_element(TIME_TABLE, rng, weights=(0, 1, -1))
        assert free_to_osc(mul(a, b)) == mul(free_to_osc(a), free_to_osc(b))


def test_free_to_osc_rejects_non_integer_weights():
    e = WeylElement.exp_t(TIME_TABLE, Fraction(1, 2))
    with pytest.raises(NonIntegerTimeWeight):
        free_to_osc(e)


# -- grading ------------------------------------------------------------------

def test_degree_of_generators():
    free = build_free_l1()
    z0 = free["z0"]
    assert degree_of(free["v+1"], z0) == 1
    assert degree_of(free["w-1"], z0) == -1
    assert degree_of(z0, z0) == 0
    assert degree_of(free["q"], z0) == 0
    assert degree_of(free["v+1"] + free["v0"], z0) is None
    # the top coefficient of [z0, g] is (3 gamma + 2 xi) x^2, which
    # gamma + xi does not divide
    g = parse_element("(gamma + xi) * x^2 + (gamma) * x", PLAIN_TABLE)
    assert degree_of(g, mul(V("x"), D("x")) + mul(V("x", 2), D("x"))) is None


def test_degree_table_matches_index_labels():
    osc = build_osc_l1()
    for k in (1, 0, -1):
        for prefix in ("v", "w"):
            name = f"{prefix}0" if k == 0 else f"{prefix}{k:+d}"
            assert degree_of(osc[name], osc["z0"]) == k


# -- serialization -------------------------------------------------------------

def test_roundtrip_simple():
    e = mul(D("x"), V("x", 2)) - Fraction(1, 2) * V("y")
    text = element_to_text(e)
    assert parse_element(text, PLAIN_TABLE) == e


def test_roundtrip_zero():
    zero = WeylElement.zero(PLAIN_TABLE)
    assert element_to_text(zero) == "0"
    assert parse_element("0", PLAIN_TABLE) == zero


def test_roundtrip_all_family_generators():
    for fam in (build_free_l1(), build_osc_l1(), build_free_l1(2, 3)):
        for name, g in fam.generators.items():
            text = element_to_text(g)
            assert parse_element(text, fam.table) == g, (fam.name, name)


def test_roundtrip_is_byte_stable():
    rng = random.Random(43)
    for _ in range(40):
        e = random_element(TIME_TABLE, rng, weights=(0, 1, -1))
        text = element_to_text(e)
        assert element_to_text(parse_element(text, TIME_TABLE)) == text


def test_parse_divides_by_a_dividing_denominator_and_names_any_other():
    x = V("x")
    g, xi = Coef.gamma(), Coef.xi()
    assert parse_element("(2*gamma + 2*xi)/(gamma + xi) * x", PLAIN_TABLE) == 2 * x
    got = parse_element("(gamma^2 - xi^2)/(gamma + xi) * x", PLAIN_TABLE)
    assert got == (g - xi) * x
    assert element_to_text(got) == "(gamma - xi) * x"
    for coefficient in ("(gamma)/(gamma + xi)", "(1)/(0)"):
        with pytest.raises(ValueError, match=re.escape(coefficient)):
            parse_element(coefficient + " * x", PLAIN_TABLE)


def test_roundtrip_rational_exponents_and_weights():
    rat = VarTable(("x",), (RAT,), has_time=True)
    e = mul(WeylElement.exp_t(rat, Fraction(3, 2)),
            WeylElement.var(rat, "x", Fraction(-2, 3)))
    assert parse_element(element_to_text(e), rat) == e


def test_remap_widens_domains():
    e = mul(V("y"), D("y"))
    wide = PLAIN_TABLE.widened("y", RAT)
    moved = remap(e, wide)
    assert element_to_text(moved) == element_to_text(e)
    y_lam = WeylElement.var(wide, "y", Fraction(7, 3))
    assert apply_to(moved, y_lam) == Fraction(7, 3) * y_lam
