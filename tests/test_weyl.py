"""Normal ordering, products, application, substitutions, and serialization."""
import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

from cgaweyl import verify, weyl
from cgaweyl.scalar import Coef, coef, split_blocks
from cgaweyl.weyl import (
    INT,
    NAT,
    RAT,
    REORDER_CACHE_SIZE,
    DomainViolation,
    NonIntegerTimeWeight,
    VarTable,
    WeylElement,
    ZeroScaleFactor,
    anticommutator,
    apply_to,
    commutator,
    element_to_text,
    free_to_osc,
    mul,
    parse_element,
    remap,
    substitute,
    _reorder_corrections,
)
from cgaweyl.realizations import (
    FREE_L1_TABLE,
    OSC_L1_TABLE,
    build_free_general,
    build_free_l1,
    build_ladder,
    build_osc_l1,
    build_xi0,
)

from helpers import (
    _reorder_options,
    COEF_POOL,
    LAURENT_POOL,
    PLAIN_TABLE,
    RATIONAL_POOL,
    RAT_EXPONENT_POOL,
    RAT_TABLE,
    TIME_TABLE,
    assert_packed,
    at_point,
    check_canonical,
    lattice_unit,
    kernel_terms,
    packed_key,
    random_element,
    random_point,
    random_state,
    reference_apply_to,
    reference_eigencheck,
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


@pytest.mark.parametrize("mon", [
    (-1, 0, 0, 0),                # x^-1 with x in NAT
    (0, Fraction(1, 2), 0, 0),    # y^(1/2) with y in NAT
    (0, 0, -2, 0),                # u^-2 with u in NAT, the last NAT slot
    (0, 0, 0, 1),                 # e^t in a table without time
], ids=["negative", "fractional", "negative-last", "time-weight"])
def test_results_never_carry_out_of_domain_terms(mon):
    """Products and linear operations go through the constructor's domain
    check, so an operand that bypassed it cannot pass its bad term on.
    (An ``apply_to`` result skips the check: its terms stay in their
    domains by the falling-factorial argument, which
    test_walked_states_decode_on_first_read checks with check_canonical.)"""
    bad = unchecked_element(PLAIN_TABLE,
                            {(mon, PLAIN_TABLE.zeros): Coef.const(1)})
    for build in (lambda: mul(bad, V("u")), lambda: bad + V("u"),
                  lambda: -bad, lambda: bad.scaled(2)):
        with pytest.raises(DomainViolation):
            build()


def test_scaled_equals_the_coercing_form():
    """``scaled`` multiplies each coefficient by its factor as given, so an
    int or ``Fraction`` takes ``Coef.scale``; the result equals the one of
    coercing the factor to a ``Coef`` first, zero factors included."""
    rng = random.Random(3501)
    factors = (0, 3, -2, Fraction(0), Fraction(-7, 3), Fraction(4),
               Coef.const(0), Coef.const(5), Coef.gamma(), Coef.gamma() + Coef.xi())
    for table, powers in ((PLAIN_TABLE, None), (RAT_TABLE, RAT_EXPONENT_POOL)):
        for _ in range(25):
            e = random_element(table, rng, max_terms=3, powers=powers,
                               weights=(0, 1, Fraction(1, 2)), coefs=LAURENT_POOL)
            for f in factors:
                coerced = WeylElement(table, {k: v * coef(f) for k, v in e.terms.items()})
                got = e.scaled(f)
                assert got.terms == coerced.terms, f
                assert got._lattice == coerced._lattice
                assert all(type(c) is Coef for c in got.terms.values())


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
    first, and that first option is always (1, mon, der).  The memo runs on
    packed lattice keys: at unit L (the lcm of 1, 2 or 21 with the key's
    own denominators) and two field widths it reads the derivative block
    and the monomial fields it differentiates, gives the same factors, an
    int wherever the factor is integral, and key shifts that take the
    packed (mon, der) to the packed option; it holds one entry per
    distinct block and differentiated fields."""
    rng = random.Random(seed)
    keys = set()
    for _ in range(30):
        e = random_element(table, rng, max_terms=3, max_pow=3, max_der=3,
                           weights=weights, powers=powers)
        keys.update(e.terms)
    ders = {der for _, der in keys} | {table.zeros}
    mons = {mon for mon, _ in keys}
    size = len(table.zeros)
    for base_unit in (1, 2, 21):
        for width in (10, 16):
            _reorder_corrections.cache_clear()
            fields = [((1 << width) - 1) << (i * width) for i in range(size)]
            read = set()
            for der in ders:
                packed_der = packed_key(table.zeros, der, 1, width) >> size * width
                differentiated = sum(f for f, k in zip(fields, der) if k)
                for mon in mons:
                    options = tuple(_reorder_options(der, mon))
                    assert options[0] == (1, mon, der)
                    unit = math.lcm(base_unit, *(Fraction(p).denominator for p in mon))
                    args = (packed_der, packed_key(mon, table.zeros, unit, width)
                            & differentiated, unit, width, size)
                    read.add(args)
                    cached = _reorder_corrections(*args)
                    assert len(cached) == len(options) - 1
                    lead = packed_key(mon, der, unit, width)
                    for (f, delta), (f_ref, m_ref, d_ref) in zip(cached, options[1:]):
                        assert f == f_ref
                        assert type(f) is (int if Fraction(f).denominator == 1
                                           else Fraction)
                        assert lead + delta == packed_key(m_ref, d_ref, unit, width)
                    assert _reorder_corrections(*args) is cached
            info = _reorder_corrections.cache_info()
            assert info.misses == len(read) <= REORDER_CACHE_SIZE
            assert info.maxsize == REORDER_CACHE_SIZE


def test_memo_reads_only_the_differentiated_slots():
    """d[x] past x y, past x u e^t and past x y u: the right-hand
    monomials differ only in slots that d[x] does not differentiate, so
    mul and commutator read one memo entry for all three, and still equal
    the references."""
    x, y, u = (WeylElement.var(TIME_TABLE, n) for n in ("x", "y", "u"))
    dx, et = WeylElement.deriv(TIME_TABLE, "x"), WeylElement.exp_t(TIME_TABLE, 1)
    _reorder_corrections.cache_clear()
    for right in (x * y, x * u * et, x * y * u):
        assert mul(dx, right) == reference_mul(dx, right)
        assert commutator(right, dx) == reference_mul(right, dx) - reference_mul(dx, right)
    info = _reorder_corrections.cache_info()
    assert (info.misses, info.currsize, info.hits) == (1, 1, 5)


def test_reorder_memo_is_shared_safely_by_threads():
    """Threads that fill and clear the memo at once, and fill the per-unit
    packed forms and term lists of shared fresh operands at once, all get
    the single-threaded commutators, and every stored form equals a fresh
    one."""
    pairs, fresh = [], []
    xi0 = build_xi0(2, 3, cutoff=1)  # loop modes of units 1 and 2
    loop = {n: xi0[n] for n in ("j+(0)", "j+(1)", "w(-1)", "w(0)", "chi(1)",
                                "rho(1)", "v(0)", "u(-1)")}
    for gens in (build_free_general(2, verbatim=False).generators,
                 build_osc_l1().generators, loop):
        gens = [WeylElement(g.table, g.terms) for g in gens.values()]
        pairs += [(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]]
        fresh += gens
    expected = [commutator(WeylElement(a.table, a.terms),
                           WeylElement(b.table, b.terms)) for a, b in pairs]
    assert all(g._packed is None for g in fresh)
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
    packed = [(g, unit, form) for g in fresh for unit, form in g._packed.items()]
    # own-unit forms of units 1 and 2, and unit-1 operands on unit 2
    assert {(g._lattice, unit) for g, unit, _ in packed} == {(1, 1), (1, 2), (2, 2)}
    for g, _, _ in packed:
        _assert_packed_slot(g)


def test_memo_holds_the_working_set_of_a_wide_table():
    """Only term pairs whose masks meet read the memo, so checking the
    ell = 12 table fills it without evicting a single entry: every miss is
    a distinct key that is still held."""
    fam = build_free_general(12, verbatim=False)
    _reorder_corrections.cache_clear()
    report = verify.verify_table(fam, verify.general_commutator_table(12))
    assert all(entry.status != verify.FAILED for entry in report.entries)
    info = _reorder_corrections.cache_info()
    assert 0 < info.currsize == info.misses < REORDER_CACHE_SIZE


def test_per_unit_forms_are_made_once(monkeypatch):
    """Each element's packed form on a unit is made by one ``_pack`` call,
    on the first call that needs it only: an operand beside one of a
    larger unit gets a form on that unit and, once it runs on its own unit,
    a form there too.  Each is kept per unit, with the term lists that mul
    and commutator read, a comparison with g reads g's form, and each
    equals a direct packing on its unit."""
    fam = build_xi0(Fraction(3, 2), Fraction(5, 7), cutoff=1)
    a, b = (WeylElement(fam[n].table, fam[n].terms) for n in ("j+(0)", "w(1)"))
    unit_a, unit_b = a._lattice, b._lattice
    assert unit_b % unit_a == 0 and unit_b > unit_a
    calls = []
    original = weyl._pack
    monkeypatch.setattr(weyl, "_pack", lambda e, unit, *rest:
                        calls.append((id(e), unit)) or original(e, unit, *rest))
    for _ in range(2):
        first = commutator(a, b)
        assert commutator(b, a) == -first
        assert mul(a, a) == reference_mul(a, a)
        assert weyl.bracket_residual(a, b, b, Coef.const(1)) == first - b
    assert sorted(calls) == sorted([(id(a), unit_b), (id(b), unit_b), (id(a), unit_a)])
    assert a._packed.keys() == {unit_a, unit_b} and b._packed.keys() == {unit_b}
    for e in (a, b):
        _assert_packed_slot(e)
        assert all(form[4] is not None for form in e._packed.values())


def test_kernel_results_keep_their_packed_form(monkeypatch):
    """A ``mul`` or ``commutator`` result holds the form its kernel built,
    on the call's unit, so a nested bracket packs only its fresh operands:
    [c, [a, b]] and (a b) c pack a, b and c once each and never a result,
    and each result's form equals a fresh packing."""
    fam = build_xi0(Fraction(3, 2), Fraction(5, 7), cutoff=1)
    a, b, c = (WeylElement(fam[n].table, fam[n].terms) for n in ("j+(0)", "w(1)", "v(0)"))
    calls = []
    original = weyl._pack
    monkeypatch.setattr(weyl, "_pack", lambda e, unit:
                        calls.append(e) or original(e, unit))
    inner, product = commutator(a, b), mul(a, b)
    for r in (inner, product):
        (unit, form), = r._packed.items()
        assert unit == math.lcm(a._lattice, b._lattice)
        _assert_packed_slot(r)
    outer = commutator(c, inner)
    assert outer == reference_mul(c, inner) - reference_mul(inner, c)
    assert mul(product, c) == reference_mul(product, c)
    assert [id(e) for e in calls] == [id(a), id(b), id(c)]
    for r in (inner, product):
        _assert_packed_slot(r)


def test_the_constructor_records_the_exponent_unit():
    """Every element's ``_lattice`` is the lcm of the denominators of its
    monomial slots, weight included, 1 when all are ints: for elements
    built by the constructor and by mul, commutator, apply_to,
    parse_element, remap and substitute, over int and rational tables."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    xh = WeylElement.var(RAT_TABLE, "x", half)
    yt = WeylElement.var(RAT_TABLE, "y", third)
    et = WeylElement.exp_t(RAT_TABLE, Fraction(-1, 4))
    dx, dy = WeylElement.deriv(RAT_TABLE, "x"), WeylElement.deriv(RAT_TABLE, "y")
    built = {
        "constructor": [xh, yt, et, WeylElement.var(RAT_TABLE, "x", Fraction(4, 2)),
                        WeylElement.zero(RAT_TABLE), WeylElement.const(RAT_TABLE, 3),
                        WeylElement(RAT_TABLE, {((half, 0, third), (1, 0, 0)): Coef.xi()})],
        "mul": [mul(xh, xh), mul(xh * dy, yt), mul(et * dx, xh + yt)],
        "commutator": [commutator(dx, xh), commutator(dy, yt * et), commutator(dx, xh * xh)],
        "apply_to": [apply_to(dx, xh), apply_to(dy * et, yt * xh),
                     apply_to(xh * dx, WeylElement.var(RAT_TABLE, "x", Fraction(3, 2)))],
        "parse_element": [parse_element("(1) * e^(2*t) * x^(6/3) * y^(1/2)", RAT_TABLE),
                          parse_element("(gamma) * e^(1/6*t) * x^(-2/3) * d[y]", RAT_TABLE)],
        "remap": [remap(xh * yt * dy, RAT_TABLE, {"x": "y", "y": "x"}),
                  remap(V("x", 2) * D("y"), PLAIN_TABLE.widened("y"))],
        "substitute": [substitute(et * WeylElement.var(RAT_TABLE, "x", 2) * yt, {"x": Coef.const(3)}),
                       substitute(V("x") * D("u"), {"u": Coef.gamma()})],
    }
    units = set()
    for kind, elements in built.items():
        for e in elements:
            assert e._lattice == lattice_unit(e.terms), (kind, e.text())
            assert type(e._lattice) is int
            units.add(e._lattice)
    assert {1, 2, 3, 4, 6} <= units


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
    memo_reads = set()
    for a, b, f in cases:
        assert commutator(a, b) == reference_mul(a, b) - reference_mul(b, a)
        assert apply_to(a, f) == reference_apply_to(a, f)
        for op, u, v in ((mul, a, b), (commutator, a, b), (apply_to, a, f)):
            canonical = op(u, v)
            check_canonical(canonical)
            fu, fv = with_fraction_exponents(u), with_fraction_exponents(v)
            reorders = op is not apply_to and _reorders(op, u, v)
            for args in ((fu, fv), (fu, v), (u, fv)):
                # a Fraction(2) key equals and hashes like 2, so without the
                # clear this call would read the int call's memo entries
                _reorder_corrections.cache_clear()
                other = op(*args)
                if op is not apply_to:
                    info = _reorder_corrections.cache_info()
                    if reorders:  # recomputed, not read from the int call
                        assert info.misses > 0
                    else:  # a pair that cannot reorder never reads the memo
                        assert info.hits == info.misses == 0
                    memo_reads.add(reorders)
                assert other == canonical
                assert other.text() == canonical.text()
    assert memo_reads == {True, False}


def _reorders(op, a, b) -> bool:
    """Whether some term pair of ``op(a, b)`` passes a derivative over a
    nonzero exponent or weight, read straight off the keys: d1 past m2 for
    ``mul``, and d2 past m1 as well for ``commutator``."""
    pairs = [(d1, m2) for _, d1 in a.terms for m2, _ in b.terms]
    if op is commutator:
        pairs += [(d2, m1) for m1, _ in a.terms for _, d2 in b.terms]
    return any(k and p for der, mon in pairs for k, p in zip(der, mon))


MASK_TABLE = VarTable(("x", "y", "z"), (INT, RAT, NAT), has_time=True)


def _random_masked_operand(rng, y_powers, weights):
    """A sum of up to three terms over MASK_TABLE: x^p with p in -2..2, y
    from ``y_powers``, z^0..2, e^(w t) with w from ``weights``, and each
    derivative, d[t] included, of order 0..2 about half the time."""
    out = WeylElement.zero(MASK_TABLE)
    for _ in range(rng.randint(1, 3)):
        mon = (rng.randint(-2, 2), rng.choice(y_powers), rng.randint(0, 2),
               rng.choice(weights))
        der = tuple(rng.randint(1, 2) if rng.random() < 0.5 else 0 for _ in mon)
        out = out + WeylElement(MASK_TABLE, {(mon, der): rng.choice(COEF_POOL)})
    return out


def test_masked_kernels_match_references():
    """mul and commutator skip the memo for every term pair whose slot masks
    do not meet, and still equal the generator-built references.  Covered: d[t]
    past e^(w t) at w = 0 and w != 0, negative INT exponents, Fraction
    exponents, operands of different units, and a derivative on a slot
    whose exponent is 0, alone and beside a slot that does reorder."""
    half, third = Fraction(1, 2), Fraction(1, 3)

    def term(mon, der):
        return WeylElement(MASK_TABLE, {(mon, der): Coef.const(1)})

    edges = [  # (a, b) with d1 past m2: skipped, skipped, then reordered
        (term((0, 0, 0, 0), (1, 0, 0, 0)), term((0, half, 1, 0), (0, 0, 0, 0))),
        (term((0, 0, 0, 0), (0, 0, 0, 2)), term((-1, 0, 0, 0), (0, 0, 0, 0))),
        (term((0, 0, 0, 0), (0, 0, 0, 2)), term((0, 0, 0, -third), (0, 0, 0, 0))),
        (term((0, 0, 0, 0), (2, 1, 0, 0)), term((0, half, 0, 0), (0, 0, 0, 0))),
        (term((-2, 0, 0, 0), (0, 1, 0, 1)), term((0, third, 0, half), (1, 0, 1, 0))),
    ]
    rng = random.Random(601)
    cases = list(edges)
    for _ in range(80):
        cases.append((_random_masked_operand(rng, (0, 1, -1, half, -half), (0, 1, half)),
                      _random_masked_operand(rng, (0, 2, third, -Fraction(2, 3)),
                                             (0, -2, third))))
    overlaps = set()
    for a, b in cases:
        for op, reference in ((mul, reference_mul(a, b)),
                              (commutator, reference_mul(a, b) - reference_mul(b, a))):
            _reorder_corrections.cache_clear()
            got = op(a, b)
            check_canonical(got)
            assert got == reference
            assert got.text() == reference.text()
            if not _reorders(op, a, b):
                assert _reorder_corrections.cache_info().misses == 0
            overlaps.add(_reorders(op, a, b))
        assert mul(b, a) == reference_mul(b, a)
    assert overlaps == {True, False}
    assert any(a._lattice != b._lattice for a, b in cases)
    assert [_reorders(mul, a, b) for a, b in edges] == [False, False, True, True, True]


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
    assert mon == (2, 0, 0, 0) and type(mon[0]) is int
    for fam in (build_free_l1(), build_osc_l1(), build_free_l1(2, 3),
                build_free_general(3, verbatim=False), build_xi0(2, 3, cutoff=3),
                build_free_general(2, verbatim=False), build_ladder(2)):
        for g in fam.generators.values():
            check_canonical(g)
    for g in build_osc_l1().generators.values():
        check_canonical(free_to_osc(g, FREE_L1_TABLE))
        check_canonical(substitute(g, {"x": Coef.const(3)}))
        check_canonical(remap(g, g.table.widened("y")))


def test_fraction_exponents_that_sum_to_an_integer_are_stored_as_int():
    """On the xi = 0 generators x carries exponents in (3/2) Z.  Where two
    of them sum to an integer the product stores an int slot, and where
    they sum to zero an int 0, as a key built from ints would."""
    fam = build_xi0(2, 3, cutoff=3)
    for got, x_powers in ((mul(fam["r(1)"], fam["r(1)"]), {3}),
                          (mul(fam["r(1)"], fam["r(-1)"]), {0}),
                          (commutator(fam["chi(-1)"], fam["j+(1)"]), {0, 1})):
        check_canonical(got)
        assert {mon[0] for mon, _ in got.terms} == x_powers
        assert {type(mon[0]) for mon, _ in got.terms} == {int}
        assert all(type(p) is int for mon, _ in got.terms for p in mon)
        assert "x^(" not in got.text()
    assert "x^" not in mul(fam["r(1)"], fam["r(-1)"]).text()


def _assert_lattice_keys(e):
    """The unit of ``e`` is the lcm of its slot denominators, and its packed
    form on that unit, made anew when it has none, packs every slot on
    that lattice (``assert_packed`` checks each one)."""
    unit = e._lattice
    assert type(unit) is int and unit == lattice_unit(e.terms)
    _, form, _ = weyl._packed_forms(unit, 0, e)
    assert_packed(e, unit, form)


@pytest.mark.parametrize("table, powers_a, powers_b, weights_a, weights_b, seed", [
    (RAT_TABLE, (0, 1, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)),
     (0, 2, Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3)),
     (0, Fraction(1, 2), Fraction(-1, 2)), (0, 1, Fraction(-1, 3)), 503),
    (TIME_TABLE, None, None, (0, Fraction(1, 2), Fraction(-1, 2)),
     (0, Fraction(3, 2), Fraction(-1, 7), 2), 509),
], ids=["rat", "time"])
def test_mixed_unit_kernels_match_references(table, powers_a, powers_b,
                                             weights_a, weights_b, seed):
    """Operands on different exponent lattices (x^(1/2) against x^(1/3),
    e^(t/2) d[t]^2 against e^(-t/7)) meet on the lcm of their units.  mul,
    commutator and apply_to equal their references; every result stores an
    int slot wherever the value is integral, zero included; and the kernel
    form of every operand and result on each unit, integral Fraction slots
    included, packs every slot on that lattice."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    x, y = WeylElement.var(table, "x"), WeylElement.var(table, "y")
    dx, dt2 = WeylElement.deriv(table, "x"), WeylElement.time_deriv(table, 2)
    e_half = WeylElement.exp_t(table, half)
    e_minus_half = WeylElement.exp_t(table, -half)
    cases = [(e_half * dt2, e_minus_half * x, e_minus_half * x * y)]
    if table is RAT_TABLE:
        xh, xt = (WeylElement.var(table, "x", p) for p in (half, third))
        cases += [(xh * dx, xt, xt),
                  (WeylElement.var(table, "x", -half) * dx,
                   WeylElement.var(table, "x", Fraction(3, 2)) * y,
                   WeylElement.var(table, "x", Fraction(3, 2))),
                  (WeylElement.var(table, "y", Fraction(2, 3)) * dx,
                   WeylElement.var(table, "y", third) * xh,
                   WeylElement.var(table, "x", -half))]
    rng = random.Random(seed)
    for _ in range(40):
        a = random_element(table, rng, max_terms=3, weights=weights_a,
                           powers=powers_a)
        a = a + e_half * dt2 * random_state(table, rng, max_terms=2)
        b = random_element(table, rng, max_terms=3, weights=weights_b,
                           powers=powers_b)
        f = random_state(table, rng) * WeylElement.exp_t(table,
                                                         rng.choice(weights_b))
        if powers_b:
            f = f * WeylElement.var(table, "x", rng.choice(powers_b))
        cases.append((a, b, f))
    units = set()
    for a, b, f in cases:
        results = [(mul(a, b), reference_mul(a, b)),
                   (commutator(a, b), reference_mul(a, b) - reference_mul(b, a)),
                   (apply_to(a, f), reference_apply_to(a, f))]
        for got, reference in results:
            check_canonical(got)
            assert got == reference
            assert got.text() == reference.text()
        fa, ff = with_fraction_exponents(a), with_fraction_exponents(f)
        assert mul(fa, b) == results[0][0] and apply_to(fa, ff) == results[2][0]
        for e in (a, b, f, fa, ff, *(got for got, _ in results)):
            _assert_lattice_keys(e)
        units.add((a._lattice, b._lattice, f._lattice))
        for e in (a, b, f):
            _assert_packed_slot(e)
    # the fixed cases: products whose Fraction slots sum to an integer or 0
    got = mul(*cases[0][:2])
    assert {mon[-1] for mon, _ in got.terms} == {0}
    assert all(type(p) is int for mon, _ in got.terms for p in mon)
    if table is RAT_TABLE:
        # x^(-1/2) d[x] x^(3/2) = 3/2: the x slot is an int 0
        got = apply_to(cases[2][0], cases[2][2])
        assert got.terms == {(table.zeros, table.zeros): Coef.const(Fraction(3, 2))}
        assert all(type(p) is int for mon, _ in got.terms for p in mon)
        # y^(2/3) d[x] y^(1/3) x^(1/2): y^1 in an int slot beside x^(+-1/2)
        got = mul(*cases[3][:2])
        assert {(mon[0], mon[1]) for mon, _ in got.terms} == {(half, 1), (-half, 1)}
        assert all(type(mon[1]) is int for mon, _ in got.terms)
        assert (2, 3, 3) in units
    assert any(ua != ub for ua, ub, _ in units)


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
    assert got.terms == {((0, 0, 1, 0), PLAIN_TABLE.zeros): expected}
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
    """An element made without the constructor, with the constructor's
    unit and no packed forms yet, gets its packed form and term lists from
    ``mul`` on first use and its operator form from ``apply_to``, and a
    state its packed form from ``apply_to``.  Each equals the one built
    from its terms, and is read after."""
    rng = random.Random(349)
    for _ in range(10):
        a, b, f = _kernel_cases(TIME_TABLE, (0, 1, -2, Fraction(1, 2)), None,
                                rng, COEF_POOL)
        raw_a, raw_f = (unchecked_element(e.table, e.terms) for e in (a, f))
        assert (raw_a._lattice, raw_f._lattice) == (a._lattice, f._lattice)
        assert raw_a._packed is None and raw_f._packed is None
        assert mul(raw_a, b) == mul(a, b)
        unit = math.lcm(a._lattice, b._lattice)
        (stored, form), = raw_a._packed.items()
        assert stored == unit and form[4] is not None
        _assert_packed_slot(raw_a)
        assert apply_to(raw_a, raw_f) == apply_to(a, f)
        (unit, form), = raw_f._packed.items()
        _assert_packed_slot(raw_f)
        assert raw_a._packed[unit][5] is not None
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
    assert mon == (1, 0, 0) and type(mon[0]) is int
    # the same with the weights: e^(t/2) d[t] on e^(3t/2) is 3/2 e^(2t)
    a = WeylElement.exp_t(RAT_TABLE, half) * WeylElement.time_deriv(RAT_TABLE)
    got = apply_to(a, WeylElement.exp_t(RAT_TABLE, Fraction(3, 2)))
    check_canonical(got)
    assert got == Fraction(3, 2) * WeylElement.exp_t(RAT_TABLE, 2)
    assert type(next(iter(got.terms))[0][-1]) is int


THIRD_TABLE = VarTable(("x", "y"), (RAT, RAT), has_time=True)

# (table, operator powers, state powers, weights, coefficients, seed); the
# unit of an operand is the lcm of the denominators of its powers and weights
DENSE_CASES = {
    "rat": (RAT_TABLE, RAT_EXPONENT_POOL, RAT_EXPONENT_POOL,
            (0, 1, Fraction(-3, 2), Fraction(1, 2)), RATIONAL_COEFS, 401),
    "int-tau": (TAU_TABLE, (-2, -1, 0, 1, 2, 3), (-2, -1, 0, 1, 2, 3), (0,),
                RATIONAL_COEFS, 409),
    "exp-time": (TIME_TABLE, (0, 1, 2, 3), (0, 1, 2, 3),
                 (0, 1, -2, Fraction(1, 2), Fraction(-3, 2)), RATIONAL_COEFS, 419),
    "symbolic-time": (TIME_TABLE, (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, Fraction(1, 2)),
                      COEF_POOL, 421),
    "symbolic-rat": (RAT_TABLE, RAT_EXPONENT_POOL, RAT_EXPONENT_POOL, (0, Fraction(1, 3)),
                     COEF_POOL, 431),
    "psi-unit-above": (THIRD_TABLE, (0, 1, 2, -1), (0, 1, Fraction(1, 3), Fraction(-2, 3)),
                       (0,), RATIONAL_COEFS, 433),
    "psi-unit-below": (THIRD_TABLE, (0, 1, Fraction(1, 2), Fraction(-3, 2)), (0, 1, 2),
                       (0,), RATIONAL_COEFS, 439),
}


def _euler_operator(table, rng, coefs):
    """sum_i c_i v_i d[v_i] (+ c d[t] on a table with time), c from ``coefs``:
    every monomial is an eigenfunction, with E = sum_i c_i p_i (+ c w)."""
    out = WeylElement.zero(table)
    for name in table.names:
        out = out + (WeylElement.var(table, name) * WeylElement.deriv(table, name)
                     ).scaled(rng.choice(coefs))
    if table.has_time:
        out = out + WeylElement.time_deriv(table).scaled(rng.choice(coefs))
    return out


def _monomial(table, rng, powers, weights):
    term = WeylElement.const(table, 1)
    for name in table.names:
        term = term * WeylElement.var(table, name, rng.choice(powers))
    if table.has_time:
        term = term * WeylElement.exp_t(table, rng.choice(weights))
    return term


def _assert_packed_slot(e):
    """Every packed form an element holds equals a fresh packing of its
    terms, and so do its term lists where it has them."""
    for unit, form in (e._packed or {}).items():
        assert_packed(e, unit, form)
        assert form[4] in (None, kernel_terms(e, unit, form[2]))


@pytest.mark.parametrize("case", DENSE_CASES, ids=list(DENSE_CASES))
def test_apply_to_matches_reference_on_dense_vectors(case):
    """apply_to equals the derivative-free part of the reference product,
    coefficient text included, when several terms of the operator share
    one derivative block, on Fraction exponents and weights, operator and
    state units that differ either way, negative powers of tau, d[t] over
    e^(w t) with w = 0 and w != 0, and gamma/xi blocks; instantiating it
    at a random point gives apply_to on the instantiated operands; each
    result's packed slot equals a fresh packing of its terms; and
    eigencheck on packed keys equals its reference, on random pairs and on
    eigenstates of an Euler operator."""
    from cgaweyl.spectrum import eigencheck
    table, op_powers, state_powers, weights, coefs, seed = DENSE_CASES[case]
    rng = random.Random(seed)
    for _ in range(30):
        a = (_shared_block_operator(table, rng, op_powers, weights, coefs)
             + random_element(table, rng, max_terms=3, weights=weights,
                              powers=op_powers, coefs=coefs))
        f = _scalar_function(table, rng, state_powers, weights, coefs)
        got = apply_to(a, f)
        check_canonical(got)
        reference = reference_apply_to(a, f)
        assert got == reference
        assert got.text() == reference.text()
        _assert_packed_slot(got)
        _assert_packed_slot(f)
        point = random_point(rng)
        assert at_point(got, *point) == apply_to(at_point(a, *point),
                                                 at_point(f, *point))
        if not f.is_zero():
            assert eigencheck(a, f) == reference_eigencheck(a, f)
        H = _euler_operator(table, rng, RATIONAL_COEFS[:5])
        if case == "psi-unit-below":  # unit 2, and the new term kills every state
            H = H + (WeylElement.var(table, "x", Fraction(1, 2))
                     * WeylElement.deriv(table, "y", 3))
        m = _monomial(table, rng, state_powers, weights)
        for psi in (m.scaled(rng.choice(coefs)),
                    m.scaled(rng.choice(coefs)) + _monomial(table, rng, state_powers, weights),
                    f):
            if not psi.is_zero():
                value = eigencheck(H, psi)
                assert value == reference_eigencheck(H, psi)
                assert value is not None or len(psi.terms) > 1


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
    """A state with a derivative is rejected, also once it has been a
    ``mul`` operand and holds a packed form."""
    with pytest.raises(ValueError):
        apply_to(D("x"), D("x"))
    f = V("x") * D("y")
    assert mul(V("y"), f) == reference_mul(V("y"), f) and f._packed
    with pytest.raises(ValueError):
        apply_to(D("x"), f)


def test_apply_rejects_operators_before_splitting():
    """The derivative-free check runs first: no packed form of either
    fresh operand is made."""
    a, f = (WeylElement(e.table, e.terms) for e in (V("x") * D("y"), V("y") * D("x")))
    with pytest.raises(ValueError):
        apply_to(a, f)
    for e in (a, f):
        assert e._packed is None


# -- apply_to on packed keys ---------------------------------------------------

def V_tau(name, p=1):
    return WeylElement.var(TAU_TABLE, name, p)


def _assert_kernels_match(a, f):
    """apply_to, mul and commutator on (a, f) equal their references, and
    every packed form of the operands and results equals a fresh packing."""
    got = [(apply_to(a, f), reference_apply_to(a, f)),
           (mul(a, f), reference_mul(a, f)),
           (mul(f, a), reference_mul(f, a)),
           (commutator(a, f), reference_mul(a, f) - reference_mul(f, a))]
    for result, reference in got:
        assert result == reference
    for e in (a, f, *(result for result, _ in got)):
        _assert_packed_slot(e)


def test_apply_to_on_a_huge_exponent_is_exact():
    """d[x] on x^big is big x^(big - 1), for big = 2^40 and 2^64 + 3: the
    fields are wide enough for the exponents, above one machine word too,
    and later calls on the result widen the operator; mul and commutator
    on the same operands equal the reference product."""
    for big in (2 ** 40, 2 ** 64 + 3):
        f = V_tau("x", big) * V_tau("tau", -1)
        d = WeylElement.deriv(TAU_TABLE, "x")
        got = apply_to(d, f)
        assert got.terms == {((-1, big - 1, 0, 0), TAU_TABLE.zeros): Coef.const(big)}
        (width,) = {form[2] for form in got._packed.values()}
        assert width > big.bit_length()
        _assert_kernels_match(d, f)
        a = V_tau("x", big) * d + V_tau("tau") * WeylElement.deriv(TAU_TABLE, "tau")
        chain = got
        for _ in range(3):
            nxt = apply_to(a, chain)
            assert nxt == reference_apply_to(a, chain)
            _assert_packed_slot(nxt)
            chain = nxt
        assert a._packed[1][5] is not None
        assert a._packed[1][2] >= max(form[2] for form in chain._packed.values())
        _assert_kernels_match(a, got)
        # the operator, now packed wide, still acts exactly on a small state
        small = V_tau("x", 2) + V_tau("y", -3)
        _assert_kernels_match(a, small)


def test_packed_fields_hold_the_extreme_slots():
    """tau^(-s) d[tau] on tau^(-r) gives the slot -(s + 1 + r), the most
    negative one that the bounds allow, and x^s d[x] on x^r the most
    positive ones, s + r - 1 and, in the product, s + r.  The bound sum
    s + 1 + r runs across the powers of 2 where the field width doubles,
    past 2^64 too, so every width from 8 to 128 bits is met at its edge
    and still decodes exactly, in apply_to, in mul both ways and in
    commutator."""
    totals = {2 ** k + j for k in (3, 6, 7, 8, 15, 16, 31, 32, 63, 64, 65)
              for j in (-1, 0, 1)}
    for total in sorted(totals):
        for s in (0, total // 2, total - 2):
            r = total - 1 - s
            tau = V_tau("tau", -s) * WeylElement.deriv(TAU_TABLE, "tau")
            x = V_tau("x", s) * WeylElement.deriv(TAU_TABLE, "x")
            for a, f in ((tau, V_tau("tau", -r)), (x, V_tau("x", r) + V_tau("y", -r))):
                _assert_kernels_match(a, f)
                (width,) = {form[2] for form in f._packed.values()}
                assert (total < 1 << width - 1) and (width == 8 or total >= 1 << width // 2 - 1)


def test_threads_share_packed_forms_safely():
    """Threads that apply shared fresh operators to shared fresh states at
    once get the single-threaded results, and every stored form equals a
    fresh packing."""
    rng = random.Random(443)
    table, op_powers, state_powers, weights, coefs, _ = DENSE_CASES["rat"]
    ops = [_shared_block_operator(table, rng, op_powers, weights, coefs) for _ in range(6)]
    states = [_scalar_function(table, rng, state_powers, weights, coefs) for _ in range(6)]
    states.append(V_tau("x", 2 ** 40))  # a wide state on another table
    expected = [reference_apply_to(a, f) for a in ops for f in states[:-1]]
    results, interval = {}, sys.getswitchinterval()
    wide_op = V_tau("x") * WeylElement.deriv(TAU_TABLE, "x")

    def work(n):
        results[n] = [apply_to(a, f) for a in ops for f in states[:-1]]
        results[n, "wide"] = apply_to(wide_op, states[-1])

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
    assert all(results[n] == expected for n in range(4))
    assert all(results[n, "wide"] == 2 ** 40 * states[-1] for n in range(4))
    for f in states:
        _assert_packed_slot(f)


@pytest.mark.parametrize("case", ["rat", "psi-unit-above", "symbolic-time"])
def test_packed_slot_holds_after_a_chain_of_three(case):
    """Each result of a chain of three apply_to calls, every one fed the
    result before it, keeps the form that a fresh packing of its terms
    gives, and equals the reference chain."""
    table, op_powers, state_powers, weights, coefs, seed = DENSE_CASES[case]
    rng = random.Random(seed + 1)
    for _ in range(8):
        f = ref = _scalar_function(table, rng, state_powers, weights, coefs)
        for _ in range(3):
            a = (_shared_block_operator(table, rng, op_powers, weights, coefs)
                 + random_element(table, rng, max_terms=2, weights=weights,
                                  powers=op_powers, coefs=coefs))
            f, ref = apply_to(a, f), reference_apply_to(a, ref)
            assert f == ref
            assert f._packed
            _assert_packed_slot(f)


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


def test_substitute_rejects_a_fractional_exponent():
    half = WeylElement.var(RAT_TABLE, "x", Fraction(1, 2))
    with pytest.raises(DomainViolation, match="needs integer exponents"):
        substitute(half, {"x": Coef.const(2)})


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
    (du_key,) = WeylElement.deriv(base.table, "u").terms
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
    assert free_to_osc(osc["z+"], free.table) == free["z+"]
    assert free_to_osc(osc["v+1"], free.table) == free["v+1"]
    assert free_to_osc(osc["theta"], free.table) == free["theta"]
    # z0 maps to the calibrated constant, a shift of -2 against the printed one
    diff = free_to_osc(osc["z0"], free.table) - free["z0"]
    assert diff.constant_value() == Coef.const(-2)


def test_free_to_osc_is_a_homomorphism_on_generators():
    osc = build_osc_l1(2, 3)
    names = list(osc.order)
    images = {n: free_to_osc(osc[n], FREE_L1_TABLE) for n in names}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert free_to_osc(commutator(osc[a], osc[b]), FREE_L1_TABLE) == \
                commutator(images[a], images[b]), (a, b)


def test_free_to_osc_homomorphism_random():
    rng = random.Random(41)
    for _ in range(40):
        a = random_element(TIME_TABLE, rng, weights=(0, 1, -1))
        b = random_element(TIME_TABLE, rng, weights=(0, 1, -1))
        assert free_to_osc(mul(a, b), FREE_L1_TABLE) == \
            mul(free_to_osc(a, FREE_L1_TABLE), free_to_osc(b, FREE_L1_TABLE))


def test_free_to_osc_rejects_non_integer_weights():
    e = WeylElement.exp_t(TIME_TABLE, Fraction(1, 2))
    with pytest.raises(NonIntegerTimeWeight):
        free_to_osc(e, FREE_L1_TABLE)


def test_free_to_osc_rejects_a_mismatched_table():
    """The tau table must list tau and then the source names, in order.

    Unchecked, tau listed last turned v+1 into gamma d[y] (gamma d[x] is
    right), and the order tau, u, y, x swapped x and u in w-1."""
    osc = build_osc_l1()
    for names, gen in ((("x", "y", "u", "tau"), "v+1"),
                       (("tau", "u", "y", "x"), "w-1")):
        table = VarTable(names, tuple(INT if n == "tau" else NAT for n in names))
        with pytest.raises(ValueError, match="free_table names"):
            free_to_osc(osc[gen], table)


def test_free_to_osc_generator_images():
    """The map's definition on the generators of the exponential-time
    algebra: e^(k*t) -> tau^k, v -> tau^(-w_v) v, d[v] -> tau^(w_v) d[v]
    and d[t] -> tau d[tau] + x d[x] + y d[y], with w_v = 1 for x and y
    and 0 for u."""
    images = [(f"e^({k}*t)", f"tau^({k})") for k in (-3, -1, 1, 2)] + [
        ("x", "tau^(-1) * x"), ("y", "tau^(-1) * y"), ("u", "u"),
        ("d[x]", "tau * d[x]"), ("d[y]", "tau * d[y]"), ("d[u]", "d[u]"),
        ("d[t]", "tau * d[tau] + (1) * x * d[x] + (1) * y * d[y]")]
    for source, image in images:
        assert free_to_osc(parse_element(f"(1) * {source}", OSC_L1_TABLE),
                           FREE_L1_TABLE) == \
            parse_element(f"(1) * {image}", FREE_L1_TABLE), source


def test_free_to_osc_rejects_a_timeless_element():
    with pytest.raises(ValueError, match="expects an exponential-time element"):
        free_to_osc(V("x"), FREE_L1_TABLE)


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


@pytest.mark.parametrize("table, options", [
    (TIME_TABLE, dict(weights=(0, 1, -1))),
    (RAT_TABLE, dict(weights=(0, 1, -1, Fraction(3, 2), Fraction(-1, 6)),
                     powers=RAT_EXPONENT_POOL, coefs=COEF_POOL + LAURENT_POOL)),
], ids=["time", "rat"])
def test_roundtrip_is_byte_stable(table, options):
    rng = random.Random(43)
    for _ in range(40):
        e = random_element(table, rng, **options)
        text = element_to_text(e)
        got = parse_element(text, table)
        assert got == e and element_to_text(got) == text, text


def test_parse_adds_repeated_factors():
    """Repeated factors multiply: weights add, as powers and orders do."""
    e = parse_element("(1) * e^(1*t) * e^(2*t) * x * x", TIME_TABLE)
    assert e == mul(WeylElement.exp_t(TIME_TABLE, 3), WeylElement.var(TIME_TABLE, "x", 2))
    assert element_to_text(e) == "(1) * e^(3*t) * x^2"
    e = parse_element("(1) * d[t] * y * d[x] * d[t] * d[x]", TIME_TABLE)
    assert element_to_text(e) == "(1) * y * d[x]^2 * d[t]^2"


def test_printed_order_is_not_the_key_vector_order():
    """Terms print in descending (d[t] order, (index, order) pairs,
    weight, (index, exponent) pairs).  A sort of the raw key vectors would
    print x^2 before y and before d[t], and d[x1] before d[u]."""
    for table, text, printed in (
            (PLAIN_TABLE, "(1) * x^2 + (1) * y", "(1) * y + (1) * x^2"),
            (TIME_TABLE,
             "(1) * x^2 + (1) * e^(-1*t) * y + (1) * u * d[y] + (1) * d[t]",
             "(1) * d[t] + (1) * u * d[y] + (1) * x^2 + (1) * e^(-1*t) * y")):
        assert element_to_text(parse_element(text, table)) == printed
    v = build_free_general(2, verbatim=False)["v-1"]
    assert v.text() == ("(3) * tau * d[u] + (3) * tau^2 * d[x2] + "
                        "(1) * tau^3 * d[x1] + (-6) * y2")


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


# id: (text, error, the message it must hold)
_BAD_TEXT = {
    # a zero denominator is named, wherever a p/q stands
    "zero-den-coef": ("(1/0) * x", ValueError, "zero denominator in '1/0'"),
    "zero-den-power": ("(1) * x^(1/0)", ValueError, "zero denominator in '1/0'"),
    "zero-den-weight": ("(1) * e^(1/0*t)", ValueError, "zero denominator in '1/0'"),
    # text outside the printed grammar
    "sign-factor": ("(1) * +", ValueError, "unexpected text"),
    "number-factor": ("(1) * 3/2", ValueError, "unexpected text"),
    "double-star": ("(1) * x * * y", ValueError, "unexpected text"),
    "sign-derivative": ("(1) * d[+]", ValueError, "unexpected text"),
    "reserved-name": ("(1) * t", ValueError, "unexpected text"),
    "dangling-star": ("(2*) * x", ValueError, "expected a coefficient"),
    "leading-plus": ("(+1) * x", ValueError, "expected a coefficient"),
    "bad-term": ("(1) * z + $", ValueError, "expected a coefficient"),
    # a well-formed name that the table lacks
    "unknown-var": ("(1) * z", KeyError, "unknown variable 'z'"),
    "unknown-derivative": ("(1) * d[z]^2", KeyError, "unknown variable 'z'"),
}


@pytest.mark.parametrize("text, error, match", _BAD_TEXT.values(), ids=_BAD_TEXT)
def test_parse_error_contract(text, error, match):
    """ValueError for text outside the grammar, a zero denominator or an
    inexact division; KeyError only for a variable the table lacks."""
    with pytest.raises(error, match=re.escape(match)):
        parse_element(text, TIME_TABLE)


def test_roundtrip_rational_exponents_and_weights():
    rat = VarTable(("x",), (RAT,), has_time=True)
    e = mul(WeylElement.exp_t(rat, Fraction(3, 2)),
            WeylElement.var(rat, "x", Fraction(-2, 3)))
    assert parse_element(element_to_text(e), rat) == e


def test_remap_widens_domains():
    e = mul(V("y"), D("y"))
    wide = PLAIN_TABLE.widened("y")
    moved = remap(e, wide)
    assert element_to_text(moved) == element_to_text(e)
    y_lam = WeylElement.var(wide, "y", Fraction(7, 3))
    assert apply_to(moved, y_lam) == Fraction(7, 3) * y_lam


def test_remap_rejects_two_names_on_one_target():
    """A name map that sends two variables to one name would merge them:
    unchecked, x y^2 came out as z^2 and x d[y] as d[z]."""
    z_table = VarTable(("z", "u"), (NAT, NAT))
    for e in (V("x") * V("y", 2), V("x") * D("y")):
        with pytest.raises(ValueError, match="sends 'x' and 'y' both to 'z'"):
            remap(e, z_table, {"x": "z", "y": "z"})
    with pytest.raises(ValueError, match="sends 'x' and 'y' both to 'y'"):
        remap(V("x"), PLAIN_TABLE, {"x": "y"})


# -- variable tables -----------------------------------------------------------

@pytest.mark.parametrize("names, domains, match", [
    (("x", "x"), (NAT, NAT), "must be unique"),
    (("x", "y"), (NAT,), "one domain per variable"),
    (("x",), ("real",), "unknown exponent domain 'real'"),
] + [((name,), (NAT,), f"variable name {name!r} is not")
     for name in ("e", "d", "t", "x_1", "1x", "", "x'", "ξ", "x y")])
def test_var_table_constructor_errors(names, domains, match):
    """One domain per unique name, from the three domains, and only names
    that element text reads back: a letter, then letters and digits,
    other than e, d and t."""
    with pytest.raises(ValueError, match=re.escape(match)):
        VarTable(names, domains)


def test_every_accepted_name_reads_back():
    names = ("tau", "x1", "e2", "dx", "te", "Y", "et")
    table = VarTable(names, (INT,) * len(names), has_time=True)
    e = WeylElement.exp_t(table, -1)
    for name in names:
        e = e + mul(WeylElement.var(table, name, -2), WeylElement.deriv(table, name))
    assert parse_element(element_to_text(e), table) == e
