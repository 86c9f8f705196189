"""Shared builders for the randomized engine tests (seeded, deterministic)."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product as cartesian
from operator import add

from cgaweyl.scalar import Coef, NotDivisible, split_blocks
from cgaweyl.spectrum import ZeroState
from cgaweyl.weyl import NAT, RAT, Exponent, VarTable, WeylElement, apply_to

PLAIN_TABLE = VarTable(("x", "y", "u"), (NAT, NAT, NAT))
TIME_TABLE = VarTable(("x", "y", "u"), (NAT, NAT, NAT), has_time=True)
RAT_TABLE = VarTable(("x", "y"), (RAT, RAT), has_time=True)

COEF_POOL = (
    Coef.const(1), Coef.const(-1), Coef.const(2), Coef.const(Fraction(1, 2)),
    Coef.const(Fraction(-3, 2)), Coef.gamma(), Coef.xi(),
    Coef.const(2) / Coef.xi(), Coef.gamma() / (Coef.const(2) * Coef.xi()),
)

# Values of two or more terms, negative powers included.
LAURENT_POOL = (
    Coef.gamma() + Coef.xi(),
    Coef.const(2) / Coef.xi() - Coef.gamma() / Coef.const(3),
    Coef.gamma() * Coef.xi() - Coef.const(Fraction(1, 2)),
    Coef.gamma() ** 2 + Coef.const(3) / Coef.xi() + Coef.const(1),
)

RATIONAL_POOL = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3),
    Fraction(5, 3), Fraction(-1, 4), Fraction(7),
)

RAT_EXPONENT_POOL = (0, 0, 1, 2, -1, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 3))


def random_coef(rng: random.Random) -> Coef:
    return rng.choice(COEF_POOL)


def random_element(table: VarTable, rng: random.Random, max_terms: int = 2,
                   max_pow: int = 2, max_der: int = 2,
                   weights=(0,), powers=None, coefs=COEF_POOL) -> WeylElement:
    """A small random operator: bounded powers, derivatives, coefficients.

    Exponents are drawn from ``powers`` when given (e.g. Fractions for a
    RAT-domain table), else from 0..max_pow; coefficients from ``coefs``.
    """
    out = WeylElement.zero(table)
    for _ in range(rng.randint(1, max_terms)):
        term = WeylElement.const(table, rng.choice(coefs))
        for name in table.names:
            p = rng.choice(powers) if powers else rng.randint(0, max_pow)
            if p:
                term = term * WeylElement.var(table, name, p)
        for name in table.names:
            k = rng.randint(0, max_der)
            if k and rng.random() < 0.5:
                term = term * WeylElement.deriv(table, name, k)
        if table.has_time:
            w = rng.choice(weights)
            if w:
                term = term * WeylElement.exp_t(table, w)
            if rng.random() < 0.3:
                term = term * WeylElement.time_deriv(table)
        out = out + term
    return out


def random_state(table: VarTable, rng: random.Random, max_terms: int = 3,
                 max_pow: int = 3, coefs=COEF_POOL) -> WeylElement:
    """A random derivative-free polynomial state, coefficients from ``coefs``."""
    out = WeylElement.zero(table)
    for _ in range(rng.randint(1, max_terms)):
        term = WeylElement.const(table, rng.choice(coefs))
        for name in table.names:
            p = rng.randint(0, max_pow)
            if p:
                term = term * WeylElement.var(table, name, p)
        out = out + term
    return out


def random_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A point (gamma, xi) of nonzero rationals."""
    return tuple(Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 4, 7)),
                          rng.randint(1, 4)) for _ in range(2))


def at_point(e: WeylElement, gamma_val, xi_val) -> WeylElement:
    """``e`` with every coefficient instantiated at (gamma, xi)."""
    return WeylElement(e.table, {key: Coef.const(c.instantiate(gamma_val, xi_val))
                                 for key, c in e.terms.items()})


def is_canonical_exponent(p) -> bool:
    """int when integral, Fraction only when genuinely fractional."""
    return type(p) is int or (type(p) is Fraction and p.denominator != 1)


def with_fraction_exponents(e: WeylElement) -> WeylElement:
    """The same element with every weight and exponent stored as a Fraction.

    Builds the keys directly, bypassing the canonical constructor, so
    kernels can be fed integral exponents of the other type.
    """
    return unchecked_element(e.table, {(tuple(map(Fraction, mon)), der): c
                                       for (mon, der), c in e.terms.items()})


def unchecked_element(table: VarTable, terms: dict) -> WeylElement:
    """An element holding ``terms`` exactly as given.

    Bypasses the WeylElement constructor and its checks, so a test can
    feed the kernels an operand that no constructor would accept, such as
    a term outside its table's exponent domain, or keys with integral
    ``Fraction`` slots.  Its exponent unit is set by the constructor's rule
    (:func:`lattice_unit`, so ``Fraction(2)`` counts as 1) and its mask and
    packed slots are empty.
    """
    e = WeylElement.__new__(WeylElement)
    e.table, e.terms = table, dict(terms)
    e._lattice = lattice_unit(e.terms)
    e._masked = e._packed = e._packed_ops = None
    return e


def lattice_unit(terms: dict) -> int:
    """The exponent unit of a term map: the lcm of the denominators of its
    monomial slots, 1 when all are integral."""
    return math.lcm(*(Fraction(p).denominator for mon, _ in terms for p in mon))


def split_form(e: WeylElement, unit: int | None = None) -> tuple[dict, int, int]:
    """The split form of ``e`` on a lattice, built independently.

    ``(blocks, den, unit)``: ``unit`` is :func:`lattice_unit` of ``e``
    unless given, and ``(blocks, den)`` is ``split_blocks`` of its terms
    with every monomial slot times ``unit``, as an int.
    """
    if unit is None:
        unit = lattice_unit(e.terms)
    scaled = {(tuple(int(p * unit) for p in mon), der): c
              for (mon, der), c in e.terms.items()}
    return (*split_blocks(scaled), unit)


def packed_form(e: WeylElement, unit: int, width: int) -> tuple[dict, int, int, int]:
    """The packed form ``apply_to`` keeps for a derivative-free ``e``, built independently.

    ``(blocks, den, width, bound)``: ``split_blocks`` of the terms of ``e``
    with each key replaced by the int sum_i (w_i + 2^(width - 1)) *
    2^(i * width), w_i the monomial slot i times ``unit``, and ``bound``
    the largest |w_i|.  Every field must hold its slot without a carry.
    """
    bias, keyed, lattice = 1 << (width - 1), {}, []
    for (mon, der), c in e.terms.items():
        assert not any(der)
        w = [int(p * unit) for p in mon]
        assert all(p == q * unit for p, q in zip(w, mon))
        assert all(abs(p) < bias for p in w)
        keyed[sum((p + bias) << (i * width) for i, p in enumerate(w))] = c
        lattice += w
    return (*split_blocks(keyed), width, max(map(abs, lattice), default=0))


def slot_mask(v: tuple) -> int:
    """The int with bit i set for each nonzero slot i of ``v``."""
    return sum(1 << i for i, p in enumerate(v) if p)


def masked_form(e: WeylElement, unit: int | None = None) -> tuple[dict, int]:
    """The form ``mul`` and ``commutator`` cache for ``e``, built independently.

    ``(blocks, den)``: each block of ``split_form(e, unit)`` as a list of
    (mon, der, numerator, mon mask, der mask), in the block's order, and
    the split form's common denominator.
    """
    blocks, den, _ = split_form(e, unit)
    return ({blk: [(m, d, n, slot_mask(m), slot_mask(d)) for (m, d), n in terms.items()]
             for blk, terms in blocks.items()}, den)


def falling(p: Exponent, k: int) -> Exponent:
    """Falling factorial p(p-1)...(p-k+1); exact for rational p, int for int p."""
    out = 1
    for i in range(k):
        out *= p - i
    return out


def _reorder_options(der: tuple, mon: tuple):
    """All ways of passing the derivative block ``der`` through ``mon``.

    Yields (rational factor, picked-up monomial, remaining derivative), the
    k = 0 option (1, mon, der) first.  The uncached reference of
    ``weyl._reorder_corrections``, on unscaled keys.
    """
    last, choices = len(der) - 1, []
    for i, a in enumerate(der):
        if a:
            p = mon[i]
            opts = []
            for k in range(a + 1):
                f = math.comb(a, k) * (p**k if i == last else falling(p, k))
                if f:
                    opts.append((i, k, a - k, f))
            choices.append(opts)
    for combo in cartesian(*choices):
        factor, m, d = 1, list(mon), [0] * len(der)
        for i, k, rem, f in combo:
            factor *= f
            d[i] = rem
            if i != last:  # d[t] keeps the weight
                m[i] -= k
        yield factor, tuple(m), tuple(d)


def reference_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """The normal-ordered product built from the reordering generator alone.

    Walks every option of ``_reorder_options``, the k = 0 term included,
    and never reads the memo that ``mul`` and ``commutator`` use, so tests
    can compare those kernels against it.
    """
    out = {}
    for (m1, d1), c1 in a.terms.items():
        for (m2, d2), c2 in b.terms.items():
            for factor, m_mid, d_rem in _reorder_options(d1, m2):
                key = (tuple(map(add, m1, m_mid)), tuple(map(add, d_rem, d2)))
                c = (c1 * c2).scale(factor)
                out[key] = out[key] + c if key in out else c
    return WeylElement(a.table, out)


def reference_apply_to(a: WeylElement, f: WeylElement) -> WeylElement:
    """``apply_to(a, f)`` as the derivative-free part of ``reference_mul(a, f)``."""
    return WeylElement(a.table, {key: c for key, c in reference_mul(a, f).terms.items()
                                 if not any(key[1])})


def reference_eigencheck(H: WeylElement, psi: WeylElement) -> Fraction | None:
    """``eigencheck`` on ``Coef`` values: the image is the joined ``apply_to``.

    The candidate E is the quotient of one term of H psi by the same term
    of psi; it must be a plain rational, and H psi and psi must have the
    same keys with every coefficient of H psi equal to E times psi's.
    """
    if psi.is_zero():
        raise ZeroState("eigencheck on the zero state")
    image = apply_to(H, psi).terms
    if not image:
        return Fraction(0)
    if image.keys() != psi.terms.keys():
        return None
    key = next(iter(psi.terms))
    try:
        ratio = (image[key] / psi.terms[key]).as_fraction()
    except NotDivisible:
        return None
    if ratio is None:
        return None
    ok = all(image[k] == c * ratio for k, c in psi.terms.items())
    return ratio if ok else None


def check_canonical(e: WeylElement) -> None:
    """Structural canonical-form invariants of a term map.

    Each key is two vectors of one slot per table variable and one for
    time.  A constant coefficient's value is a ``Fraction``, never an
    ``int``.
    """
    size = len(e.table.names) + 1
    for (mon, der), c in e.terms.items():
        assert not c.is_zero()
        q = c.as_fraction()
        assert q is None or type(q) is Fraction
        assert type(mon) is tuple and type(der) is tuple
        assert len(mon) == len(der) == size
        assert all(is_canonical_exponent(p) for p in mon)
        assert all(type(k) is int and k >= 0 for k in der)
        assert e.table.has_time or not (mon[-1] or der[-1])
        for i, p in enumerate(mon[:-1]):
            e.table.check_power(i, p)
