"""Shared builders for the randomized engine tests (seeded, deterministic)."""
from __future__ import annotations

import random
from fractions import Fraction

from cgaweyl.scalar import Coef
from cgaweyl.weyl import (DER_NONE, NAT, RAT, Monomial, VarTable, WeylElement,
                          _der_mul, _mon_mul, _reorder_options)

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

    Builds the Monomial keys directly, bypassing the canonical constructor,
    so kernels can be fed integral exponents of the other type.
    """
    terms = {}
    for (mon, der), c in e.terms.items():
        mon = Monomial(Fraction(mon.weight),
                       tuple((i, Fraction(p)) for i, p in mon.powers))
        terms[(mon, der)] = c
    return WeylElement(e.table, terms)


def unchecked_element(table: VarTable, terms: dict) -> WeylElement:
    """An element holding ``terms`` exactly as given.

    Bypasses the WeylElement constructor and its checks, so a test can
    feed the kernels an operand that no constructor would accept, such as
    a term outside its table's exponent domain.
    """
    e = WeylElement.__new__(WeylElement)
    e.table, e.terms = table, dict(terms)
    return e


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
                key = (_mon_mul(m1, m_mid), _der_mul(d_rem, d2))
                c = (c1 * c2).scale(factor)
                out[key] = out[key] + c if key in out else c
    return WeylElement(a.table, out)


def reference_apply_to(a: WeylElement, f: WeylElement) -> WeylElement:
    """``apply_to(a, f)`` as the derivative-free part of ``reference_mul(a, f)``."""
    return WeylElement(a.table, {key: c for key, c in reference_mul(a, f).terms.items()
                                 if key[1] == DER_NONE})


def check_canonical(e: WeylElement) -> None:
    """Structural canonical-form invariants of a term map.

    A constant coefficient's value is a ``Fraction``, never an ``int``.
    """
    for (mon, der), c in e.terms.items():
        assert not c.is_zero()
        q = c.as_fraction()
        assert q is None or type(q) is Fraction
        assert is_canonical_exponent(mon.weight)
        assert all(is_canonical_exponent(p) for _, p in mon.powers)
        assert list(mon.powers) == sorted(mon.powers)
        assert all(p != 0 for _, p in mon.powers)
        assert list(der.orders) == sorted(der.orders)
        assert all(k > 0 for _, k in der.orders)
        assert der.t_order >= 0
        for i, p in mon.powers:
            e.table.check_power(i, p)
