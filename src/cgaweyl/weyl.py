"""Restricted Weyl algebra in normal-ordered canonical form.

An element is a finite sum of terms ``coef * e^(a*t) * v1^p1 ... * d[v1]^k1
... * d[t]^m`` over a declared variable set.  Multiplication reorders all
derivative factors to the right using

    d[v]^a v^p   = sum_k  C(a,k) p(p-1)...(p-k+1) v^(p-k) d[v]^(a-k)
    d[t]^a e^(ct) = sum_k C(a,k) c^k e^(ct) d[t]^(a-k)

with the falling factorial valid for rational exponents p; distinct
variables commute.  Canonical form (sorted term map, no zero coefficients,
no zero exponents) makes equality a structural check.

The ``WeylElement`` constructor alone enforces canonical form for every
element, kernel results included: it drops zero coefficients and rejects
exponents outside their variable's domain and time parts over a table
without time.  The kernels accumulate raw sums and leave both rules to it.

Exponents and time weights are exact rationals with one canonical type:
``int`` when the value is integral, ``Fraction`` only when it is genuinely
fractional (RAT-domain exponents, fractional weights).  :func:`monomial`
is the only place that applies this rule.  Every ``Monomial`` is built
through it except the all-int keys of :func:`apply_to`, which need no
rule (see :func:`_dense_monomial`), so integral keys hash and compare as
plain ints.  Since ``hash(2) == hash(Fraction(2))`` and ``2 ==
Fraction(2)``, callers may still pass integral values as ``Fraction``;
results are the same.

Reorderings are memoized.  Passing a derivative block past a monomial is
a pure function of two immutable, hashable values, and the same pairs
recur across thousands of term pairs, so :func:`_reorder_corrections`
keeps its k >= 1 terms in a ``functools.lru_cache`` bounded by
``REORDER_CACHE_SIZE`` entries.  The k = 0 term is always (1, mon, der)
and is not cached: :func:`mul` writes it itself.  The generator
:func:`_reorder_options` fills the cache and is the tests' reference.

The commutator is not ``a*b - b*a`` computed in full: the k = 0 term of
every reordering is the same in both orders and cancels, so
:func:`commutator` builds only the cached k >= 1 terms of the two orders,
in one accumulator.

:func:`apply_to` runs on dense exponent vectors.  Inside one call each
operand monomial becomes one tuple: a slot per table variable, then the
time weight.  The image of each distinct derivative block d1 on the terms
of ``f`` (the shifted vectors, with the falling factorials and the d[t]
weight factor folded into their coefficients) is made once, not once per
term of ``a``; a term m1 * d1 adds m1's vector to each entry of it.  The
sums are keyed by the vectors, and one ``Monomial`` is built per output
key, at the end.

Coefficients run on int numerators, one monomial block at a time.  Every
coefficient is a Laurent polynomial in gamma and xi, so
:func:`cgaweyl.scalar.split_blocks` writes an operand as
sum_{a,b} gamma^a * xi^b * A_ab, where each A_ab is a parameter-free term
map of int numerators over one common denominator (a plain rational is
the single block (0, 0)).  :func:`mul`, :func:`commutator` and
:func:`apply_to` run their one loop body once per pair of blocks, on
Python ints, and add each pair's sums into block (a1 + a2, b1 + b2).  This
is exact: every term of the result is a sum of c1 * c2 * factor over the
product of the two denominators, and the reordering factors are ints or,
for fractional exponents and weights, Fractions.  No ``Coef`` is built per
term pair; :func:`cgaweyl.scalar.join_blocks` builds each result ``Coef``
once, at the end.  Each element keeps its split form in a slot filled on
first use.

Elements are immutable after construction and every operation is a pure
function, so values are safe to share across threads.  Two threads
filling the same element's split-form slot at once store equal values.
The memo is safe to share too:
its entries are immutable tuples and ``lru_cache`` keeps its bookkeeping
consistent under concurrent calls (two threads missing on the same key
at once both compute it, with equal results).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product as cartesian
from operator import add

from .scalar import (COEF_ONE, COEF_ZERO, Coef, DivisionByZero, NotDivisible,
                     as_fraction, coef, join_blocks, split_blocks)

NAT = "nat"   # exponents in {0, 1, 2, ...}
INT = "int"   # exponents in Z
RAT = "rat"   # exponents in Q

Exponent = int | Fraction  # int when integral, see monomial()

_RESERVED_NAMES = {"e", "d", "t"}

# Bound on the memoized reorderings (entries of _reorder_corrections).  One
# `cgaweyl all` run fills 1,415 entries, about 0.6 MB in all.
REORDER_CACHE_SIZE = 4096


class DomainViolation(ValueError):
    """An exponent left the declared domain of its variable."""


class ZeroScaleFactor(ValueError):
    """A dilation substitution was given a zero scale factor."""


class NonIntegerTimeWeight(ValueError):
    """The time reparametrization produced a non-integer power of tau."""


@dataclass(frozen=True)
class VarTable:
    """Ordered variable set with per-variable exponent domains.

    ``has_time`` enables the distinguished time variable t, carried by
    elements as exponential weights e^(a*t) together with d[t].
    """

    names: tuple[str, ...]
    domains: tuple[str, ...]
    has_time: bool = False

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise ValueError("variable names must be unique")
        if len(self.names) != len(self.domains):
            raise ValueError("one domain per variable required")
        for n in self.names:
            if n in _RESERVED_NAMES:
                raise ValueError(f"variable name {n!r} is reserved")
        for d in self.domains:
            if d not in (NAT, INT, RAT):
                raise ValueError(f"unknown exponent domain {d!r}")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def check_power(self, idx: int, p: Exponent) -> None:
        dom = self.domains[idx]
        if dom == RAT:
            return
        if p.denominator != 1:
            raise DomainViolation(
                f"non-integer exponent {p} for variable {self.names[idx]!r}")
        if dom == NAT and p < 0:
            raise DomainViolation(
                f"negative exponent {p} for variable {self.names[idx]!r}")

    def widened(self, name: str, domain: str = RAT) -> "VarTable":
        """Copy of this table with one variable's exponent domain relaxed."""
        i = self.index(name)
        doms = list(self.domains)
        doms[i] = domain
        return VarTable(self.names, tuple(doms), self.has_time)


@dataclass(frozen=True, eq=True)
class Monomial:
    """e^(weight*t) times a product of variable powers.

    ``powers`` holds (variable index, exponent) pairs sorted by index with
    no zero exponents.  The weight and every exponent are ``int`` when
    integral and ``Fraction`` otherwise; build instances with
    :func:`monomial`, which enforces this (:func:`_dense_monomial` builds
    all-int ones directly).  The hash is computed once, at
    construction, since every memo lookup and term-map access hashes keys.
    """

    weight: Exponent
    powers: tuple[tuple[int, Exponent], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.weight, self.powers)))

    def __hash__(self) -> int:
        return self._hash

    def power_of(self, idx: int) -> Exponent:
        for i, p in self.powers:
            if i == idx:
                return p
        return 0


@dataclass(frozen=True, eq=True)
class DerivIndex:
    """Derivative multi-index: (variable index, order) pairs plus d[t] order.

    Hashed once, at construction, like :class:`Monomial`.
    """

    orders: tuple[tuple[int, int], ...]
    t_order: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.orders, self.t_order)))

    def __hash__(self) -> int:
        return self._hash

    def is_empty(self) -> bool:
        return not self.orders and not self.t_order


def monomial(weight: Exponent, powers: dict[int, Exponent]) -> Monomial:
    """The canonical Monomial e^(weight*t) * prod_i v_i^powers[i].

    Drops zero exponents, sorts by variable index, and stores each value
    as ``int`` when it is integral and as ``Fraction`` only otherwise.
    The one place that applies this rule; ``apply_to`` sends every output
    key holding a ``Fraction`` here (:func:`_dense_monomial`).
    """
    if type(weight) is not int and weight.denominator == 1:
        weight = weight.numerator
    return Monomial(weight, tuple(sorted(
        (i, p if type(p) is int or p.denominator != 1 else p.numerator)
        for i, p in powers.items() if p)))


def _dense_monomial(v: tuple) -> Monomial:
    """The Monomial of a dense vector: exponents by variable index, then weight.

    An all-int vector, the one kind whose sum is an int, is canonical as it
    stands; any other goes through :func:`monomial`.
    """
    powers = v[:-1]
    if type(sum(v)) is int:  # a list first, as for the keys in apply_to
        return Monomial(v[-1], tuple([(i, p) for i, p in enumerate(powers) if p]))
    return monomial(v[-1], dict(enumerate(powers)))


MON_ONE = monomial(0, {})
DER_NONE = DerivIndex((), 0)


def _mk_deriv(orders: dict[int, int], t_order: int) -> DerivIndex:
    items = tuple(sorted((i, k) for i, k in orders.items() if k))
    return DerivIndex(items, t_order)


def falling(p: Exponent, k: int) -> Exponent:
    """Falling factorial p(p-1)...(p-k+1); exact for rational p, int for int p."""
    out = 1
    for i in range(k):
        out *= p - i
    return out


def _term_sort_key(key: tuple[Monomial, DerivIndex]):
    mon, der = key
    return (der.t_order, der.orders, mon.weight, mon.powers)


class WeylElement:
    """Canonical normal-ordered operator: a term map (Monomial, DerivIndex) -> Coef.

    ``_blocks`` caches :func:`cgaweyl.scalar.split_blocks` of ``terms``; it
    is None, or unset on an element made without the constructor, until a
    kernel first uses the element.
    """

    __slots__ = ("table", "terms", "_blocks")

    def __init__(self, table: VarTable,
                 terms: dict[tuple[Monomial, DerivIndex], Coef] | None = None):
        self.table = table
        self._blocks = None
        cleaned: dict[tuple[Monomial, DerivIndex], Coef] = {}
        for key, c in (terms or {}).items():
            if c.is_zero():
                continue
            mon, der = key
            if mon.weight and not table.has_time:
                raise DomainViolation("exponential weight in a table without time")
            if der.t_order and not table.has_time:
                raise DomainViolation("d[t] in a table without time")
            for i, p in mon.powers:
                table.check_power(i, p)
            cleaned[key] = c
        self.terms = cleaned

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "WeylElement":
        return WeylElement(table)

    @staticmethod
    def const(table: VarTable, value) -> "WeylElement":
        return WeylElement(table, {(MON_ONE, DER_NONE): coef(value)})

    @staticmethod
    def var(table: VarTable, name: str, power=1) -> "WeylElement":
        mon = monomial(0, {table.index(name): as_fraction(power)})
        return WeylElement(table, {(mon, DER_NONE): COEF_ONE})

    @staticmethod
    def deriv(table: VarTable, name: str, order: int = 1) -> "WeylElement":
        der = _mk_deriv({table.index(name): order}, 0)
        return WeylElement(table, {(MON_ONE, der): COEF_ONE})

    @staticmethod
    def time_deriv(table: VarTable, order: int = 1) -> "WeylElement":
        if not table.has_time:
            raise DomainViolation("d[t] in a table without time")
        return WeylElement(table, {(MON_ONE, DerivIndex((), order)): COEF_ONE})

    @staticmethod
    def exp_t(table: VarTable, weight) -> "WeylElement":
        w = as_fraction(weight)
        if not table.has_time:
            raise DomainViolation("exponential weight in a table without time")
        return WeylElement(table, {(monomial(w, {}), DER_NONE): COEF_ONE})

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar_function(self) -> bool:
        """True when no term carries a derivative factor."""
        return all(der.is_empty() for _, der in self.terms)

    def constant_value(self) -> Coef | None:
        """The Coef value of a constant element (possibly zero), else None."""
        if not self.terms:
            return COEF_ZERO
        if len(self.terms) == 1:
            (key, c), = self.terms.items()
            if key == (MON_ONE, DER_NONE):
                return c
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.table != other.table:
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- linear structure ------------------------------------------------------

    def _require_same_table(self, other: "WeylElement") -> None:
        if self.table != other.table:
            raise ValueError("elements live over different variable tables")

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._require_same_table(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            out[key] = c if s is None else s + c
        return WeylElement(self.table, out)

    def __neg__(self) -> "WeylElement":
        return WeylElement(self.table, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def scaled(self, value) -> "WeylElement":
        c = coef(value)
        return WeylElement(self.table, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return mul(self, other)
        if isinstance(other, (int, Fraction, Coef)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Coef)):
            return self.scaled(other)
        return NotImplemented

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]),
                      reverse=True)

    def text(self) -> str:
        return element_to_text(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeylElement({self.text()})"


# ---------------------------------------------------------------------------
# products

def _reorder_options(der: DerivIndex, mon: Monomial):
    """All ways of passing the derivative block ``der`` through ``mon``.

    Yields (rational factor, picked-up monomial, remaining derivative).
    """
    choices = []
    for i, a in der.orders:
        p = mon.power_of(i)
        if p == 0:
            choices.append([(i, 0, a, 1)])
            continue
        opts = []
        for k in range(a + 1):
            f = math.comb(a, k) * falling(p, k)
            if f:
                opts.append((i, k, a - k, f))
        choices.append(opts)
    if der.t_order:
        a, w = der.t_order, mon.weight
        if w == 0:
            choices.append([(-1, 0, a, 1)])
        else:
            choices.append([(-1, k, a - k, math.comb(a, k) * w**k)
                            for k in range(a + 1)])
    if not choices:
        yield 1, mon, DER_NONE
        return
    base_powers = dict(mon.powers)
    for combo in cartesian(*choices):
        factor = 1
        powers = dict(base_powers)
        orders: dict[int, int] = {}
        t_rem = 0
        for i, k, rem, f in combo:
            factor *= f
            if i == -1:
                t_rem = rem
            else:
                if k:
                    powers[i] -= k
                if rem:
                    orders[i] = rem
        yield factor, monomial(mon.weight, powers), _mk_deriv(orders, t_rem)


@lru_cache(maxsize=REORDER_CACHE_SIZE)
def _reorder_corrections(der: DerivIndex, mon: Monomial):
    """The k >= 1 options of ``_reorder_options(der, mon)``, as a tuple.

    The first option, (1, mon, der), is dropped, so the tuple is empty
    for an empty ``der``.  Memoized, at most ``REORDER_CACHE_SIZE`` entries.
    """
    return tuple(islice(_reorder_options(der, mon), 1, None))


def _mon_mul(a: Monomial, b: Monomial) -> Monomial:
    if not b.powers and not b.weight:
        return a
    if not a.powers and not a.weight:
        return b
    powers = dict(a.powers)
    for i, p in b.powers:
        powers[i] = powers.get(i, 0) + p
    return monomial(a.weight + b.weight, powers)


def _der_mul(a: DerivIndex, b: DerivIndex) -> DerivIndex:
    if a.is_empty():
        return b
    if b.is_empty():
        return a
    orders = dict(a.orders)
    for i, k in b.orders:
        orders[i] = orders.get(i, 0) + k
    return _mk_deriv(orders, a.t_order + b.t_order)


def _split(e: WeylElement):
    """``split_blocks(e.terms)``, computed once per element."""
    blocks = getattr(e, "_blocks", None)  # unset when made without __init__
    if blocks is None:
        blocks = e._blocks = split_blocks(e.terms)
    return blocks


def _operands(a: WeylElement, b: WeylElement):
    """Where a kernel's loop body runs: ``(sums, den, pairs)``.

    Each of ``pairs`` is (terms of a, terms of b, accumulator) for one pair
    of monomial blocks, holding int numerators; the body runs once per
    pair, and its accumulator is ``sums[(a1 + a2, b1 + b2)]``.  ``den`` is
    the product of the two common denominators, so the kernel's result is
    ``join_blocks(sums, den)``.
    """
    a._require_same_table(b)
    (blocks_a, den_a), (blocks_b, den_b) = _split(a), _split(b)
    sums, pairs = {}, []
    for (ga, xa), terms_a in blocks_a.items():
        for (gb, xb), terms_b in blocks_b.items():
            pairs.append((terms_a, terms_b,
                          sums.setdefault((ga + gb, xa + xb), {})))
    return sums, den_a * den_b, pairs


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Canonical normal-ordered product.

    Each term pair gives its leading term (m1 m2)(d1 d2), then the
    memoized k >= 1 reordering terms of d1 past m2.
    """
    sums, den, pairs = _operands(a, b)
    for terms_a, terms_b, out in pairs:
        for (m1, d1), c1 in terms_a.items():
            for (m2, d2), c2 in terms_b.items():
                base = c1 * c2
                key = (_mon_mul(m1, m2), _der_mul(d1, d2))
                s = out.get(key)
                out[key] = base if s is None else s + base
                for factor, m_mid, d_rem in _reorder_corrections(d1, m2):
                    key = (_mon_mul(m1, m_mid), _der_mul(d_rem, d2))
                    c = base * factor
                    s = out.get(key)
                    out[key] = c if s is None else s + c
    return WeylElement(a.table, join_blocks(sums, den))


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """[a, b] = a*b - b*a, computed from the reordering terms alone.

    For a term pair (m1 d1, m2 d2) the products m1 d1 m2 d2 and m2 d2 m1 d1
    each expand into one term per choice of k >= 0 derivatives moved past
    the other monomial.  The all-k = 0 term is (m1 m2)(d1 d2) in both
    orders, because monomials commute with monomials and derivative blocks
    with derivative blocks, so it cancels exactly and is never built.  What
    is left are the k >= 1 terms of :func:`_reorder_corrections`: d1 past
    m2 with a plus sign and d2 past m1 with a minus sign; the loop is
    asymmetric on purpose.  Equal to ``mul(a, b) - mul(b, a)`` term for
    term.

    The reorderings come from a memo bounded by ``REORDER_CACHE_SIZE``
    entries.  It is shared by all threads and thread-safe: it holds only
    immutable values, and ``lru_cache`` guards its own bookkeeping.
    """
    sums, den, pairs = _operands(a, b)
    for terms_a, terms_b, out in pairs:
        for (m1, d1), c1 in terms_a.items():
            for (m2, d2), c2 in terms_b.items():
                base = None
                for left, d_left, right, d_right, sign in ((m1, d1, m2, d2, 1),
                                                           (m2, d2, m1, d1, -1)):
                    for factor, m_mid, d_rem in _reorder_corrections(d_left, right):
                        if base is None:
                            base = c1 * c2
                        key = (_mon_mul(left, m_mid), _der_mul(d_rem, d_right))
                        c = base * (sign * factor)
                        s = out.get(key)
                        out[key] = c if s is None else s + c
    return WeylElement(a.table, join_blocks(sums, den))


def anticommutator(a: WeylElement, b: WeylElement) -> WeylElement:
    return mul(a, b) + mul(b, a)


def apply_to(a: WeylElement, f: WeylElement) -> WeylElement:
    """Act with the operator ``a`` on the scalar function ``f``.

    Equals the derivative-free part of ``a * f``: every derivative factor
    is spent on ``f`` (terms whose derivatives annihilate f contribute 0).
    Runs on dense exponent vectors; see the module docstring.
    """
    sums, den, pairs = _operands(a, f)
    if not f.is_scalar_function():
        raise ValueError("apply_to expects a derivative-free operand")
    size, dense = len(a.table.names) + 1, {}
    for mon, _ in (*a.terms, *f.terms):
        v = [0] * size
        for i, p in mon.powers:
            v[i] = p
        v[-1] = mon.weight
        dense[mon] = tuple(v)
    for terms_a, terms_f, out in pairs:
        f_vectors = [(dense[m2], c2) for (m2, _), c2 in terms_f.items()]
        images = {}
        for (m1, d1), c1 in terms_a.items():
            image = images.get(d1)
            if image is None:
                image = images[d1] = []
                for w, c2 in f_vectors:
                    factor = 1
                    for i, k in d1.orders:
                        factor *= falling(w[i], k)
                    if d1.t_order:
                        factor *= w[-1] ** d1.t_order
                    if factor:
                        w = list(w)
                        for i, k in d1.orders:
                            w[i] -= k
                        image.append((tuple(w), c2 if factor == 1 else c2 * factor))
            e1 = dense[m1]
            for w, c2 in image:
                # Via a list: tuple(map(...)) allocates by a guessed length
                # and resizes, so its keys would skip CPython's per-length
                # tuple free lists on allocation yet fill them on release.
                key = tuple([*map(add, e1, w)])
                c = c1 * c2
                s = out.get(key)
                out[key] = c if s is None else s + c
    mons = {v: _dense_monomial(v) for out in sums.values() for v, c in out.items() if c}
    for blk, out in sums.items():
        sums[blk] = {(mons[v], DER_NONE): c for v, c in out.items() if c}
    return WeylElement(a.table, join_blocks(sums, den))


# ---------------------------------------------------------------------------
# endomorphisms

def substitute(a: WeylElement, scales: dict[str, Coef]) -> WeylElement:
    """Dilation substitution v -> c_v * v, d[v] -> (1/c_v) * d[v].

    This is the action of conjugation by exponentiated Euler operators, so
    it is an algebra endomorphism.  Scaled variables must appear with
    integer exponents.
    """
    idx_scales: dict[int, Coef] = {}
    for name, c in scales.items():
        if c.is_zero():
            raise ZeroScaleFactor(f"zero scale factor for {name!r}")
        idx_scales[a.table.index(name)] = c
    out: dict[tuple[Monomial, DerivIndex], Coef] = {}
    for (mon, der), c in a.terms.items():
        for i, p in mon.powers:
            if i in idx_scales:
                if p.denominator != 1:
                    raise DomainViolation(
                        "dilation substitution needs integer exponents")
                c = c * idx_scales[i] ** int(p)
        for i, k in der.orders:
            if i in idx_scales:
                c = c * idx_scales[i] ** (-k)
        key = (mon, der)
        s = out.get(key)
        out[key] = c if s is None else s + c
    return WeylElement(a.table, out)


def free_table_for(osc_table: VarTable) -> VarTable:
    """The power-of-tau table matching an exponential-time table."""
    return VarTable(("tau",) + osc_table.names,
                    (INT,) + osc_table.domains, has_time=False)


def free_to_osc(a: WeylElement, free_table: VarTable | None = None) -> WeylElement:
    """Map an operator in the exponential-time picture to the tau picture.

    Conjugates by e^(t*X) with X = -x d[x] - y d[y] (so x, y pick up
    e^(-t) factors, d[x], d[y] pick up e^(t), and d[t] shifts to
    d[t] + x d[x] + y d[y]), then reparametrizes time: e^(k*t) -> tau^k,
    d[t] -> tau d[tau].  The composite is an algebra isomorphism onto the
    tau picture, so it preserves all commutators.
    """
    src = a.table
    if not src.has_time:
        raise ValueError("free_to_osc expects an exponential-time element")
    if free_table is None:
        free_table = free_table_for(src)
    ix, iy = src.index("x"), src.index("y")
    shift = (WeylElement.time_deriv(src)
             + WeylElement.var(src, "x") * WeylElement.deriv(src, "x")
             + WeylElement.var(src, "y") * WeylElement.deriv(src, "y"))
    shift_pows = [WeylElement.const(src, 1)]

    conjugated = WeylElement.zero(src)
    for (mon, der), c in a.terms.items():
        w = mon.weight - mon.power_of(ix) - mon.power_of(iy)
        for i, k in der.orders:
            if i in (ix, iy):
                w += k
        base = WeylElement(src, {(monomial(w, dict(mon.powers)),
                                  DerivIndex(der.orders, 0)): c})
        while len(shift_pows) <= der.t_order:
            shift_pows.append(mul(shift_pows[-1], shift))
        conjugated = conjugated + mul(base, shift_pows[der.t_order])

    itau = free_table.index("tau")
    tau_dtau = mul(WeylElement.var(free_table, "tau"),
                   WeylElement.deriv(free_table, "tau"))
    td_pows = [WeylElement.const(free_table, 1)]
    out = WeylElement.zero(free_table)
    for (mon, der), c in conjugated.terms.items():
        if mon.weight.denominator != 1 and free_table.domains[itau] != RAT:
            raise NonIntegerTimeWeight(
                f"tau exponent {mon.weight} is not an integer")
        powers = {itau: mon.weight}
        for i, p in mon.powers:
            powers[i + 1] = p
        orders = {i + 1: k for i, k in der.orders}
        base = WeylElement(free_table,
                           {(monomial(0, powers),
                             _mk_deriv(orders, 0)): c})
        while len(td_pows) <= der.t_order:
            td_pows.append(mul(td_pows[-1], tau_dtau))
        out = out + mul(base, td_pows[der.t_order])
    return out


def degree_of(g: WeylElement, z0: WeylElement) -> Fraction | None:
    """The eigenvalue n with [z0, g] = n*g, or None when g is not homogeneous."""
    c = commutator(z0, g)
    if c.is_zero():
        return Fraction(0)
    if g.is_zero():
        return None
    key = max(g.terms, key=_term_sort_key)
    top = c.terms.get(key)
    if top is None:
        return None
    try:
        n = (top / g.terms[key]).as_fraction()
    except NotDivisible:
        return None
    if n is None:
        return None
    return n if c == g.scaled(n) else None


# ---------------------------------------------------------------------------
# plain-text serialization (exact round trip)

def _exp_text(p: Exponent) -> str:
    if p == 1:
        return ""
    if p.denominator == 1 and p > 0:
        return f"^{p}"
    return f"^({p})"


def element_to_text(e: WeylElement) -> str:
    if not e.terms:
        return "0"
    names = e.table.names
    parts = []
    for (mon, der), c in e.sorted_terms():
        factors = [c.wrapped_text()]
        if mon.weight:
            factors.append(f"e^({mon.weight}*t)")
        for i, p in mon.powers:
            factors.append(names[i] + _exp_text(p))
        for i, k in der.orders:
            factors.append(f"d[{names[i]}]" + ("" if k == 1 else f"^{k}"))
        if der.t_order:
            factors.append("d[t]" + ("" if der.t_order == 1 else f"^{der.t_order}"))
        parts.append(" * ".join(factors))
    return " + ".join(parts)


_TOKEN = re.compile(r"""
    (?P<num>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<op>[-+*/^()\[\]])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad character in element text at {text[pos:pos+10]!r}")
        pos = m.end()
        if m.lastgroup != "ws":
            out.append(m.group())
    return out


class _Parser:
    """Recursive-descent parser for the canonical element text."""

    def __init__(self, tokens: list[str], table: VarTable):
        self.toks = tokens
        self.i = 0
        self.table = table

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def fraction(self) -> Fraction:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.take()
        if not tok[0].isdigit():
            raise ValueError(f"expected a number, got {tok!r}")
        return sign * Fraction(tok)

    def poly(self) -> Coef:
        total = COEF_ZERO
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        while True:
            total = total + self._poly_term().scale(Fraction(sign))
            nxt = self.peek()
            if nxt == "+":
                self.take(); sign = 1
            elif nxt == "-":
                self.take(); sign = -1
            else:
                return total

    def _poly_term(self) -> Coef:
        q = Fraction(1)
        g = x = 0
        saw = False
        while True:
            tok = self.peek()
            if tok is not None and tok[0].isdigit():
                q *= Fraction(self.take())
                saw = True
            elif tok in ("gamma", "xi"):
                self.take()
                k = 1
                if self.peek() == "^":
                    self.take()
                    k = int(self.take())
                if tok == "gamma":
                    g += k
                else:
                    x += k
                saw = True
            else:
                break
            if self.peek() == "*":
                self.take()
            else:
                break
        if not saw:
            raise ValueError(f"expected a polynomial term near {self.peek()!r}")
        return Coef({(g, x): q})

    def coefficient(self) -> Coef:
        self.take("(")
        num = self.poly()
        self.take(")")
        if self.peek() == "/":
            self.take()
            self.take("(")
            den = self.poly()
            self.take(")")
            try:
                return num / den
            except (NotDivisible, DivisionByZero) as exc:
                raise ValueError(f"coefficient ({num.text()})/({den.text()}): "
                                 f"{exc}") from None
        return num

    def exponent(self) -> Fraction:
        self.take("^")
        if self.peek() == "(":
            self.take()
            p = self.fraction()
            self.take(")")
            return p
        return self.fraction()

    def term(self) -> tuple[Monomial, DerivIndex, Coef]:
        c = self.coefficient()
        weight = 0
        powers: dict[int, Exponent] = {}
        orders: dict[int, int] = {}
        t_order = 0
        while self.peek() == "*":
            self.take()
            tok = self.take()
            if tok == "e":
                self.take("^")
                self.take("(")
                weight = self.fraction()
                self.take("*")
                self.take("t")
                self.take(")")
            elif tok == "d":
                self.take("[")
                var = self.take()
                self.take("]")
                k = 1
                if self.peek() == "^":
                    self.take()
                    k = int(self.take())
                if var == "t":
                    t_order += k
                else:
                    i = self.table.index(var)
                    orders[i] = orders.get(i, 0) + k
            else:
                i = self.table.index(tok)
                p = 1
                if self.peek() == "^":
                    p = self.exponent()
                powers[i] = powers.get(i, 0) + p
        return monomial(weight, powers), _mk_deriv(orders, t_order), c

    def element(self) -> WeylElement:
        if self.peek() == "0" and self.i + 1 == len(self.toks):
            self.take()
            return WeylElement.zero(self.table)
        terms: dict[tuple[Monomial, DerivIndex], Coef] = {}
        while True:
            mon, der, c = self.term()
            key = (mon, der)
            terms[key] = terms.get(key, COEF_ZERO) + c
            if self.peek() == "+":
                self.take()
            else:
                break
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")
        return WeylElement(self.table, terms)


def parse_element(text: str, table: VarTable) -> WeylElement:
    """Parse a plain-text element; inverse of :func:`element_to_text`."""
    return _Parser(_tokenize(text), table).element()


def remap(e: WeylElement, target: VarTable,
          name_map: dict[str, str] | None = None) -> WeylElement:
    """Rebuild an element over another table, optionally renaming variables.

    Exponent domains of the target are enforced; useful for widening a
    domain or comparing families built over differently ordered tables.
    """
    nm = name_map or {}
    src_names = e.table.names
    out: dict[tuple[Monomial, DerivIndex], Coef] = {}
    for (mon, der), c in e.terms.items():
        powers = {target.index(nm.get(src_names[i], src_names[i])): p
                  for i, p in mon.powers}
        orders = {target.index(nm.get(src_names[i], src_names[i])): k
                  for i, k in der.orders}
        key = (monomial(mon.weight, powers), _mk_deriv(orders, der.t_order))
        out[key] = out.get(key, COEF_ZERO) + c
    return WeylElement(target, out)
