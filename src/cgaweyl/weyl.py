"""Restricted Weyl algebra in normal-ordered canonical form.

An element is a finite sum of terms ``coef * e^(a*t) * v1^p1 ... * d[v1]^k1
... * d[t]^m`` over a declared variable set.  Multiplication reorders all
derivative factors to the right using

    d[v]^a v^p   = sum_k  C(a,k) p(p-1)...(p-k+1) v^(p-k) d[v]^(a-k)
    d[t]^a e^(ct) = sum_k C(a,k) c^k e^(ct) d[t]^(a-k)

with the falling factorial valid for rational exponents p; distinct
variables commute.  Canonical form (one key per term, no zero
coefficients) makes equality a structural check.

The ``WeylElement`` constructor alone enforces canonical form for every
element, kernel results included: it drops zero coefficients, stores
integral exponents as ``int``, and rejects exponents outside their
variable's domain and time parts over a table without time.  The kernels
accumulate raw sums and leave these rules to it.

Every term is keyed by a pair of plain tuples with one slot per table
variable and then one for time: ``mon = (p_0, ..., p_{n-1}, weight)``, the
exponents and the weight of e^(weight*t), and ``der = (k_0, ..., k_{n-1},
t_order)``, the derivative orders and the order of d[t].  Multiplying
monomials (or derivative blocks) adds their keys slot by slot, and
``VarTable.zeros`` is both the monomial 1 and the empty block.  A slot of
a stored key is ``int`` when integral and ``Fraction`` only when genuinely
fractional (the xi = 0 family's x^(w2/w1), weights such as e^(t/2)).
Inside the kernels every slot is an ``int``: each element's exponent unit
L is the lcm of the denominators of its monomial slots (1 when all are
ints), and its keys enter a kernel with every monomial slot, weight
included, times L.  A call runs on the lcm of its operands' units, and
:func:`_result` divides each output key by it, storing ``int`` where the
quotient is integral; so no ``Fraction`` is hashed or added per term pair.
Terms print in the order of (d[t] order, (index, order) pairs, weight,
(index, exponent) pairs) read off the nonzero slots, not in the order of
the raw tuples.

Reorderings are memoized.  Passing a derivative block past a monomial on
the lattice of a unit is a pure function of three immutable, hashable
values, and the same triples recur across thousands of term pairs, so
:func:`_reorder_corrections` keeps its k >= 1 terms in a
``functools.lru_cache`` bounded by ``REORDER_CACHE_SIZE`` entries.  The k = 0 term is always (1, mon, der)
and is not cached: :func:`mul` writes it itself.  The generator
``_reorder_options`` of ``tests/helpers.py``, on the unscaled keys, is the
tests' reference.

Most term pairs cannot reorder: a derivative on a slot whose exponent or
weight is 0 gives a factor of 0 for every k >= 1, so the k >= 1 terms are
empty unless the derivative block of one term meets a nonzero monomial
slot of the other.  :func:`mul` and :func:`commutator` therefore run on
term lists that carry two int masks per term, one bit per nonzero slot of
the monomial and of the derivative block, the time slot last
(:func:`_masked`).  They still visit every term pair, but read the memo
for d1 past m2 only when ``der_mask1 & mon_mask2`` is nonzero (and for d2
past m1 likewise), so the memo holds only non-empty reorderings.  The
masks are made once per element and unit, from the split form, the first
time ``mul`` or ``commutator`` uses the element on that unit;
:func:`apply_to` does not read them.

The commutator is not ``a*b - b*a`` computed in full: the k = 0 term of
every reordering is the same in both orders and cancels, so
:func:`commutator` builds only the cached k >= 1 terms of the two orders,
in one accumulator.  Its loop is :func:`_commutator_core`, which, like
:func:`_apply_core` below, stops before the result is joined.

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
for a unit L > 1, an int over L^K, K the number of derivatives moved (a
``Fraction`` unless it is integral).  No ``Coef`` is built per term pair;
:func:`cgaweyl.scalar.join_blocks` builds each result ``Coef`` once, at
the end.  The loops of :func:`apply_to` and :func:`commutator` are
:func:`_apply_core` and :func:`_commutator_core`, which stop before that
join, and one comparator reads their split forms: :func:`_is_multiple`
answers whether a kernel result equals c * g, for an element g and a
coefficient c of at most one term q * gamma^a * xi^b, by shifting the
blocks of g by (a, b) and cross-multiplying int numerators key by key.
:func:`_eigenvalue`, behind the spectrum's eigenvalue checks, reads E off
one term of H psi and certifies H psi = E * psi with it; the verifier's
commutator tables certify [a, b] = c * g with it.  So neither H psi nor a
bracket that holds is built as an element or as ``Coef`` values.  Each
element keeps its split form in a slot filled on first use, together with
its unit, and, in a second slot, its form on each larger unit that a call
asks for (an operand beside one of larger unit, a g beside a kernel
result of larger unit), so each is rescaled once.  A third slot keeps
the masked term lists per unit.  The constructor records when every slot
is an ``int``, so splitting such an element needs no scan.

Elements are immutable after construction and every operation is a pure
function, so values are safe to share across threads.  Two threads
filling the same element's split form, its form on the same larger unit,
or its masked lists on the same unit, at once store equal values, each
built in full before it is stored, so no thread reads a part-filled
form; a form stored into a dict of forms that another thread has just
replaced is only made again on a later call.
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
from itertools import compress, groupby, islice, product as cartesian
from operator import add

from .scalar import (COEF_ONE, COEF_ZERO, Coef, DivisionByZero, NotDivisible,
                     as_fraction, coef, join_blocks, split_blocks)

NAT = "nat"   # exponents in {0, 1, 2, ...}
INT = "int"   # exponents in Z
RAT = "rat"   # exponents in Q

Exponent = int | Fraction  # int when integral, see WeylElement

_RESERVED_NAMES = {"e", "d", "t"}

# Bound on the memoized reorderings (entries of _reorder_corrections).  One
# `cgaweyl all` run fills 688 entries, about 0.36 MB in all (tracemalloc,
# CPython 3.11.7); checking the ell = 12 general table fills 343.
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
    elements as exponential weights e^(a*t) together with d[t].  ``zeros``
    is the all-zero key vector of the table: the monomial 1 and the empty
    derivative block.  ``slot_bits`` holds 1 << i for each key slot i, so
    ``sum(compress(slot_bits, v))`` has a bit set per nonzero slot of a key v.
    """

    names: tuple[str, ...]
    domains: tuple[str, ...]
    has_time: bool = False
    zeros: tuple = field(init=False, repr=False, compare=False)
    slot_bits: tuple = field(init=False, repr=False, compare=False)
    # one slice per run of adjacent NAT variables, for the constructor
    _nat_runs: tuple = field(init=False, repr=False, compare=False)

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
        runs, start = [], 0
        for is_nat, run in groupby(self.domains, key=NAT.__eq__):
            end = start + len(list(run))
            if is_nat:
                runs.append(slice(start, end))
            start = end
        object.__setattr__(self, "zeros", (0,) * (len(self.names) + 1))
        object.__setattr__(self, "slot_bits",
                           tuple(1 << i for i in range(len(self.names) + 1)))
        object.__setattr__(self, "_nat_runs", tuple(runs))

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

    def widened(self, name: str) -> "VarTable":
        """Copy of this table in which one variable admits rational powers."""
        i = self.index(name)
        doms = list(self.domains)
        doms[i] = RAT
        return VarTable(self.names, tuple(doms), self.has_time)


def _sparse(v: tuple) -> list:
    """The (variable index, value) pairs of the nonzero variable slots of ``v``."""
    return [(i, p) for i, p in enumerate(v[:-1]) if p]


def _term_sort_key(key: tuple[tuple, tuple]):
    mon, der = key
    return (der[-1], _sparse(der), mon[-1], _sparse(mon))


class WeylElement:
    """Canonical normal-ordered operator: a term map (mon, der) -> Coef.

    ``_blocks`` caches the split form of :func:`_split`; it is None until
    a kernel first uses the element.  ``_rescaled`` holds, once some call
    needs one, the split forms on larger units, and ``_masked``, once
    :func:`mul` or :func:`commutator` first uses the element, its masked
    term lists per unit (:func:`_masked`).  ``_int_keys`` records that
    the constructor saw no ``Fraction`` slot, so splitting needs no scan
    for the exponent unit.
    """

    __slots__ = ("table", "terms", "_blocks", "_rescaled", "_masked", "_int_keys")

    def __init__(self, table: VarTable,
                 terms: dict[tuple[tuple, tuple], Coef] | None = None):
        self.table = table
        self._blocks = self._rescaled = self._masked = None
        timeless, runs = not table.has_time, table._nat_runs
        int_keys = True
        cleaned: dict[tuple[tuple, tuple], Coef] = {}
        for key, c in (terms or {}).items():
            if c.is_zero():
                continue
            mon, der = key
            if timeless and mon[-1]:
                raise DomainViolation("exponential weight in a table without time")
            if timeless and der[-1]:
                raise DomainViolation("d[t] in a table without time")
            check = Fraction in map(type, mon)
            if check:  # the int rule
                int_keys = False
                mon = tuple([p if type(p) is int or p.denominator != 1
                             else p.numerator for p in mon])
                key = (mon, der)
            else:  # all int: only a negative NAT slot can leave its domain
                for s in runs:
                    if min(mon[s]) < 0:
                        check = True
            if check:
                for i, p in enumerate(mon[:-1]):
                    table.check_power(i, p)
            cleaned[key] = c
        self.terms = cleaned
        self._int_keys = int_keys

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "WeylElement":
        return WeylElement(table)

    @staticmethod
    def const(table: VarTable, value) -> "WeylElement":
        return WeylElement(table, {(table.zeros, table.zeros): coef(value)})

    @staticmethod
    def _unit(table: VarTable, slot: int, value, derivative: bool) -> "WeylElement":
        v = list(table.zeros)
        v[slot] = value
        key = (table.zeros, tuple(v)) if derivative else (tuple(v), table.zeros)
        return WeylElement(table, {key: COEF_ONE})

    @staticmethod
    def var(table: VarTable, name: str, power=1) -> "WeylElement":
        p = power if type(power) is int else as_fraction(power)
        return WeylElement._unit(table, table.index(name), p, False)

    @staticmethod
    def deriv(table: VarTable, name: str, order: int = 1) -> "WeylElement":
        return WeylElement._unit(table, table.index(name), order, True)

    @staticmethod
    def time_deriv(table: VarTable, order: int = 1) -> "WeylElement":
        if not table.has_time:
            raise DomainViolation("d[t] in a table without time")
        return WeylElement._unit(table, -1, order, True)

    @staticmethod
    def exp_t(table: VarTable, weight) -> "WeylElement":
        w = weight if type(weight) is int else as_fraction(weight)
        if not table.has_time:
            raise DomainViolation("exponential weight in a table without time")
        return WeylElement._unit(table, -1, w, False)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar_function(self) -> bool:
        """True when no term carries a derivative factor."""
        zeros = self.table.zeros
        return all(der == zeros for _, der in self.terms)

    def constant_value(self) -> Coef | None:
        """The Coef value of a constant element (possibly zero), else None."""
        if not self.terms:
            return COEF_ZERO
        if len(self.terms) == 1:
            (key, c), = self.terms.items()
            if key == (self.table.zeros, self.table.zeros):
                return c
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

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

def _lattice_falling(n: int, k: int, unit: int) -> int:
    """n(n - unit)...(n - (k-1)*unit): unit^k times the falling factorial of n/unit."""
    return math.prod(range(n, n - k * unit, -unit))


def _over_unit(num: int, unit: int, moved: int) -> int | Fraction:
    """num / unit^moved, an ``int`` when it is integral."""
    q = Fraction(num, unit ** moved)
    return q.numerator if q.denominator == 1 else q


@lru_cache(maxsize=REORDER_CACHE_SIZE)
def _reorder_corrections(der: tuple, mon: tuple, unit: int):
    """The k >= 1 options of ``_reorder_options`` on lattice keys, as a tuple.

    ``mon`` holds every slot times ``unit`` as an int, and so does each
    picked-up monomial: the option (f, m, d) of ``_reorder_options(der,
    mon/unit)`` appears here as (f, m*unit, d).  Moving k derivatives off a
    slot n takes the int n(n - unit)...(n - (k-1)*unit), or c^k off the time
    weight c, and lowers n by k*unit; the product of these ints over
    unit^K, K the number of derivatives moved, is f.  The first option, (1,
    mon, der), is dropped, so the tuple is empty for an empty ``der``.
    Memoized, at most ``REORDER_CACHE_SIZE`` entries.  ``_reorder_options``,
    the uncached reference on unscaled keys, lives in ``tests/helpers.py``.
    """
    last, choices = len(der) - 1, []
    for i, a in enumerate(der):
        if a:
            n = mon[i]
            opts = []
            for k in range(a + 1):
                f = math.comb(a, k) * (n**k if i == last
                                       else _lattice_falling(n, k, unit))
                if f:
                    opts.append((i, k, a - k, f))
            choices.append(opts)
    out = []
    for combo in islice(cartesian(*choices), 1, None):
        factor, m, d, moved = 1, list(mon), [0] * len(der), 0
        for i, k, rem, f in combo:
            factor *= f
            d[i] = rem
            moved += k
            if i != last:  # d[t] keeps the weight
                m[i] -= k * unit
        out.append((_over_unit(factor, unit, moved), tuple(m), tuple(d)))
    return tuple(out)


def _scale_keys(terms: dict, r: int) -> dict:
    """``terms`` with every monomial slot multiplied by ``r``, as ints.

    ``r`` must clear every slot's denominator.
    """
    return {(tuple([p.numerator * (r // p.denominator) for p in mon]), der): v
            for (mon, der), v in terms.items()}


def _split(e: WeylElement, unit: int | None = None):
    """The split form ``(blocks, den, unit)`` of ``e``, computed once per unit.

    With ``unit`` None it is on the element's own exponent unit: the lcm of
    the denominators of its monomial slots, 1 when all are ints.
    ``(blocks, den)`` is ``split_blocks`` of ``e.terms`` with every monomial
    slot times that unit, so every key slot is an int.  A ``unit`` that is
    a multiple of the own one asks for the same form with every monomial
    slot times ``unit``; such a form is rescaled from the own one on the
    first request and kept in ``e._rescaled``.
    """
    split = e._blocks
    if split is None:
        if e._int_keys:
            terms, own = e.terms, 1
        else:  # scan, and store integral Fraction slots as ints too
            own = math.lcm(*{p.denominator for mon, _ in e.terms for p in mon})
            terms = _scale_keys(e.terms, own)
        split = e._blocks = (*split_blocks(terms), own)
    if unit is None or unit == split[2]:
        return split
    rescaled = e._rescaled
    if rescaled is None:
        rescaled = e._rescaled = {}
    form = rescaled.get(unit)
    if form is None:
        blocks, den, own = split
        r = unit // own
        form = rescaled[unit] = ({blk: _scale_keys(t, r) for blk, t in blocks.items()},
                                 den, unit)
    return form


def _masked(e: WeylElement, unit: int) -> dict:
    """The split form of ``e`` on ``unit`` as term lists that carry slot masks.

    Maps each gamma^a xi^b block to a list of (mon, der, numerator,
    mon_mask, der_mask), one per term of the block in ``_split(e, unit)``.
    A mask has bit i set where slot i of its key is nonzero, the time slot
    last, so ``der_mask & mon_mask`` of two terms is nonzero exactly when
    the derivative block meets a nonzero slot of the monomial.  Made in one
    pass over the split form, once per unit, and kept in ``e._masked``.
    """
    forms = e._masked
    if forms is None:
        forms = e._masked = {}
    form = forms.get(unit)
    if form is None:
        bits = e.table.slot_bits
        form = forms[unit] = {
            blk: [(m, d, n, sum(compress(bits, m)), sum(compress(bits, d)))
                  for (m, d), n in terms.items()]
            for blk, terms in _split(e, unit)[0].items()}
    return form


def _block_pairs(blocks_a: dict, blocks_b: dict):
    """``(sums, pairs)``: one (terms of a, terms of b, ``sums[(a1 + a2, b1 +
    b2)]``) per pair of blocks (a1, b1) of a and (a2, b2) of b."""
    sums, pairs = {}, []
    for (ga, xa), terms_a in blocks_a.items():
        for (gb, xb), terms_b in blocks_b.items():
            pairs.append((terms_a, terms_b,
                          sums.setdefault((ga + gb, xa + xb), {})))
    return sums, pairs


def _operands(a: WeylElement, b: WeylElement):
    """Where a kernel's loop body runs: ``(sums, den, unit, pairs)``.

    Each of ``pairs`` is (terms of a, terms of b, accumulator) for one pair
    of monomial blocks, holding int numerators; the body runs once per
    pair, and its accumulator is ``sums[(a1 + a2, b1 + b2)]``.  ``den`` is
    the product of the two common denominators.  Both operands' keys are on
    the lattice of ``unit``, the lcm of their exponent units (an operand
    with a smaller unit enters in its split form for ``unit``, made once),
    so the kernel's result is ``_result(table, sums, den, unit)``.
    """
    a._require_same_table(b)
    (blocks_a, den_a, unit_a), (blocks_b, den_b, unit_b) = _split(a), _split(b)
    unit = math.lcm(unit_a, unit_b)
    if unit_a != unit:
        blocks_a = _split(a, unit)[0]
    if unit_b != unit:
        blocks_b = _split(b, unit)[0]
    sums, pairs = _block_pairs(blocks_a, blocks_b)
    return sums, den_a * den_b, unit, pairs


def _masked_operands(a: WeylElement, b: WeylElement):
    """:func:`_operands` for :func:`mul` and :func:`commutator`: the terms of
    each block are the list of :func:`_masked`, masks included."""
    a._require_same_table(b)
    (_, den_a, unit_a), (_, den_b, unit_b) = _split(a), _split(b)
    unit = math.lcm(unit_a, unit_b)
    sums, pairs = _block_pairs(_masked(a, unit), _masked(b, unit))
    return sums, den_a * den_b, unit, pairs


def _result(table: VarTable, sums: dict, den: int, unit: int) -> WeylElement:
    """The element of ``join_blocks(sums, den)`` with every key divided by ``unit``.

    A slot that ``unit`` divides becomes an int, any other a ``Fraction``.
    """
    terms = join_blocks(sums, den)
    if unit != 1:
        terms = {(tuple([n // unit if n % unit == 0 else Fraction(n, unit)
                         for n in mon]), der): c
                 for (mon, der), c in terms.items()}
    return WeylElement(table, terms)


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Canonical normal-ordered product.

    Each term pair gives its leading term (m1 m2)(d1 d2), then the
    memoized k >= 1 reordering terms of d1 past m2.  The memo is read only
    when the mask of d1 meets that of m2: otherwise every k >= 1 term has a
    factor of 0.
    """
    sums, den, unit, pairs = _masked_operands(a, b)
    for terms_a, terms_b, out in pairs:
        for m1, d1, c1, _, dm1 in terms_a:
            for m2, d2, c2, mm2, _ in terms_b:
                base = c1 * c2
                # Key sums go via a list: tuple(map(...)) allocates by a
                # guessed length and resizes, so its keys would skip
                # CPython's per-length tuple free lists on allocation yet
                # fill them on release.
                key = (tuple([*map(add, m1, m2)]), tuple([*map(add, d1, d2)]))
                s = out.get(key)
                out[key] = base if s is None else s + base
                if dm1 & mm2:
                    for factor, m_mid, d_rem in _reorder_corrections(d1, m2, unit):
                        key = (tuple([*map(add, m1, m_mid)]),
                               tuple([*map(add, d_rem, d2)]))
                        c = base * factor
                        s = out.get(key)
                        out[key] = c if s is None else s + c
    return _result(a.table, sums, den, unit)


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
    return _result(a.table, *_commutator_core(a, b))


def _commutator_core(a: WeylElement, b: WeylElement):
    """The loop of :func:`commutator`, in split form: ``(sums, den, unit)``.

    A term pair reads the memo for d1 past m2 only when their masks meet,
    and for d2 past m1 likewise; a pair that meets in neither gives no term.
    """
    sums, den, unit, pairs = _masked_operands(a, b)
    for terms_a, terms_b, out in pairs:
        for m1, d1, c1, mm1, dm1 in terms_a:
            for m2, d2, c2, mm2, dm2 in terms_b:
                if not (dm1 & mm2 or dm2 & mm1):
                    continue
                base = c1 * c2
                for left, d_left, right, d_right, sign, meet in (
                        (m1, d1, m2, d2, 1, dm1 & mm2),
                        (m2, d2, m1, d1, -1, dm2 & mm1)):
                    if not meet:
                        continue
                    for factor, m_mid, d_rem in _reorder_corrections(d_left, right, unit):
                        key = (tuple([*map(add, left, m_mid)]),
                               tuple([*map(add, d_rem, d_right)]))
                        c = base * (sign * factor)
                        s = out.get(key)
                        out[key] = c if s is None else s + c
    return sums, den, unit


def anticommutator(a: WeylElement, b: WeylElement) -> WeylElement:
    return mul(a, b) + mul(b, a)


def apply_to(a: WeylElement, f: WeylElement) -> WeylElement:
    """Act with the operator ``a`` on the scalar function ``f``.

    Equals the derivative-free part of ``a * f``: every derivative factor
    is spent on ``f`` (terms whose derivatives annihilate f contribute 0).
    The image of each distinct derivative block d1 on the terms of ``f``
    (the shifted monomials, with the falling factorials and the d[t] weight
    factor folded into their coefficients) is made once, not once per term
    of ``a``; a term m1 * d1 adds m1 to each monomial of it.
    """
    return _result(a.table, *_apply_core(a, f))


def _apply_core(a: WeylElement, f: WeylElement):
    """The loop of :func:`apply_to`, in split form: ``(sums, den, unit)``."""
    if not f.is_scalar_function():
        raise ValueError("apply_to expects a derivative-free operand")
    sums, den, unit, pairs = _operands(a, f)
    zeros = a.table.zeros
    for terms_a, terms_f, out in pairs:
        images = {}
        for (m1, d1), c1 in terms_a.items():
            image = images.get(d1)
            if image is None:
                image = images[d1] = []
                orders, t_order = _sparse(d1), d1[-1]
                moved = sum(d1)
                for (w, _), c2 in terms_f.items():
                    factor = 1
                    for i, k in orders:  # _lattice_falling, inlined
                        factor *= math.prod(range(w[i], w[i] - k * unit, -unit))
                    if t_order:
                        factor *= w[-1] ** t_order
                    if factor:
                        if unit != 1:
                            factor = _over_unit(factor, unit, moved)
                        w = list(w)
                        for i, k in orders:
                            w[i] -= k * unit
                        image.append((tuple(w), c2 if factor == 1 else c2 * factor))
            for w, c2 in image:
                key = (tuple([*map(add, m1, w)]), zeros)  # a list first, see mul
                c = c1 * c2
                s = out.get(key)
                out[key] = c if s is None else s + c
    return sums, den, unit


def _eigenvalue(a: WeylElement, f: WeylElement) -> Fraction | None:
    """The rational E with ``apply_to(a, f) == E * f``, or None; ``f`` nonzero.

    Runs on the split forms, so the image is never joined into ``Coef``
    values: E is read off the first nonzero numerator of the image and the
    same key of ``f``, and :func:`_is_multiple` certifies the image as E * f.
    """
    core = sums, den, unit = _apply_core(a, f)
    first = next(((blk, key, n) for blk, block in sums.items()
                  for key, n in block.items() if n), None)
    if first is None:
        return Fraction(0)
    blk, key, n = first
    blocks, den_f, _ = _split(f, unit)
    n_f = blocks.get(blk, {}).get(key)
    if n_f is None:
        return None
    value = Fraction(n * den_f, n_f * den)
    return value if _is_multiple(core, f, coef(value)) else None


def _is_multiple(core, g: WeylElement, c: Coef) -> bool:
    """Whether the kernel result ``core = (sums, den, unit)`` equals c * g.

    ``c`` has at most one term q * gamma^a * xi^b.  Runs on split forms, so
    no ``Coef``, no ``Fraction`` key and no element is built.  ``core``
    holds numerators n over ``den`` per gamma^a xi^b block and lattice key
    (ints, or ``Fraction`` where a unit above 1 gives a fractional
    reordering factor), ``g`` numerators n_g over den_g.  c * g has the
    blocks of g shifted by (a, b), and equals ``core`` exactly when the
    nonzero numerators of ``core`` sit at just those keys, each with
    n * den_g * q.denominator == n_g * q.numerator * den.  A g whose unit
    does not divide ``unit`` has a key off the lattice of ``core``; when c
    or g is zero, ``core`` must vanish.
    """
    sums, den, unit = core
    blocks, (a, b), scale_core, scale_g = {}, (0, 0), 1, 0
    if c.terms and g.terms:
        ((a, b), q), = c.terms.items()
        if unit % _split(g)[2]:
            return False
        blocks, den_g, _ = _split(g, unit)
        scale_core, scale_g = den_g * q.denominator, q.numerator * den
    found = 0
    for (x, y), block in sums.items():
        ref = blocks.get((x - a, y - b), {})
        for key, n in block.items():
            if n:
                n_g = ref.get(key)
                if n_g is None or n * scale_core != n_g * scale_g:
                    return False
                found += 1
    return found == sum(map(len, blocks.values()))


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
    out: dict[tuple[tuple, tuple], Coef] = {}
    for (mon, der), c in a.terms.items():
        for i, scale in idx_scales.items():
            if mon[i]:
                if mon[i].denominator != 1:
                    raise DomainViolation(
                        "dilation substitution needs integer exponents")
                c = c * scale ** int(mon[i])
            if der[i]:
                c = c * scale ** (-der[i])
        out[(mon, der)] = c
    return WeylElement(a.table, out)


def free_to_osc(a: WeylElement, free_table: VarTable) -> WeylElement:
    """Map an operator in the exponential-time picture to the tau picture.

    Conjugates by e^(t*X) with X = -x d[x] - y d[y] (so x, y pick up
    e^(-t) factors, d[x], d[y] pick up e^(t), and d[t] shifts to
    d[t] + x d[x] + y d[y]), then reparametrizes time: e^(k*t) -> tau^k,
    d[t] -> tau d[tau].  The composite is an algebra isomorphism onto the
    tau picture, so it preserves all commutators.  ``free_table`` must
    list tau first and then the variables of ``a.table``, in their order.
    """
    src = a.table
    if not src.has_time:
        raise ValueError("free_to_osc expects an exponential-time element")
    if free_table.names != ("tau",) + src.names:
        raise ValueError(f"free_to_osc expects free_table names "
                         f"{('tau',) + src.names}, got {free_table.names}")
    ix, iy = src.index("x"), src.index("y")
    shift = (WeylElement.time_deriv(src)
             + WeylElement.var(src, "x") * WeylElement.deriv(src, "x")
             + WeylElement.var(src, "y") * WeylElement.deriv(src, "y"))
    shift_pows = [WeylElement.const(src, 1)]

    conjugated = WeylElement.zero(src)
    for (mon, der), c in a.terms.items():
        w = mon[-1] - mon[ix] - mon[iy] + der[ix] + der[iy]
        base = WeylElement(src, {(mon[:-1] + (w,), der[:-1] + (0,)): c})
        while len(shift_pows) <= der[-1]:
            shift_pows.append(mul(shift_pows[-1], shift))
        conjugated = conjugated + mul(base, shift_pows[der[-1]])

    tau_dtau = mul(WeylElement.var(free_table, "tau"),
                   WeylElement.deriv(free_table, "tau"))
    td_pows = [WeylElement.const(free_table, 1)]
    out = WeylElement.zero(free_table)
    for (mon, der), c in conjugated.terms.items():
        if mon[-1].denominator != 1 and free_table.domains[0] != RAT:
            raise NonIntegerTimeWeight(
                f"tau exponent {mon[-1]} is not an integer")
        base = WeylElement(free_table, {((mon[-1],) + mon[:-1] + (0,),
                                         (0,) + der[:-1] + (0,)): c})
        while len(td_pows) <= der[-1]:
            td_pows.append(mul(td_pows[-1], tau_dtau))
        out = out + mul(base, td_pows[der[-1]])
    return out


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
        if mon[-1]:
            factors.append(f"e^({mon[-1]}*t)")
        for i, p in _sparse(mon):
            factors.append(names[i] + _exp_text(p))
        for i, k in _sparse(der):
            factors.append(f"d[{names[i]}]" + ("" if k == 1 else f"^{k}"))
        if der[-1]:
            factors.append("d[t]" + ("" if der[-1] == 1 else f"^{der[-1]}"))
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

    def term(self) -> tuple[tuple, tuple, Coef]:
        """One term; repeated factors multiply, so their slots add."""
        c = self.coefficient()
        mon, der = list(self.table.zeros), list(self.table.zeros)
        while self.peek() == "*":
            self.take()
            tok = self.take()
            if tok == "e":
                self.take("^")
                self.take("(")
                mon[-1] += self.fraction()
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
                der[-1 if var == "t" else self.table.index(var)] += k
            else:
                mon[self.table.index(tok)] += (self.exponent()
                                               if self.peek() == "^" else 1)
        return tuple(mon), tuple(der), c

    def element(self) -> WeylElement:
        if self.peek() == "0" and self.i + 1 == len(self.toks):
            self.take()
            return WeylElement.zero(self.table)
        terms: dict[tuple[tuple, tuple], Coef] = {}
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
    size = len(target.names) + 1
    out: dict[tuple[tuple, tuple], Coef] = {}
    for (mon, der), c in e.terms.items():
        m, d = [0] * size, [0] * size
        m[-1], d[-1] = mon[-1], der[-1]
        for i, name in enumerate(e.table.names):
            if mon[i] or der[i]:
                j = target.index(nm.get(name, name))
                m[j], d[j] = mon[i], der[i]
        key = (tuple(m), tuple(d))
        out[key] = out.get(key, COEF_ZERO) + c
    return WeylElement(target, out)
