"""Restricted Weyl algebra in normal-ordered canonical form.

An element is a finite sum of terms ``coef * e^(a*t) * v1^p1 ... * d[v1]^k1
... * d[t]^m`` over a declared variable set.  Multiplication reorders all
derivative factors to the right using

    d[v]^a v^p   = sum_k  C(a,k) p(p-1)...(p-k+1) v^(p-k) d[v]^(a-k)
    d[t]^a e^(ct) = sum_k C(a,k) c^k e^(ct) d[t]^(a-k)

with the falling factorial valid for rational exponents p; distinct
variables commute.  Canonical form (one key per term, no zero
coefficients) makes equality a structural check.

The ``WeylElement`` constructor enforces canonical form: it drops zero
coefficients, stores integral exponents as ``int``, and rejects exponents
outside their variable's domain and time parts over a table without time.
In the same pass it records the element's exponent unit (below).
:func:`mul` and :func:`commutator` accumulate raw sums and leave these
rules to it.  An :func:`apply_to` result is canonical by construction
and skips it: its derivative-free terms cannot leave their domains (a
falling factorial p(p-1)...(p-k+1) vanishes for each NAT exponent
0 <= p < k).

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
ints).  A call runs on the lcm U of its operands' units, its operands'
keys enter it with every monomial slot, weight included, times U, and
:func:`_result` divides each output key by U, storing ``int`` where the
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
masks are made once per element and unit, with the element's kernel form
on that unit, the first time ``mul`` or ``commutator`` uses the element
on it; :func:`apply_to` does not read them.

:func:`apply_to` runs on packed keys instead (:func:`_apply_core`).  On the
lattice of the call's unit, each monomial, weight included, is one Python
int: slot i, plus the bias 2^(W - 1), sits in bits [i*W, (i+1)*W), slot 0
lowest and the weight last.  The width W is derived per call from the
operands' exponent bounds: the operator's bound A is max |m_i| + unit *
max d_i and the state's B is max |w_i|, and every slot of a product or
of a lowered state term then has absolute value at most A + B, so W =
bit_length(A + B) + 1 keeps every field in [0, 2^W) and no field carries
into the next.  The operator's terms are packed without the bias and
already lowered by their derivative block, so a term pair costs one int
addition and the accumulator is keyed by ints.  The operator's packed
term lists are kept per unit in its ``_packed_ops`` slot, the state's
packed form (its keys, int numerators, width and B) per unit in its
``_packed`` slot.  The result of :func:`apply_to` is made from the
kernel's own packed form alone, normalised so that it equals a fresh
packing of the result, and its ``terms`` are decoded from that form only
when first read (:func:`_packed_result`).  So the next ``apply_to`` or
eigenvalue check on it, as each state of the spectrum walk gets, and its
zero check and term count read the packed form, and nothing is split,
packed or decoded again.  A form packed narrower than a call needs is
packed again at the call's width (a state form is widened from its own
keys) and replaces the stored one, so an element's width on a unit only
grows.

The commutator is not ``a*b - b*a`` computed in full: the k = 0 term of
every reordering is the same in both orders and cancels, so
:func:`commutator` builds only the cached k >= 1 terms of the two orders,
in one accumulator.  Its loop is :func:`_commutator_core`, which, like
:func:`_apply_core`, stops before the result is joined.

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
the end (for an ``apply_to`` result, when its terms are first read).  The
loops of :func:`apply_to` and :func:`commutator` are :func:`_apply_core`
and :func:`_commutator_core`, which stop before that join, and one
comparator reads their forms: :func:`_numerators_match` answers whether a
kernel result equals c * g, for a coefficient c of at most one term
q * gamma^a * xi^b and g in the same form, by shifting the
blocks of g by (a, b) and cross-multiplying int numerators key by key.
:func:`_eigenvalue`, behind the spectrum's eigenvalue checks, reads E off
one term of H psi and certifies H psi = E * psi with it on packed keys;
every check of [a, b] = c * g reads g's masked form with it
(:func:`_is_multiple`), and :func:`_bracket_residual` builds [a, b] - c * g
only when the check fails.  So neither H psi nor a bracket that holds is
built as an element or as ``Coef`` values.  Each element keeps, per unit,
its masked form and its packed forms, each made the first time a call
needs it.

Elements are immutable after construction, the unit included, and every
operation is a pure function, so values are safe to share across threads.
An ``apply_to`` result's ``terms`` are filled on first read; two threads
reading them at once each decode the same packed form and store equal
maps, each complete before it is stored.
The per-unit caches are dicts.  Two threads filling the same element's
masked form on the same unit at once store equal values, each built in
full before it is stored, so no thread reads a part-filled form; a form
stored into a dict that another thread has just replaced is only made
again on a later call.  Two threads packing the same element on the same
unit may store forms of different widths; each is complete, a call reads
one form once and packs the other operand at that form's width, and a
later call that finds a narrower form than it needs packs it again.  The
memo is safe to share too: its entries are immutable tuples and
``lru_cache`` keeps its bookkeeping consistent under concurrent calls
(two threads missing on the same key at once both compute it, with equal
results).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, groupby, islice, product as cartesian
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

    ``_lattice`` is the exponent unit, set by the constructor: the lcm of
    the denominators of the monomial slots, 1 when all are ints.  The
    other slots are per-unit caches, each None until first used:
    ``_masked`` holds the masked term lists that :func:`mul` and
    :func:`commutator` read (:func:`_masked`), ``_packed`` the packed form
    of a derivative-free element that :func:`apply_to` has acted on or
    returned, and ``_packed_ops`` the packed term lists of an element that
    :func:`apply_to` has used as its operator.

    ``terms`` may be filled on first read: an :func:`apply_to` result is
    made from the kernel's packed form alone (:func:`_packed_result`), as
    an :class:`_Undecoded`, and its term map is decoded from that form,
    once, when ``terms`` is first read.  Until then :meth:`is_zero` and the
    spectrum's eigenvalue check and term count read the packed form.
    """

    __slots__ = ("table", "terms", "_lattice", "_masked", "_packed", "_packed_ops")

    def __init__(self, table: VarTable,
                 terms: dict[tuple[tuple, tuple], Coef] | None = None):
        self.table = table
        self._masked = self._packed = self._packed_ops = None
        timeless, runs = not table.has_time, table._nat_runs
        lattice = 1
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
                mon = tuple([p if type(p) is int or p.denominator != 1
                             else p.numerator for p in mon])
                key = (mon, der)
                lattice = math.lcm(lattice, *[p.denominator for p in mon])
            else:  # all int: only a negative NAT slot can leave its domain
                for s in runs:
                    if min(mon[s]) < 0:
                        check = True
            if check:
                for i, p in enumerate(mon[:-1]):
                    table.check_power(i, p)
            cleaned[key] = c
        self.terms = cleaned
        self._lattice = lattice

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


class _Undecoded(WeylElement):
    """An :func:`apply_to` result whose ``terms`` slot is not filled yet.

    Its terms are decoded from its packed form on first read, and the
    element then becomes a plain :class:`WeylElement`.  The hook lives on
    this subclass alone: a class with ``__getattr__`` reads every attribute
    through it, which on CPython 3.10 and 3.11 makes each slot read about
    three times slower, so ordinary elements do not carry it.
    """

    __slots__ = ()

    def __getattr__(self, name):
        if name != "terms":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        terms = self.terms = _decoded(self)
        self.__class__ = WeylElement
        return terms

    def is_zero(self) -> bool:
        return not _term_count(self)


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


def _masked(e: WeylElement, unit: int):
    """The kernel form of ``e`` on ``unit``: ``(blocks, den)``, made once per unit.

    ``split_blocks`` of ``e.terms`` with every monomial slot times ``unit``
    gives each gamma^a xi^b block's term map of int numerators over the
    common denominator ``den``; ``blocks`` holds each as a list of (mon,
    der, numerator, mon_mask, der_mask), one per term.  A mask has bit i
    set where slot i of its key is nonzero, the time slot last, so
    ``der_mask & mon_mask`` of two terms is nonzero exactly when the
    derivative block meets a nonzero slot of the monomial.  Kept per unit
    in ``e._masked``.  ``unit`` must be a multiple of ``e._lattice``.
    """
    forms = e._masked
    if forms is None:
        forms = e._masked = {}
    form = forms.get(unit)
    if form is None:
        bits = e.table.slot_bits
        # _scale_keys stores integral Fraction slots as ints too, at unit 1 as well
        blocks, den = split_blocks(_scale_keys(e.terms, unit))
        form = forms[unit] = (
            {blk: [(m, d, n, sum(compress(bits, m)), sum(compress(bits, d)))
                   for (m, d), n in terms.items()]
             for blk, terms in blocks.items()}, den)
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
    """Where :func:`mul` and :func:`commutator` run: ``(sums, den, unit, pairs)``.

    ``unit`` is the lcm of the operands' exponent units, ``pairs`` the
    :func:`_block_pairs` of their kernel forms on it (:func:`_masked`), and
    ``den`` the product of those forms' denominators, so the kernel's
    result is ``_result(table, sums, den, unit)``.
    """
    a._require_same_table(b)
    unit = math.lcm(a._lattice, b._lattice)
    (blocks_a, den_a), (blocks_b, den_b) = _masked(a, unit), _masked(b, unit)
    sums, pairs = _block_pairs(blocks_a, blocks_b)
    return sums, den_a * den_b, unit, pairs


def _unscaled(mon, unit: int) -> tuple:
    """The lattice key ``mon`` divided by ``unit``: an ``int`` slot where
    ``unit`` divides it, any other a ``Fraction``."""
    return tuple([n // unit if n % unit == 0 else Fraction(n, unit) for n in mon])


def _result(table: VarTable, sums: dict, den: int, unit: int) -> WeylElement:
    """The element of ``join_blocks(sums, den)`` with every key divided by ``unit``."""
    terms = join_blocks(sums, den)
    if unit != 1:
        terms = {(_unscaled(mon, unit), der): c for (mon, der), c in terms.items()}
    return WeylElement(table, terms)


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Canonical normal-ordered product.

    Each term pair gives its leading term (m1 m2)(d1 d2), then the
    memoized k >= 1 reordering terms of d1 past m2.  The memo is read only
    when the mask of d1 meets that of m2: otherwise every k >= 1 term has a
    factor of 0.
    """
    sums, den, unit, pairs = _operands(a, b)
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
    sums, den, unit, pairs = _operands(a, b)
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
    The loop runs on packed keys (:func:`_apply_core`), and the result
    keeps its packed form in its ``_packed`` slot, so an ``apply_to`` or an
    eigenvalue check on the result reads that form instead of splitting
    and packing the result again.
    """
    sums, den, unit, (_, _, width, _) = _apply_core(a, f)
    return _packed_result(a.table, sums, den, unit, width)


def _pack(v, width: int, unit: int = 1) -> int:
    """sum_i v[i] * unit * 2^(i * width): the packed key of ``v`` on the
    lattice of ``unit`` without its bias, slot 0 in the lowest field.

    ``unit`` must clear every slot's denominator; slots may have either sign.
    """
    key = 0
    for p in reversed(v):
        key = (key << width) + p.numerator * (unit // p.denominator)
    return key


def _state_bound(e: WeylElement, unit: int) -> int:
    """max |w_i| over the monomial slots of ``e`` on the lattice of ``unit``."""
    return int(max(map(abs, chain.from_iterable(mon for mon, _ in e.terms)),
                   default=0) * unit)


def _operator_bound(e: WeylElement, unit: int) -> int:
    """max |m_i| + unit * max d_i over the keys of ``e`` on the lattice of ``unit``."""
    return _state_bound(e, unit) + unit * max(
        chain.from_iterable(der for _, der in e.terms), default=0)


def _pack_operator(e: WeylElement, unit: int, width: int, bound: int):
    """The packed term lists of the operator ``e``: ``(width, bound, den, blocks)``.

    ``(blocks, den)`` is ``split_blocks`` of ``e.terms``, each block then
    grouped into a tuple with one entry (orders, t_order, moved, terms)
    per distinct derivative block d: ``orders`` holds (bit offset of slot
    i, d_i) for each variable slot that d differentiates, ``t_order`` is
    the order of d[t] and ``moved`` the sum of d.  ``terms`` holds (key,
    numerator) for each term m * d, the key being m packed on the lattice
    of ``unit`` without bias and already lowered by d: every variable slot
    i less d_i * unit, as on each term of the image of d.
    """
    blocks, den = split_blocks({
        (_pack(mon, width, unit) - unit * _pack(der[:-1], width), der): c
        for (mon, der), c in e.terms.items()})
    out = {}
    for blk, terms in blocks.items():
        groups = {}
        for (key, der), n in terms.items():
            groups.setdefault(der, []).append((key, n))
        out[blk] = tuple((tuple((i * width, k) for i, k in _sparse(der)),
                          der[-1], sum(der), tuple(group))
                         for der, group in groups.items())
    return width, bound, den, out


def _pack_state(e: WeylElement, unit: int, width: int, bound: int):
    """The packed form of the derivative-free ``e``: ``(blocks, den, width, bound)``.

    ``(blocks, den)`` is ``split_blocks`` of ``e.terms`` with every key
    replaced by the biased packed key of its monomial on the lattice of
    ``unit``; ``bound`` is :func:`_state_bound`.
    """
    size = len(e.table.zeros)
    # 2^(width - 1) in every field: (2^(size*width) - 1) / (2^width - 1) has 1 in each
    bias = ((1 << size * width) - 1) // ((1 << width) - 1) << width - 1
    return (*split_blocks({_pack(mon, width, unit) + bias: c
                           for (mon, _), c in e.terms.items()}), width, bound)


def _packed_operands(a: WeylElement, f: WeylElement):
    """Where :func:`_apply_core` runs: ``(operator form, state form, unit)``.

    ``unit`` is the lcm of the two exponent units, and both forms are on it
    with one field width: the widest of the width that the bounds need and
    the widths the operands are already packed at.  The operator bound plus
    the state bound bounds every slot of every product, and a field holds
    its slot plus the bias 2^(width - 1), so one bit more than that sum
    needs keeps each field in [0, 2^width), clear of the next.  A form
    that is missing or narrower is packed again and stored in
    ``a._packed_ops`` or ``f._packed``, so each element's width on a unit
    only grows; a narrower state form is widened from its own keys
    (:func:`_widened`), so an undecoded ``apply_to`` result stays so.
    """
    a._require_same_table(f)
    unit = math.lcm(a._lattice, f._lattice)
    ops, states = a._packed_ops, f._packed
    if ops is None:
        ops = a._packed_ops = {}
    if states is None:
        states = f._packed = {}
    op, state = ops.get(unit), states.get(unit)
    bound_a = _operator_bound(a, unit) if op is None else op[1]
    bound_f = _state_bound(f, unit) if state is None else state[3]
    width = max((bound_a + bound_f).bit_length() + 1,
                0 if op is None else op[0], 0 if state is None else state[2])
    if op is None or op[0] != width:
        op = ops[unit] = _pack_operator(a, unit, width, bound_a)
    if state is None:
        state = states[unit] = _pack_state(f, unit, width, bound_f)
    elif state[2] != width:
        state = states[unit] = _widened(state, len(f.table.zeros), width)
    return op, state, unit


def _widened(form, size: int, width: int):
    """The packed state form ``form`` of ``size`` fields at the wider ``width``.

    Each field moves to its place at ``width`` and takes the new bias, so
    the keys are re-spread without decoding the element's terms.
    """
    blocks, den, old, bound = form
    mask, shift = (1 << old) - 1, (1 << width - 1) - (1 << old - 1)
    fields = [(i * old, i * width) for i in range(size)]
    return ({blk: {sum([((key >> at & mask) + shift) << to for at, to in fields]): n
                    for key, n in block.items()}
             for blk, block in blocks.items()}, den, width, bound)


def _apply_core(a: WeylElement, f: WeylElement):
    """The loop of :func:`apply_to`: ``(sums, den, unit, state form)``.

    ``sums`` maps each gamma^a xi^b block to packed key -> numerator over
    ``den``, on the lattice of ``unit`` and at the width of ``f``'s packed
    form, which is returned with it.  For each derivative block d of a
    block of ``a`` and each term w of a block of ``f``, the falling
    factorials and the d[t] weight factor are read off the fields of w and
    multiplied once, and every term m * d then adds its packed, lowered m
    to the key of w: one int addition per term pair.  An element that has
    a packed form passed the derivative-free check when the form was
    made.
    """
    if f._packed is None and not f.is_scalar_function():
        raise ValueError("apply_to expects a derivative-free operand")
    (width, _, den_a, blocks_a), state, unit = _packed_operands(a, f)
    sums, pairs = _block_pairs(blocks_a, state[0])
    bias, mask = 1 << width - 1, (1 << width) - 1
    time = (len(a.table.zeros) - 1) * width
    for groups, terms_f, out in pairs:
        for orders, t_order, moved, terms_a in groups:
            for w, c2 in terms_f.items():
                if orders or t_order:
                    factor = 1
                    for at, k in orders:  # _lattice_falling, inlined
                        n = (w >> at & mask) - bias
                        factor *= n if k == 1 else math.prod(range(n, n - k * unit, -unit))
                    if t_order:
                        factor *= ((w >> time & mask) - bias) ** t_order
                    if not factor:
                        continue
                    if unit != 1:
                        factor = _over_unit(factor, unit, moved)
                    c2 *= factor
                for m1, c1 in terms_a:
                    key = m1 + w
                    c = c1 * c2
                    s = out.get(key)
                    out[key] = c if s is None else s + c
    return sums, den_a * state[1], unit, state


def _packed_result(table: VarTable, sums: dict, den: int, unit: int,
                   width: int) -> WeylElement:
    """The element of the packed kernel result ``sums`` over ``den``, not yet decoded.

    The numerators are first normalised as ``split_blocks`` would give them
    for the result: zeros dropped, ``Fraction`` numerators (a fractional
    reordering factor on a unit above 1) cleared into ``den``, and the gcd
    of ``den`` and all numerators divided out, which leaves ``den`` the lcm
    of the reduced denominators.  The element stores the normalised form
    in its ``_packed`` slot, equal to :func:`_pack_state` of the element on
    ``unit`` and ``width``.  One scan of the packed fields gives the form's
    bound and the element's exponent unit: the lcm of the denominators of
    the slots n / ``unit`` is ``unit`` over the gcd of ``unit`` and every
    n.  No key is decoded and no ``Coef`` is built here: the ``terms`` slot
    stays unset until it is first read (:class:`_Undecoded`).
    """
    blocks = {}
    for blk, block in sums.items():
        if 0 in block.values():
            block = {key: n for key, n in block.items() if n}
        if block:
            blocks[blk] = block
    if unit != 1:  # Fraction numerators, some perhaps integral, become ints
        clear = math.lcm(*[n.denominator for block in blocks.values()
                           for n in block.values()])
        for block in blocks.values():
            for key, n in block.items():
                block[key] = (n * clear).numerator
        den *= clear
    g = den
    for block in blocks.values():
        g = math.gcd(g, *block.values())
    if g != 1:
        for block in blocks.values():
            for key, n in block.items():
                block[key] = n // g
        den //= g
    bias, mask = 1 << width - 1, (1 << width) - 1
    fields = range(0, len(table.zeros) * width, width)
    biased = [key >> at & mask for block in blocks.values() for key in block
              for at in fields]
    bound = max(bias - min(biased, default=bias), max(biased, default=bias) - bias)
    lattice = 1 if unit == 1 else unit // math.gcd(unit, *[n - bias for n in biased])
    e = _Undecoded.__new__(_Undecoded)
    e.table, e._lattice = table, lattice
    e._masked = e._packed_ops = None
    e._packed = {unit: (blocks, den, width, bound)}
    return e


def _decoded(e: WeylElement) -> dict:
    """The term map of ``e`` decoded from one of its packed forms.

    Each key is decoded once and divided by the form's unit
    (:func:`_unscaled`); the coefficients are ``join_blocks`` of the
    form's blocks, so the map equals what the constructor would keep.
    """
    packed = e._packed
    unit = min(packed)
    blocks, den, width, _ = packed[unit]
    bias, mask = 1 << width - 1, (1 << width) - 1
    fields = range(0, len(e.table.zeros) * width, width)
    zeros, terms = e.table.zeros, {}
    for key, c in join_blocks(blocks, den).items():
        mon = tuple([(key >> at & mask) - bias for at in fields])
        terms[(mon if unit == 1 else _unscaled(mon, unit), zeros)] = c
    return terms


def _term_count(e: WeylElement) -> int:
    """``len(e.terms)``, read off a packed form when ``e`` holds one.

    A key's coefficient has one numerator per gamma^a xi^b block that
    holds the key, so the count is the number of distinct keys across
    the blocks.  An ``apply_to`` result is not decoded by it.
    """
    packed = e._packed
    if not packed:
        return len(e.terms)
    blocks = packed[min(packed)][0]
    if len(blocks) > 1:
        return len(set().union(*blocks.values()))
    return sum(map(len, blocks.values()))


def _eigenvalue(a: WeylElement, f: WeylElement) -> Fraction | None:
    """The rational E with ``apply_to(a, f) == E * f``, or None; ``f`` nonzero.

    Runs on the packed forms, so the image is never joined into ``Coef``
    values and no key is decoded: E is read off the first nonzero numerator
    of the image and the same packed key of ``f``, whose form the kernel
    returns on the image's unit and width, and :func:`_numerators_match`
    certifies the image as E * f.
    """
    sums, den, _, (blocks_f, den_f, _, _) = _apply_core(a, f)
    first = next(((blk, key, n) for blk, block in sums.items()
                  for key, n in block.items() if n), None)
    if first is None:
        return Fraction(0)
    blk, key, n = first
    n_f = blocks_f.get(blk, {}).get(key)
    if n_f is None:
        return None
    value = Fraction(n * den_f, n_f * den)
    return value if _numerators_match(sums, den, blocks_f, den_f, coef(value)) else None


def _is_multiple(core, g: WeylElement, c: Coef) -> bool:
    """Whether the kernel result ``core = (sums, den, unit)`` equals c * g.

    ``c`` has at most one term.  ``g`` enters in its kernel form on
    ``unit``, keyed by (mon, der); a g whose unit does not divide ``unit``
    has a key off the lattice of ``core``.  When c or g is zero, ``core``
    must vanish.
    """
    sums, den, unit = core
    blocks, den_g = {}, 1
    if c.terms and g.terms:
        if unit % g._lattice:
            return False
        masked, den_g = _masked(g, unit)
        blocks = {blk: {(m, d): n for m, d, n, _, _ in terms}
                  for blk, terms in masked.items()}
    return _numerators_match(sums, den, blocks, den_g, c)


def _bracket_residual(core, g: WeylElement, c: Coef) -> WeylElement | None:
    """None when the :func:`_commutator_core` result ``core`` equals c * g
    (:func:`_is_multiple`), else core - c * g, only then built as an element."""
    if _is_multiple(core, g, c):
        return None
    return _result(g.table, *core) - g.scaled(c)


def _numerators_match(sums: dict, den: int, blocks: dict, den_g: int,
                      c: Coef) -> bool:
    """Whether ``sums`` over ``den`` equals c times ``blocks`` over ``den_g``.

    Both are kernel forms with the same keys, split or packed, on one
    lattice.  ``c`` has at most one term q * gamma^a * xi^b, or ``blocks``
    is empty.  Runs on the numerators, so no ``Coef``, no ``Fraction`` key
    and no element is built.  ``sums`` holds numerators n per gamma^a xi^b
    block and key (ints, or ``Fraction`` where a unit above 1 gives a
    fractional reordering factor), ``blocks`` numerators n_g.  c * g has
    the blocks shifted by (a, b), and equals ``sums`` exactly when the
    nonzero numerators of ``sums`` sit at just those keys, each with n *
    den_g * q.denominator == n_g * q.numerator * den.
    """
    (a, b), scale_core, scale_g = (0, 0), 1, 0
    if blocks:
        ((a, b), q), = c.terms.items()
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
