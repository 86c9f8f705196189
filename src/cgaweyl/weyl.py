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
coefficients, stores integral exponents as ``int``, and rejects, with
``TypeError``, a monomial slot that is not an ``int`` or a ``Fraction``
and a derivative order that is not an ``int`` >= 0, and, with
``DomainViolation``, exponents outside their variable's domain and time
parts over a table without time.
In the same pass it records the element's exponent unit (below).
:func:`mul_sum` (and so :func:`mul`) and :func:`commutator` leave
these rules to it.  An :func:`apply_to` result is canonical by
construction and skips it: its derivative-free terms cannot leave their
domains (a falling factorial p(p-1)...(p-k+1) vanishes for each NAT
exponent 0 <= p < k).

Every term is keyed by a pair of plain tuples with one slot per table
variable and then one for time: ``mon = (p_0, ..., p_{n-1}, weight)``, the
exponents and the weight of e^(weight*t), and ``der = (k_0, ..., k_{n-1},
t_order)``, the derivative orders and the order of d[t].
``VarTable.zeros`` is both the monomial 1 and the empty block.  A slot is
``int`` when integral and ``Fraction`` only when genuinely fractional (the
xi = 0 family's x^(w2/w1), weights such as e^(t/2)).  Terms print in the
order of (d[t] order, (index, order) pairs, weight, (index, exponent)
pairs) read off the nonzero slots, not in the order of the raw tuples.

Operator sums take one kernel pass: :func:`mul_sum` returns the sum of
c * a * b over (c, a, b) triples, c an ``int`` or a ``Fraction``, with
every product run through the one product loop into one accumulator
(:func:`_kernel_pairs`) and the sum decoded, and checked by the
constructor, once.  :func:`mul` is the sum of one product and
:func:`anticommutator` that of two, so there is no other product loop.

All three kernels run on one packed form.  An element's exponent unit is
the lcm of the denominators of its monomial slots (1 when all are ints);
a call runs on the lcm U of its operands' units, and there each key is
one Python int (:func:`_pack`): monomial slot i times U, plus a bias, in
field i, and the derivative orders in the fields above, so a
derivative-free key is its packed monomial alone.  The field width, a
power of two, comes from the operands' bounds (:func:`_bound`), whose sum
bounds every slot of the result, so that no field carries into the next
(:func:`_packed_forms`).  A product of two
terms' monomials and derivative blocks is one int addition, moving
derivatives adds a key shift, and no ``Fraction`` is hashed or added per
term pair.  Each element keeps its packed form per unit, every kernel
result keeps the one its kernel built (:func:`_packed_result`), and one
decoder, :func:`_decoded`, turns packed keys back into terms.

Reorderings are memoized: passing a derivative block past a monomial is a
pure function of the block and the monomial slots it differentiates, and
the same pairs recur across thousands of term pairs, so
:func:`_reorder_corrections` keeps its k >= 1 terms in a
``functools.lru_cache`` bounded by ``REORDER_CACHE_SIZE`` entries.  The
k = 0 term is always (1, mon, der) and is not cached: :func:`mul_sum`
writes it itself.  A derivative on a slot whose exponent or weight is 0
gives a factor of 0 for every k >= 1, so the term lists of
:func:`mul_sum` and :func:`commutator` carry masks of the nonzero slots beside each key
(:func:`_kernel_terms`), and the memo is read only where a derivative
block meets a nonzero slot of the other monomial; the masks come from a
few operations on the whole key.  The generator ``_reorder_options`` of
``tests/helpers.py`` is the tests' reference.

:func:`apply_to` reads the operator's terms grouped by derivative block,
each key already lowered by its block (:func:`_operator_form`), so a term
pair is one int addition.  Its result decodes its ``terms`` only when
they are first read (:func:`_packed_result`), so the spectrum walk's
next ``apply_to``, eigenvalue check, zero check and term count on it
read the packed form.

The commutator is not ``a*b - b*a`` computed in full: the k = 0 term of
every reordering is the same in both orders and cancels, so
:func:`commutator` builds only the cached k >= 1 terms of the two orders,
in one accumulator.  Its loop is :func:`_commutator_core`, which, like
:func:`_apply_core`, stops before the result is decoded.

Coefficients run on int numerators, one monomial block at a time.  Every
coefficient is a Laurent polynomial in gamma and xi, so
:func:`cgaweyl.scalar.split_blocks` writes an operand as
sum_{a,b} gamma^a * xi^b * A_ab, where each A_ab is a parameter-free term
map of int numerators over one common denominator (a plain rational is
the single block (0, 0)).  The kernels run their one loop body once per
pair of blocks, on Python ints, and add each pair's sums into block
(a1 + a2, b1 + b2).  This is exact: every term of the result is a sum of
c1 * c2 * factor over the product of the two denominators, and the
reordering factors are ints.  On a unit U > 1 a factor is an int over
U^K, K the number of derivatives moved; a call moves at most D of them,
D the largest total derivative order of a moving operand's terms
(:func:`_depth`, kept with its packed form; a call takes the larger D
of its operands), so the kernel puts U^D into
its denominator once and every factor, the leading 1 of :func:`mul_sum`
included, becomes the int F * U^(D - K).  On U = 1, D is 0.  No kernel
sum and no comparison builds a ``Fraction``.
:func:`cgaweyl.scalar.join_blocks` builds each result ``Coef`` once, at
the end.  One comparator reads the kernel sums before that:
:func:`_numerators_match` answers whether a kernel result equals c * g,
for a coefficient c of at most one term q * gamma^a * xi^b and g in the
same form, by shifting the blocks of g by (a, b) and cross-multiplying
int numerators key by key.  :func:`eigenvalue` certifies H psi = E * psi
with it, and :func:`bracket_residual`, every check of [a, b] = c * g,
reads g's packed form with it (:func:`_is_multiple`) and builds
[a, b] - c * g only when the check fails.  These two, with
:func:`term_count`, are the checks' whole view of the packed form: no
other module reads it.  Before it runs the kernel, :func:`bracket_residual`
reads each operand's support, the masks of the slots that are nonzero in
some monomial and in some derivative block, time included
(:func:`_support_of`): when no derivative slot of one operand is a
monomial slot of the other, no term pair meets and [a, b] = 0, so the
check reads c * g alone and packs nothing.

The element text is printed and read piece by piece, each piece in the
module that owns it.  A term's coefficient, ``(p)`` or ``(p)/(q)``, is
printed by :meth:`cgaweyl.scalar.Coef.wrapped_text` and read by
:func:`cgaweyl.scalar.read_coef`.  Its factors, e^(w*t), d[v]^k and v^p,
are printed by :func:`element_to_text` and read by :func:`parse_element`
here, with one alternative of the regular pattern ``_FACTOR`` each.

Elements are immutable after construction, the unit included, and every
operation is a pure function, so values are safe to share across threads.
An ``apply_to`` result's ``terms``, and any element's support, are
filled on first read; two threads reading them at once each compute them
from the same element and store equal values.  Each packed form is built
in full before it is stored, so no thread reads a part-filled one, and a
call reads each operand's form once and widens the forms in hand:
another thread may meanwhile store a form of another width, which a
later call widens again if it must.
The memos are safe to share too (the reorderings, and the decoded slots
of recent keys, :func:`_slots`): their entries are immutable tuples and
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
from itertools import groupby, islice, product as cartesian

from .scalar import (COEF_ONE, COEF_ZERO, NUMBER, Coef, as_fraction, coef,
                     join_blocks, rational, read_coef, split_blocks)

NAT = "nat"   # exponents in {0, 1, 2, ...}
INT = "int"   # exponents in Z
RAT = "rat"   # exponents in Q

Exponent = int | Fraction  # int when integral, see WeylElement

# A variable name, as element text prints and reads it: a letter, then
# letters and digits, and never one of e, d and t.
_NAME = r"(?![edt]\b)[A-Za-z][A-Za-z0-9]*"

# Bound on the memoized reorderings (entries of _reorder_corrections).  One
# `cgaweyl all` run fills 133 entries, whose factors and shifts take about
# 13 kB (tracemalloc), and checking the ell = 12 general table fills 49
# (CPython 3.10.13 and 3.11.7 alike).
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
    derivative block.
    """

    names: tuple[str, ...]
    domains: tuple[str, ...]
    has_time: bool = False
    zeros: tuple = field(init=False, repr=False, compare=False)
    # one slice per run of adjacent NAT variables, for the constructor
    _nat_runs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise ValueError("variable names must be unique")
        if len(self.names) != len(self.domains):
            raise ValueError("one domain per variable required")
        for n in self.names:
            if not re.fullmatch(_NAME, n):
                raise ValueError(f"variable name {n!r} is not a letter, then "
                                 f"letters and digits, other than e, d and t")
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
    the denominators of the monomial slots, 1 when all are ints.
    ``_packed`` is None until a kernel first reads the element, and then
    maps each unit to the packed form that every kernel reads
    (:func:`_pack`): ``(blocks, den, width, bound, term lists, operator
    groups, depth)``, the term lists and groups filled when :func:`mul_sum` or
    :func:`commutator` (:func:`_kernel_terms`) and :func:`apply_to`
    (:func:`_operator_form`) first need them, and ``depth`` the
    :func:`_depth`.  A kernel result holds the form its kernel built.
    ``_support`` is None until :func:`bracket_residual` first reads it, and
    then holds the masks of the element's nonzero slots (:func:`_support_of`).

    ``terms`` may be filled on first read: an :func:`apply_to` result is
    made from the kernel's packed form alone (:func:`_packed_result`), as
    an :class:`_Undecoded`, and its term map is decoded from that form,
    once, when ``terms`` is first read.  Until then :meth:`is_zero` and the
    spectrum's eigenvalue check and term count read the packed form.
    """

    __slots__ = ("table", "terms", "_lattice", "_packed", "_support")

    def __init__(self, table: VarTable,
                 terms: dict[tuple[tuple, tuple], Coef] | None = None):
        self.table = table
        self._packed = self._support = None
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
            try:  # math.gcd takes ints alone
                math.gcd(*mon, *der)
                check = False
            except TypeError:  # a Fraction slot, or an inexact one
                check = True
            if check and not ({*map(type, mon)} <= {int, Fraction}
                              and {*map(type, der)} == {int}) or min(der) < 0:
                raise TypeError(f"term {key}: every exponent and weight must be an "
                                f"int or a Fraction, every derivative order an int >= 0")
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
        if self.table is not other.table and self.table != other.table:
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
        """``value`` * self; an int or ``Fraction`` takes ``Coef.scale``."""
        return WeylElement(self.table, {k: v * value for k, v in self.terms.items()})

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
        packed = self._packed
        unit = min(packed)
        blocks, den, width = packed[unit][:3]
        terms = self.terms = _decoded(self.table, blocks, den, unit, width)
        self.__class__ = WeylElement
        return terms

    def is_zero(self) -> bool:
        return not term_count(self)


# ---------------------------------------------------------------------------
# products

def _lattice_falling(n: int, k: int, unit: int) -> int:
    """n(n - unit)...(n - (k-1)*unit): unit^k times the falling factorial of n/unit."""
    return math.prod(range(n, n - k * unit, -unit))


def _width(bound: int) -> int:
    """The field width for slots of absolute value at most ``bound``: one bit
    more than ``bound`` needs, so the slot plus the bias 2^(width - 1) stays
    in [0, 2^width), rounded up to a power of two of at least 8."""
    return max(8, 1 << bound.bit_length().bit_length())


@lru_cache(maxsize=64)
def _layout(size: int, width: int):
    """``(bias, low, top, steps)`` for packed keys of ``size`` slots at ``width``.

    ``top`` has the top bit, 2^(width - 1), of every field, monomial and
    derivative, ``low`` the bits below it, and ``bias`` the top bit of
    each of the ``size`` monomial fields; ``steps`` holds 2^(i * width)
    for each field i.
    """
    # (2^(n*width) - 1) / (2^width - 1) has 1 in each of n fields
    ones = ((1 << 2 * size * width) - 1) // ((1 << width) - 1)
    top = ones << width - 1
    return (top & (1 << size * width) - 1, top - ones, top,
            tuple(1 << at for at in range(0, 2 * size * width, width)))


def _key(mon, der, layout) -> int:
    """The packed key of the lattice slots ``mon`` and orders ``der`` in
    ``layout`` (:func:`_layout`): slot i in field i and order i in field
    size + i, plus the bias.  An integral ``Fraction`` slot counts as its int."""
    return int(sum([p * step for p, step in zip(mon + der, layout[3]) if p], layout[0]))


@lru_cache(maxsize=1024)
def _slots(key: int, size: int, width: int) -> tuple[tuple, tuple]:
    """``(mon, der)`` of the packed ``key``; the inverse of :func:`_key`.
    Memoized: result keys recur across products (one ``cgaweyl all`` run
    reads 683 keys here, 243 of them distinct, under CPython 3.10.13 and
    3.11.7 alike)."""
    mask, half, top = (1 << width) - 1, 1 << width - 1, size * width
    der = key >> top
    return (tuple([(key >> at & mask) - half for at in range(0, top, width)]),
            tuple([der >> at & mask for at in range(0, top, width)]) if der
            else (0,) * size)


def _bound(keys, unit: int) -> int:
    """The largest sum |m_i| + unit * sum d_i over the lattice keys (mon, der).

    It bounds every slot, and a kernel result's keys have at most the sum
    of its operands' bounds: moving k derivatives off a slot adds at most
    k * unit to the monomial sum and takes k * unit off the other.
    """
    return int(max([sum(map(abs, mon)) + unit * sum(der) for mon, der in keys], default=0))


@lru_cache(maxsize=REORDER_CACHE_SIZE)
def _reorder_corrections(der: int, mon: int, unit: int, width: int, size: int,
                         depth: int):
    """The k >= 1 options of ``_reorder_options`` on packed keys, memoized.

    ``der`` is a derivative block, the part of a packed key above its
    ``size`` monomial fields of ``width`` bits; ``mon`` holds a key's
    biased monomial fields where ``der`` is nonzero and 0 elsewhere, so
    monomials that differ only in slots that ``der`` does not
    differentiate share one entry.  Moving k derivatives off a slot n
    takes the int n(n - unit)...(n - (k-1)*unit), or c^k off the time
    weight c, and lowers n by k*unit and the order by k.  The option (f,
    m, d) of ``_reorder_options`` appears as (F, delta): f is the product
    F0 of these ints over unit^K, K the number of derivatives moved, and F
    is the int F0 * unit^(depth - K), f times unit^depth, where ``depth``
    (0 on unit 1) is at least every K of the call, so that the kernel,
    whose denominator carries unit^depth, adds ints only.  The key of (m1
    m2)(d1 d2) plus ``delta`` is that of (m1 m)(d d2).  The first option
    is dropped, so the tuple is empty for an empty ``der``.
    """
    mask, bias, time = (1 << width) - 1, 1 << width - 1, (size - 1) * width
    choices = []
    for at in range(0, size * width, width):
        a = der >> at & mask
        if a:
            n = (mon >> at & mask) - bias
            opts = []
            for k in range(a + 1):
                f = math.comb(a, k) * (n**k if at == time
                                       else _lattice_falling(n, k, unit))
                if f:
                    step = k << size * width + at  # the order falls by k
                    if at != time:  # d[t] keeps the weight
                        step += k * unit << at
                    opts.append((k, f, step))
            choices.append(opts)
    out = []
    for combo in islice(cartesian(*choices), 1, None):
        factor, delta, moved = 1, 0, 0
        for k, f, step in combo:
            factor *= f
            delta -= step
            moved += k
        if unit != 1:
            factor *= unit ** (depth - moved)
        out.append((factor, delta))
    return tuple(out)


def _pack(e: WeylElement, unit: int):
    """The packed form of ``e`` on ``unit``: ``(blocks, den, width, bound, None, None, depth)``.

    ``(blocks, den)`` is ``split_blocks`` of ``e.terms`` with each key
    (mon, der) replaced by one int (:func:`_key`): monomial slot i times
    ``unit``, plus the bias 2^(width - 1), in bits [i*width, (i+1)*width),
    and above the ``size`` monomial fields the derivative order i in field
    size + i.  ``bound`` is the :func:`_bound` of the keys on the lattice
    of ``unit``, which must clear every slot, and ``width`` its
    :func:`_width`.  The two None entries are left for
    :func:`_kernel_terms` and :func:`_operator_form`.  ``depth`` is
    :func:`_depth` of the terms.
    """
    terms = e.terms
    if unit != 1:
        terms = {(tuple([p.numerator * (unit // p.denominator) for p in mon]), der): c
                 for (mon, der), c in terms.items()}
    bound = _bound(terms, unit)
    width = _width(bound)
    layout = _layout(len(e.table.zeros), width)
    return (*split_blocks({_key(mon, der, layout): c for (mon, der), c in terms.items()}),
            width, bound, None, None, _depth(terms, unit))


def _depth(terms, unit: int) -> int:
    """The largest total derivative order of a term (mon, der) of ``terms``
    on a ``unit`` above 1, and 0 on unit 1.

    A kernel moves at most that many derivatives of an operand past a
    monomial, so on its unit U every reordering factor, an int over U^K,
    is an int over U^depth (:func:`_reorder_corrections`): the kernel
    takes U^depth into its denominator once and adds ints only.  On unit 1
    every factor is an int already.
    """
    return max([sum(der) for _, der in terms], default=0) if unit != 1 else 0


def _widened(blocks: dict, size: int, old: int, width: int) -> dict:
    """``blocks`` with each packed key of ``size`` monomial and derivative
    fields moved from fields of ``old`` bits to the wider ``width``."""
    layout = _layout(size, width)
    return {blk: {_key(*_slots(key, size, old), layout): n for key, n in block.items()}
            for blk, block in blocks.items()}


def _packed_forms(unit: int, width: int, a: WeylElement, b: WeylElement | None = None):
    """``(width, form of a, form of b)``: packed forms on ``unit``, at one width.

    The width is the widest of ``width``, of the operands' own widths and
    of the :func:`_width` of the sum of their bounds.  Without ``b`` its
    form is None.  Each form is read once (:func:`_form`) and widened from
    the form in hand, since another thread may store a wider one meanwhile.
    """
    form_a = _form(a, unit)
    form_b = None if b is None else _form(b, unit)
    bound = form_a[3] + (form_b[3] if form_b else 0)
    width = max(width, form_a[2], form_b[2] if form_b else 0)
    if bound >> width - 1:  # the bound needs a wider field
        width = _width(bound)
    if form_a[2] != width:
        form_a = _form(a, unit, width, form_a)
    if form_b and form_b[2] != width:
        form_b = _form(b, unit, width, form_b)
    return width, form_a, form_b


def _form(e: WeylElement, unit: int, width: int = 0, form=None):
    """The packed form of ``e`` on ``unit``, or ``form`` widened to ``width``.

    A missing form is packed (:func:`_pack`) and a narrower one widened
    from its own keys (so an undecoded ``apply_to`` result stays so); each
    is stored in the ``_packed`` slot, so an element's width on a unit
    only grows.
    """
    forms = e._packed
    if forms is None:
        forms = e._packed = {}
    form = form or forms.get(unit)
    if form is None:
        form = forms[unit] = _pack(e, unit)
    if form[2] < width:
        blocks, den, old, bound = form[:4]
        form = forms[unit] = (_widened(blocks, len(e.table.zeros), old, width),
                              den, width, bound, None, None, form[6])
    return form


def _kernel_terms(e: WeylElement, unit: int, form) -> dict:
    """The term lists that :func:`mul_sum` and :func:`commutator` read off ``form``.

    ``form`` is the packed form of ``e`` on ``unit``.  Each block becomes a
    list of (key, numerator, mon_mask, der_mask, field_mask), one per term.
    A mask has the top bit of field i set where slot i of the monomial, or
    order i, is nonzero, so ``der_mask & mon_mask`` of two terms is nonzero
    exactly when the derivative block meets a nonzero slot of the monomial;
    ``key & field_mask`` of another term, every bit of field i for each
    nonzero order i, is what :func:`_reorder_corrections` reads.
    """
    lists = form[4]
    if lists is None:
        width, shift = form[2], len(e.table.zeros) * form[2]
        bias, low, top, _ = _layout(len(e.table.zeros), width)
        fill, lists = (1 << width) - 1, {}
        for blk, block in form[0].items():
            lists[blk] = terms = []
            for key, n in block.items():
                # in key ^ bias a field is its slot in two's complement, and
                # |slot| < 2^(width - 1), so it is nonzero exactly when its
                # low bits are, and then they carry into its top bit
                nonzero = ((key ^ bias) & low) + low & top
                der = nonzero >> shift
                terms.append((key, n, nonzero & bias, der, (der >> width - 1) * fill))
        e._packed[unit] = (*form[:4], lists, *form[5:])
    return lists


def _block_pairs(blocks_a: dict, blocks_b: dict, sums: dict) -> list:
    """One (terms of a, terms of b, ``sums[(a1 + a2, b1 + b2)]``) per pair of
    blocks (a1, b1) of a and (a2, b2) of b."""
    pairs = []
    for (ga, xa), terms_a in blocks_a.items():
        for (gb, xb), terms_b in blocks_b.items():
            pairs.append((terms_a, terms_b,
                          sums.setdefault((ga + gb, xa + xb), {})))
    return pairs


def _kernel_pairs(products: tuple):
    """Where :func:`mul_sum` and :func:`commutator` run: ``(sums, den, unit, width, bound, runs)``.

    ``products`` holds (c, a, b) triples, c an int or a ``Fraction``, all
    operands over one table (:func:`mul_sum` checks both).  They share one
    accumulator ``sums``: on ``unit``, the lcm of all operand units, at the
    widest width any product needs, with ``bound`` the largest sum of a
    product's operand bounds (:func:`_bound`), and over ``den``, the lcm of
    each product's own denominator den_a * den_b * unit^depth *
    c.denominator, where ``depth`` is the larger of its operands'
    :func:`_depth`.  ``runs`` holds one (c.numerator, own denominator,
    depth, pairs) per product, ``pairs`` being the :func:`_block_pairs` of
    its operands' term lists, into ``sums``; the kernel multiplies the
    product's numerators by c.numerator * (den / its own denominator).
    """
    unit = 1
    for _, a, b in products:
        unit = math.lcm(unit, a._lattice, b._lattice)
    forms, width, bound = [], 0, 0
    for c, a, b in products:
        form_a, form_b = _form(a, unit), _form(b, unit)
        width = max(width, form_a[2], form_b[2])
        bound = max(bound, form_a[3] + form_b[3])
        forms.append((c, a, b, form_a, form_b))
    if bound >> width - 1:  # the bound needs a wider field
        width = _width(bound)
    sums, den, runs = {}, 1, []
    for c, a, b, form_a, form_b in forms:
        if form_a[2] != width:
            form_a = _form(a, unit, width, form_a)
        if form_b[2] != width:
            form_b = _form(b, unit, width, form_b)
        terms_a = form_a[4] or _kernel_terms(a, unit, form_a)
        terms_b = terms_a if b is a else form_b[4] or _kernel_terms(b, unit, form_b)
        depth = max(form_a[6], form_b[6])
        own = form_a[1] * form_b[1] * unit ** depth * c.denominator
        den = math.lcm(den, own)
        runs.append((c.numerator, own, depth, _block_pairs(terms_a, terms_b, sums)))
    return sums, den, unit, width, bound, runs


def _decoded(table: VarTable, blocks: dict, den: int, unit: int, width: int) -> dict:
    """The term map of the packed kernel result ``blocks`` over ``den``.

    Each key is split into its monomial slots, divided by ``unit`` (an
    ``int`` where it divides them, else a ``Fraction``), and its derivative
    orders (:func:`_slots`); the coefficients are ``join_blocks`` of the
    blocks, which drops zeros.
    """
    size, terms = len(table.zeros), {}
    for key, c in join_blocks(blocks, den).items():
        mon, der = _slots(key, size, width)
        if unit != 1:
            mon = tuple([n // unit if n % unit == 0 else Fraction(n, unit) for n in mon])
        terms[(mon, der)] = c
    return terms


def mul_sum(products) -> WeylElement:
    """The sum of c * a * b over the (c, a, b) of ``products``, c an int or a ``Fraction``.

    Every product runs the one product loop into one accumulator
    (:func:`_kernel_pairs`), its numerators scaled by its c and its share
    of the common denominator, and the sum is decoded once, through the
    constructor's checks.  Each term pair gives its leading term (m1
    m2)(d1 d2), one int addition of the packed keys less one bias, then
    the memoized k >= 1 reordering terms of d1 past m2.  The memo is read
    only when the mask of d1 meets that of m2: otherwise every k >= 1 term
    has a factor of 0.  On a unit U above 1 a product's own denominator
    carries U^depth (:func:`_depth`), so its leading term is scaled by
    it, as every memoized factor is.  An empty ``products`` raises
    ``ValueError``, as do operands over two tables; a c that is not an
    int or a ``Fraction`` raises ``TypeError``.
    """
    products = tuple(products)
    if not products:
        raise ValueError("mul_sum needs at least one product")
    first = products[0][1]
    table = first.table
    for c, a, b in products:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"a product's factor must be an int or a Fraction, "
                            f"not {type(c).__name__}")
        if a.table is not table or b.table is not table:
            first._require_same_table(a)
            first._require_same_table(b)
    sums, den, unit, width, bound, runs = _kernel_pairs(products)
    size = len(table.zeros)
    shift, bias = size * width, _layout(size, width)[0]
    for numerator, own, depth, pairs in runs:
        scale, lift = numerator * (den // own), unit ** depth
        for terms_a, terms_b, out in pairs:
            for k1, c1, _, dm1, fm1 in terms_a:
                c1 *= scale
                d1, k1, lead = k1 >> shift, k1 - bias, c1 * lift
                for k2, c2, mm2, _, _ in terms_b:
                    key, c = k1 + k2, lead * c2
                    s = out.get(key)
                    out[key] = c if s is None else s + c
                    if dm1 & mm2:
                        base = c1 * c2
                        for factor, delta in _reorder_corrections(d1, k2 & fm1, unit,
                                                                  width, size, depth):
                            moved, c = key + delta, base * factor
                            s = out.get(moved)
                            out[moved] = c if s is None else s + c
    return _packed_result(table, sums, den, unit, width, bound, True)


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Canonical normal-ordered product a * b: ``mul_sum([(1, a, b)])``."""
    return mul_sum(((1, a, b),))


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """[a, b] = a*b - b*a, computed from the reordering terms alone.

    For a term pair (m1 d1, m2 d2) the products m1 d1 m2 d2 and m2 d2 m1 d1
    each expand into one term per choice of k >= 0 derivatives moved past
    the other monomial.  The all-k = 0 term is (m1 m2)(d1 d2) in both
    orders, because monomials commute with monomials and derivative blocks
    with derivative blocks, so it cancels exactly and is never built.  What
    is left are the k >= 1 terms of :func:`_reorder_corrections`: d1 past
    m2 with a plus sign and d2 past m1 with a minus sign, each a shift of
    the packed key of (m1 m2)(d1 d2).  Equal to ``mul(a, b) - mul(b, a)``
    term for term.

    The reorderings come from a memo bounded by ``REORDER_CACHE_SIZE``
    entries.  It is shared by all threads and thread-safe: it holds only
    immutable values, and ``lru_cache`` guards its own bookkeeping.
    """
    return _packed_result(a.table, *_commutator_core(a, b), True)


def _commutator_core(a: WeylElement, b: WeylElement):
    """The loop of :func:`commutator`, packed: ``(sums, den, unit, width, bound)``.

    A term pair reads the memo for d1 past m2 only when their masks meet,
    and for d2 past m1 likewise; a pair that meets in neither gives no term.
    """
    a._require_same_table(b)
    sums, den, unit, width, bound, ((_, _, depth, pairs),) = _kernel_pairs(((1, a, b),))
    size = len(a.table.zeros)
    shift, bias = size * width, _layout(size, width)[0]
    for terms_a, terms_b, out in pairs:
        for k1, c1, mm1, dm1, fm1 in terms_a:
            d1, lead = k1 >> shift, k1 - bias
            for k2, c2, mm2, dm2, fm2 in terms_b:
                forward, backward = dm1 & mm2, dm2 & mm1
                if not (forward or backward):
                    continue
                base, key = c1 * c2, lead + k2
                if forward:  # d1 past m2
                    for factor, delta in _reorder_corrections(d1, k2 & fm1, unit,
                                                              width, size, depth):
                        moved, v = key + delta, base * factor
                        s = out.get(moved)
                        out[moved] = v if s is None else s + v
                if backward:  # d2 past m1, with a minus sign
                    for factor, delta in _reorder_corrections(k2 >> shift, k1 & fm2, unit,
                                                              width, size, depth):
                        moved, v = key + delta, base * factor
                        s = out.get(moved)
                        out[moved] = -v if s is None else s - v
    return sums, den, unit, width, bound


def anticommutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """{a, b} = a*b + b*a, one :func:`mul_sum` of the two products."""
    return mul_sum(((1, a, b), (1, b, a)))


def apply_to(a: WeylElement, f: WeylElement) -> WeylElement:
    """Act with the operator ``a`` on the scalar function ``f``.

    Equals the derivative-free part of ``a * f``: every derivative factor
    is spent on ``f`` (terms whose derivatives annihilate f contribute 0).
    The loop is :func:`_apply_core`, and the result keeps its packed form
    (:func:`_packed_result`).
    """
    sums, den, unit, state, bound = _apply_core(a, f)
    return _packed_result(a.table, sums, den, unit, state[2], bound)


def _operator_form(a: WeylElement, unit: int, form) -> dict:
    """The blocks of the operator ``a`` grouped by derivative block.

    Read off ``form``, the packed form of ``a`` on ``unit``, once, and kept
    in its sixth entry.  Each block is grouped into a tuple with one entry
    (orders, t_order, lift, terms) per distinct derivative block d:
    ``orders`` holds (bit offset of slot i, d_i) for each variable slot
    that d differentiates, ``t_order`` is the order of d[t] and ``lift``
    is unit^(depth - K), K the sum of d and depth that of the form
    (:func:`_depth`; 1 on unit 1), so that each falling factorial over
    unit^K times ``lift`` is an int over unit^depth.  ``terms`` holds
    (key, numerator) for each term m * d,
    the key being m without bias and already lowered by d: every variable
    slot i less d_i * unit, as on each term of the image of d.
    """
    out = form[5]
    if out is None:
        blocks, width, depth, size = form[0], form[2], form[6], len(a.table.zeros)
        mask, shift, time = (1 << width) - 1, size * width, (size - 1) * width
        mon, variables = (1 << shift) - 1, (1 << time) - 1
        bias, out = _layout(size, width)[0], {}
        for blk, block in blocks.items():
            groups = {}
            for key, n in block.items():
                der = key >> shift
                groups.setdefault(der, []).append(
                    ((key & mon) - bias - unit * (der & variables), n))
            entries = []
            for der, group in groups.items():
                orders = [der >> at & mask for at in range(0, shift, width)]
                entries.append((tuple((i * width, k) for i, k in enumerate(orders[:-1]) if k),
                                orders[-1], unit ** (depth - sum(orders)) if depth else 1,
                                tuple(group)))
            out[blk] = tuple(entries)
        a._packed[unit] = (*form[:5], out, form[6])
    return out


def _apply_core(a: WeylElement, f: WeylElement):
    """The loop of :func:`apply_to`: ``(sums, den, unit, state form, bound)``.

    ``sums`` maps each gamma^a xi^b block to packed key -> int numerator
    over ``den``, on the lattice of ``unit`` and at the width of ``f``'s
    packed form, which is returned with it and the sum of the two bounds.
    For each derivative block d of a
    block of ``a`` (:func:`_operator_form`) and each term w of a block of
    ``f``, the falling factorials and the d[t] weight factor are read off
    the fields of w and multiplied once, with the block's ``lift``, and
    every term m * d then adds its packed, lowered m to the key of w.
    ``den`` carries unit^depth, ``a``'s :func:`_depth`.  An undecoded
    ``apply_to`` result is derivative-free by construction, and any other
    ``f`` is checked first.
    """
    if type(f) is not _Undecoded and not f.is_scalar_function():
        raise ValueError("apply_to expects a derivative-free operand")
    a._require_same_table(f)
    unit = math.lcm(a._lattice, f._lattice)
    width, form_a, state = _packed_forms(unit, 0, a, f)
    sums = {}
    pairs = _block_pairs(_operator_form(a, unit, form_a), state[0], sums)
    bias, mask = 1 << width - 1, (1 << width) - 1
    time = (len(a.table.zeros) - 1) * width
    for groups, terms_f, out in pairs:
        for orders, t_order, lift, terms_a in groups:
            for w, c2 in terms_f.items():
                if orders or t_order or lift != 1:
                    factor = lift
                    for at, k in orders:  # _lattice_falling, inlined
                        n = (w >> at & mask) - bias
                        factor *= n if k == 1 else math.prod(range(n, n - k * unit, -unit))
                    if t_order:
                        factor *= ((w >> time & mask) - bias) ** t_order
                    if not factor:
                        continue
                    c2 *= factor
                for m1, c1 in terms_a:
                    key = m1 + w
                    c = c1 * c2
                    s = out.get(key)
                    out[key] = c if s is None else s + c
    return (sums, form_a[1] * state[1] * unit ** form_a[6], unit, state,
            form_a[3] + state[3])


def _packed_result(table: VarTable, sums: dict, den: int, unit: int, width: int,
                   bound: int, decode: bool = False) -> WeylElement:
    """The element of the kernel result ``sums`` over ``den``, on ``unit`` at ``width``.

    The int numerators are first normalised as ``split_blocks`` would give
    them for the result: zeros dropped, and the gcd of ``den`` and all
    numerators divided out.  Every kernel adds ints over one denominator
    (:func:`_depth`), so no numerator is a ``Fraction``.  The element
    stores this form, with the kernel's ``bound`` and its own
    :func:`_depth`, in its ``_packed`` slot, so a later kernel call on it
    packs nothing.  With ``decode`` (:func:`mul_sum`, :func:`commutator`) the
    terms are decoded at once and run through the constructor's checks.
    Without it (an :func:`apply_to` result, derivative-free, so of depth
    0, and canonical by construction) the ``terms`` slot stays unset until
    it is first read (:class:`_Undecoded`), and on a unit above 1 one scan
    of the monomial slots n gives the element's exponent unit, ``unit``
    over the gcd of ``unit`` and every n.
    """
    blocks = {}
    for blk, block in sums.items():
        if 0 in block.values():
            block = {key: n for key, n in block.items() if n}
        if block:
            blocks[blk] = block
    g = den
    for block in blocks.values():
        if g == 1:
            break
        g = math.gcd(g, *block.values())
    if g != 1:
        for block in blocks.values():
            for key, n in block.items():
                block[key] = n // g
        den //= g
    depth = 0
    if decode:
        e = WeylElement(table, _decoded(table, blocks, den, unit, width))
        depth = _depth(e.terms, unit)
    else:
        e = _Undecoded.__new__(_Undecoded)
        e.table, e._lattice, e._support = table, 1, None
        if unit != 1:
            half, mask = 1 << width - 1, (1 << width) - 1
            e._lattice = unit // math.gcd(unit, *[
                (key >> at & mask) - half for block in blocks.values() for key in block
                for at in range(0, len(table.zeros) * width, width)])
    e._packed = {unit: (blocks, den, width, bound, None, None, depth)}
    return e


def term_count(e: WeylElement) -> int:
    """``len(e.terms)``, read off the packed form of an undecoded ``e``.

    A key's coefficient has one numerator per gamma^a xi^b block that
    holds the key, so the count is the number of distinct keys across
    the blocks.  An ``apply_to`` result is not decoded by it.
    """
    if type(e) is not _Undecoded:
        return len(e.terms)
    packed = e._packed
    blocks = packed[min(packed)][0]
    if len(blocks) > 1:
        return len(set().union(*blocks.values()))
    return sum(map(len, blocks.values()))


def eigenvalue(a: WeylElement, f: WeylElement) -> Fraction | None:
    """The rational E with ``apply_to(a, f) == E * f``, or None; ``f`` nonzero.

    Runs on the packed forms, so the image is never joined into ``Coef``
    values and no key is decoded: E is read off the first nonzero numerator
    of the image and the same packed key of ``f``, whose form the kernel
    returns on the image's unit and width, and :func:`_numerators_match`
    certifies the image as E * f.
    """
    sums, den, _, (blocks_f, den_f, *_), _ = _apply_core(a, f)
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
    """Whether the kernel result ``core = (sums, den, unit, width, bound)`` equals c * g.

    ``c`` has at most one term.  ``g`` enters in its packed form on
    ``unit``, at the width of ``core`` or, when g's form is wider, with
    the keys of ``core`` widened to it; a g whose unit does not divide
    ``unit`` has a key off the lattice of ``core``.  When c or g is zero,
    ``core`` must vanish.
    """
    sums, den, unit, width, _ = core
    blocks, den_g = {}, 1
    if c.terms and g.terms:
        if unit % g._lattice:
            return False
        wide, (blocks, den_g, *_), _ = _packed_forms(unit, width, g)
        if wide != width:
            sums = _widened(sums, len(g.table.zeros), width, wide)
    return _numerators_match(sums, den, blocks, den_g, c)


def _support_of(e: WeylElement) -> tuple[int, int]:
    """``(mon_mask, der_mask)`` of ``e``: bit i is set where slot i, the time
    slot last, is nonzero in the monomial, or the derivative block, of
    some term.  Computed on first read and kept in the ``_support`` slot."""
    support = e._support
    if support is None:
        mon_mask = der_mask = 0
        for mon, der in e.terms:
            mon_mask |= sum([1 << i for i, p in enumerate(mon) if p])
            der_mask |= sum([1 << i for i, k in enumerate(der) if k])
        support = e._support = (mon_mask, der_mask)
    return support


def bracket_residual(a: WeylElement, b: WeylElement, g: WeylElement,
                     c) -> WeylElement | None:
    """None when [a, b] = c * g, else the element [a, b] - c * g.

    ``c`` (an int, ``Fraction`` or ``Coef``) has at most one term.  When no
    derivative slot of either operand is a nonzero monomial slot of the
    other (:func:`_support_of`), no term pair meets, and the kernel, whose
    per-pair test reads the same slots, would give [a, b] = 0: so the
    answer is read off c * g and no form is packed.  An undecoded
    :func:`apply_to` operand is not decoded for this test and takes the
    kernel.  There [a, b] stays in the packed form of
    :func:`_commutator_core` and is compared with c * g on its numerators
    (:func:`_is_multiple`), so a bracket that holds builds no element;
    only a failing one is decoded.
    """
    c = coef(c)
    if type(a) is not _Undecoded and type(b) is not _Undecoded:
        a._require_same_table(b)
        (mon_a, der_a), (mon_b, der_b) = _support_of(a), _support_of(b)
        if not (der_a & mon_b or der_b & mon_a):
            return None if c.is_zero() or g.is_zero() else -g.scaled(c)
    core = _commutator_core(a, b)
    if _is_multiple(core, g, c):
        return None
    return WeylElement(g.table, _decoded(g.table, *core[:4])) - g.scaled(c)


def _numerators_match(sums: dict, den: int, blocks: dict, den_g: int,
                      c: Coef) -> bool:
    """Whether ``sums`` over ``den`` equals c times ``blocks`` over ``den_g``.

    Both are packed kernel forms with the same keys, on one lattice and
    one width.  ``c`` has at most one term q * gamma^a * xi^b, or
    ``blocks`` is empty.  Runs on int numerators, so no ``Coef``, no
    ``Fraction`` and no element is built.  ``sums`` holds numerators n
    per gamma^a xi^b block and key, ``blocks`` numerators
    n_g.  c * g has the blocks shifted by (a, b), and equals ``sums``
    exactly when the nonzero numerators of ``sums`` sit at just those
    keys, each with n * den_g * q.denominator == n_g * q.numerator * den.
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

    The map is the algebra isomorphism with the generator images
    e^(k*t) -> tau^k, v -> tau^(-w_v) v, d[v] -> tau^(w_v) d[v] and
    d[t] -> tau d[tau] + sum_v w_v v d[v], where the weight w_v is 1 for
    x and y and 0 for every other variable: conjugation by e^(t*X) with
    X = -x d[x] - y d[y], then the reparametrization tau = e^t.  It
    preserves all commutators.  A term c e^(k*t) m d d[t]^j, with
    exponents p_v in m and orders q_v in d, goes to
    c tau^(k - sum_v w_v (p_v - q_v)) m d times the j-th power of the
    d[t] image.  ``free_table`` must list tau first and then the
    variables of ``a.table``, in their order.
    """
    src = a.table
    if not src.has_time:
        raise ValueError("free_to_osc expects an exponential-time element")
    if free_table.names != ("tau",) + src.names:
        raise ValueError(f"free_to_osc expects free_table names "
                         f"{('tau',) + src.names}, got {free_table.names}")
    weights = [int(name in ("x", "y")) for name in src.names]
    # dt_pows[j]: the j-th power of the d[t] image tau d[tau] + sum_v w_v v d[v]
    dt_pows = [WeylElement.const(free_table, 1), mul_sum(
        [(w, WeylElement.var(free_table, v), WeylElement.deriv(free_table, v))
         for v, w in zip(free_table.names, [1] + weights) if w])]
    products = []
    for (mon, der), c in a.terms.items():
        k = mon[-1] - sum(w * (p - q) for w, p, q in zip(weights, mon, der))
        if k.denominator != 1 and free_table.domains[0] != RAT:
            raise NonIntegerTimeWeight(f"tau exponent {k} is not an integer")
        while len(dt_pows) <= der[-1]:
            dt_pows.append(mul(dt_pows[-1], dt_pows[1]))
        products.append((1, WeylElement(free_table, {((k,) + mon[:-1] + (0,),
                                                      (0,) + der[:-1] + (0,)): c}),
                         dt_pows[der[-1]]))
    return mul_sum(products) if products else WeylElement.zero(free_table)


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


# The factors that element_to_text writes after a term's coefficient, each
# after a "*": e^(w*t), d[v]^k or d[t]^k, and v^p or v^(p/q) (a power may
# also stand bare or in parentheses, signed or not).  Whitespace is free
# between tokens.
_FACTOR = re.compile(rf"""\s*\*\s*(?:
    e\s*\^\s*\(\s*(?P<weight>-?\s*{NUMBER})\s*\*\s*t\s*\)
  | d\s*\[\s*(?P<by>t|{_NAME})\s*\](?:\s*\^\s*(?P<order>\d+))?
  | (?P<var>{_NAME})(?:\s*\^\s*(?P<open>\()?\s*(?P<power>-?\s*{NUMBER})\s*(?(open)\)))?
)""", re.VERBOSE)
_PLUS = re.compile(r"\s*\+")


def parse_element(text: str, table: VarTable) -> WeylElement:
    """Parse a plain-text element; inverse of :func:`element_to_text`.

    Repeated factors multiply, so their slots add.  Text outside the
    printed grammar raises ``ValueError``, as do a zero denominator and a
    coefficient (p)/(q) whose q does not divide p.  ``KeyError`` is raised
    only once all of the text has been read, for a variable name that the
    table lacks.
    """
    if text.strip() == "0":
        return WeylElement.zero(table)
    read, pos = [], 0
    while True:
        c, pos = read_coef(text, pos)
        pieces = []  # (0 for mon or 1 for der, variable name or "t", value)
        while m := _FACTOR.match(text, pos):
            pos = m.end()
            if m["weight"]:
                pieces.append((0, "t", rational(m["weight"])))
            elif m["by"]:
                pieces.append((1, m["by"], int(m["order"] or 1)))
            else:
                pieces.append((0, m["var"], rational(m["power"] or "1")))
        read.append((c, pieces))
        m = _PLUS.match(text, pos)
        if m is None:
            break
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"unexpected text at {text[pos:pos + 12]!r}")
    terms: dict[tuple[tuple, tuple], Coef] = {}
    for c, pieces in read:
        slots = [list(table.zeros), list(table.zeros)]
        for part, name, value in pieces:
            slots[part][-1 if name == "t" else table.index(name)] += value
        key = (tuple(slots[0]), tuple(slots[1]))
        terms[key] = terms.get(key, COEF_ZERO) + c
    return WeylElement(table, terms)


def remap(e: WeylElement, target: VarTable,
          name_map: dict[str, str] | None = None) -> WeylElement:
    """Rebuild an element over another table, optionally renaming variables.

    Exponent domains of the target are enforced; useful for widening a
    domain or comparing families built over differently ordered tables.
    ``ValueError`` is raised when two names of ``e.table`` would land on
    one target name, which would merge two variables.
    """
    nm = name_map or {}
    names = [nm.get(name, name) for name in e.table.names]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"remap sends {e.table.names[names.index(name)]!r} "
                             f"and {e.table.names[i]!r} both to {name!r}")
    size = len(target.names) + 1
    out: dict[tuple[tuple, tuple], Coef] = {}
    for (mon, der), c in e.terms.items():
        m, d = [0] * size, [0] * size
        m[-1], d[-1] = mon[-1], der[-1]
        for i, name in enumerate(names):
            if mon[i] or der[i]:
                j = target.index(name)
                m[j], d[j] = mon[i], der[i]
        key = (tuple(m), tuple(d))
        out[key] = out.get(key, COEF_ZERO) + c
    return WeylElement(target, out)
