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
:func:`mul` and :func:`commutator` leave these rules to it.  An
:func:`apply_to` result is canonical by construction and skips it: its
derivative-free terms cannot leave their domains (a falling factorial
p(p-1)...(p-k+1) vanishes for each NAT exponent 0 <= p < k).

Every term is keyed by a pair of plain tuples with one slot per table
variable and then one for time: ``mon = (p_0, ..., p_{n-1}, weight)``, the
exponents and the weight of e^(weight*t), and ``der = (k_0, ..., k_{n-1},
t_order)``, the derivative orders and the order of d[t].
``VarTable.zeros`` is both the monomial 1 and the empty block.  A slot is
``int`` when integral and ``Fraction`` only when genuinely fractional (the
xi = 0 family's x^(w2/w1), weights such as e^(t/2)).  Terms print in the
order of (d[t] order, (index, order) pairs, weight, (index, exponent)
pairs) read off the nonzero slots, not in the order of the raw tuples.

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
k = 0 term is always (1, mon, der) and is not cached: :func:`mul` writes
it itself.  A derivative on a slot whose exponent or weight is 0 gives a
factor of 0 for every k >= 1, so the term lists of :func:`mul` and
:func:`commutator` carry masks of the nonzero slots beside each key
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
reordering factors are ints or, for a unit U > 1, an int over U^K, K the
number of derivatives moved (a ``Fraction`` unless it is integral).
:func:`cgaweyl.scalar.join_blocks` builds each result ``Coef`` once, at
the end.  One comparator reads the kernel sums before that:
:func:`_numerators_match` answers whether a kernel result equals c * g,
for a coefficient c of at most one term q * gamma^a * xi^b and g in the
same form, by shifting the blocks of g by (a, b) and cross-multiplying
int numerators key by key.  :func:`_eigenvalue` certifies H psi = E * psi
with it, and every check of [a, b] = c * g reads g's packed form with it
(:func:`_is_multiple`); :func:`_bracket_residual` builds [a, b] - c * g
only when the check fails.

Elements are immutable after construction, the unit included, and every
operation is a pure function, so values are safe to share across threads.
An ``apply_to`` result's ``terms`` are filled on first read; two threads
reading them at once each decode the same packed form and store equal
maps.  Each packed form is built in full before it is stored, so no
thread reads a part-filled one, and a call reads each operand's form
once and widens the forms in hand: another thread may meanwhile store a
form of another width, which a later call widens again if it must.
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

from .scalar import (COEF_ONE, COEF_ZERO, Coef, DivisionByZero, NotDivisible,
                     as_fraction, coef, join_blocks, split_blocks)

NAT = "nat"   # exponents in {0, 1, 2, ...}
INT = "int"   # exponents in Z
RAT = "rat"   # exponents in Q

Exponent = int | Fraction  # int when integral, see WeylElement

_RESERVED_NAMES = {"e", "d", "t"}

# Bound on the memoized reorderings (entries of _reorder_corrections).  One
# `cgaweyl all` run fills 115 entries, about 0.04 MB in all (tracemalloc,
# CPython 3.11.7); checking the ell = 12 general table fills 49.
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
    groups)``, the last two filled when :func:`mul` or :func:`commutator`
    (:func:`_kernel_terms`) and :func:`apply_to` (:func:`_operator_form`)
    first need them.  A kernel result holds the form its kernel built.

    ``terms`` may be filled on first read: an :func:`apply_to` result is
    made from the kernel's packed form alone (:func:`_packed_result`), as
    an :class:`_Undecoded`, and its term map is decoded from that form,
    once, when ``terms`` is first read.  Until then :meth:`is_zero` and the
    spectrum's eigenvalue check and term count read the packed form.
    """

    __slots__ = ("table", "terms", "_lattice", "_packed")

    def __init__(self, table: VarTable,
                 terms: dict[tuple[tuple, tuple], Coef] | None = None):
        self.table = table
        self._packed = None
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
        packed = self._packed
        unit = min(packed)
        blocks, den, width = packed[unit][:3]
        terms = self.terms = _decoded(self.table, blocks, den, unit, width)
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
    reads 3,319 keys here, 736 of them distinct)."""
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
def _reorder_corrections(der: int, mon: int, unit: int, width: int, size: int):
    """The k >= 1 options of ``_reorder_options`` on packed keys, memoized.

    ``der`` is a derivative block, the part of a packed key above its
    ``size`` monomial fields of ``width`` bits; ``mon`` holds a key's
    biased monomial fields where ``der`` is nonzero and 0 elsewhere, so
    monomials that differ only in slots that ``der`` does not
    differentiate share one entry.  Moving k derivatives off a slot n
    takes the int n(n - unit)...(n - (k-1)*unit), or c^k off the time
    weight c, and lowers n by k*unit and the order by k.  The option (f,
    m, d) of ``_reorder_options`` appears as (f, delta): f is the product
    of these ints over unit^K, K the number of derivatives moved, and the
    key of (m1 m2)(d1 d2) plus ``delta`` is that of (m1 m)(d d2).  The
    first option is dropped, so the tuple is empty for an empty ``der``.
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
        out.append((_over_unit(factor, unit, moved), delta))
    return tuple(out)


def _pack(e: WeylElement, unit: int):
    """The packed form of ``e`` on ``unit``: ``(blocks, den, width, bound, None, None)``.

    ``(blocks, den)`` is ``split_blocks`` of ``e.terms`` with each key
    (mon, der) replaced by one int (:func:`_key`): monomial slot i times
    ``unit``, plus the bias 2^(width - 1), in bits [i*width, (i+1)*width),
    and above the ``size`` monomial fields the derivative order i in field
    size + i.  ``bound`` is the :func:`_bound` of the keys on the lattice
    of ``unit``, which must clear every slot, and ``width`` its
    :func:`_width`.  The last two entries are left for
    :func:`_kernel_terms` and :func:`_operator_form`.
    """
    terms = e.terms
    if unit != 1:
        terms = {(tuple([p.numerator * (unit // p.denominator) for p in mon]), der): c
                 for (mon, der), c in terms.items()}
    bound = _bound(terms, unit)
    width = _width(bound)
    layout = _layout(len(e.table.zeros), width)
    return (*split_blocks({_key(mon, der, layout): c for (mon, der), c in terms.items()}),
            width, bound, None, None)


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
                              den, width, bound, None, None)
    return form


def _kernel_terms(e: WeylElement, unit: int, form) -> dict:
    """The term lists that :func:`mul` and :func:`commutator` read off ``form``.

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
        e._packed[unit] = (*form[:4], lists, form[5])
    return lists


def _block_pairs(blocks_a: dict, blocks_b: dict):
    """``(sums, pairs)``: one (terms of a, terms of b, ``sums[(a1 + a2, b1 +
    b2)]``) per pair of blocks (a1, b1) of a and (a2, b2) of b."""
    sums, pairs = {}, []
    for (ga, xa), terms_a in blocks_a.items():
        for (gb, xb), terms_b in blocks_b.items():
            pairs.append((terms_a, terms_b,
                          sums.setdefault((ga + gb, xa + xb), {})))
    return sums, pairs


def _kernel_pairs(a: WeylElement, b: WeylElement):
    """Where :func:`mul` and :func:`commutator` run: ``(sums, den, unit, width, bound, pairs)``.

    The operands' packed forms on the lcm of their units (:func:`_packed_forms`)
    give ``pairs``, the :func:`_block_pairs` of their term lists, ``den``,
    the product of their denominators, and ``bound``, the sum of their
    bounds, which bounds the result (:func:`_bound`).
    """
    a._require_same_table(b)
    unit = math.lcm(a._lattice, b._lattice)
    width, form_a, form_b = _packed_forms(unit, 0, a, b)
    terms_a = form_a[4] or _kernel_terms(a, unit, form_a)
    terms_b = terms_a if b is a else form_b[4] or _kernel_terms(b, unit, form_b)
    sums, pairs = _block_pairs(terms_a, terms_b)
    return sums, form_a[1] * form_b[1], unit, width, form_a[3] + form_b[3], pairs


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


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Canonical normal-ordered product.

    Each term pair gives its leading term (m1 m2)(d1 d2), one int addition
    of the packed keys less one bias, then the memoized k >= 1 reordering
    terms of d1 past m2.  The memo is read only when the mask of d1 meets
    that of m2: otherwise every k >= 1 term has a factor of 0.
    """
    sums, den, unit, width, bound, pairs = _kernel_pairs(a, b)
    size = len(a.table.zeros)
    shift, bias = size * width, _layout(size, width)[0]
    for terms_a, terms_b, out in pairs:
        for k1, c1, _, dm1, fm1 in terms_a:
            d1, k1 = k1 >> shift, k1 - bias
            for k2, c2, mm2, _, _ in terms_b:
                base, key = c1 * c2, k1 + k2
                s = out.get(key)
                out[key] = base if s is None else s + base
                if dm1 & mm2:
                    for factor, delta in _reorder_corrections(d1, k2 & fm1, unit,
                                                              width, size):
                        moved, c = key + delta, base * factor
                        s = out.get(moved)
                        out[moved] = c if s is None else s + c
    return _packed_result(a.table, sums, den, unit, width, bound, True)


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
    sums, den, unit, width, bound, pairs = _kernel_pairs(a, b)
    size = len(a.table.zeros)
    shift, bias = size * width, _layout(size, width)[0]
    for terms_a, terms_b, out in pairs:
        for k1, c1, mm1, dm1, fm1 in terms_a:
            d1, lead = k1 >> shift, k1 - bias
            for k2, c2, mm2, dm2, fm2 in terms_b:
                if not (dm1 & mm2 or dm2 & mm1):
                    continue
                base, key = c1 * c2, lead + k2
                for meet, der, mon, c in ((dm1 & mm2, d1, k2 & fm1, base),
                                          (dm2 & mm1, k2 >> shift, k1 & fm2, -base)):
                    if not meet:
                        continue
                    for factor, delta in _reorder_corrections(der, mon, unit, width, size):
                        moved, v = key + delta, c * factor
                        s = out.get(moved)
                        out[moved] = v if s is None else s + v
    return sums, den, unit, width, bound


def anticommutator(a: WeylElement, b: WeylElement) -> WeylElement:
    return mul(a, b) + mul(b, a)


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
    in its last entry.  Each block is grouped into a tuple with one entry
    (orders, t_order, moved, terms) per distinct derivative block d:
    ``orders`` holds (bit offset of slot i, d_i) for each variable slot
    that d differentiates, ``t_order`` is the order of d[t] and ``moved``
    the sum of d.  ``terms`` holds (key, numerator) for each term m * d,
    the key being m without bias and already lowered by d: every variable
    slot i less d_i * unit, as on each term of the image of d.
    """
    out = form[5]
    if out is None:
        blocks, width, size = form[0], form[2], len(a.table.zeros)
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
                                orders[-1], sum(orders), tuple(group)))
            out[blk] = tuple(entries)
        a._packed[unit] = (*form[:5], out)
    return out


def _apply_core(a: WeylElement, f: WeylElement):
    """The loop of :func:`apply_to`: ``(sums, den, unit, state form, bound)``.

    ``sums`` maps each gamma^a xi^b block to packed key -> numerator over
    ``den``, on the lattice of ``unit`` and at the width of ``f``'s packed
    form, which is returned with it and the sum of the two bounds.  For
    each derivative block d of a
    block of ``a`` (:func:`_operator_form`) and each term w of a block of
    ``f``, the falling factorials and the d[t] weight factor are read off
    the fields of w and multiplied once, and every term m * d then adds its
    packed, lowered m to the key of w.  An undecoded ``apply_to`` result is
    derivative-free by construction, and any other ``f`` is checked first.
    """
    if type(f) is not _Undecoded and not f.is_scalar_function():
        raise ValueError("apply_to expects a derivative-free operand")
    a._require_same_table(f)
    unit = math.lcm(a._lattice, f._lattice)
    width, form_a, state = _packed_forms(unit, 0, a, f)
    sums, pairs = _block_pairs(_operator_form(a, unit, form_a), state[0])
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
    return sums, form_a[1] * state[1], unit, state, form_a[3] + state[3]


def _packed_result(table: VarTable, sums: dict, den: int, unit: int, width: int,
                   bound: int, decode: bool = False) -> WeylElement:
    """The element of the kernel result ``sums`` over ``den``, on ``unit`` at ``width``.

    The numerators are first normalised as ``split_blocks`` would give them
    for the result: zeros dropped, ``Fraction`` numerators (a fractional
    reordering factor on a unit above 1) cleared into ``den``, and the gcd
    of ``den`` and all numerators divided out.  The element stores this
    form, with the kernel's ``bound``, in its ``_packed`` slot, so a later
    kernel call on it packs nothing.  With ``decode`` (:func:`mul`,
    :func:`commutator`) the terms are decoded at once and run through the
    constructor's checks.  Without it (an :func:`apply_to` result,
    derivative-free and canonical by construction) the ``terms`` slot stays
    unset until it is first read (:class:`_Undecoded`), and on a unit above
    1 one scan of the monomial slots n gives the element's exponent unit,
    ``unit`` over the gcd of ``unit`` and every n.
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
        if g == 1:
            break
        g = math.gcd(g, *block.values())
    if g != 1:
        for block in blocks.values():
            for key, n in block.items():
                block[key] = n // g
        den //= g
    if decode:
        e = WeylElement(table, _decoded(table, blocks, den, unit, width))
    else:
        e = _Undecoded.__new__(_Undecoded)
        e.table, e._lattice = table, 1
        if unit != 1:
            half, mask = 1 << width - 1, (1 << width) - 1
            e._lattice = unit // math.gcd(unit, *[
                (key >> at & mask) - half for block in blocks.values() for key in block
                for at in range(0, len(table.zeros) * width, width)])
    e._packed = {unit: (blocks, den, width, bound, None, None)}
    return e


def _term_count(e: WeylElement) -> int:
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


def _eigenvalue(a: WeylElement, f: WeylElement) -> Fraction | None:
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


def _bracket_residual(core, g: WeylElement, c: Coef) -> WeylElement | None:
    """None when the :func:`_commutator_core` result ``core`` equals c * g
    (:func:`_is_multiple`), else core - c * g, only then built as an element."""
    if _is_multiple(core, g, c):
        return None
    return WeylElement(g.table, _decoded(g.table, *core[:4])) - g.scaled(c)


def _numerators_match(sums: dict, den: int, blocks: dict, den_g: int,
                      c: Coef) -> bool:
    """Whether ``sums`` over ``den`` equals c times ``blocks`` over ``den_g``.

    Both are packed kernel forms with the same keys, on one lattice and
    one width.  ``c`` has at most one term q * gamma^a * xi^b, or
    ``blocks`` is empty.  Runs on the numerators, so no ``Coef``, no
    ``Fraction`` key and no element is built.  ``sums`` holds numerators n
    per gamma^a xi^b block and key (ints, or ``Fraction`` where a unit
    above 1 gives a fractional reordering factor), ``blocks`` numerators
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
