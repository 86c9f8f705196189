"""Exact coefficient arithmetic.

Every number in the engine is either an arbitrary-precision rational
(``fractions.Fraction``) or a :class:`Coef`: a Laurent polynomial in the
symbolic parameters ``gamma`` and ``xi`` with rational coefficients.  The
realizations divide only by gamma, xi and nonzero rationals, so every
coefficient the engine builds lies in the ring Q[gamma^±1, xi^±1].

A :class:`Coef` is one immutable map (gamma exponent, xi exponent) ->
nonzero ``Fraction``.  Sums, products and scaling are map operations and
equality is map equality: each value has exactly one representation, so
no polynomial GCD and no cross multiplication is ever needed.  Division by
a one-term value shifts exponents and scales; division by any other value
is exact long division, which raises :class:`NotDivisible` when the
quotient is not a Laurent polynomial.

The printed form is num/den with the monomial den = gamma^i * xi^j, i and
j the smallest exponents that clear every negative power, and num the
value times den.

The Weyl kernels reach coefficient maps only through :func:`split_blocks`
and :func:`join_blocks`.  A term map whose values are Laurent polynomials
sum_{a,b} q_ab * gamma^a * xi^b splits into blocks: block (a, b) maps
each key to the numerator of its q_ab over one common int denominator.
Products of such values add block exponents, and sums add within a block,
so a kernel runs its int loop once per pair of blocks.

All values are immutable after construction and all operations are pure.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction


class DivisionByZero(ZeroDivisionError):
    """Raised when dividing by a coefficient equal to zero, or evaluating a
    negative power of a parameter at zero."""


class NotDivisible(ArithmeticError):
    """Raised when a quotient of two coefficients is not a Laurent polynomial."""


def as_fraction(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject anything inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


_ONE = Fraction(1)

# A read-only view with a ``terms`` map; see Coef.num and Coef.den.
_Terms = namedtuple("_Terms", "terms")


def _coef(terms: dict) -> "Coef":
    """The Coef holding ``terms`` as given: nonzero Fraction values only."""
    c = object.__new__(Coef)
    c.terms = terms
    return c


def _poly_text(terms: dict) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for (a, b) in sorted(terms, reverse=True):
        q = terms[(a, b)]
        factors = []
        if a:
            factors.append("gamma" if a == 1 else f"gamma^{a}")
        if b:
            factors.append("xi" if b == 1 else f"xi^{b}")
        mag = abs(q)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(body if q > 0 else "-" + body)
        else:
            parts.append((" + " if q > 0 else " - ") + body)
    return "".join(parts)


def _divide(a: dict, b: dict) -> "Coef":
    """The exact quotient a / b of two Laurent polynomials, b of two or more terms.

    Long division in lex order on (gamma, xi) exponents: each step cancels
    the leading term of the remainder, so the quotient exponents fall
    strictly.  Degrees add under products in each parameter separately, so
    every exponent of an exact quotient lies in the box
    min_v(a) - min_v(b) <= e_v <= max_v(a) - max_v(b), v = gamma, xi.  The
    box is finite, so the loop ends; a step outside it means that b does
    not divide a.  (Lex order alone bounds nothing here: (1 + gamma)/(1 + xi)
    would run through gamma * xi^-n for every n.)
    """
    box = [(min(k[v] for k in a) - min(k[v] for k in b),
            max(k[v] for k in a) - max(k[v] for k in b)) for v in (0, 1)]
    lead = max(b)
    lead_value = b[lead]
    rem, out = dict(a), {}
    while rem:
        top = max(rem)
        e = (top[0] - lead[0], top[1] - lead[1])
        if not (box[0][0] <= e[0] <= box[0][1] and box[1][0] <= e[1] <= box[1][1]):
            raise NotDivisible(f"{_coef(a).text()} is not divisible by "
                               f"{_coef(b).text()} in Q[gamma^±1, xi^±1]")
        q = out[e] = rem[top] / lead_value
        for (i, j), v in b.items():
            key = (e[0] + i, e[1] + j)
            s = rem.get(key, 0) - q * v
            if s:
                rem[key] = s
            else:
                del rem[key]
    return _coef(out)


class Coef:
    """A Laurent polynomial in gamma and xi with rational coefficients.

    ``terms`` maps (gamma exponent, xi exponent) to a nonzero Fraction; the
    empty map is zero.  Never mutated after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: as_fraction(v) for k, v in (terms or {}).items() if v}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(value) -> "Coef":
        q = as_fraction(value)
        return _coef({(0, 0): q} if q else {})

    @staticmethod
    def gamma() -> "Coef":
        return _coef({(1, 0): _ONE})

    @staticmethod
    def xi() -> "Coef":
        return _coef({(0, 1): _ONE})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def as_fraction(self) -> Fraction | None:
        """The value of a constant coefficient, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            return self.terms.get((0, 0))
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coef):
            return NotImplemented
        return self.terms == other.terms

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Coef":
        out = dict(self.terms)
        for k, v in coef(other).terms.items():
            s = out.get(k)
            if s is None:
                out[k] = v
            else:
                s += v
                if s:
                    out[k] = s
                else:
                    del out[k]
        return _coef(out)

    __radd__ = __add__

    def __neg__(self) -> "Coef":
        return _coef({k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "Coef":
        return self + (-coef(other))

    def __rsub__(self, other) -> "Coef":
        return coef(other) + (-self)

    def __mul__(self, other) -> "Coef":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Coef):
            return NotImplemented
        out: dict = {}
        for (a, b), u in self.terms.items():
            for (c, d), v in other.terms.items():
                k = (a + c, b + d)
                s = out.get(k)
                out[k] = u * v if s is None else s + u * v
        return _coef({k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Coef":
        other = coef(other)
        if not other.terms:
            raise DivisionByZero("division by zero coefficient")
        if len(other.terms) > 1:
            return _divide(self.terms, other.terms) if self.terms else self
        ((i, j), v), = other.terms.items()
        return _coef({(a - i, b - j): u / v for (a, b), u in self.terms.items()})

    def __rtruediv__(self, other) -> "Coef":
        return coef(other) / self

    def scale(self, q) -> "Coef":
        """Multiply by an exact rational."""
        q = as_fraction(q)
        if not q:
            return COEF_ZERO
        return _coef({k: v * q for k, v in self.terms.items()})

    def inv(self) -> "Coef":
        """1 / self; only a nonzero one-term value has a Laurent inverse."""
        return COEF_ONE / self

    def __pow__(self, n: int) -> "Coef":
        base = self if n >= 0 else self.inv()
        out = COEF_ONE
        for _ in range(abs(n)):
            out = out * base
        return out

    # -- evaluation and text ---------------------------------------------------

    def instantiate(self, gamma_val, xi_val) -> Fraction:
        """Exact evaluation at rational parameter values."""
        g, x = as_fraction(gamma_val), as_fraction(xi_val)
        total = Fraction(0)
        for (a, b), v in self.terms.items():
            if (a < 0 and not g) or (b < 0 and not x):
                raise DivisionByZero(f"{self.text()} has a negative power of a "
                                     f"parameter that is zero at gamma={g}, xi={x}")
            total += v * g**a * x**b
        return total

    def _printed(self) -> tuple[dict, tuple[int, int]]:
        """The numerator map and the denominator exponents of the printed form."""
        if not self.terms:
            return {}, (0, 0)
        i = -min(0, min(a for a, _ in self.terms))
        j = -min(0, min(b for _, b in self.terms))
        if not (i or j):
            return self.terms, (0, 0)
        return {(a + i, b + j): v for (a, b), v in self.terms.items()}, (i, j)

    # The two views below exist only for the benchmark's tracer, which
    # reads ``c.num.terms`` and ``c.den.terms``.

    @property
    def num(self) -> _Terms:
        """The numerator of the printed form, as a read-only ``terms`` view."""
        return _Terms(self._printed()[0])

    @property
    def den(self) -> _Terms:
        """The monomial denominator of the printed form, as a ``terms`` view."""
        return _Terms({self._printed()[1]: _ONE})

    def text(self) -> str:
        num, den = self._printed()
        if den == (0, 0):
            return _poly_text(num)
        return f"({_poly_text(num)})/({_poly_text({den: _ONE})})"

    def wrapped_text(self) -> str:
        """Fully parenthesized form used inside element terms."""
        num, den = self._printed()
        if den == (0, 0):
            return f"({_poly_text(num)})"
        return self.text()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Coef({self.text()})"


COEF_ZERO = _coef({})
COEF_ONE = _coef({(0, 0): _ONE})


def coef(value) -> Coef:
    """Coerce ints, Fractions, or Coefs to Coef."""
    if isinstance(value, Coef):
        return value
    return Coef.const(value)


def split_blocks(terms: dict) -> tuple[dict, int]:
    """``terms`` split by the gamma^a * xi^b monomials of its values.

    Returns ``(blocks, den)``: ``blocks[(a, b)]`` maps each key whose value
    has a gamma^a * xi^b term to that term's rational coefficient, as an
    int numerator over the common denominator ``den`` (the lcm of all of
    them).  A plain rational is the single block (0, 0).
    """
    den = 1
    for c in terms.values():
        for v in c.terms.values():
            if v.denominator != 1:
                den = math.lcm(den, v.denominator)
    blocks: dict = {}
    for key, c in terms.items():
        for blk, v in c.terms.items():
            n = v.numerator * (den // v.denominator)
            block = blocks.get(blk)
            if block is None:
                blocks[blk] = {key: n}
            else:
                block[key] = n
    return blocks, den


def join_blocks(blocks: dict, den: int) -> dict:
    """The term map of ``blocks`` over ``den``; inverse of :func:`split_blocks`.

    Block values are ints or, after a product with a fractional reordering
    factor, Fractions.  Zero values are dropped, and so is a key whose
    values are all zero.
    """
    out: dict = {}
    for blk, block in blocks.items():
        for key, n in block.items():
            if n:
                v = Fraction(n) if den == 1 else Fraction(n, den)
                c = out.get(key)
                if c is None:
                    out[key] = _coef({blk: v})
                else:
                    c.terms[blk] = v  # the Coef is still being built
    return out
