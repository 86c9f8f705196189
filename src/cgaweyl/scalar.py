"""Exact coefficient arithmetic.

Every number in the engine is either an arbitrary-precision rational
(``fractions.Fraction``) or a :class:`Coef`: a quotient of two polynomials
in the symbolic parameters ``gamma`` and ``xi`` with rational coefficients.

Fractions of polynomials are deliberately kept unreduced; equality and
zero tests go through cross multiplication on the expanded numerators, so
no multivariate GCD is ever needed.  A light normalization (stripping a
common monomial factor and making the denominator monic) keeps the stored
representations small and the printed forms readable.

All values are immutable after construction and all operations are pure.

The internals of a :class:`Coef` (``num``, ``den`` and the cached constant
``_q``) are private to this module.  The Weyl kernels reach them only
through :func:`split_blocks` and :func:`join_blocks`, which move a whole
term map to int numerators over one denominator and back.

Those two work on monomial blocks.  When every denominator of a term map
is a single monic monomial gamma^i * xi^j (plain rationals have i = j = 0),
each value is a Laurent polynomial sum_{a,b} q_ab * gamma^a * xi^b, and
the map splits into blocks: block (a, b) maps each key to the numerator of
its q_ab over one common int denominator.  Products of such values add
block exponents, and sums add within a block, so a kernel can run its int
loop once per pair of blocks.  Joining is exact and gives the Coef the
ParamPoly path gives: with a monomial denominator, the stored form after
stripping the common monomial content and making the denominator monic is
unique, namely the denominator gamma^-min(a, 0) * xi^-min(b, 0) over the
exponents of the nonzero blocks and the numerator shifted by the same
exponents.  A denominator that is not a monomial, such as that of the
disguised constant (2*gamma + 2*xi)/(gamma + xi), makes :func:`split_blocks`
return None, and the caller falls back to ``Coef`` arithmetic.
"""
from __future__ import annotations

import math
from fractions import Fraction


class DivisionByZero(ZeroDivisionError):
    """Raised when dividing by a coefficient equal to zero."""


class DenominatorVanishes(ZeroDivisionError):
    """Raised when a denominator evaluates to zero at given parameter values."""


def as_fraction(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject anything inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# polynomials in (gamma, xi)

_Key = tuple  # (gamma exponent, xi exponent)


class ParamPoly:
    """Polynomial in gamma and xi over the rationals.

    ``terms`` maps (gamma exponent, xi exponent) to a nonzero Fraction;
    the empty map is the zero polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[_Key, Fraction] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def zero() -> "ParamPoly":
        return ParamPoly()

    @staticmethod
    def const(value) -> "ParamPoly":
        q = as_fraction(value)
        return ParamPoly({(0, 0): q} if q else {})

    @staticmethod
    def gamma() -> "ParamPoly":
        return ParamPoly({(1, 0): Fraction(1)})

    @staticmethod
    def xi() -> "ParamPoly":
        return ParamPoly({(0, 1): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def as_const(self) -> Fraction | None:
        """The value of a constant polynomial, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and (0, 0) in self.terms:
            return self.terms[(0, 0)]
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = v
            else:
                s = s + v
                if s:
                    out[k] = s
                else:
                    del out[k]
        poly = ParamPoly.__new__(ParamPoly)
        poly.terms = out
        return poly

    def __neg__(self) -> "ParamPoly":
        poly = ParamPoly.__new__(ParamPoly)
        poly.terms = {k: -v for k, v in self.terms.items()}
        return poly

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        out: dict[_Key, Fraction] = {}
        for (a, b), u in self.terms.items():
            for (c, d), v in other.terms.items():
                k = (a + c, b + d)
                s = out.get(k)
                if s is None:
                    out[k] = u * v
                else:
                    s = s + u * v
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        poly = ParamPoly.__new__(ParamPoly)
        poly.terms = out
        return poly

    def scale(self, q: Fraction) -> "ParamPoly":
        if not q:
            return ParamPoly()
        poly = ParamPoly.__new__(ParamPoly)
        poly.terms = {k: v * q for k, v in self.terms.items()}
        return poly

    def shift_down(self, dg: int, dx: int) -> "ParamPoly":
        """Divide by the monomial gamma^dg * xi^dx (must divide exactly)."""
        poly = ParamPoly.__new__(ParamPoly)
        poly.terms = {(a - dg, b - dx): v for (a, b), v in self.terms.items()}
        return poly

    def content_exponents(self) -> _Key:
        """Largest (i, j) with gamma^i * xi^j dividing every term."""
        if not self.terms:
            return (0, 0)
        gs = min(a for (a, _) in self.terms)
        xs = min(b for (_, b) in self.terms)
        return (gs, xs)

    def lead(self) -> tuple[_Key, Fraction]:
        """Leading term under lexicographic (gamma, xi) exponent order."""
        k = max(self.terms)
        return k, self.terms[k]

    def evaluate(self, gamma_val: Fraction, xi_val: Fraction) -> Fraction:
        total = Fraction(0)
        for (a, b), v in self.terms.items():
            total += v * gamma_val**a * xi_val**b
        return total

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for (a, b) in sorted(self.terms, reverse=True):
            q = self.terms[(a, b)]
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

    def __repr__(self) -> str:  # pragma: no cover
        return f"ParamPoly({self.text()})"


_P_ONE = ParamPoly.const(1)


class Coef:
    """Element of the coefficient field: a quotient of two ParamPoly.

    The denominator is never the zero polynomial.  Equality of a/b and c/d
    means a*d - c*b = 0 as an expanded polynomial; reduction to lowest
    terms is not required for correctness.

    Constant fast path: when the normalized num/den is parameter-free
    (constant numerator over the denominator 1) the value is also cached
    as a ``Fraction`` in ``_q``.  ``+ - * / scale == as_fraction`` on two
    such coefficients work on ``_q`` alone and build a result with the same
    num/den the ParamPoly path would give; any symbolic operand takes the
    ParamPoly path, which stays the reference (the tests compare the two).
    """

    __slots__ = ("num", "den", "_q")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        if den is None:
            den = _P_ONE
        if den.is_zero():
            raise DivisionByZero("zero denominator polynomial")
        if num.is_zero():
            self.num = ParamPoly.zero()
            self.den = _P_ONE
            self._q = Fraction(0)
            return
        # strip the common monomial content of numerator and denominator
        ng, nx = num.content_exponents()
        dg, dx = den.content_exponents()
        cg, cx = min(ng, dg), min(nx, dx)
        if cg or cx:
            num = num.shift_down(cg, cx)
            den = den.shift_down(cg, cx)
        # make the denominator monic (fold constant denominators away)
        _, lead = den.lead()
        if lead != 1:
            inv = 1 / lead
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den
        self._q = None
        if len(den.terms) == 1 and len(num.terms) == 1:
            q = num.terms.get((0, 0))
            if q is not None and (0, 0) in den.terms:
                self._q = as_fraction(q)

    @staticmethod
    def _rational(q: Fraction) -> "Coef":
        """The constant q, with the num/den that ``Coef.const(q)`` has."""
        if not q:
            return COEF_ZERO
        c = Coef.__new__(Coef)
        num = ParamPoly.__new__(ParamPoly)
        num.terms = {(0, 0): q}
        c.num, c.den, c._q = num, _P_ONE, q
        return c

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(value) -> "Coef":
        return Coef(ParamPoly.const(value))

    @staticmethod
    def gamma() -> "Coef":
        return Coef(ParamPoly.gamma())

    @staticmethod
    def xi() -> "Coef":
        return Coef(ParamPoly.xi())

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def __bool__(self) -> bool:
        return not self.is_zero()

    def as_fraction(self) -> Fraction | None:
        """The constant value of this coefficient, else None.

        Detects proportional numerator/denominator pairs (e.g. (2g+2x)/(g+x))
        by one cross multiplication against the leading-term ratio.
        """
        if self._q is not None:
            return self._q
        nc, dc = self.num.as_const(), self.den.as_const()
        if nc is not None and dc is not None:
            return nc / dc
        if self.num.is_zero():
            return Fraction(0)
        nk, nv = self.num.lead()
        dk, dv = self.den.lead()
        if nk != dk:
            return None
        q = nv / dv
        if self.num == self.den.scale(q):
            return q
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coef):
            return NotImplemented
        if self._q is not None and other._q is not None:
            return self._q == other._q
        if self.num == other.num and self.den == other.den:
            return True
        return (self.num * other.den - other.num * self.den).is_zero()

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Coef | None":
        if isinstance(value, Coef):
            return value
        if isinstance(value, (int, Fraction)):
            return Coef.const(value)
        return None

    def __add__(self, other) -> "Coef":
        other = Coef._coerce(other)
        if other is None:
            return NotImplemented
        if self._q is not None and other._q is not None:
            return Coef._rational(self._q + other._q)
        if self.den == other.den:
            return Coef(self.num + other.num, self.den)
        return Coef(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "Coef":
        if self._q is not None:
            return Coef._rational(-self._q)
        return Coef(-self.num, self.den)

    def __sub__(self, other) -> "Coef":
        other = Coef._coerce(other)
        if other is None:
            return NotImplemented
        if self._q is not None and other._q is not None:
            return Coef._rational(self._q - other._q)
        return self + (-other)

    def __rsub__(self, other) -> "Coef":
        other = Coef._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Coef":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Coef):
            return NotImplemented
        if self._q is not None and other._q is not None:
            return Coef._rational(self._q * other._q)
        return Coef(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Coef":
        other = Coef._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero coefficient")
        if self._q is not None and other._q is not None:
            return Coef._rational(self._q / other._q)
        return Coef(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "Coef":
        other = Coef._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def scale(self, q) -> "Coef":
        """Multiply by an exact rational (fast path for the hot loops)."""
        q = as_fraction(q)
        if self._q is not None:
            return Coef._rational(self._q * q)
        if not q:
            return COEF_ZERO
        return Coef(self.num.scale(q), self.den)

    def inv(self) -> "Coef":
        if self.is_zero():
            raise DivisionByZero("inverse of zero coefficient")
        return Coef(self.den, self.num)

    def __pow__(self, n: int) -> "Coef":
        if n < 0:
            return self.inv() ** (-n)
        out = COEF_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation and text ---------------------------------------------------

    def instantiate(self, gamma_val, xi_val) -> Fraction:
        """Exact evaluation at rational parameter values."""
        g, x = as_fraction(gamma_val), as_fraction(xi_val)
        d = self.den.evaluate(g, x)
        if not d:
            raise DenominatorVanishes(
                f"denominator {self.den.text()} vanishes at gamma={g}, xi={x}")
        return self.num.evaluate(g, x) / d

    def text(self) -> str:
        if self.den == _P_ONE:
            return self.num.text()
        return f"({self.num.text()})/({self.den.text()})"

    def wrapped_text(self) -> str:
        """Fully parenthesized form used inside element terms."""
        if self.den == _P_ONE:
            return f"({self.num.text()})"
        return f"({self.num.text()})/({self.den.text()})"

    def __repr__(self) -> str:  # pragma: no cover
        return f"Coef({self.text()})"


COEF_ZERO = Coef(ParamPoly.zero())
COEF_ONE = Coef(_P_ONE)


def coef(value) -> Coef:
    """Coerce ints, Fractions, or Coefs to Coef."""
    if isinstance(value, Coef):
        return value
    return Coef.const(value)


def split_blocks(terms: dict) -> tuple[dict, int] | None:
    """``terms`` split by the gamma^a * xi^b monomials of its values.

    Returns ``(blocks, den)``: ``blocks[(a, b)]`` maps each key whose value
    has a gamma^a * xi^b term to that term's rational coefficient, as an
    int numerator over the common denominator ``den`` (the lcm of all of
    them).  None when some value's denominator is not a monomial.
    A plain rational is the single block (0, 0); its cached ``_q`` is read
    and :meth:`Coef.as_fraction` is never called, so a constant in disguise
    keeps its text.
    """
    den = 1
    for c in terms.values():
        q = c._q
        if q is None:
            break
        if q.denominator != 1:
            den = math.lcm(den, q.denominator)
    else:  # parameter-free: the one block (0, 0)
        return {(0, 0): {key: c._q.numerator * (den // c._q.denominator)
                         for key, c in terms.items()}}, den
    blocks: dict = {}
    den = 1
    for key, c in terms.items():
        q = c._q
        if q is not None:
            parts = (((0, 0), q),)
        else:
            dens = c.den.terms
            if len(dens) != 1:
                return None
            (dg, dx), = dens  # monic, as every Coef denominator
            parts = (((g - dg, x - dx), v) for (g, x), v in c.num.terms.items())
        for blk, v in parts:
            block = blocks.get(blk)
            if block is None:
                blocks[blk] = {key: v}
            else:
                block[key] = v
            if v.denominator != 1:
                den = math.lcm(den, v.denominator)
    return {blk: {key: v.numerator * (den // v.denominator)
                  for key, v in block.items()}
            for blk, block in blocks.items()}, den


def join_blocks(blocks: dict, den: int) -> dict:
    """The term map of ``blocks`` over ``den``; inverse of :func:`split_blocks`.

    Block values are ints or, after a product with a fractional reordering
    factor, Fractions.  Zero values are dropped, and so is a key whose
    values are all zero.  Each Coef is the one the ParamPoly path gives
    (see the module docstring); a constant is built like ``Coef.const``,
    with a Fraction value.
    """
    if len(blocks) == 1 and (0, 0) in blocks:
        return {key: Coef._rational(Fraction(n) if den == 1 else Fraction(n, den))
                for key, n in blocks[(0, 0)].items() if n}
    per_key: dict = {}
    for blk, block in blocks.items():
        for key, n in block.items():
            if n:
                parts = per_key.get(key)
                if parts is None:
                    per_key[key] = {blk: n}
                else:
                    parts[blk] = n
    return {key: _laurent_coef(parts, den) for key, parts in per_key.items()}


def _laurent_coef(parts: dict, den: int) -> Coef:
    """The Coef sum_{(a, b)} parts[a, b]/den * gamma^a * xi^b, in reduced form."""
    if len(parts) == 1 and (0, 0) in parts:
        n = parts[(0, 0)]
        return Coef._rational(Fraction(n) if den == 1 else Fraction(n, den))
    dg = -min(0, min(g for g, _ in parts))
    dx = -min(0, min(x for _, x in parts))
    num = ParamPoly.__new__(ParamPoly)
    num.terms = {(g + dg, x + dx): Fraction(n) if den == 1 else Fraction(n, den)
                 for (g, x), n in parts.items()}
    if dg or dx:
        den_poly = ParamPoly.__new__(ParamPoly)
        den_poly.terms = {(dg, dx): Fraction(1)}
    else:
        den_poly = _P_ONE
    c = Coef.__new__(Coef)
    c.num, c.den, c._q = num, den_poly, None
    return c
