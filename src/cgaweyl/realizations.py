"""Factories for the operator realizations.

Each family is a named, ordered map of generators built as canonical
WeylElements: the ell=1 family on functions of (tau, x, y, u), its
exponential-time counterpart on (t, x, y, u), the general-ell family on
(tau, x_1..x_ell, u, y_1..y_ell) with gamma = xi = 1, the xi = 0 limit
family with two frequencies and its truncated infinite symmetry algebra,
and the creation/annihilation ladder: a family of kind "ladder" whose
generators are rescaled generators of the general-ell family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial

from .scalar import Coef, as_fraction, coef
from .weyl import (
    INT,
    NAT,
    RAT,
    VarTable,
    WeylElement,
    mul_sum,
)


class ZeroParameter(ValueError):
    """gamma and xi must be nonzero (symbolic counts as nonzero)."""


class InvalidEll(ValueError):
    """The spin label ell must be a positive integer."""


class ZeroFrequency(ValueError):
    """Both frequencies must be nonzero rationals."""


def _param(value, symbol: str) -> Coef:
    """Normalize a parameter: None means the symbolic value."""
    if value is None:
        return Coef.gamma() if symbol == "gamma" else Coef.xi()
    c = coef(value)
    if c.is_zero():
        raise ZeroParameter(f"{symbol} must be nonzero")
    return c


@dataclass(frozen=True)
class FamilyParams:
    gamma: Coef | None = None
    xi: Coef | None = None
    omega1: Fraction | None = None
    omega2: Fraction | None = None
    ell: int | None = None
    cutoff: int | None = None
    verbatim: bool = True

    def describe(self) -> dict[str, str]:
        """The set fields as report text, in field order."""
        out: dict[str, str] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                out[f.name] = "true" if value else "false"
            elif isinstance(value, Coef):
                out[f.name] = value.text()
            elif value is not None:
                out[f.name] = str(value)
        return out


@dataclass
class GeneratorFamily:
    kind: str
    name: str
    table: VarTable
    generators: dict[str, WeylElement]
    params: FamilyParams

    @property
    def order(self) -> tuple[str, ...]:
        return tuple(self.generators)

    def __getitem__(self, name: str) -> WeylElement:
        return self.generators[name]

    def shifted(self, deltas: dict[str, Coef]) -> "GeneratorFamily":
        """Apply additive scalar shifts g -> g + delta_g."""
        gens = {}
        for gname, g in self.generators.items():
            d = deltas.get(gname)
            if d is not None and not d.is_zero():
                g = g + WeylElement.const(self.table, d)
            gens[gname] = g
        return GeneratorFamily(self.kind, self.name, self.table, gens, self.params)


@dataclass(frozen=True)
class InvariantTriplet:
    plus: WeylElement
    zero: WeylElement
    minus: WeylElement

    def named(self) -> dict[str, WeylElement]:
        return {"Omega+1": self.plus, "Omega0": self.zero, "Omega-1": self.minus}


def gen_name(prefix: str, n: int) -> str:
    return f"{prefix}0" if n == 0 else f"{prefix}{n:+d}"


# ---------------------------------------------------------------------------
# ell = 1 families

FREE_L1_TABLE = VarTable(("tau", "x", "y", "u"), (INT, NAT, NAT, NAT))
OSC_L1_TABLE = VarTable(("x", "y", "u"), (NAT, NAT, NAT), has_time=True)


class _Alg:
    """The one way this module states an element: :meth:`sum` over a table.

    A monomial times a derivative block is already normal-ordered, so every
    builder lists its terms as (c, monomial, derivative) triples, and a
    product by a monomial factor (tau, e^(w*t), kappa(n)) is a prefix on
    each triple's monomial (:func:`_times`): no builder runs a kernel.
    """

    def __init__(self, table: VarTable):
        self.table = table
        # the slot of each variable name, and "t" for the time slot
        self._slots = {name: i for i, name in enumerate(table.names + ("t",))}

    def sum(self, terms) -> WeylElement:
        """The sum of c * m * d over the triples (c, m, d) of ``terms``.

        ``m`` and ``d`` list (name, exponent) pairs of the monomial and of
        the derivative block, "t" naming the time slot (the weight of
        e^(w*t), or the order of d[t]), and a repeated name adds.  Each
        triple is one term; like terms add, and the element is made by one
        constructor call, which checks the domains and drops zeros.
        """
        zeros, out = self.table.zeros, {}
        for c, mon, der in terms:
            slots = [list(zeros), list(zeros)]
            for part, pairs in zip(slots, (mon, der)):
                for name, p in pairs:
                    part[self._slots[name]] += p
            key = (tuple(slots[0]), tuple(slots[1]))
            out[key] = out.get(key, 0) + c
        return WeylElement(self.table, {key: coef(c) for key, c in out.items()})


def _p(*names: str) -> list:
    """The (name, 1) pairs of a product of names; a repeated name adds."""
    return [(name, 1) for name in names]


def _euler(c, name: str):
    """The triple of c * name * d[name]."""
    return c, _p(name), _p(name)


def _times(c, mon, terms) -> list:
    """The triples of c * mon * (the sum of ``terms``), ``mon`` a list of
    (name, exponent) pairs, prefixed to each triple's monomial."""
    return [(c * tc, [*mon, *tm], td) for tc, tm, td in terms]


# r = -x d[x] + y d[y] - u d[u] in both ell = 1 pictures
_L1_R = [_euler(-1, "x"), _euler(1, "y"), _euler(-1, "u")]


def build_free_l1(gamma=None, xi=None, verbatim: bool = True) -> GeneratorFamily:
    """The first-order realization acting on functions of tau, x, y, u.

    The printed z0 = -(tau d[tau] + x d[x] + y d[y] - 1) misses [z+, z-] = 2 z0
    by a constant.  With verbatim=False z0 is built with the corrected
    constant, -(tau d[tau] + x d[x] + y d[y] + 1), the same way
    build_free_general flips the sign of z+; verify.calibrate_constants
    derives and certifies this shift (z0 -> z0 - 2) exactly.
    """
    g, x = _param(gamma, "gamma"), _param(xi, "xi")
    euler_xy = [_euler(1, "x"), _euler(1, "y")]
    terms = {
        "z+": [(1, [], _p("tau"))],
        "z0": _times(-1, [], [_euler(1, "tau"), *euler_xy,
                              (1 if not verbatim else -1, [], [])]),
        "z-": [(-1, _p("tau", "tau"), _p("tau"))]
              + _times(-2, _p("tau"), [*euler_xy, (1, [], [])])
              + [(-2 * x.inv(), _p("x"), _p("u")), (-2 * g.inv(), _p("u", "y"), [])],
        "r": _L1_R,
        "v+1": [(g, [], _p("x"))],
        "v0": [(g, _p("tau"), _p("x")), (g / x, [], _p("u"))],
        "v-1": [(g, _p("tau", "tau"), _p("x")), (2 * g / x, _p("tau"), _p("u")),
                (2 * x.inv(), _p("y"), [])],
        "w+1": [(x, [], _p("y"))],
        "w0": [(x, _p("tau"), _p("y")), (x / g, _p("u"), [])],
        "w-1": [(x, _p("tau", "tau"), _p("y")), (2 * x / g, _p("tau", "u"), []),
                (-2 * g.inv(), _p("x"), [])],
        "theta": [(1, [], [])],
        "q": [(1, _p("x"), _p("y")), (x / (2 * g), _p("u", "u"), [])],
    }
    A = _Alg(FREE_L1_TABLE)
    params = FamilyParams(gamma=g, xi=x, verbatim=verbatim)
    return GeneratorFamily("free-l1", "free-l1", FREE_L1_TABLE,
                           {name: A.sum(t) for name, t in terms.items()}, params)


def build_osc_l1(gamma=None, xi=None) -> GeneratorFamily:
    """The exponential-time realization acting on functions of t, x, y, u."""
    g, x = _param(gamma, "gamma"), _param(xi, "xi")
    dt, down, up = (1, [], _p("t")), [("t", -1)], [("t", 1)]
    euler_xy = [_euler(1, "x"), _euler(1, "y")]
    terms = {
        "z+": _times(1, down, [dt, _euler(-1, "x"), _euler(-1, "y")]),
        "z0": [(-1, [], _p("t")), (-1, [], [])],
        "z-": _times(-1, up, [dt, *euler_xy, (2 * x.inv(), _p("x"), _p("u")),
                              (2 * g.inv(), _p("u", "y"), []), (2, [], [])]),
        "r": _L1_R,
        "v+1": [(g, down, _p("x"))],
        "v0": [(g, [], _p("x")), (g / x, [], _p("u"))],
        "v-1": _times(1, up, [(g, [], _p("x")), (2 * g / x, [], _p("u")),
                              (2 * x.inv(), _p("y"), [])]),
        "w+1": [(x, down, _p("y"))],
        "w0": [(x, [], _p("y")), (x / g, _p("u"), [])],
        "w-1": _times(1, up, [(x, [], _p("y")), (2 * x / g, _p("u"), []),
                              (-2 * g.inv(), _p("x"), [])]),
        "theta": [(1, [], [])],
        "q": [(1, _p("x"), _p("y")), (x / (2 * g), _p("u", "u"), [])],
    }
    A = _Alg(OSC_L1_TABLE)
    params = FamilyParams(gamma=g, xi=x)
    return GeneratorFamily("osc-l1", "osc-l1", OSC_L1_TABLE,
                           {name: A.sum(t) for name, t in terms.items()}, params)


def build_triplet(fam: GeneratorFamily) -> InvariantTriplet:
    """The three second-order on-shell invariant operators of an ell=1 family.

    For the xi=0 family the triplet is (-e^(-w2 t) Omega, Omega, e^(w2 t) Omega).
    """
    if fam.kind == "xi0":
        om, w2 = fam["Omega"], fam.params.omega2
        return InvariantTriplet(plus=mul_sum([(-1, WeylElement.exp_t(fam.table, -w2), om)]),
                                zero=om,
                                minus=mul_sum([(1, WeylElement.exp_t(fam.table, w2), om)]))
    if fam.kind not in ("free-l1", "osc-l1"):
        raise ValueError(f"no invariant triplet for family kind {fam.kind!r}")
    def anticommutators(c, first: tuple, second: tuple) -> list:
        """The four products of c ({a, b} - {p, q}), where (a, b) and (p, q)
        are the generators named in ``first`` and ``second``."""
        (a, b), (p, q) = ((fam[name] for name in pair) for pair in (first, second))
        return [(c, a, b), (c, b, a), (-c, p, q), (-c, q, p)]

    half, quarter = Fraction(1, 2), Fraction(1, 4)
    plus = fam["z+"] + mul_sum(anticommutators(half, ("v+1", "w0"), ("v0", "w+1")))
    zero = fam["z0"] + mul_sum(anticommutators(-quarter, ("v+1", "w-1"), ("v-1", "w+1")))
    minus = fam["z-"] + mul_sum(anticommutators(-half, ("v0", "w-1"), ("v-1", "w0")))
    return InvariantTriplet(plus, zero, minus)


def closed_form_triplet(fam: GeneratorFamily) -> InvariantTriplet:
    """The printed closed forms of the invariant triplet (for cross checks)."""
    g, x = fam.params.gamma, fam.params.xi
    if fam.kind == "free-l1":   # (Omega+1, -tau Omega+1, -tau^2 Omega+1)
        base = [(1, [], _p("tau")), (x, _p("u"), _p("x")), (-g, [], _p("y", "u"))]
        factors = ((1, []), (-1, _p("tau")), (-1, _p("tau", "tau")))
    elif fam.kind == "osc-l1":  # (-e^(-t) Omega0, Omega0, e^t Omega0)
        base = [(-1, [], _p("t")), _euler(1, "x"), _euler(1, "y"),
                (-x, _p("u"), _p("x")), (g, [], _p("y", "u"))]
        factors = ((-1, [("t", -1)]), (1, []), (1, [("t", 1)]))
    else:
        raise ValueError(f"no closed-form triplet for family kind {fam.kind!r}")
    A = _Alg(fam.table)
    return InvariantTriplet(*(A.sum(_times(c, mon, base)) for c, mon in factors))


def deformed_degree0(fam: GeneratorFamily, omega) -> WeylElement:
    """The omega-deformed degree-0 operator (equals the invariant one at omega=1).

    It is the closed-form Omega0 plus (omega - 1) y d[y].  In the
    exponential-time picture this is
    -d[t] + x d[x] + omega y d[y] + gamma d[y] d[u] - xi u d[x];
    in the tau picture it is the image of that operator under the
    similarity/time map, namely -tau*Omega_{+1} + (omega - 1) y d[y].
    """
    return closed_form_triplet(fam).zero \
        + _Alg(fam.table).sum([_euler(as_fraction(omega) - 1, "y")])


# ---------------------------------------------------------------------------
# general ell

def factorial_sign(n: int, ell: int) -> int:
    """I_n = (-1)^n (2 ell - n)! n! — the central-extension normalization."""
    return (-1) ** n * math.factorial(2 * ell - n) * math.factorial(n)


def _xname(k: int, ell: int) -> str:
    """The name of x_k in the general-ell table; x_{ell+1} is the variable u."""
    return f"x{k}" if k <= ell else "u"


def general_table(ell: int) -> VarTable:
    names = ["tau"] + [f"x{k}" for k in range(1, ell + 1)] + ["u"] \
            + [f"y{k}" for k in range(1, ell + 1)]
    return VarTable(tuple(names), (INT,) + (NAT,) * (2 * ell + 1))


def general_order(ell: int) -> tuple[str, ...]:
    """The generator names of the general-ell family, in family order."""
    modes = range(ell, -ell - 1, -1)
    return ("z+", "z0", "z-", "r", *(gen_name("v", n) for n in modes),
            *(gen_name("w", n) for n in modes))


def build_free_general(ell: int, verbatim: bool = True) -> GeneratorFamily:
    """The general-ell realization at gamma = xi = 1.

    x_{ell+1} is the variable u.  The generator printed with a doubled
    z+ label is constructed as z-; with verbatim=False the sign of z+ is
    flipped to +d[tau], the only choice that satisfies the commutator
    table (the verify module reports this).
    """
    if not isinstance(ell, int) or ell < 1:
        raise InvalidEll(f"ell must be a positive integer, got {ell!r}")
    A = _Alg(general_table(ell))
    xname, yname = partial(_xname, ell=ell), "y{}".format

    def I(n: int) -> int:
        return factorial_sign(n, ell)

    z_plus = A.sum([(1 if not verbatim else -1, [], [("tau", 1)])])
    z0_terms = [_euler(-1, "tau"), (-Fraction(ell * (ell + 1), 2), [], [])] + [
        _euler(-(ell + 1 - k), name)
        for k in range(1, ell + 1) for name in (xname(k), yname(k))]
    z0 = A.sum(z0_terms)

    # z- = 2 tau z0 + tau^2 d[tau] - ell I_{ell+1} u y_ell - the two chains
    z_minus = A.sum(
        _times(2, [("tau", 1)], z0_terms)
        + [(1, [("tau", 2)], [("tau", 1)]),
           (-(ell * I(ell + 1)), [("u", 1), (yname(ell), 1)], [])]
        + [(-(2 * ell + 1 - k), [(xname(k), 1)], [(xname(k + 1), 1)])
           for k in range(1, ell + 1)]
        + [(-(2 * ell + 1 - k), [(yname(k), 1)], [(yname(k + 1), 1)])
           for k in range(1, ell)])

    r = A.sum([_euler(-1, "u")] + [_euler(c, name) for k in range(1, ell + 1)
                                  for c, name in ((-1, xname(k)), (1, yname(k)))])

    def pos(n: int, name) -> WeylElement:
        """v_n (``name`` = xname) or w_n (``name`` = yname) for mode n >= 0."""
        return A.sum((math.comb(ell - n, ell - k), [("tau", ell - k)],
                      [(name(k + 1 - n), 1)]) for k in range(n, ell + 1))

    def v_neg(n: int) -> WeylElement:
        return A.sum(
            [(math.comb(ell + n, n + k), [("tau", n + k)], [(xname(ell + 1 - k), 1)])
             for k in range(0, ell + 1)]
            + [(math.comb(ell + n, n - k) * I(ell + k),
                [("tau", n - k), (yname(ell + 1 - k), 1)], []) for k in range(1, n + 1)])

    def w_neg(n: int) -> WeylElement:
        return A.sum(
            [(math.comb(ell + n, n + k), [("tau", n + k)], [(yname(ell + 1 - k), 1)])
             for k in range(1, ell + 1)]
            + [(-(math.comb(ell + n, n - k) * I(ell + k)),
                [("tau", n - k), (xname(ell + 1 - k), 1)], []) for k in range(0, n + 1)])

    gens: dict[str, WeylElement] = {"z+": z_plus, "z0": z0, "z-": z_minus, "r": r}
    for n in range(-ell, ell + 1):
        gens[gen_name("v", n)] = pos(n, xname) if n >= 0 else v_neg(-n)
        gens[gen_name("w", n)] = pos(n, yname) if n >= 1 else w_neg(-n)

    params = FamilyParams(gamma=Coef.const(1), xi=Coef.const(1), ell=ell,
                          verbatim=verbatim)
    return GeneratorFamily("free-general", f"free-general(l={ell})", A.table,
                           {name: gens[name] for name in general_order(ell)},
                           params)


def ladder_over(fam: GeneratorFamily) -> GeneratorFamily:
    """Creation and annihilation operators over a general-ell family.

    a_n = v_n, a_n^+ = -w_{-n}/I_{ell+n}, b_n = w_n/I_{ell+n}, b_n^+ = v_{-n}
    for 0 <= n <= ell, named a{n}, a{n}d, b{n}, b{n}d; at n = 0 the pairs are
    tied: b_0 = -a_0^+ and b_0^+ = a_0.  The family keeps ``fam``'s name,
    table and parameters.
    """
    ell = fam.params.ell
    gens: dict[str, WeylElement] = {}
    for n in range(ell + 1):
        inv_I = Fraction(1, factorial_sign(ell + n, ell))
        gens[f"a{n}"] = fam[gen_name("v", n)]
        gens[f"a{n}d"] = fam[gen_name("w", -n)].scaled(-inv_I)
        gens[f"b{n}"] = inv_I * fam[gen_name("w", n)]
        gens[f"b{n}d"] = fam[gen_name("v", -n)]
    return GeneratorFamily("ladder", fam.name, fam.table, gens, fam.params)


def build_ladder(ell: int) -> GeneratorFamily:
    """The ladder family over the general-ell family with z+ = +d[tau]."""
    return ladder_over(build_free_general(ell, verbatim=False))


def general_invariant_explicit(ell: int) -> WeylElement:
    """The degree-1 invariant operator in explicit differential form."""
    c = Fraction((-1) ** ell, math.factorial(ell) * math.factorial(ell - 1))
    return _Alg(general_table(ell)).sum(
        [(1, [], [("tau", 1)])]
        + [(n, [(_xname(n + 1, ell), 1)], [(_xname(n, ell), 1)]) for n in range(1, ell + 1)]
        + [(n, [(f"y{n + 1}", 1)], [(f"y{n}", 1)]) for n in range(1, ell)]
        + [(c, [], [(f"y{ell}", 1), ("u", 1)])])


def general_invariant_ladder(ladder: GeneratorFamily) -> WeylElement:
    """The same operator assembled from the ladder quadratics.

    The printed form daggers both factors, which has the wrong grading
    degree; the degree-consistent reading a_n^+ a_{n+1}, b_n^+ b_{n+1}
    (with z+ = +d[tau]) reproduces the explicit operator exactly.
    """
    ell = ladder.params.ell
    return WeylElement.deriv(ladder.table, "tau") + mul_sum(
        [(ell - n, ladder[f"a{n}d"], ladder[f"a{n + 1}"]) for n in range(ell)]
        + [(-(ell + n + 1), ladder[f"b{n}d"], ladder[f"b{n + 1}"]) for n in range(ell)])


# ---------------------------------------------------------------------------
# xi = 0 limit with two frequencies

XI0_TABLE = VarTable(("x", "y", "u"), (RAT, NAT, NAT), has_time=True)

XI0_LOOP_PREFIXES = ("j0", "j+", "j-", "r", "chi", "w", "rho", "v", "u", "theta")


def loop_name(prefix: str, n: int) -> str:
    return f"{prefix}({n})"


def _kappa(n: int, w1: Fraction, w2: Fraction) -> list:
    """The monomial pairs of kappa(n)."""
    return [("t", n * w2), ("x", n * w2 / w1)]


def kappa(n: int, w1, w2) -> WeylElement:
    """The mode factor kappa(n) = e^(n w2 t) x^(n w2/w1) of every loop generator."""
    return _Alg(XI0_TABLE).sum([(1, _kappa(n, as_fraction(w1), as_fraction(w2)), [])])


def build_xi0(omega1, omega2, gamma=None, cutoff: int = 3) -> GeneratorFamily:
    """The xi = 0 family: rescaled limit operators, the invariant operator,
    and the truncated infinite symmetry algebra built on kappa = e^(w2 t) x^(w2/w1).

    The zero mode w0 is the rescaled limit of the exponential-time w0,
    d[y] + (w2/gamma) u; the infinite-family generator printed without its
    e^(w2 t) factor carries it here (the only reading that closes the loop
    algebra).  Each loop generator kappa(n) B is its body B's triples with
    kappa(n)'s pairs prefixed.
    """
    w1, w2 = as_fraction(omega1), as_fraction(omega2)
    if not w1 or not w2:
        raise ZeroFrequency("omega1 and omega2 must be nonzero")
    if cutoff < 1:
        raise ValueError("mode cutoff must be >= 1")
    g = _param(gamma, "gamma")
    neg_dt, one = (-1, [], _p("t")), (1, [], [])
    w_body = [(1, [], _p("y")), (w2 * g.inv(), _p("u"), [])]
    terms = {
        "z0": [neg_dt, (-(w1 + w2) / 2, [], [])],
        "v+1": [(g, [("t", -w1)], _p("x"))],
        "v0": [(g, [], _p("u"))],
        "v-1": _times(2 * w2, [("t", w2)], [(g, [], _p("u")), (w2, _p("y"), [])]),
        "w+1": [(1, [("t", -w2)], _p("y"))],
        "w0": w_body,
        "w-1": [(-2 * w1 * w1 * g.inv(), [("t", w1), ("x", 1)], [])],
        "Omega": [neg_dt, _euler(w1, "x"), _euler(w2, "y"), (g, [], _p("y", "u"))],
    }

    d0 = [neg_dt, _euler(w1, "x")]
    rr = [_euler(-1, "y"), _euler(1, "u")]
    bodies = {
        "j0": d0 + _times(-w2 / 2, [], [*rr, one]),
        "j+": _times(-1, [("t", -w2)], [*d0, _euler(w2, "y")]),
        "j-": _times(1, [("t", w2)], [*d0, _euler(-w2, "u"),
                                      (-w2 * w2 * g.inv(), _p("u", "y"), []), (-w2, [], [])]),
        "r": rr,
        "chi": [_euler(1, "x")],
        "w": w_body,
        "rho": [(1, [("x", w2 / w1)], _p("y"))],
        "v": _times(1, [("x", -w2 / w1)], [(g, [], _p("u")), (w2, _p("y"), [])]),
        "u": [(g, [], _p("u"))],
        "theta": [one],
    }
    for prefix in XI0_LOOP_PREFIXES:
        for n in range(-cutoff, cutoff + 1):
            terms[loop_name(prefix, n)] = _times(1, _kappa(n, w1, w2), bodies[prefix])

    params = FamilyParams(gamma=g, omega1=w1, omega2=w2, cutoff=cutoff)
    A = _Alg(XI0_TABLE)
    return GeneratorFamily("xi0", f"xi0(w1={w1},w2={w2},N={cutoff})", XI0_TABLE,
                           {name: A.sum(t) for name, t in terms.items()}, params)


# ---------------------------------------------------------------------------
# the degree-0 operator H

def build_H(target) -> WeylElement:
    """The quadratic operator whose lowest-weight spectrum is verified.

    For the ell=1 exponential-time family: (v_{-1} w_{+1} - w_{-1} v_{+1})/2.
    For the xi=0 family: the d[t]-free part of the invariant operator,
    w1 x d[x] + w2 y d[y] + gamma d[y] d[u] (agrees with the quadratic
    formula at w1 = w2 = 1).
    For a ladder family: sum_n n (a_n^+ a_n + b_n^+ b_n).
    """
    if target.kind == "ladder":
        return mul_sum((n, target[f"{ab}{n}d"], target[f"{ab}{n}"])
                       for n in range(1, target.params.ell + 1) for ab in "ab")
    if target.kind == "osc-l1":
        half = Fraction(1, 2)
        return mul_sum([(half, target["v-1"], target["w+1"]),
                        (-half, target["w-1"], target["v+1"])])
    if target.kind == "xi0":
        return target["Omega"] + WeylElement.time_deriv(target.table)
    raise ValueError(f"no H for family kind {target.kind!r}")
