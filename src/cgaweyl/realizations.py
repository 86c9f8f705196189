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
    anticommutator,
    mul,
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
    """Terse element constructors over one table.

    Each distinct element is made once per instance and then shared, so a
    builder's products pack it only once.
    """

    def __init__(self, table: VarTable):
        self.table = table
        self.one = WeylElement.const(table, 1)
        self._made: dict = {}

    def _made_once(self, make, *args) -> WeylElement:
        key = (make, args)
        e = self._made.get(key)
        if e is None:
            e = self._made[key] = make(self.table, *args)
        return e

    def v(self, name: str, power=1) -> WeylElement:
        return self._made_once(WeylElement.var, name, power)

    def d(self, name: str, order: int = 1) -> WeylElement:
        return self._made_once(WeylElement.deriv, name, order)

    def dt(self, order: int = 1) -> WeylElement:
        return self._made_once(WeylElement.time_deriv, order)

    def e(self, weight) -> WeylElement:
        return self._made_once(WeylElement.exp_t, weight)


def build_free_l1(gamma=None, xi=None, verbatim: bool = True) -> GeneratorFamily:
    """The first-order realization acting on functions of tau, x, y, u.

    The printed z0 = -(tau d[tau] + x d[x] + y d[y] - 1) misses [z+, z-] = 2 z0
    by a constant.  With verbatim=False z0 is built with the corrected
    constant, -(tau d[tau] + x d[x] + y d[y] + 1), the same way
    build_free_general flips the sign of z+; verify.calibrate_constants
    derives and certifies this shift (z0 -> z0 - 2) exactly.
    """
    g, x = _param(gamma, "gamma"), _param(xi, "xi")
    A = _Alg(FREE_L1_TABLE)
    tau, xv, yv, uv = A.v("tau"), A.v("x"), A.v("y"), A.v("u")
    dtau = A.d("tau")
    dx, dy, du = A.d("x"), A.d("y"), A.d("u")
    two = Fraction(2)

    euler_xy = xv * dx + yv * dy
    z0_const = A.one if not verbatim else -A.one
    gens = {
        "z+": dtau,
        "z0": -(tau * dtau + euler_xy + z0_const),
        "z-": -(A.v("tau", 2) * dtau + two * (tau * euler_xy)
                + (two * x.inv()) * (xv * du)
                + (two * g.inv()) * (uv * yv)
                + two * tau),
        "r": -(xv * dx) + yv * dy - uv * du,
        "v+1": g * dx,
        "v0": g * (tau * dx) + (g / x) * du,
        "v-1": g * (A.v("tau", 2) * dx) + (two * g / x) * (tau * du)
               + (two * x.inv()) * yv,
        "w+1": x * dy,
        "w0": x * (tau * dy) + (x / g) * uv,
        "w-1": x * (A.v("tau", 2) * dy) + (two * x / g) * (tau * uv)
               - (two * g.inv()) * xv,
        "theta": A.one,
        "q": xv * dy + (x / (two * g)) * A.v("u", 2),
    }
    params = FamilyParams(gamma=g, xi=x, verbatim=verbatim)
    return GeneratorFamily("free-l1", "free-l1", FREE_L1_TABLE, gens, params)


def build_osc_l1(gamma=None, xi=None) -> GeneratorFamily:
    """The exponential-time realization acting on functions of t, x, y, u."""
    g, x = _param(gamma, "gamma"), _param(xi, "xi")
    A = _Alg(OSC_L1_TABLE)
    xv, yv, uv = A.v("x"), A.v("y"), A.v("u")
    dx, dy, du, dt = A.d("x"), A.d("y"), A.d("u"), A.dt()
    two = Fraction(2)
    euler_xy = xv * dx + yv * dy

    gens = {
        "z+": A.e(-1) * (dt - euler_xy),
        "z0": -dt - A.one,
        "z-": -(A.e(1) * (dt + euler_xy
                          + (two * x.inv()) * (xv * du)
                          + (two * g.inv()) * (uv * yv)
                          + two * A.one)),
        "r": -(xv * dx) + yv * dy - uv * du,
        "v+1": g * (A.e(-1) * dx),
        "v0": g * dx + (g / x) * du,
        "v-1": A.e(1) * (g * dx + (two * g / x) * du + (two * x.inv()) * yv),
        "w+1": x * (A.e(-1) * dy),
        "w0": x * dy + (x / g) * uv,
        "w-1": A.e(1) * (x * dy + (two * x / g) * uv - (two * g.inv()) * xv),
        "theta": A.one,
        "q": xv * dy + (x / (two * g)) * A.v("u", 2),
    }
    params = FamilyParams(gamma=g, xi=x)
    return GeneratorFamily("osc-l1", "osc-l1", OSC_L1_TABLE, gens, params)


def build_triplet(fam: GeneratorFamily) -> InvariantTriplet:
    """The three second-order on-shell invariant operators of an ell=1 family.

    For the xi=0 family the triplet is (-e^(-w2 t) Omega, Omega, e^(w2 t) Omega).
    """
    if fam.kind == "xi0":
        om = fam["Omega"]
        w2 = fam.params.omega2
        A = _Alg(fam.table)
        return InvariantTriplet(plus=-(A.e(-w2) * om), zero=om, minus=A.e(w2) * om)
    if fam.kind not in ("free-l1", "osc-l1"):
        raise ValueError(f"no invariant triplet for family kind {fam.kind!r}")
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    plus = fam["z+"] + half * (anticommutator(fam["v+1"], fam["w0"])
                               - anticommutator(fam["v0"], fam["w+1"]))
    zero = fam["z0"] - quarter * (anticommutator(fam["v+1"], fam["w-1"])
                                  - anticommutator(fam["v-1"], fam["w+1"]))
    minus = fam["z-"] - half * (anticommutator(fam["v0"], fam["w-1"])
                                - anticommutator(fam["v-1"], fam["w0"]))
    return InvariantTriplet(plus, zero, minus)


def closed_form_triplet(fam: GeneratorFamily) -> InvariantTriplet:
    """The printed closed forms of the invariant triplet (for cross checks)."""
    g, x = fam.params.gamma, fam.params.xi
    A = _Alg(fam.table)
    if fam.kind == "free-l1":
        plus = A.d("tau") + x * (A.v("u") * A.d("x")) - g * (A.d("y") * A.d("u"))
        return InvariantTriplet(plus, -(A.v("tau") * plus),
                                -(A.v("tau", 2) * plus))
    if fam.kind == "osc-l1":
        zero = (-A.dt() + A.v("x") * A.d("x") + A.v("y") * A.d("y")
                - x * (A.v("u") * A.d("x")) + g * (A.d("y") * A.d("u")))
        return InvariantTriplet(-(A.e(-1) * zero), zero, A.e(1) * zero)
    raise ValueError(f"no closed-form triplet for family kind {fam.kind!r}")


def deformed_degree0(fam: GeneratorFamily, omega) -> WeylElement:
    """The omega-deformed degree-0 operator (equals the invariant one at omega=1).

    It is the closed-form Omega0 plus (omega - 1) y d[y].  In the
    exponential-time picture this is
    -d[t] + x d[x] + omega y d[y] + gamma d[y] d[u] - xi u d[x];
    in the tau picture it is the image of that operator under the
    similarity/time map, namely -tau*Omega_{+1} + (omega - 1) y d[y].
    """
    A = _Alg(fam.table)
    return closed_form_triplet(fam).zero \
        + (as_fraction(omega) - 1) * (A.v("y") * A.d("y"))


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
    table = general_table(ell)
    A = _Alg(table)

    xname, yname = partial(_xname, ell=ell), "y{}".format

    def I(n: int) -> int:
        return factorial_sign(n, ell)

    z_plus = A.d("tau") if not verbatim else -A.d("tau")
    z0 = -(A.v("tau") * A.d("tau"))
    for k in range(1, ell + 1):
        z0 = z0 - (ell + 1 - k) * (A.v(xname(k)) * A.d(xname(k))
                                   + A.v(f"y{k}") * A.d(f"y{k}"))
    z0 = z0 - Fraction(ell * (ell + 1), 2) * A.one

    z_minus = 2 * (A.v("tau") * z0) + A.v("tau", 2) * A.d("tau") \
        - (ell * I(ell + 1)) * (A.v("u") * A.v(f"y{ell}"))
    for k in range(1, ell + 1):
        z_minus = z_minus - (2 * ell + 1 - k) * (A.v(xname(k)) * A.d(xname(k + 1)))
    for k in range(1, ell):
        z_minus = z_minus - (2 * ell + 1 - k) * (A.v(f"y{k}") * A.d(f"y{k + 1}"))

    r = -(A.v("u") * A.d("u"))
    for k in range(1, ell + 1):
        r = r + (-(A.v(xname(k)) * A.d(xname(k))) + A.v(f"y{k}") * A.d(f"y{k}"))

    def pos(n: int, name) -> WeylElement:
        """v_n (``name`` = xname) or w_n (``name`` = yname) for mode n >= 0."""
        out = WeylElement.zero(table)
        for k in range(n, ell + 1):
            out = out + math.comb(ell - n, ell - k) * (
                A.v("tau", ell - k) * A.d(name(k + 1 - n)))
        return out

    def v_neg(n: int) -> WeylElement:
        out = WeylElement.zero(table)
        for k in range(0, ell + 1):
            out = out + math.comb(ell + n, n + k) * (
                A.v("tau", n + k) * A.d(xname(ell + 1 - k)))
        for k in range(1, n + 1):
            out = out + (math.comb(ell + n, n - k) * I(ell + k)) * (
                A.v("tau", n - k) * A.v(f"y{ell + 1 - k}"))
        return out

    def w_neg(n: int) -> WeylElement:
        out = WeylElement.zero(table)
        for k in range(1, ell + 1):
            out = out + math.comb(ell + n, n + k) * (
                A.v("tau", n + k) * A.d(f"y{ell + 1 - k}"))
        for k in range(0, n + 1):
            out = out - (math.comb(ell + n, n - k) * I(ell + k)) * (
                A.v("tau", n - k) * A.v(xname(ell + 1 - k)))
        return out

    gens: dict[str, WeylElement] = {"z+": z_plus, "z0": z0, "z-": z_minus, "r": r}
    for n in range(-ell, ell + 1):
        gens[gen_name("v", n)] = pos(n, xname) if n >= 0 else v_neg(-n)
        gens[gen_name("w", n)] = pos(n, yname) if n >= 1 else w_neg(-n)

    params = FamilyParams(gamma=Coef.const(1), xi=Coef.const(1), ell=ell,
                          verbatim=verbatim)
    return GeneratorFamily("free-general", f"free-general(l={ell})", table,
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
        gens[f"a{n}d"] = -(inv_I * fam[gen_name("w", -n)])
        gens[f"b{n}"] = inv_I * fam[gen_name("w", n)]
        gens[f"b{n}d"] = fam[gen_name("v", -n)]
    return GeneratorFamily("ladder", fam.name, fam.table, gens, fam.params)


def build_ladder(ell: int) -> GeneratorFamily:
    """The ladder family over the general-ell family with z+ = +d[tau]."""
    return ladder_over(build_free_general(ell, verbatim=False))


def general_invariant_explicit(ell: int) -> WeylElement:
    """The degree-1 invariant operator in explicit differential form."""
    A = _Alg(general_table(ell))
    out = A.d("tau")
    for n in range(1, ell + 1):
        out = out + n * (A.v(_xname(n + 1, ell)) * A.d(_xname(n, ell)))
    for n in range(1, ell):
        out = out + n * (A.v(f"y{n + 1}") * A.d(f"y{n}"))
    c = Fraction((-1) ** ell, math.factorial(ell) * math.factorial(ell - 1))
    return out + c * (A.d(f"y{ell}") * A.d("u"))


def general_invariant_ladder(ladder: GeneratorFamily) -> WeylElement:
    """The same operator assembled from the ladder quadratics.

    The printed form daggers both factors, which has the wrong grading
    degree; the degree-consistent reading a_n^+ a_{n+1}, b_n^+ b_{n+1}
    (with z+ = +d[tau]) reproduces the explicit operator exactly.
    """
    ell = ladder.params.ell
    out = WeylElement.deriv(ladder.table, "tau")
    for n in range(ell):
        out = out + (ell - n) * mul(ladder[f"a{n}d"], ladder[f"a{n + 1}"]) \
                  - (ell + n + 1) * mul(ladder[f"b{n}d"], ladder[f"b{n + 1}"])
    return out


# ---------------------------------------------------------------------------
# xi = 0 limit with two frequencies

XI0_TABLE = VarTable(("x", "y", "u"), (RAT, NAT, NAT), has_time=True)

XI0_LOOP_PREFIXES = ("j0", "j+", "j-", "r", "chi", "w", "rho", "v", "u", "theta")


def loop_name(prefix: str, n: int) -> str:
    return f"{prefix}({n})"


def kappa(n: int, w1: Fraction, w2: Fraction) -> WeylElement:
    """The mode factor kappa(n) = e^(n w2 t) x^(n w2/w1) of every loop generator."""
    return mul(WeylElement.exp_t(XI0_TABLE, n * w2),
               WeylElement.var(XI0_TABLE, "x", n * w2 / w1))


def build_xi0(omega1, omega2, gamma=None, cutoff: int = 3) -> GeneratorFamily:
    """The xi = 0 family: rescaled limit operators, the invariant operator,
    and the truncated infinite symmetry algebra built on kappa = e^(w2 t) x^(w2/w1).

    The zero mode w0 is the rescaled limit of the exponential-time w0,
    d[y] + (w2/gamma) u; the infinite-family generator printed without its
    e^(w2 t) factor carries it here (the only reading that closes the loop
    algebra).
    """
    w1, w2 = as_fraction(omega1), as_fraction(omega2)
    if not w1 or not w2:
        raise ZeroFrequency("omega1 and omega2 must be nonzero")
    if cutoff < 1:
        raise ValueError("mode cutoff must be >= 1")
    g = _param(gamma, "gamma")
    A = _Alg(XI0_TABLE)
    xv, yv, uv = A.v("x"), A.v("y"), A.v("u")
    dx, dy, du, dt = A.d("x"), A.d("y"), A.d("u"), A.dt()

    omega = -dt + w1 * (xv * dx) + w2 * (yv * dy) + g * (dy * du)
    gens: dict[str, WeylElement] = {
        "z0": -dt - Fraction(w1 + w2, 2) * A.one,
        "v+1": g * (A.e(-w1) * dx),
        "v0": g * du,
        "v-1": (2 * w2) * (A.e(w2) * (g * du + w2 * yv)),
        "w+1": A.e(-w2) * dy,
        "w0": dy + (w2 * g.inv()) * uv,
        "w-1": -((2 * w1 * w1) * g.inv()) * (A.e(w1) * xv),
        "Omega": omega,
    }

    d0 = -dt + w1 * (xv * dx)
    rr = -(yv * dy) + uv * du
    j0_body = d0 - Fraction(w2, 2) * (rr + A.one)
    jp_body = -(A.e(-w2) * (d0 + w2 * (yv * dy)))
    jm_body = A.e(w2) * (d0 - w2 * (uv * du) - (w2 * w2 * g.inv()) * (uv * yv)
                         - w2 * A.one)
    w_body = dy + (w2 * g.inv()) * uv
    rho_body = A.v("x", w2 / w1) * dy
    v_body = A.v("x", -w2 / w1) * (g * du + w2 * yv)
    u_body = g * du

    bodies = {
        "j0": j0_body, "j+": jp_body, "j-": jm_body, "r": rr,
        "chi": xv * dx, "w": w_body, "rho": rho_body, "v": v_body,
        "u": u_body, "theta": A.one,
    }
    for prefix in XI0_LOOP_PREFIXES:
        for n in range(-cutoff, cutoff + 1):
            gens[loop_name(prefix, n)] = mul(kappa(n, w1, w2), bodies[prefix])

    params = FamilyParams(gamma=g, omega1=w1, omega2=w2, cutoff=cutoff)
    return GeneratorFamily("xi0", f"xi0(w1={w1},w2={w2},N={cutoff})",
                           XI0_TABLE, gens, params)


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
        out = WeylElement.zero(target.table)
        for n in range(1, target.params.ell + 1):
            out = out + n * (mul(target[f"a{n}d"], target[f"a{n}"])
                             + mul(target[f"b{n}d"], target[f"b{n}"]))
        return out
    if target.kind == "osc-l1":
        half = Fraction(1, 2)
        return half * (mul(target["v-1"], target["w+1"])
                       - mul(target["w-1"], target["v+1"]))
    if target.kind == "xi0":
        return target["Omega"] + WeylElement.time_deriv(target.table)
    raise ValueError(f"no H for family kind {target.kind!r}")
