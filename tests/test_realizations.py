"""Generator families: printed closed forms, parameters, and derived operators."""
import hashlib
from fractions import Fraction

import pytest

from helpers import reference_free_general, reference_invariant_explicit
from cgaweyl import realizations, weyl
from cgaweyl.scalar import Coef
from cgaweyl.weyl import (
    DomainViolation,
    WeylElement,
    anticommutator,
    commutator,
    element_to_text,
    mul,
    parse_element,
)
from cgaweyl.realizations import (
    FREE_L1_TABLE,
    XI0_TABLE,
    InvalidEll,
    ZeroFrequency,
    ZeroParameter,
    build_H,
    build_free_general,
    build_free_l1,
    build_ladder,
    build_osc_l1,
    build_triplet,
    build_xi0,
    closed_form_triplet,
    deformed_degree0,
    factorial_sign,
    gen_name,
    general_invariant_explicit,
    kappa,
    loop_name,
)


def parse_over(fam, text):
    return parse_element(text, fam.table)


# -- ell = 1 ------------------------------------------------------------------

def test_free_w0_closed_form():
    fam = build_free_l1()
    expected = parse_over(fam, "(xi) * tau * d[y] + (xi)/(gamma) * u")
    assert fam["w0"] == expected


def test_free_theta_is_one():
    fam = build_free_l1()
    assert fam["theta"] == WeylElement.const(fam.table, 1)


def test_free_v0_at_unit_parameters():
    fam = build_free_l1(1, 1)
    expected = parse_over(fam, "(1) * tau * d[x] + (1) * d[u]")
    assert fam["v0"] == expected


def test_osc_z0_closed_form():
    fam = build_osc_l1()
    expected = parse_over(fam, "(-1) * d[t] + (-1)")
    assert fam["z0"] == expected


def test_osc_q_closed_form():
    fam = build_osc_l1()
    expected = parse_over(fam, "(1) * x * d[y] + (1/2*xi)/(gamma) * u^2")
    assert fam["q"] == expected


def test_osc_w_plus_at_unit_xi():
    fam = build_osc_l1(xi=1)
    expected = parse_over(fam, "(1) * e^(-1*t) * d[y]")
    assert fam["w+1"] == expected


def test_zero_parameters_rejected():
    with pytest.raises(ZeroParameter):
        build_free_l1(0, 1)
    with pytest.raises(ZeroParameter):
        build_osc_l1(1, Fraction(0))


def test_triplet_closed_forms_free():
    fam = build_free_l1(verbatim=False)
    trip = build_triplet(fam)
    closed = closed_form_triplet(fam)
    assert trip.plus == closed.plus
    assert trip.zero == closed.zero == -(WeylElement.var(fam.table, "tau") * closed.plus)
    assert trip.minus == closed.minus == \
        -(WeylElement.var(fam.table, "tau", 2) * closed.plus)


def test_triplet_closed_forms_osc():
    fam = build_osc_l1()
    trip = build_triplet(fam)
    closed = closed_form_triplet(fam)
    assert (trip.plus, trip.zero, trip.minus) == \
        (closed.plus, closed.zero, closed.minus)
    assert trip.plus == -(WeylElement.exp_t(fam.table, -1) * trip.zero)
    assert trip.minus == WeylElement.exp_t(fam.table, 1) * trip.zero


def test_verbatim_free_triplet_misses_by_a_constant():
    fam = build_free_l1()          # printed z0 constant
    trip = build_triplet(fam)
    closed = closed_form_triplet(fam)
    assert (trip.zero - closed.zero).constant_value() == Coef.const(2)


def test_deformed_operator_reduces_at_omega_one():
    osc = build_osc_l1()
    assert deformed_degree0(osc, 1) == build_triplet(osc).zero
    free = build_free_l1(verbatim=False)
    assert deformed_degree0(free, 1) == build_triplet(free).zero


def test_deformed_operator_matches_printed_forms():
    """Away from omega = 1: -d[t] + x d[x] + omega y d[y] + gamma d[y] d[u]
    - xi u d[x] in the exponential-time picture, -tau*Omega+1
    + (omega - 1) y d[y] in the tau picture."""
    osc_text = "(-1) * d[t] + (1) * x * d[x] + ({w}) * y * d[y] " \
               "+ ({g}) * d[y] * d[u] + ({mx}) * u * d[x]"
    osc_point = build_osc_l1(2, -3)
    free = build_free_l1(verbatim=False)
    for w in (2, Fraction(3, 2), -1):
        for fam, g, mx in ((build_osc_l1(), "gamma", "-xi"), (osc_point, "2", "3")):
            assert deformed_degree0(fam, w) == parse_over(
                fam, osc_text.format(w=w, g=g, mx=mx)), (fam.params.describe(), w)
        assert deformed_degree0(free, w) == parse_over(
            free, "(-1) * tau * d[tau] + (-xi) * tau * u * d[x] "
                  f"+ (gamma) * tau * d[y] * d[u] + ({w - 1}) * y * d[y]"), w


def test_describe_lists_set_fields_in_field_order():
    cases = (
        (build_free_l1(2, 3, verbatim=False),
         [("gamma", "2"), ("xi", "3"), ("verbatim", "false")]),
        (build_osc_l1(),
         [("gamma", "gamma"), ("xi", "xi"), ("verbatim", "true")]),
        (build_free_general(3),
         [("gamma", "1"), ("xi", "1"), ("ell", "3"), ("verbatim", "true")]),
        (build_ladder(2),
         [("gamma", "1"), ("xi", "1"), ("ell", "2"), ("verbatim", "false")]),
        (build_xi0(Fraction(3, 2), Fraction(5, 7), gamma=2, cutoff=2),
         [("gamma", "2"), ("omega1", "3/2"), ("omega2", "5/7"), ("cutoff", "2"),
          ("verbatim", "true")]),
    )
    for fam, expected in cases:
        assert list(fam.params.describe().items()) == expected, fam.name


def test_H_closed_form_osc():
    fam = build_osc_l1()
    H = build_H(fam)
    expected = parse_over(fam, "(gamma) * d[y] * d[u] + (1) * y * d[y] "
                               "+ (-xi) * u * d[x] + (1) * x * d[x]")
    assert H == expected


def test_H_commutes_with_functions_of_t():
    fam = build_osc_l1()
    H = build_H(fam)
    et = WeylElement.exp_t(fam.table, 1)
    assert commutator(H, et).is_zero()


def test_generators_are_homogeneous_with_stated_degrees():
    for fam in (build_free_l1(), build_osc_l1()):
        z0 = fam["z0"]
        expected = {"z+": 1, "z0": 0, "z-": -1, "r": 0, "theta": 0, "q": 0,
                    "v+1": 1, "v0": 0, "v-1": -1, "w+1": 1, "w0": 0, "w-1": -1}
        for name, deg in expected.items():
            assert commutator(z0, fam[name]) == fam[name].scaled(deg), \
                (fam.name, name)


# -- general ell ----------------------------------------------------------------

def test_invalid_ell():
    with pytest.raises(InvalidEll):
        build_free_general(0)
    with pytest.raises(InvalidEll):
        build_ladder(-2)


@pytest.mark.parametrize("ell", range(1, 9))
def test_general_builders_equal_their_products_and_sums(ell):
    """The one-pass builders give every generator, and the explicit
    invariant, with the terms and the exponent unit of the construction
    from ``mul`` products and sums (``tests/helpers``)."""
    for verbatim in (True, False):
        gens = build_free_general(ell, verbatim).generators
        reference = reference_free_general(ell, verbatim)
        assert list(gens) == list(reference)
        for name, g in gens.items():
            assert g.terms == reference[name].terms, (verbatim, name)
            assert g._lattice == reference[name]._lattice, (verbatim, name)
    explicit, reference = general_invariant_explicit(ell), reference_invariant_explicit(ell)
    assert explicit.terms == reference.terms and explicit._lattice == reference._lattice


def test_kappa_is_the_product_of_its_factors():
    """kappa(n) = e^(n w2 t) x^(n w2/w1), the exponent unit included."""
    for w1, w2 in ((Fraction(2), Fraction(3)), (Fraction(3, 2), Fraction(5, 7)),
                   (Fraction(1), Fraction(1))):
        for n in range(-3, 4):
            k = kappa(n, w1, w2)
            product = mul(WeylElement.exp_t(k.table, n * w2),
                          WeylElement.var(k.table, "x", n * w2 / w1))
            assert k.terms == product.terms and k._lattice == product._lattice


def test_kappa_takes_int_frequencies_exactly():
    """int frequencies give the exact exponents of their Fractions, and the
    element's text reads back (an int ratio once stored a float exponent)."""
    k = kappa(1, 2, 3)
    assert k == kappa(1, Fraction(2), Fraction(3))
    assert k.text() == "(1) * e^(3*t) * x^(3/2)"
    assert parse_element(k.text(), k.table) == k


def test_general_z0_constant_term():
    fam = build_free_general(2)
    const = fam["z0"].terms.get(next(iter(
        WeylElement.const(fam.table, 1).terms)))
    assert const == Coef.const(-3)      # -(1/2) l (l+1) at l = 2


def test_general_heisenberg_scalars():
    for ell in (1, 2, 3):
        fam = build_free_general(ell)
        for n in range(0, ell + 1):
            c = commutator(fam[gen_name("v", n)], fam[gen_name("w", -n)])
            expected = WeylElement.const(fam.table, -factorial_sign(ell + n, ell))
            assert c == expected, (ell, n)


def test_general_invariant_coefficient_example():
    # coefficient of d[y2] d[u] at l = 2 is (-1)^2 / (2! 1!) = 1/2
    om = general_invariant_explicit(2)
    key = next(k for k in om.terms
               if sum(map(bool, k[1][:-1])) == 2 and not any(k[0][:-1]))
    names = [om.table.names[i] for i, k in enumerate(key[1][:-1]) if k]
    assert sorted(names) == ["u", "y2"]
    assert om.terms[key] == Coef.const(Fraction(1, 2))


def test_ladder_ccr_examples():
    lad = build_ladder(2)
    one = WeylElement.const(lad.table, 1)
    assert commutator(lad["a1"], lad["a1d"]) == one
    assert commutator(lad["a1"], lad["a2d"]).is_zero()
    assert commutator(lad["b2"], lad["b2d"]) == one
    assert commutator(lad["a1"], lad["b2"]).is_zero()
    assert (lad["b0"] + lad["a0d"]).is_zero()
    assert (lad["b0d"] - lad["a0"]).is_zero()


def test_ladder_H_at_ell_one_matches_hand_expansion():
    lad = build_ladder(1)
    H = build_H(lad)
    expected = parse_over(lad, "(1) * x1 * d[x1] + (1) * y1 * d[y1] "
                          "+ (-1) * tau * u * d[x1] + (1) * tau * d[y1] * d[u]")
    assert H == expected


# -- xi = 0 ---------------------------------------------------------------------

def test_zero_frequency_rejected():
    with pytest.raises(ZeroFrequency):
        build_xi0(0, 1)
    with pytest.raises(ZeroFrequency):
        build_xi0(1, Fraction(0))


def test_xi0_invariant_operator_at_unit_frequencies():
    fam = build_xi0(1, 1)
    expected = parse_over(fam, "(gamma) * d[y] * d[u] + (1) * y * d[y] "
                               "+ (1) * x * d[x] + (-1) * d[t]")
    assert fam["Omega"] == expected


def test_xi0_w_minus_at_unit_frequencies():
    fam = build_xi0(1, 1)
    expected = parse_over(fam, "(-2)/(gamma) * e^(1*t) * x")
    assert fam["w-1"] == expected


def test_xi0_theta_powers_of_kappa():
    fam = build_xi0(2, 3, cutoff=2)
    for n in (-2, 1, 2):
        kappa_n = mul(WeylElement.exp_t(fam.table, 3 * n),
                      WeylElement.var(fam.table, "x", Fraction(3 * n, 2)))
        assert fam[loop_name("theta", n)] == kappa_n


def test_xi0_quadratic_invariant_identity():
    fam = build_xi0(2, 3)
    w1, w2 = fam.params.omega1, fam.params.omega2
    quad = fam["z0"] \
        - Fraction(1, 4) / w1 * anticommutator(fam["v+1"], fam["w-1"]) \
        + Fraction(1, 4) / w2 * anticommutator(fam["v-1"], fam["w+1"])
    assert quad == fam["Omega"]


def test_xi0_H_matches_quadratic_formula_at_unit_frequencies():
    fam = build_xi0(1, 1)
    H = build_H(fam)
    quad = Fraction(1, 2) * (mul(fam["v-1"], fam["w+1"])
                             - mul(fam["w-1"], fam["v+1"]))
    assert H == quad
    expected = parse_over(fam, "(gamma) * d[y] * d[u] + (1) * y * d[y] "
                               "+ (1) * x * d[x]")
    assert H == expected


def test_xi0_printed_w0_is_not_a_zero_mode():
    """The printed limit u/gamma fails [H, w0] = 0; the rescaled limit
    d[y] + (w2/gamma) u (stored as w0) satisfies it."""
    fam = build_xi0(1, 1)
    H = build_H(fam)
    assert commutator(H, fam["w0"]).is_zero()
    printed = fam.params.gamma.inv() * WeylElement.var(fam.table, "u")
    assert not commutator(H, printed).is_zero()
    # both normalizations pair with v0 up to the frequency factor
    assert commutator(fam["v0"], printed) == WeylElement.const(fam.table, 1)


def test_family_text_roundtrip():
    for fam in (build_free_general(2), build_xi0(2, 3, cutoff=1)):
        for name, g in fam.generators.items():
            assert parse_element(element_to_text(g), fam.table) == g, name


# -- the one term map ---------------------------------------------------------

def test_term_map_sum_edge_cases():
    """Triples that cancel leave no term, a repeated name adds, integral
    ``Fraction`` slots are stored as ``int``, and the constructor still
    rejects a NAT slot that the triples drive negative."""
    free, xi0 = realizations._Alg(FREE_L1_TABLE), realizations._Alg(XI0_TABLE)
    x_dx, gamma = ([("x", 1)], [("x", 1)]), Coef.gamma()
    assert free.sum([(1, *x_dx), (-1, *x_dx)]).terms == {}
    assert free.sum([(gamma, *x_dx), (-gamma, *x_dx), (0, [], [])]).terms == {}
    assert free.sum([(1, *x_dx), (2, [("tau", 1)], []), (Fraction(1, 2), *x_dx)]) \
        == parse_element("(3/2) * x * d[x] + (2) * tau", FREE_L1_TABLE)

    repeated = free.sum([(2, [("x", 1), ("y", 1), ("x", 2)], [("u", 1), ("u", 1)])])
    assert repeated == parse_element("(2) * x^3 * y * d[u]^2", FREE_L1_TABLE)

    integral = xi0.sum([(1, [("t", Fraction(4, 2)), ("x", Fraction(1, 2)),
                             ("x", Fraction(5, 2))], [("t", 1)])])
    (mon, der), = integral.terms
    assert mon == (3, 0, 0, 2) and [type(p) for p in mon] == [int] * 4
    assert der == (0, 0, 0, 1) and integral._lattice == 1
    fractional = xi0.sum([(1, [("x", Fraction(1, 3)), ("x", Fraction(1, 2))], [])])
    (mon, _), = fractional.terms
    assert mon[0] == Fraction(5, 6) and fractional._lattice == 6

    for pairs in ([("x", -1)], [("y", 1), ("y", -2)], [("u", Fraction(1, 2))]):
        with pytest.raises(DomainViolation):
            free.sum([(1, pairs, [])])
    assert free.sum([(1, [("tau", -3)], [])]).terms  # tau is INT


# -- every builder, term for term ------------------------------------------------

_L1_POINTS = ((None, None), (2, 3), (Fraction(-1, 2), Fraction(5, 7)))
_XI0_POINTS = ((1, 1), (2, 3), (Fraction(3, 2), Fraction(5, 7)), (2, -3))


def _pinned_families():
    """Every ell = 1 and xi = 0 configuration that the builder pin covers."""
    for g, x in _L1_POINTS:
        for verbatim in (True, False):
            yield f"free-l1 {g} {x} {verbatim}", build_free_l1(g, x, verbatim)
        yield f"osc-l1 {g} {x}", build_osc_l1(g, x)
    for w1, w2 in _XI0_POINTS:
        for g in (None, 2):
            yield f"xi0 {w1} {w2} {g}", build_xi0(w1, w2, gamma=g)


def _builder_lines(fam) -> list[str]:
    """The sorted ``name: text`` lines of a family's generators, its
    triplet and, at ell = 1, its closed forms and deformed operator."""
    lines = [f"{n}: {g.text()}" for n, g in fam.generators.items()]
    lines += [f"triplet {n}: {g.text()}" for n, g in build_triplet(fam).named().items()]
    if fam.kind != "xi0":
        lines += [f"closed {n}: {g.text()}"
                  for n, g in closed_form_triplet(fam).named().items()]
        lines.append(f"deformed(2): {deformed_degree0(fam, 2).text()}")
    return sorted(lines)


_BUILDER_PINS = {
    "free-l1 None None True": "1a83146e6d8b50f9ce6ee5d20595699d65603a0314b05b4fde0f95429df8ffe2",
    "free-l1 None None False": "5538be2a9998a5d32c837ab6af32553bd2205fa1f541a1f92dfddeec05322625",
    "osc-l1 None None": "d0c23609cebd472adf49a1a1b322013fe31d5db68e66d008355c37812146e645",
    "free-l1 2 3 True": "15dc0b96a5b135b63227f5fccf5fa344f42efa0865e7026778ec145de69712c1",
    "free-l1 2 3 False": "d2a6e9ce9af2d74bbf3987fbfa2164e63036c738e81891a1e903ed840276b7ee",
    "osc-l1 2 3": "a34bcfd931d0ac3c1308d1e77bac0b49d3b149c0d9d2a2b2887a6f02e10edcfc",
    "free-l1 -1/2 5/7 True": "ac32051e765c19f4cb2de72cee1507cc6796307345a04ef06f1c261b962bb6a8",
    "free-l1 -1/2 5/7 False": "300ce8952bf0621bb2f882d7ab2ea7af82f88b36970e4bce75d5cfafede0414f",
    "osc-l1 -1/2 5/7": "1e000ea4e8c7fe44cce4d11bcb508b765d9f1a09d7b05197b46a8c24918ec1ea",
    "xi0 1 1 None": "82d864275758fb297fa02c243ea52472ab7747c15ab42698ddf48421cc80014a",
    "xi0 1 1 2": "89b2caf48b41467dd4a90f12bba13f689352a4ffdbe14f0cee1434ef47620ffe",
    "xi0 2 3 None": "e0d3bbc389108d9394b6247762ebe4adc0613c02e231a2fb93ad747ad3b15234",
    "xi0 2 3 2": "b6944ad2c66ecf81c23e93bd5053e28689ee495d17564bc27e1b7c0fdf73b947",
    "xi0 3/2 5/7 None": "6a08e8eaf8865cb5a08f504de3766b952782710afb3a22ebbb88e1f506987cb9",
    "xi0 3/2 5/7 2": "ea0c478a41ebe8a6689155ebabfa70caa8623bfdb5853c4c2c212b741345ea80",
    "xi0 2 -3 None": "00f7dae0433e11e54c15c2dd61e6d4d718305c58174f571c32d4ee9f7917342d",
    "xi0 2 -3 2": "802e4b1e2ac4d4b1142feaa67193689bfff9c07998c1efdf0d0c28d2c0d44205",
}


def test_every_builder_is_pinned_term_for_term():
    """The sha256 of each configuration's sorted ``name: text`` lines, as
    the products-and-sums builders gave them: the term-map builders must
    state every generator, triplet, closed form and deformed operator
    with the same terms and coefficients."""
    got = {label: hashlib.sha256("\n".join(_builder_lines(fam)).encode()).hexdigest()
           for label, fam in _pinned_families()}
    assert got == _BUILDER_PINS


_L1_FAMILIES = (build_free_l1(), build_free_l1(verbatim=False), build_osc_l1(2, 3))
_NO_KERNEL_BUILDS = {
    "free-l1": lambda: (build_free_l1(), build_free_l1(2, 3, verbatim=False)),
    "osc-l1": lambda: build_osc_l1(Fraction(-1, 2), Fraction(5, 7)),
    "xi0": lambda: [build_xi0(w1, w2, gamma=g) for w1, w2 in _XI0_POINTS
                    for g in (None, 2)],
    "free-general": lambda: build_free_general(3),
    "kappa": lambda: kappa(2, Fraction(3, 2), Fraction(5, 7)),
    "closed-form": lambda: [closed_form_triplet(fam) for fam in _L1_FAMILIES],
    "deformed": lambda: [deformed_degree0(fam, 2) for fam in _L1_FAMILIES],
}


@pytest.mark.parametrize("builder", _NO_KERNEL_BUILDS)
def test_no_builder_runs_a_kernel(monkeypatch, builder):
    """The builders state their elements as term maps: with ``mul`` (which
    every element product calls) made to raise, each still builds."""
    def no_kernel(*args):
        raise AssertionError("a builder ran mul")

    monkeypatch.setattr(weyl, "mul", no_kernel)
    monkeypatch.setattr(realizations, "mul", no_kernel)
    _NO_KERNEL_BUILDS[builder]()
