"""Expression grammar, canonical formatting, and ring-spec strings."""

import random

import pytest

from ringkit import rings
from ringkit.errors import ParseError, UnsupportedRingError
from ringkit.galois import GFRing
from ringkit.multipoly import MultiRing
from ringkit.parse import (
    parse_element,
    parse_expr,
    parse_ring,
)
from ringkit.unipoly import UniRing


K17 = rings.ZpRing(17)


def M(order="GREVLEX"):
    return MultiRing(K17, ("x", "y", "z"), order)


# ---------------------------------------------------------------- ring specs


@pytest.mark.parametrize(
    "spec",
    [
        "Z",
        "Q",
        "Zp[17]",
        "Zp[1000003]",
        "Zm[9]",
        "GF[17,3,t]",
        "GF[2,8,w]",
        "Frac(Poly(Zp[17]; x))",
        "Poly(Z; x)",
        "Poly(Zp[17]; x,y; GREVLEX)",
        "Poly(Zm[625]; x,y; GREVLEX)",
        "Poly(Q; a,b,c; LEX)",
        "Poly(GF[5,2,t]; u,v; GRLEX)",
        "Frac(Poly(Z; u,v; GRLEX))",
    ],
)
def test_ring_spec_round_trip(spec):
    ring = parse_ring(spec)
    assert parse_ring(ring.spec_string()) == ring


def test_frac_of_z_is_q():
    assert parse_ring("Frac(Z)") == rings.QQ
    assert parse_ring("Frac(Z)").spec_string() == "Q"


def test_gf_generator_name_defaults_to_t():
    assert parse_ring("GF[17,3]") == parse_ring("GF[17,3,t]")


def test_poly_single_variable_is_univariate():
    ring = parse_ring("Poly(Z; x)")
    assert isinstance(ring, UniRing)
    assert parse_ring("Poly(Zp[17]; x,y)").order.name == "GREVLEX"


def test_ring_spec_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_ring("Poly(Z)")
    assert e.value.position == 7
    with pytest.raises(ParseError):
        parse_ring("Zp[x]")
    with pytest.raises(ParseError):
        parse_ring("Poly(Z; x; SOMETHING)")
    with pytest.raises(ParseError):
        parse_ring("Q extra")
    with pytest.raises(ParseError):
        parse_ring("Hureka")


def test_ring_spec_construction_errors():
    with pytest.raises(UnsupportedRingError):
        parse_ring("Frac(Q)")  # fraction field of a field
    with pytest.raises(ValueError):
        parse_ring("Zp[4]")  # not a prime


# --------------------------------------------------------------- expressions


def test_integer_arithmetic_and_precedence():
    E = lambda s: parse_element(s, rings.ZZ)
    assert E("1 - 2 - 3") == -4
    assert E("2 - 3*4") == -10
    assert E("(1 + 2)*3") == 9
    assert E("-2^2") == -4  # ^ binds tighter than unary minus
    assert E("2*-3") == -6
    assert E("6/2") == 3


def test_no_implicit_multiplication():
    with pytest.raises(ParseError) as e:
        parse_element("x y", M())
    assert e.value.position == 3


def test_unknown_symbol_position():
    with pytest.raises(ParseError) as e:
        parse_element("w + 1", M())
    assert e.value.position == 1


def test_exponent_must_be_literal():
    with pytest.raises(ParseError):
        parse_element("x^y", M())
    with pytest.raises(ParseError):
        parse_element("x^(2)", M())
    with pytest.raises(ParseError):
        parse_element("x^-1", M())


def test_division_rules():
    assert parse_element("x/2", UniRing(rings.QQ, "x")) is not None
    with pytest.raises(ParseError):
        parse_element("x/2", UniRing(rings.ZZ, "x"))
    with pytest.raises(ParseError):
        parse_element("x/y", M())
    with pytest.raises(ParseError):
        parse_element("1/0", rings.QQ)
    # over Z/12 a quotient exists when gcd(divisor, 12) divides the dividend
    assert parse_element("5/7", rings.ZmRing(12)) == 11
    with pytest.raises(ParseError):
        parse_element("3/2", rings.ZmRing(12))
    v = parse_element("1/(3 - 3*x^2 - x^3 + x^5)", parse_ring("Frac(Poly(Zp[17]; x))"))
    assert v.den.degree == 5


def test_galois_field_expression():
    gf = GFRing(17, 3, "t")
    e = parse_element("1 + t^2", gf)
    assert gf.format(e) == "1 + t^2"


def test_expr_tree_shape():
    tree = parse_expr("1 + x*2")
    assert tree[0] == "add"
    assert tree[1] == ("int", 1, 1)
    assert tree[2][0] == "mul"


# ---------------------------------------------------------------- formatting


def test_format_reorders_to_the_monomial_order():
    ring = M()
    assert ring.format(parse_element("y + x", ring)) == "x + y"


def test_format_zero():
    assert M().format(M().zero) == "0"
    assert UniRing(rings.ZZ, "x").format(UniRing(rings.ZZ, "x").zero) == "0"


def test_format_univariate_ascending():
    R = UniRing(rings.ZZ, "x")
    assert R.format(R.of_coeffs([15, 7, 1])) == "15 + 7*x + x^2"
    assert R.format(R.of_coeffs([3, -2])) == "3 - 2*x"
    assert R.format(R.of_coeffs([0, 0, -1])) == "-x^2"
    assert R.format(R.of_coeffs([-5])) == "-5"


def test_format_fractions():
    q = rings.QQ.make
    assert rings.QQ.format(q(-10, 13)) == "(-10)/13"
    assert rings.QQ.format(q(184, 479)) == "184/479"
    assert rings.QQ.format(q(1, 8)) == "1/8"
    assert rings.QQ.format(q(5, 1)) == "5"
    RX = UniRing(K17, "x")
    F = rings.FractionField(RX)
    v = F.make(RX.of_coeffs([4]), RX.of_coeffs([16, 1]))
    assert F.format(v) == "4/(16 + x)"


def test_format_multivariate_respects_order():
    grev = MultiRing(rings.QQ, ("x", "y"), "GREVLEX")
    lex = MultiRing(rings.QQ, ("x", "y"), "LEX")
    f = "x^4*y + x^3*y^3"
    # identical support prints differently under the two orders: the lex
    # winner has the higher x power, the grevlex winner the higher total degree
    assert grev.format(parse_element(f, grev)) == "x^3*y^3 + x^4*y"
    assert lex.format(parse_element(f, lex)) == "x^4*y + x^3*y^3"


def test_format_wraps_composite_coefficients():
    gf = GFRing(2, 3, "t")
    R = UniRing(gf, "x")
    f = parse_element("(1 + t)*x + t^2", R)
    assert R.format(f) == "t^2 + (1 + t)*x"


# --------------------------------------------------------------- round trips


@pytest.mark.parametrize(
    "spec",
    [
        "Z",
        "Q",
        "Zp[17]",
        "Zp[1000003]",
        "Zm[9]",
        "GF[2,3,t]",
        "Poly(Z; x)",
        "Poly(Q; x)",
        "Poly(GF[2,3,t]; x)",
        "Poly(Zp[17]; x,y,z; GREVLEX)",
        "Poly(Q; x,y; LEX)",
        "Frac(Poly(Zp[17]; x))",
    ],
)
def test_parse_format_identity_1000_random_elements(spec):
    ring = parse_ring(spec)
    rng = random.Random(hash(spec) & 0xFFFF)
    for _ in range(1000):
        e = ring.random_element(rng)
        s = ring.format(e)
        assert parse_element(s, ring) == e, s
