import pytest

from planegalois.parsing import ParseError, parse_element, parse_poly, render_poly
from planegalois.polynomials import MultiPoly

XYZ = ("X", "Y", "Z")


def test_parse_the_quartic(Q):
    p = parse_poly("X^4 - 4*Z*Y*X^2 - Z*Y^3 + 2*Z^2*Y^2 - Y*Z^3", Q, XYZ)
    assert p.degree() == 4
    assert p.is_homogeneous()
    assert len(p.terms) == 5


def test_parse_zero(Q):
    p = parse_poly("0", Q, XYZ)
    assert p.is_zero()
    assert render_poly(p) == "0"


def test_parse_over_cyclotomic(Z5):
    p = parse_poly("u*v^6 - u^7", Z5, ("u", "v"))
    assert p.degree() == 7
    q = parse_poly("z^2*u + (1 + z)*v", Z5, ("u", "v"))
    z = Z5.generator()
    assert q.coefficient((1, 0)) == z * z
    assert q.coefficient((0, 1)) == Z5.one() + z


def test_juxtaposition_is_an_error(Q):
    with pytest.raises(ParseError) as err:
        parse_poly("2 X", Q, XYZ)
    assert "missing '*'" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly("X Y", Q, XYZ)
    with pytest.raises(ParseError):
        parse_poly("2(X + Y)", Q, XYZ)


def test_undeclared_variable(Q):
    with pytest.raises(ParseError) as err:
        parse_poly("X + t", Q, XYZ)
    assert "undeclared" in str(err.value)


def test_unknown_name(Q):
    with pytest.raises(ParseError):
        parse_poly("X + w", Q, XYZ)


def test_z_outside_cyclotomic(Q):
    with pytest.raises(ParseError) as err:
        parse_poly("z*X", Q, XYZ)
    assert "not an element" in str(err.value)


def test_error_position(Q):
    with pytest.raises(ParseError) as err:
        parse_poly("X^4 + ^3", Q, XYZ)
    assert err.value.position == 6


def test_fractional_coefficients(Q):
    p = parse_poly("1/2*X + 3/4", Q, ("X",))
    from fractions import Fraction

    assert p.coefficient((1,)) == Q.from_fraction(Fraction(1, 2))
    assert p.coefficient((0,)) == Q.from_fraction(Fraction(3, 4))
    with pytest.raises(ParseError):
        parse_poly("1/0", Q, ("X",))


def test_unary_minus_and_parens(Q):
    assert parse_poly("-X + Y", Q, XYZ) == parse_poly("Y - X", Q, XYZ)
    assert parse_poly("(X + Y)*(X - Y)", Q, XYZ) == parse_poly("X^2 - Y^2", Q, XYZ)
    assert parse_poly("(-1)*X", Q, XYZ) == -MultiPoly.variable(Q, XYZ, "X")
    # a sign after a binary operator is refused; README says to write X^3 - 2*Y^3
    with pytest.raises(ParseError, match="unexpected token '-'"):
        parse_poly("X^3 + -2*Y^3", Q, XYZ)


def test_parse_element(Z8, Q, F3):
    assert parse_element("z + z^3", Z8) == Z8.generator() + Z8.generator() ** 3
    assert parse_element("-3/2", Q) == Q.parse("-3/2")
    assert parse_element("2", F3) == F3.from_int(2)
    with pytest.raises(ParseError):
        parse_element("X", Q)


def test_whitespace_insignificant(Q):
    a = parse_poly("X ^ 2 +  Y * Z", Q, XYZ)
    b = parse_poly("X^2+Y*Z", Q, XYZ)
    assert a == b


def test_trailing_garbage(Q):
    with pytest.raises(ParseError):
        parse_poly("X + Y)", Q, XYZ)
    with pytest.raises(ParseError):
        parse_poly("X $ Y", Q, XYZ)


def test_render_parenthesizes_composite_coefficients(Z3):
    w = Z3.generator()
    p = MultiPoly(Z3, XYZ, {(1, 0, 0): Z3.one() + w, (0, 1, 0): -w})
    text = render_poly(p)
    assert parse_poly(text, Z3, XYZ) == p
