import random
from fractions import Fraction

import pytest

from planegalois.fields import FieldDescriptor, FieldMismatchError, make_field
from planegalois.parsing import parse_poly, render_poly
from planegalois.polynomials import (
    MultiPoly,
    NEG_INF,
    Poly1,
    RatFunc,
    exact_div,
    poly_gcd,
    resultant,
    sylvester_det,
)

XYZ = ("X", "Y", "Z")
UV = ("u", "v")


def P(text, field, vars=XYZ):
    return parse_poly(text, field, vars)


def test_zero_polynomial_degree_sentinel(Q):
    zero = MultiPoly.zero(Q, XYZ)
    assert zero.degree() is NEG_INF
    assert zero.degree() < 0
    assert zero.degree() != -1


def test_frobenius_cube_in_char3(F3):
    assert P("(X + Y)^3", F3, ("X", "Y")) == P("X^3 + Y^3", F3, ("X", "Y"))


def test_exact_div(Q):
    q = exact_div(P("X^2 - Y^2", Q, ("X", "Y")), P("X - Y", Q, ("X", "Y")))
    assert q == P("X + Y", Q, ("X", "Y"))
    with pytest.raises(ValueError):
        exact_div(P("X^2 + Y^2", Q, ("X", "Y")), P("X - Y", Q, ("X", "Y")))


def test_derivative(Q):
    f = P("X^4 - 4*Z*Y*X^2", Q)
    assert f.derivative("X") == P("4*X^3 - 8*Z*Y*X", Q)


def test_substitution_examples(Q, F3):
    # quartic affine equation vanishes on its parametrization
    f = parse_poly("x^4 - 4*y*x^2 - y^3 + 2*y^2 - y", Q, ("x", "y"))
    t = ("t",)
    image = f.substitute(
        {"x": parse_poly("t + t^3", Q, t), "y": parse_poly("t^4", Q, t)}
    )
    assert image.is_zero()
    # char-3 invariance under X -> X + Y
    F = P("X^3 - Y^2*X + Z^3", F3)
    moved = F.substitute({"X": P("X + Y", F3)})
    assert moved == F
    # identity substitution
    g = P("X^2*Y - Z^3", Q)
    assert g.substitute({}) == g


def test_substitution_is_homomorphic(Q):
    rng = random.Random(17)
    vars2 = ("x", "y")

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            terms[e] = Q.from_int(rng.randint(-5, 5))
        return MultiPoly(Q, vars2, {k: v for k, v in terms.items() if not v.is_zero()})

    images = {
        "x": parse_poly("t^2 + 1", Q, ("t",)),
        "y": parse_poly("t - 2", Q, ("t",)),
    }
    for _ in range(500):
        p, q = rand_poly(), rand_poly()
        left = (p * q).substitute(images)
        right = p.substitute(images) * q.substitute(images)
        assert left == right
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)


def test_gcd_examples(Q):
    f = P("u^5*(u^2 + v^2)", Q, UV)
    g = P("v^5*(u^2 + v^2)", Q, UV)
    assert poly_gcd(f, g) == P("u^2 + v^2", Q, UV)
    assert poly_gcd(f, MultiPoly.zero(Q, UV)) == f.monic()
    assert poly_gcd(P("u^6 - v^6", Q, UV), P("u^2 + v^2", Q, UV)) == MultiPoly.one(Q, UV)


def test_gcd_against_dehomogenized_euclid(Q, Z5):
    # independent oracle: monic Euclid on the dehomogenization
    rng = random.Random(3)
    for field in (Q, Z5):
        for _ in range(12):
            a = _random_binary_form(field, rng, rng.randint(1, 3))
            b = _random_binary_form(field, rng, rng.randint(1, 3))
            c = _random_binary_form(field, rng, rng.randint(0, 2))
            f, g = a * c, b * c
            got = poly_gcd(f, g)
            fa = f.to_poly1("u") if f.degree_in("v") in (NEG_INF, 0) else None
            # dehomogenize in v and run Euclid, then compare degrees plus divisibility
            t_f = _dehom(f, field)
            t_g = _dehom(g, field)
            euclid = t_f.gcd(t_g)
            v_val_f = _v_valuation(f)
            v_val_g = _v_valuation(g)
            expected_degree = int(euclid.degree()) + min(v_val_f, v_val_g)
            assert int(got.degree()) == expected_degree
            assert exact_div(f, got) * got == f
            assert exact_div(g, got) * got == g


def _random_binary_form(field, rng, degree):
    terms = {}
    for j in range(degree + 1):
        c = rng.randint(-4, 4)
        if c:
            terms[(j, degree - j)] = field.from_int(c)
    if not terms:
        terms[(degree, 0)] = field.one()
    return MultiPoly(field, UV, terms)


def _dehom(form, field):
    coeffs = {}
    for e, c in form.terms.items():
        coeffs[e[0]] = c
    top = max(coeffs)
    return Poly1(field, [coeffs.get(k, field.zero()) for k in range(top + 1)])


def _v_valuation(form):
    return int(form.degree()) - max(e[0] for e in form.terms)


def test_gcd_cofactor_reconstruction_and_symmetry(Q):
    rng = random.Random(11)
    for _ in range(15):
        a = _random_binary_form(Q, rng, rng.randint(1, 3))
        b = _random_binary_form(Q, rng, rng.randint(1, 3))
        g1 = poly_gcd(a, b)
        g2 = poly_gcd(b, a)
        assert g1 == g2  # monic normalization kills the unit
        assert exact_div(a, g1) * g1 == a


def test_resultant_implicitizes_cubic(Q):
    V = ("x", "y", "t")
    f = parse_poly("x - t - t^2", Q, V)
    g = parse_poly("y - t^3", Q, V)
    r = resultant(f, g, "t")
    # stated value up to sign/unit
    stated = parse_poly("y^2 - x^3 + 3*x*y + y", Q, V)
    assert r == stated or r == -stated
    # oracle: substituting the parametrization kills it
    sub = r.substitute(
        {"x": parse_poly("t + t^2", Q, ("t",)), "y": parse_poly("t^3", Q, ("t",))}
    )
    assert sub.is_zero()


def test_resultant_linear_and_self(Q):
    V = ("x", "u", "v")
    fa = parse_poly("x - u", Q, V)
    fb = parse_poly("x - v", Q, V)
    # documented convention: Res(x - a, x - b) = a - b
    assert resultant(fa, fb, "x") == parse_poly("u - v", Q, V)
    f = parse_poly("x - u - u^2", Q, V)
    assert resultant(f, f, "x").is_zero()
    # the remainder sequence drops from degree 2 straight to a constant
    a = parse_poly("u*x^3 + x + 1", Q, V)
    b = parse_poly("u*x^2 + 1", Q, V)
    assert resultant(a, b, "x") == resultant(b, a, "x") == parse_poly("u^3", Q, V)


def test_resultant_degenerate_inputs(Q):
    V = ("x", "y")
    with pytest.raises(ValueError):
        resultant(parse_poly("y", Q, V), parse_poly("x", Q, V), "x")


def test_resultant_multiplicativity(Q):
    rng = random.Random(23)
    V = ("x", "y")
    for _ in range(8):
        f = _random_univ(Q, rng, V, "x", rng.randint(1, 2))
        g = _random_univ(Q, rng, V, "x", rng.randint(1, 2))
        h = _random_univ(Q, rng, V, "x", rng.randint(1, 2))
        left = resultant(f, g * h, "x")
        right = resultant(f, g, "x") * resultant(f, h, "x")
        assert left == right


def _random_univ(field, rng, vars, main, degree):
    terms = {}
    i = vars.index(main)
    for k in range(degree + 1):
        c = rng.randint(-3, 3)
        if c or k == degree:
            e = [0] * len(vars)
            e[i] = k
            other = rng.randint(0, 1)
            e[1 - i] = other
            terms[tuple(e)] = field.from_int(c if c else 1)
    return MultiPoly(field, vars, terms)


def test_resultant_swap_sign(Q):
    rng = random.Random(31)
    V = ("x", "y")
    for df, dg in ((2, 3), (3, 3), (1, 3), (3, 1), (1, 1), (2, 2), (3, 5)) * 2:
        f = _random_univ(Q, rng, V, "x", df)
        g = _random_univ(Q, rng, V, "x", dg)
        a = resultant(f, g, "x")
        b = resultant(g, f, "x")
        assert not a.is_zero()
        assert b == (a if df * dg % 2 == 0 else -a)


def _random_poly(field, rng, degree, homogeneous):
    """Random polynomial in X, Y, Z of the given degree in Z, with a nonzero
    Z^degree term; cyclotomic coefficients use the generator."""
    terms = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                if homogeneous and a + b + c != degree:
                    continue
                if rng.random() < 0.7:
                    coeff = field.from_int(rng.randint(-3, 3))
                    if field.kind == "cyclotomic":
                        coeff = coeff + field.generator() * field.from_int(rng.randint(-2, 2))
                    terms[(a, b, c)] = coeff
    terms[(0, 0, degree)] = field.from_int(rng.randint(1, 2))
    return MultiPoly(field, XYZ, terms)


def _z_coefficients(p, point):
    by_power = p.univariate_coefficients("Z")
    return [by_power[k].evaluate(point) if k in by_power else p.field.zero() for k in range(p.degree_in("Z") + 1)]


@pytest.mark.parametrize("name", ["Q", "Z5", "F5", "F7"])
def test_resultant_specializes_to_sylvester_det(name, request):
    field = make_field(FieldDescriptor.prime(5)) if name == "F5" else request.getfixturevalue(name)
    rng = random.Random(len(name) * 101 + field.characteristic)
    shapes = [(3, 3, True), (2, 3, True), (1, 2, False), (2, 2, False)]
    points = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    for df, dg, homogeneous in shapes:
        f = _random_poly(field, rng, df, homogeneous)
        g = _random_poly(field, rng, dg, homogeneous)
        R = resultant(f, g, "Z")
        if homogeneous:
            assert R.is_zero() or R.is_homogeneous() and R.degree() == df * dg
        checked = 0
        for x, y in points:
            point = {"X": field.from_int(x), "Y": field.from_int(y), "Z": field.zero()}
            fc, gc = _z_coefficients(f, point), _z_coefficients(g, point)
            if fc[-1].is_zero() or gc[-1].is_zero():
                continue
            assert R.evaluate(point) == sylvester_det(fc, gc, field)
            checked += 1
        assert checked >= 5


def test_homogenize_dehomogenize(Q):
    affine = parse_poly("x^3 - 3*x*y - y^2 - y", Q, ("x", "y"))
    # rename to X, Y before homogenizing into Z
    F = parse_poly("X^3 - 3*X*Y - Y^2 - Y", Q, ("X", "Y")).homogenize("Z", 3)
    assert F == P("X^3 - 3*X*Y*Z - Y^2*Z - Y*Z^2", Q)
    quartic = P("X^4 - 4*Z*Y*X^2 - Z*Y^3 + 2*Z^2*Y^2 - Y*Z^3", Q)
    dehom = quartic.dehomogenize("Z")
    assert dehom == parse_poly("X^4 - 4*Y*X^2 - Y^3 + 2*Y^2 - Y", Q, ("X", "Y"))
    # round trip
    assert dehom.homogenize("Z", 4) == quartic
    one = MultiPoly.one(Q, ("X",))
    assert one.homogenize("Z", 0) == MultiPoly.one(Q, ("X", "Z"))
    with pytest.raises(ValueError):
        parse_poly("X^2", Q, ("X",)).homogenize("Z", 1)


def test_mixed_ring_rejected(Q, Z3):
    with pytest.raises(FieldMismatchError):
        P("X", Q) + P("X", Z3)


def test_poly1_divmod_and_xgcd(Q):
    a = parse_poly("y^4 - 1", Q, ("y",)).to_poly1("y")
    b = parse_poly("y^2 + 1", Q, ("y",)).to_poly1("y")
    q, r = divmod(a, b)
    assert r.is_zero()
    assert q == parse_poly("y^2 - 1", Q, ("y",)).to_poly1("y")
    g, s, t = a.xgcd(b)
    assert (s * a + t * b) == g


def test_ratfunc_arithmetic(Q):
    y = Poly1.x(Q)
    one = Poly1.one(Q)
    r = RatFunc(y * y - one, y - one)  # reduces to y + 1
    assert r.is_polynomial()
    assert r.num == y + one
    s = RatFunc(one, y)
    total = r + s
    assert total == RatFunc(y * y + y + one, y)
    assert (s * s.inverse()) == RatFunc.from_poly(one)


def test_parser_renderer_roundtrip_random(Q, Z3, F3):
    rng = random.Random(71)
    for field in (Q, Z3, F3):
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
                if field.kind == "cyclotomic":
                    c = field.from_coords(
                        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(field.phi)]
                    )
                else:
                    c = field.from_int(rng.randint(-9, 9))
                if not c.is_zero():
                    terms[e] = c
            p = MultiPoly(field, XYZ, terms)
            assert parse_poly(render_poly(p), field, XYZ) == p
