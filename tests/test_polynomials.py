import random
from fractions import Fraction

import pytest

from planegalois import polynomials
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
    roots,
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


GCD_FIELDS = ["Q", "Z5", "F7", "F2"]

# (ring variables, active variables, the variable y, homogeneous)
GCD_SHAPES = [
    (UV, ("u", "v"), "v", True),
    (XYZ, ("Y", "Z"), "Z", True),
    (XYZ, ("X", "Z"), "Z", True),
    (XYZ, ("X", "Y"), "Y", True),
    (XYZ, XYZ, "Z", True),
    (XYZ, XYZ, "Y", True),
    (("Y", "Z"), ("Y", "Z"), "Z", False),
    (("y",), ("y",), "y", False),
    (XYZ, ("X",), "X", False),
]


def _gcd_field(name, request):
    return make_field(FieldDescriptor.prime(2)) if name == "F2" else request.getfixturevalue(name)


def _coefficient(field, rng, low=-4, high=4):
    c = field.from_int(rng.randint(low, high))
    if field.kind == "cyclotomic":
        c = c + field.generator() * field.from_int(rng.randint(-2, 2))
    return c


def _linear_factors(field, rng, vars, active, y, homogeneous, count):
    """Up to `count` monic linear polynomials in the active variables
    (homogeneous, or with a constant term), pairwise non-proportional and
    none of them y."""
    forbidden = {MultiPoly.variable(field, vars, y)}
    out = []
    for _ in range(60):
        if len(out) == count:
            break
        terms = {}
        for v in active:
            e = [0] * len(vars)
            e[vars.index(v)] = 1
            terms[tuple(e)] = _coefficient(field, rng, -3, 3)
        if not homogeneous:
            terms[(0,) * len(vars)] = _coefficient(field, rng, -3, 3)
        L = MultiPoly(field, vars, terms)
        if L.is_constant():
            continue
        L = L.monic()
        if L not in forbidden:
            forbidden.add(L)
            out.append(L)
    return out


def _random_cofactor(field, rng, vars, active, homogeneous, degree):
    """A nonzero polynomial in the active variables: a form of the given
    degree, or any polynomial of total degree at most it."""
    terms = {}
    for _ in range(4):
        e = [0] * len(vars)
        for _ in range(degree if homogeneous else rng.randint(0, degree)):
            e[vars.index(rng.choice(active))] += 1
        terms[tuple(e)] = _coefficient(field, rng)
    C = MultiPoly(field, vars, terms)
    return C if not C.is_zero() else MultiPoly.one(field, vars)


def _product(field, vars, factors):
    out = MultiPoly.one(field, vars)
    for p in factors:
        out = out * p
    return out


@pytest.mark.parametrize("name", GCD_FIELDS)
def test_gcd_of_known_common_factor(name, request):
    # oracle by construction: f = A*C*y^i and g = B*C*y^j, where A and B are
    # products of pairwise non-proportional linear polynomials, none of them
    # y, so gcd(f, g) = C*y^min(i, j)
    field = _gcd_field(name, request)
    rng = random.Random(1000 + field.characteristic + 7 * len(name))
    for vars, active, y, homogeneous in GCD_SHAPES:
        y_poly = MultiPoly.variable(field, vars, y)
        for _ in range(6):
            lines = _linear_factors(field, rng, vars, active, y, homogeneous, rng.randint(0, 4))
            split = rng.randint(0, len(lines))
            A = _product(field, vars, lines[:split])
            B = _product(field, vars, lines[split:])
            C = _random_cofactor(field, rng, vars, active, homogeneous, rng.randint(0, 2))
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            f, g = A * C * y_poly**i, B * C * y_poly**j
            expected = (C * y_poly ** min(i, j)).monic()
            assert poly_gcd(f, g) == expected, (vars, active, f, g)
            assert poly_gcd(g, f) == expected, (vars, active, f, g)


def _random_binary_form(field, rng, degree):
    terms = {}
    for j in range(degree + 1):
        c = _coefficient(field, rng)
        if not c.is_zero():
            terms[(j, degree - j)] = c
    if not terms:
        terms[(degree, 0)] = field.one()
    return MultiPoly(field, UV, terms)


@pytest.mark.parametrize("name", GCD_FIELDS)
def test_gcd_cofactor_reconstruction_and_symmetry(name, request):
    field = _gcd_field(name, request)
    rng = random.Random(11)
    for _ in range(15):
        a = _random_binary_form(field, rng, rng.randint(1, 3))
        b = _random_binary_form(field, rng, rng.randint(1, 3))
        g1 = poly_gcd(a, b)
        g2 = poly_gcd(b, a)
        assert g1 == g2  # monic normalization kills the unit
        assert exact_div(a, g1) * g1 == a
        assert exact_div(b, g1) * g1 == b


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


def test_powers(Q, F3):
    f = P("X - 2*Y + 3*Z", Q)
    g = Poly1(F3, [F3.from_int(2), F3.one()])
    f_acc, g_acc = MultiPoly.one(Q, XYZ), Poly1.one(F3)
    for n in range(10):
        assert f**n == f_acc and g**n == g_acc
        f_acc, g_acc = f_acc * f, g_acc * g
    with pytest.raises(ValueError):
        f ** -1
    with pytest.raises(ValueError):
        g ** -1


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


@pytest.mark.parametrize(
    "name, known",
    [
        ("Q", ["-3", "1/2", "7/2"]),
        ("Z5", ["-2*z", "1/3*z^3", "z^2 + 1"]),  # ascending power-basis coordinates
        ("F1009", ["3", "500", "1000"]),
    ],
)
def test_roots_of_linear_factors_times_an_irreducible_cubic(name, known):
    # x^3 - 2 has no root in Q, in Q(zeta_5) (its roots have degree 3) or
    # in F_1009 (2 is not a cube mod 1009); one linear factor is squared
    if name == "Q":
        field = make_field(FieldDescriptor.rational())
    elif name == "Z5":
        field = make_field(FieldDescriptor.cyclotomic(5))
    else:
        field = make_field(FieldDescriptor.prime(1009))
    x = Poly1.x(field)
    expected = [field.parse(t) for t in known]
    g = Poly1(field, [field.from_int(-12), field.zero(), field.zero(), field.from_int(6)])  # 6 (x^3 - 2)
    for i, r in enumerate(expected):
        g = g * (x - Poly1.const(field, r)) ** (2 if i == 0 else 1)
    assert roots(g) == (expected, True)
    assert roots(Poly1(field, [field.from_int(-2), field.zero(), field.zero(), field.one()])) == ([], True)
    assert roots(Poly1(field, [field.from_int(5)])) == ([], True)
    assert roots(Poly1.zero(field)) == ([], False)


def test_roots_stay_incomplete_without_a_refuting_prime(Q):
    # one of 2, 3 and 6 is a square mod every prime, so (x^2 - 2)(x^2 - 3)(x^2 - 6)
    # has a root mod every prime and no root in Q: the count never proves 1 complete
    g = P("(x - 1)*(x^2 - 2)*(x^2 - 3)*(x^2 - 6)", Q, ("x",)).to_poly1("x")
    assert roots(g) == ([Q.one()], False)


@pytest.mark.parametrize("c", [-7, 2])
def test_roots_refute_a_non_square_before_any_lift(c, monkeypatch):
    # Q(zeta_19)'s only quadratic subfield is Q(sqrt(-19)), so c is not a
    # square; c is a square mod the first split prime (and 2 mod the second
    # too), and a non-square mod a later one of the first three
    field = make_field(FieldDescriptor.cyclotomic(19))
    ps = [field.split_prime_reduction(i).target.descriptor.p for i in range(3)]
    assert pow(c % ps[0], (ps[0] - 1) // 2, ps[0]) == 1
    assert any(pow(c % p, (p - 1) // 2, p) != 1 for p in ps[1:])
    lifts = []
    monkeypatch.setattr(polynomials, "lll_reduce", lambda basis: lifts.append(basis))
    g = Poly1(field, [field.from_int(-c), field.zero(), field.one()])
    assert roots(g) == ([], True)
    assert lifts == []


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_roots_mod_p_match_exhaustive_search(p):
    field = make_field(FieldDescriptor.prime(p))
    rng = random.Random(p)
    for _ in range(40):
        g = Poly1(field, [field.from_int(rng.randrange(p)) for _ in range(rng.randint(1, 8))])
        if g.is_zero():
            continue
        expected = [field.from_int(a) for a in range(p) if g.evaluate(field.from_int(a)).is_zero()]
        assert roots(g) == (expected, True)
