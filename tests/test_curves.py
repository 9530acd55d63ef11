import random

import pytest

from planegalois import curves
from planegalois.curves import (
    CURVE_VARS,
    PARAM_VARS,
    MultiplicityBoundResult,
    Parametrization,
    ProjPoint,
    curve_from_implicit,
    curve_from_parametrization,
    has_point_of_multiplicity_ge,
    implicitize,
    multiplicity_implicit,
    multiplicity_param,
    parametrization_from_affine,
)
from planegalois.linalg import mat_det, mat_vec
from planegalois.parsing import parse_poly
from planegalois.polynomials import MultiPoly, resultant, roots

QUARTIC = "X^4 - 4*Z*Y*X^2 - Z*Y^3 + 2*Z^2*Y^2 - Y*Z^3"
CUBIC = "X^3 - 3*X*Y*Z - Y^2*Z - Y*Z^2"


def _phi7(field):
    return Parametrization(
        [
            parse_poly("u*v^6 - u^7", field, PARAM_VARS),
            parse_poly("u^5*(u^2 + v^2)", field, PARAM_VARS),
            parse_poly("v^5*(u^2 + v^2)", field, PARAM_VARS),
        ]
    )


def test_proj_point_normalization(Q):
    p = ProjPoint(Q, [Q.from_int(2), Q.from_int(4), Q.from_int(-2)])
    assert p == ProjPoint.from_ints(Q, (1, 2, -1))
    with pytest.raises(ValueError):
        ProjPoint(Q, [Q.zero(), Q.zero(), Q.zero()])


def test_curve_from_implicit(Q, F3):
    c = curve_from_implicit(parse_poly(QUARTIC, Q, CURVE_VARS))
    assert c.degree == 4
    c3 = curve_from_implicit(parse_poly("X^3 - Y^2*X + Z^3", F3, CURVE_VARS))
    assert c3.degree == 3
    line = curve_from_implicit(parse_poly("X", Q, CURVE_VARS))
    assert line.degree == 1
    with pytest.raises(ValueError):
        curve_from_implicit(parse_poly("X^2 + Y", Q, CURVE_VARS))
    with pytest.raises(ValueError):
        curve_from_implicit(MultiPoly.zero(Q, CURVE_VARS))


def test_curve_from_parametrization(Q, Z5):
    cubic = curve_from_parametrization(
        [
            parse_poly("u*v^2 + u^2*v", Q, PARAM_VARS),
            parse_poly("u^3", Q, PARAM_VARS),
            parse_poly("v^3", Q, PARAM_VARS),
        ]
    )
    assert cubic.param.degree == 3
    deg7 = curve_from_parametrization(_phi7(Z5))
    assert deg7.param.degree == 7
    line = curve_from_parametrization(
        [
            parse_poly("u", Q, PARAM_VARS),
            parse_poly("v", Q, PARAM_VARS),
            MultiPoly.zero(Q, PARAM_VARS),
        ]
    )
    assert line.degree == 1
    assert line.implicit == MultiPoly.variable(Q, CURVE_VARS, "Z")
    with pytest.raises(ValueError):
        Parametrization([MultiPoly.zero(Q, PARAM_VARS)] * 3)
    with pytest.raises(ValueError):
        Parametrization(
            [
                parse_poly("u^2", Q, PARAM_VARS),
                parse_poly("2*u^2", Q, PARAM_VARS),
                parse_poly("3*u^2", Q, PARAM_VARS),
            ]
        )


def test_component_gcd_cleared(Q):
    phi = Parametrization(
        [
            parse_poly("u^2*(u + v)", Q, PARAM_VARS),
            parse_poly("u*v*(u + v)", Q, PARAM_VARS),
            parse_poly("v^2*(u + v)", Q, PARAM_VARS),
        ]
    )
    assert phi.degree == 2


def test_implicitize_cubic_and_quartic(Q):
    phi = parametrization_from_affine(
        [
            parse_poly("t + t^2", Q, ("t",)),
            parse_poly("t^3", Q, ("t",)),
            parse_poly("1", Q, ("t",)),
        ]
    )
    F = implicitize(phi)
    assert F == parse_poly(CUBIC, Q, CURVE_VARS).monic()
    phi4 = parametrization_from_affine(
        [
            parse_poly("t + t^3", Q, ("t",)),
            parse_poly("t^4", Q, ("t",)),
            parse_poly("1", Q, ("t",)),
        ]
    )
    F4 = implicitize(phi4)
    assert F4 == parse_poly(QUARTIC, Q, CURVE_VARS).monic()


def test_implicitize_verifies_by_substitution(Z5):
    phi = _phi7(Z5)
    F = implicitize(phi)
    assert F.degree() == 7
    pullback = F.substitute({v: f for v, f in zip(CURVE_VARS, phi.forms)})
    assert pullback.is_zero()


def _random_form(field, rng, degree):
    """Binary form of the given degree with a nonzero u^degree coefficient."""
    terms = {(j, degree - j): field.from_int(rng.randint(-3, 3)) for j in range(degree)}
    terms[(degree, 0)] = field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return MultiPoly(field, PARAM_VARS, {e: c for e, c in terms.items() if not c.is_zero()})


def _moving_line_resultant(phi):
    """Res_u(X*f3 - Z*f1, Y*f3 - Z*f2) of the forms dehomogenized at v = 1."""
    V = CURVE_VARS + ("u",)
    f1, f2, f3 = (
        MultiPoly(f.field, V, {(0, 0, 0, e[0]): c for e, c in f.terms.items()}) for f in phi.forms
    )
    X, Y, Z = (MultiPoly.variable(phi.field, V, v) for v in CURVE_VARS)
    return resultant(X * f3 - Z * f1, Y * f3 - Z * f2, "u").monic()


@pytest.mark.parametrize("name", ["Q", "Z3", "F7", "F3"])
def test_implicitize_matches_symbolic_resultant(name, request):
    # Seeded oracle: psi o h with psi of degree m and (h1, h2) of degree k is
    # birational for k = 1 and a k:1 cover otherwise, so the implicit form is
    # G^k; the moving-line resultant of Sederberg and Chen gives Z^e * G^k.
    field = request.getfixturevalue(name)
    rng = random.Random(f"implicitize-{name}")
    shapes = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3), (1, 2), (1, 3), (5, 1), (2, 1)]
    for m, k in shapes:
        while True:
            psi = [_random_form(field, rng, m) for _ in range(3)]
            h = {"u": _random_form(field, rng, k), "v": _random_form(field, rng, k)}
            try:
                phi = Parametrization([g.substitute(h) for g in psi])
            except ValueError:
                continue
            if all(not f.coefficient((phi.degree, 0)).is_zero() for f in phi.forms):
                break
        e = phi.degree
        Ze = MultiPoly.variable(field, CURVE_VARS, "Z") ** e
        F = implicitize(phi)
        assert (F * Ze).align(CURVE_VARS + ("u",)) == _moving_line_resultant(phi)


def test_implicitize_cover_is_a_power(Q):
    # (u^4, v^4, u^2 v^2) is 2:1 onto the conic X*Y = Z^2
    phi = Parametrization([parse_poly(t, Q, PARAM_VARS) for t in ("u^4", "v^4", "u^2*v^2")])
    assert phi.degree == 4
    assert implicitize(phi) == parse_poly("X^2*Y^2 - 2*X*Y*Z^2 + Z^4", Q, CURVE_VARS)


def test_multiplicity_implicit_examples(Q):
    quartic = curve_from_implicit(parse_poly(QUARTIC, Q, CURVE_VARS))
    assert multiplicity_implicit(quartic, ProjPoint.from_ints(Q, (1, 0, 0))) == 0
    transformed = curve_from_implicit(
        parse_poly("X^2*Y^2 + 6*X^2*Y*Z + X^2*Z^2 + 4*Y^2*Z^2", Q, CURVE_VARS)
    )
    assert multiplicity_implicit(transformed, ProjPoint.from_ints(Q, (1, 0, 0))) == 2
    cubic = curve_from_implicit(parse_poly(CUBIC, Q, CURVE_VARS))
    assert multiplicity_implicit(cubic, ProjPoint.from_ints(Q, (1, 0, 0))) == 0
    # smooth point on the quartic
    assert multiplicity_implicit(quartic, ProjPoint.from_ints(Q, (0, 0, 1))) == 1


def test_multiplicity_param_examples(Q, Z5):
    phi7 = _phi7(Z5)
    P = ProjPoint.from_ints(Z5, (1, 0, 0))
    assert multiplicity_param(phi7, P, trials=4, seed=0) == 2
    cubic_phi = Parametrization(
        [
            parse_poly("u*v^2 + u^2*v", Q, PARAM_VARS),
            parse_poly("u^3", Q, PARAM_VARS),
            parse_poly("v^3", Q, PARAM_VARS),
        ]
    )
    assert multiplicity_param(cubic_phi, ProjPoint.from_ints(Q, (1, 0, 0)), seed=0) == 0
    # a point away from the curve
    assert multiplicity_param(cubic_phi, ProjPoint.from_ints(Q, (5, 7, 1)), seed=0) == 0


def test_multiplicity_methods_agree_on_seeded_points(Z5):
    C = curve_from_parametrization(_phi7(Z5))
    rng = random.Random(12)
    points = [
        ProjPoint.from_ints(Z5, (1, 0, 0)),
        ProjPoint.from_ints(Z5, (0, 1, 0)),
        ProjPoint.from_ints(Z5, (0, 0, 1)),
    ]
    while len(points) < 20:
        triple = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(triple):
            points.append(ProjPoint.from_ints(Z5, triple))
    for P in points:
        assert multiplicity_implicit(C, P) == multiplicity_param(C.param, P, trials=5, seed=7)


def test_multiplicity_invariant_under_coordinate_changes(Q):
    quartic = curve_from_implicit(parse_poly(QUARTIC, Q, CURVE_VARS))
    from planegalois.maps import linear_pushforward

    rng = random.Random(4)
    P = ProjPoint.from_ints(Q, (0, 1, 1))
    base = multiplicity_implicit(quartic, P)
    assert base == 2
    for _ in range(10):
        M = [[Q.from_int(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        if mat_det(M, Q).is_zero():
            continue
        moved = linear_pushforward(quartic, M)
        assert multiplicity_implicit(moved, ProjPoint(Q, mat_vec(M, list(P.coords)))) == base


def test_double_point_budget(Q, Z5, Z8):
    # sum m(m-1) <= (d-1)(d-2) for rational curves, on the worked examples
    cases = []
    quartic = curve_from_implicit(parse_poly(QUARTIC, Z8, CURVE_VARS))
    is2 = Z8.parse("z + z^3")
    sing4 = [
        ProjPoint.from_ints(Z8, (0, 1, 1)),
        ProjPoint(Z8, [is2, -Z8.one(), Z8.one()]),
        ProjPoint(Z8, [is2, Z8.one(), -Z8.one()]),
    ]
    cases.append((quartic, sing4))
    deg7 = curve_from_parametrization(_phi7(Z5))
    sing7 = [ProjPoint.from_ints(Z5, (1, 0, 0)), ProjPoint.from_ints(Z5, (0, 1, 0))]
    cases.append((deg7, sing7))
    for curve, points in cases:
        d = curve.degree
        total = sum(
            m * (m - 1) for m in (multiplicity_implicit(curve, P) for P in points)
        )
        assert total <= (d - 1) * (d - 2)


def test_has_point_of_multiplicity_examples(Q, Z5):
    deg7 = curve_from_parametrization(_phi7(Z5))
    res = has_point_of_multiplicity_ge(deg7, 3, seed=0)
    assert res.verdict is False
    assert res.certificate["method"] == "pairwise Z-resultants, gcd 1"
    assert res.certificate["prime"] == Z5.split_prime_reduction().target.descriptor.p  # certified mod p
    assert has_point_of_multiplicity_ge(deg7, 3, seed=0) is res  # memoized on the curve

    transformed = curve_from_implicit(
        parse_poly("X^2*Y^2 + 6*X^2*Y*Z + X^2*Z^2 + 4*Y^2*Z^2", Q, CURVE_VARS)
    )
    res2 = has_point_of_multiplicity_ge(transformed, 2, seed=0)
    assert res2.verdict is True
    assert res2.witness == ProjPoint.from_ints(Q, (1, 0, 0))

    conic = curve_from_implicit(parse_poly("Y^2 - X*Z", Q, CURVE_VARS))
    res3 = has_point_of_multiplicity_ge(conic, 2, seed=0)
    assert res3.verdict is False


@pytest.mark.parametrize("name", ["Q", "Z5"])
def test_multiplicity_bound_falls_back_to_exact_search(name, request):
    field = request.getfixturevalue(name)
    p = field.split_prime_reduction().target.descriptor.p
    # X^2 + Y^2 + p*Z^2 is a smooth conic, but mod p it is the line pair
    # X^2 + Y^2 with a double point at [0:0:1]; with 1/p the prime divides
    # a coefficient's denominator.  Either way only the exact search can
    # answer, and it answers False.
    for c in (str(p), f"1/{p}"):
        conic = curve_from_implicit(parse_poly(f"X^2 + Y^2 + {c}*Z^2", field, CURVE_VARS))
        res = has_point_of_multiplicity_ge(conic, 2, seed=0)
        assert res.verdict is False
        assert res.certificate["method"] == "pairwise Z-resultants, gcd 1"
        assert "prime" not in res.certificate
        assert res.certificate["matrix"][0][0].field is field


def test_only_a_false_is_taken_modulo_the_split_prime(Q, monkeypatch):
    # the node [5:7:1] is off the candidate grid, so the resultants share a
    # factor modulo p as well; that ends the modular stage, and only the
    # exact stage searches for a witness
    calls = []
    gcds, witnesses = curves._resultant_gcd, curves._witness_search

    def record(name, fn):
        def wrapper(H, *args):
            calls.append((name, H[0].field.kind))
            return fn(H, *args)

        return wrapper

    monkeypatch.setattr(curves, "_resultant_gcd", record("gcd", gcds))
    monkeypatch.setattr(curves, "_witness_search", record("witness", witnesses))
    nodal = curve_from_implicit(parse_poly("(Y - 7*Z)^2*Z - (X - 5*Z)^2*(X - 4*Z)", Q, CURVE_VARS))
    res = has_point_of_multiplicity_ge(nodal, 2, seed=0)
    assert res.verdict is True and res.witness == ProjPoint.from_ints(Q, (5, 7, 1))
    assert calls[0] == ("gcd", "prime") and ("gcd", "prime") not in calls[1:]
    assert ("witness", "prime") not in calls and ("witness", "rational") in calls


def test_rational_root_tail_of_the_multiplicity_bound_search(Q):
    g = parse_poly("(2*x - 1)*(x + 3)*(x^2 + 1)", Q, ("x",)).to_poly1("x")
    assert roots(g) == ([Q.parse("-3"), Q.parse("1/2")], True)


def test_has_point_characteristic_guard(F3):
    cubic = curve_from_implicit(parse_poly("X^3 - Y^2*X + Z^3", F3, CURVE_VARS))
    with pytest.raises(ValueError):
        has_point_of_multiplicity_ge(cubic, 2, seed=0)


def test_implicitize_rank_failure_reported(Q):
    # a 2:1 cover of the line X = 0: the zero component pins the line, and
    # the shortcut returns X itself, not its square
    phi = Parametrization(
        [
            MultiPoly.zero(Q, PARAM_VARS),
            parse_poly("u^2", Q, PARAM_VARS),
            parse_poly("v^2", Q, PARAM_VARS),
        ]
    )
    F = implicitize(phi)
    assert F == MultiPoly.variable(Q, CURVE_VARS, "X")


def test_curve_contains(Q):
    quartic = curve_from_implicit(parse_poly(QUARTIC, Q, CURVE_VARS))
    assert quartic.contains(ProjPoint.from_ints(Q, (0, 1, 1)))
    assert not quartic.contains(ProjPoint.from_ints(Q, (1, 0, 0)))
