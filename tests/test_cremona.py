import random

import pytest

from planegalois.cremona import (
    ChainStep,
    ChainTransport,
    ReductionChain,
    conic_lift,
    conjugate_extension,
    kodaira_pairing,
    line_equivalence_decision,
    quadratic_at_three_points,
)
from planegalois.curves import (
    CURVE_VARS,
    PARAM_VARS,
    Parametrization,
    PlaneCurve,
    ProjPoint,
    curve_from_implicit,
    curve_from_parametrization,
    parametrization_from_affine,
    substitute_matrix,
)
from planegalois.linalg import mat_det, mat_inv, mat_mul
from planegalois.maps import LineMobius, PlaneRationalMap, proportional_eq
from planegalois.parsing import parse_poly

QUARTIC = "X^4 - 4*Z*Y*X^2 - Z*Y^3 + 2*Z^2*Y^2 - Y*Z^3"


def _quartic_chain(Z8):
    is2 = Z8.parse("z + z^3")
    s2 = Z8.parse("z - z^3")
    i = Z8.parse("z^2")
    two = Z8.from_int(2)
    phi = parametrization_from_affine(
        [
            parse_poly("t + t^3", Z8, ("t",)),
            parse_poly("t^4", Z8, ("t",)),
            parse_poly("1", Z8, ("t",)),
        ]
    )
    C = PlaneCurve(Z8, parse_poly(QUARTIC, Z8, CURVE_VARS).monic(), phi)
    T_inv = [
        [Z8.zero(), is2, is2],
        [two, -Z8.one(), Z8.one()],
        [two, Z8.one(), -Z8.one()],
    ]
    M_pub = [
        [Z8.from_int(4) * i, Z8.zero(), -i],
        [Z8.zero(), two * s2, Z8.zero()],
        [Z8.from_int(8), Z8.from_int(-6) * s2, two],
    ]
    e = [ProjPoint.from_ints(Z8, tuple(1 if j == k else 0 for j in range(3))) for k in range(3)]
    steps = [
        ChainStep.linear(mat_inv(T_inv, Z8)),
        ChainStep.quadratic_at(*e),
        ChainStep.linear(mat_inv(M_pub, Z8)),
    ]
    return C, phi, ReductionChain(C, steps)


def test_kodaira_pairing_examples():
    rep = kodaira_pairing(4, (2, 2, 2))
    assert rep.pairing == -2
    assert rep.line_equivalence_guaranteed
    assert rep.per_point == (0, 0, 0)
    rep7 = kodaira_pairing(7, (2, 2))
    assert rep7.pairing == 1
    assert not rep7.line_equivalence_guaranteed
    line = kodaira_pairing(1, ())
    assert line.pairing == -5 and line.line_equivalence_guaranteed
    with pytest.raises(ValueError):
        kodaira_pairing(0, ())
    with pytest.raises(ValueError):
        kodaira_pairing(3, (-1,))


def test_line_equivalence_decision(Q, Z5):
    quartic = curve_from_parametrization(
        parametrization_from_affine(
            [
                parse_poly("t + t^3", Q, ("t",)),
                parse_poly("t^4", Q, ("t",)),
                parse_poly("1", Q, ("t",)),
            ]
        )
    )
    assert line_equivalence_decision(quartic) == "equivalent_to_line"
    deg7 = curve_from_parametrization(
        Parametrization(
            [
                parse_poly("u*v^6 - u^7", Z5, PARAM_VARS),
                parse_poly("u^5*(u^2 + v^2)", Z5, PARAM_VARS),
                parse_poly("v^5*(u^2 + v^2)", Z5, PARAM_VARS),
            ]
        )
    )
    assert line_equivalence_decision(deg7) == "unknown"
    conic = curve_from_parametrization(
        Parametrization(
            [
                parse_poly("u^2", Q, PARAM_VARS),
                parse_poly("u*v", Q, PARAM_VARS),
                parse_poly("v^2", Q, PARAM_VARS),
            ]
        )
    )
    assert line_equivalence_decision(conic) == "equivalent_to_line"
    implicit_only = curve_from_implicit(parse_poly("Y^2 - X*Z", Q, CURVE_VARS))
    with pytest.raises(ValueError):
        line_equivalence_decision(implicit_only)


def test_quadratic_at_three_points(Q, Z8):
    transformed = curve_from_implicit(
        parse_poly("X^2*Y^2 + 6*X^2*Y*Z + X^2*Z^2 + 4*Y^2*Z^2", Z8, CURVE_VARS)
    )
    e = [ProjPoint.from_ints(Z8, tuple(1 if j == k else 0 for j in range(3))) for k in range(3)]
    image, step = quadratic_at_three_points(transformed, *e)
    assert proportional_eq(
        (image.implicit,), (parse_poly("4*X^2 + Y^2 + 6*Y*Z + Z^2", Z8, CURVE_VARS),)
    )

    # the original quartic at its own singular points drops to a conic
    is2 = Z8.parse("z + z^3")
    quartic = curve_from_implicit(parse_poly(QUARTIC, Z8, CURVE_VARS))
    p1 = ProjPoint.from_ints(Z8, (0, 1, 1))
    p2 = ProjPoint(Z8, [is2, -Z8.one(), Z8.one()])
    p3 = ProjPoint(Z8, [is2, Z8.one(), -Z8.one()])
    image2, _ = quadratic_at_three_points(quartic, p1, p2, p3)
    assert image2.degree == 2

    # any conic through three of its points maps to a line
    conic = curve_from_implicit(parse_poly("Y^2 - X*Z", Q, CURVE_VARS))
    q1 = ProjPoint.from_ints(Q, (1, 0, 0))
    q2 = ProjPoint.from_ints(Q, (0, 0, 1))
    q3 = ProjPoint.from_ints(Q, (1, 1, 1))
    line, _ = quadratic_at_three_points(conic, q1, q2, q3)
    assert line.degree == 1

    # collinear points are rejected
    with pytest.raises(ValueError):
        quadratic_at_three_points(
            conic, q1, q2, ProjPoint.from_ints(Q, (1, 0, 1))
        )
    # points off the curve are rejected
    with pytest.raises(ValueError):
        quadratic_at_three_points(conic, q1, q2, ProjPoint.from_ints(Q, (1, 5, 1)))


def test_conic_lift_examples(Q):
    ident = conic_lift(LineMobius.identity(Q))
    for r in range(3):
        for c in range(3):
            assert ident[r][c] == (Q.one() if r == c else Q.zero())
    a, d = Q.from_int(3), Q.from_int(5)
    diag = conic_lift(LineMobius.diagonal(Q, a, d))
    flat = [x for row in diag for x in row]
    expect = [a * a, Q.zero(), Q.zero(), Q.zero(), a * d, Q.zero(), Q.zero(), Q.zero(), d * d]
    assert proportional_eq(flat, expect)
    swap = conic_lift(LineMobius(Q, ((Q.zero(), Q.one()), (Q.one(), Q.zero()))))
    conic = parse_poly("Y^2 - X*Z", Q, CURVE_VARS)
    assert proportional_eq((substitute_matrix(conic, swap),), (conic,))


def test_conic_lift_homomorphism_and_invariance(Q):
    rng = random.Random(6)
    conic = parse_poly("Y^2 - X*Z", Q, CURVE_VARS)

    def random_mobius():
        while True:
            entries = [Q.from_int(rng.randint(-5, 5)) for _ in range(4)]
            try:
                return LineMobius(Q, ((entries[0], entries[1]), (entries[2], entries[3])))
            except ValueError:
                continue

    for _ in range(20):
        g, h = random_mobius(), random_mobius()
        left = conic_lift(g.compose(h))
        right = mat_mul(conic_lift(g), conic_lift(h))
        assert proportional_eq(
            [x for row in left for x in row], [x for row in right for x in row]
        )
        assert proportional_eq((substitute_matrix(conic, conic_lift(g)),), (conic,))
        # commuting square: rho o g = lift(g) o rho
        u = parse_poly("u", Q, PARAM_VARS)
        v = parse_poly("v", Q, PARAM_VARS)
        rho = (u * u, u * v, v * v)
        rho_g = tuple(g.substitute_into(f) for f in rho)
        lift_rho = tuple(
            sum(
                (rho[j].scale(conic_lift(g)[i][j]) for j in range(3)),
                start=parse_poly("0", Q, PARAM_VARS),
            )
            for i in range(3)
        )
        assert proportional_eq(rho_g, lift_rho)


def test_chain_replay_and_stages(Z8):
    C, phi, chain = _quartic_chain(Z8)
    stages = [s.implicit.monic() for s in chain.stages]
    assert stages[1] == parse_poly(
        "X^2*Y^2 + 6*X^2*Y*Z + X^2*Z^2 + 4*Y^2*Z^2", Z8, CURVE_VARS
    ).monic()
    assert proportional_eq(
        (stages[2],), (parse_poly("4*X^2 + Y^2 + 6*Y*Z + Z^2", Z8, CURVE_VARS),)
    )
    assert proportional_eq((stages[3],), (parse_poly("Y^2 - X*Z", Z8, CURVE_VARS),))


def test_conjugate_extension_trivial_cases(Q):
    rng = random.Random(13)
    conic = curve_from_implicit(parse_poly("Y^2 - X*Z", Q, CURVE_VARS))
    phi = Parametrization(
        [
            parse_poly("u^2", Q, PARAM_VARS),
            parse_poly("u*v", Q, PARAM_VARS),
            parse_poly("v^2", Q, PARAM_VARS),
        ]
    )
    conic = PlaneCurve(Q, conic.implicit, phi)
    empty = ReductionChain(conic, [])
    A = conic_lift(LineMobius.diagonal(Q, Q.from_int(2), Q.one()))
    J = conjugate_extension(empty, A)
    assert J == PlaneRationalMap.from_matrix(Q, A)

    # single linear step: the conjugation is M^-1 A M
    while True:
        M = [[Q.from_int(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        if not mat_det(M, Q).is_zero():
            break
    moved_conic = ReductionChain(
        PlaneCurve(Q, conic.implicit, phi), [ChainStep.linear(M)]
    )
    A_end = conic_lift(LineMobius.diagonal(Q, Q.from_int(2), Q.one()))
    # conjugate A_end into the end coordinates so it preserves the end curve
    A_conj = mat_mul(mat_mul(M, A_end), mat_inv(M, Q))
    J2 = conjugate_extension(moved_conic, A_conj)
    expected = mat_mul(mat_mul(mat_inv(M, Q), A_conj), M)
    assert J2 == PlaneRationalMap.from_matrix(Q, expected)


def test_conjugate_extension_quartic(Z8):
    C, phi, chain = _quartic_chain(Z8)
    i = Z8.parse("z^2")
    F = C.implicit
    from planegalois.polynomials import divides

    transport = ChainTransport(chain, phi)
    for power in (1, 3):
        g = LineMobius.diagonal(Z8, i**power, Z8.one())
        A = transport.end_automorphism(g)
        assert A is not None
        J = conjugate_extension(chain, A)
        sub = {v: c for v, c in zip(CURVE_VARS, J.components)}
        assert divides(F, F.substitute(sub))
        left = J.apply_to_param(phi)
        right = Parametrization([g.substitute_into(f) for f in phi.forms])
        assert proportional_eq(left.forms, right.forms)


def test_end_automorphism_must_preserve_end_curve(Q):
    conic = curve_from_implicit(parse_poly("Y^2 - X*Z", Q, CURVE_VARS))
    phi = Parametrization(
        [
            parse_poly("u^2", Q, PARAM_VARS),
            parse_poly("u*v", Q, PARAM_VARS),
            parse_poly("v^2", Q, PARAM_VARS),
        ]
    )
    chain = ReductionChain(PlaneCurve(Q, conic.implicit, phi), [])
    bad = [[Q.one(), Q.one(), Q.zero()], [Q.zero(), Q.one(), Q.zero()], [Q.zero(), Q.zero(), Q.one()]]
    with pytest.raises(ValueError):
        conjugate_extension(chain, bad)


@pytest.mark.parametrize("name", ["Q", "Z8", "F7"])
def test_mobius_from_conic_param(name, request):
    field = request.getfixturevalue(name)
    from planegalois.cremona import _mobius_from_conic_param, _rho_of

    rng = random.Random(29)
    ints = [((1, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 1), (1, 1)), ((2, 3), (-1, 4))]
    while len(ints) < 12:
        entries = ((rng.randint(-4, 4), rng.randint(-4, 4)), (rng.randint(-4, 4), rng.randint(-4, 4)))
        if (entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]) % 7:
            ints.append(entries)
    for k, rows in enumerate(ints):
        mu = LineMobius(field, [[field.from_int(x) for x in row] for row in rows])
        scale = field.from_int(k % 5 + 2)
        h = Parametrization([f.scale(scale) for f in _rho_of(mu)])
        found = _mobius_from_conic_param(h)
        assert found is not None
        assert proportional_eq(_rho_of(found), h.forms)
    # (u^2, v^2, uv) is not rho o mu for any mu
    not_conic = Parametrization([parse_poly(t, field, PARAM_VARS) for t in ("u^2", "v^2", "u*v")])
    assert _mobius_from_conic_param(not_conic) is None
