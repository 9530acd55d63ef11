import random

import pytest

from planegalois import galois
from planegalois.curves import (
    CURVE_VARS,
    PARAM_VARS,
    Parametrization,
    PlaneCurve,
    ProjPoint,
    curve_from_implicit,
    curve_from_parametrization,
    move_point_first,
    parametrization_from_affine,
)
from planegalois.galois import (
    _verify_jonquieres,
    _witness_checks,
    cubic_sigma_polynomial_form,
    deck_group_from_candidates,
    deck_verify,
    default_degree_bound,
    extension_verdict,
    galois_test_low_degree,
    jonquieres_builder,
    lemma31_formulas,
    linear_extension_solver,
    mobius_solver,
    parameter_data,
    project_param,
    projection_model,
)
from planegalois.linalg import mat_det, mat_inv, mat_vec
from planegalois.maps import LineMobius, MobiusOverBase, PlaneRationalMap, proportional_eq
from planegalois.parsing import parse_poly
from planegalois.polynomials import MultiPoly, Poly1, RatFunc, divides
from planegalois.scenarios import load_scenario

QUARTIC = "X^4 - 4*Z*Y*X^2 - Z*Y^3 + 2*Z^2*Y^2 - Y*Z^3"


def _cubic_scenario(field):
    phi = Parametrization(
        [
            parse_poly("u*v^2 + u^2*v", field, PARAM_VARS),
            parse_poly("u^3", field, PARAM_VARS),
            parse_poly("v^3", field, PARAM_VARS),
        ]
    )
    return curve_from_parametrization(phi), ProjPoint.from_ints(field, (1, 0, 0))


def _quartic_scenario(field):
    phi = parametrization_from_affine(
        [
            parse_poly("t + t^3", field, ("t",)),
            parse_poly("t^4", field, ("t",)),
            parse_poly("1", field, ("t",)),
        ]
    )
    curve = PlaneCurve(field, parse_poly(QUARTIC, field, CURVE_VARS).monic(), phi)
    return curve, ProjPoint.from_ints(field, (1, 0, 0))


def _quintic_scenario(field):
    phi = Parametrization(
        [
            parse_poly("u*v^6 - u^7", field, PARAM_VARS),
            parse_poly("u^5*(u^2 + v^2)", field, PARAM_VARS),
            parse_poly("v^5*(u^2 + v^2)", field, PARAM_VARS),
        ]
    )
    return curve_from_parametrization(phi), ProjPoint.from_ints(field, (1, 0, 0))


def _char3_scenario(field):
    phi = Parametrization(
        [
            parse_poly("v^3", field, PARAM_VARS),
            parse_poly("u^3", field, PARAM_VARS),
            parse_poly("u^2*v - v^3", field, PARAM_VARS),
        ]
    )
    curve = PlaneCurve(field, parse_poly("X^3 - Y^2*X + Z^3", field, CURVE_VARS).monic(), phi)
    return curve, ProjPoint.from_ints(field, (1, 0, 0))


def test_projection_model_degrees(Q, Z8, Z5):
    quartic, P4 = _quartic_scenario(Z8)
    assert projection_model(quartic, P4).ext_degree == 4
    deg7, P7 = _quintic_scenario(Z5)
    model7 = projection_model(deg7, P7)
    assert model7.multiplicity == 2
    assert model7.ext_degree == 5
    conic = curve_from_implicit(parse_poly("X^2 - Y*Z", Q, CURVE_VARS))
    model = projection_model(conic, ProjPoint.from_ints(Q, (0, 1, 0)))
    assert model.ext_degree == 1  # the center lies on the conic
    line = curve_from_implicit(parse_poly("Y - Z", Q, CURVE_VARS))
    with pytest.raises(ValueError):
        projection_model(line, ProjPoint.from_ints(Q, (1, 0, 0)))


def test_psi_degree_matches_extension_degree(Q, Z3, Z5, Z8, F3):
    for build, field, expected in (
        (_cubic_scenario, Z3, 3),
        (_char3_scenario, F3, 3),
        (_quartic_scenario, Z8, 4),
        (_quintic_scenario, Z5, 5),
    ):
        curve, P = build(field)
        a, b = project_param(curve.param, P)
        n = max(int(a.degree()), int(b.degree()))
        assert n == expected
        assert projection_model(curve, P).ext_degree == expected


def test_deck_verify_examples(Z4, Z8, F3, Q):
    quartic, P = _quartic_scenario(Z8)
    i = Z8.parse("z^2")
    assert deck_verify(project_param(quartic.param, P), LineMobius.diagonal(Z8, i, Z8.one()))
    char3, P3 = _char3_scenario(F3)
    g3 = LineMobius(F3, ((F3.one(), F3.zero()), (F3.one(), F3.one())))
    assert deck_verify(project_param(char3.param, P3), g3)
    cubic, Pc = _cubic_scenario(Q)
    assert deck_verify(project_param(cubic.param, Pc), LineMobius.identity(Q))
    # a non-deck transformation fails
    assert not deck_verify(
        project_param(quartic.param, P), LineMobius.diagonal(Z8, Z8.from_int(2), Z8.one())
    )


def test_deck_group_certificates(Z8, Z5, Q):
    quartic, P = _quartic_scenario(Z8)
    i = Z8.parse("z^2")
    cert = deck_group_from_candidates(quartic.param, P, [LineMobius.diagonal(Z8, i, Z8.one())])
    assert cert.verdict == "galois" and len(cert.group) == 4
    deg7, P7 = _quintic_scenario(Z5)
    cert5 = deck_group_from_candidates(
        deg7.param, P7, [LineMobius.diagonal(Z5, Z5.generator(), Z5.one())]
    )
    assert cert5.verdict == "galois" and len(cert5.group) == 5
    # over Q the cubic deck cannot be exhibited
    cubic, Pc = _cubic_scenario(Q)
    cert_q = deck_group_from_candidates(cubic.param, Pc, [LineMobius.identity(Q)])
    assert cert_q.verdict == "undetermined"


def test_galois_low_degree_quadratic(Q):
    conic = curve_from_implicit(parse_poly("X^2 - Y*Z", Q, CURVE_VARS))
    model = projection_model(conic, ProjPoint.from_ints(Q, (1, 0, 0)))
    assert model.fiber_poly == parse_poly("X^2 - Y", Q, ("X", "Y"))
    cert = galois_test_low_degree(model)
    assert cert.verdict == "galois"


def test_galois_low_degree_cubics(Q, Z3):
    # the cubic lemma's curve: Galois over Q(zeta_3), not over Q
    for field, expected in ((Z3, "galois"), (Q, "not_galois")):
        curve, P = _cubic_scenario(field)
        cert = galois_test_low_degree(projection_model(curve, P))
        assert cert.verdict == expected
        disc = cert.details["discriminant"]
        stated = parse_poly("-27*y^4 + 54*y^3 - 27*y^2", field, ("y",)).to_poly1("y")
        assert disc.num == stated and disc.den.degree() == 0
    # x^3 + yx + y: discriminant -y^2(4y + 27) is not a square
    curve = curve_from_implicit(parse_poly("X^3 + X*Y*Z + Y*Z^2", Q, CURVE_VARS))
    model = projection_model(curve, ProjPoint.from_ints(Q, (1, 0, 0)))
    assert model.fiber_poly == parse_poly("X^3 + X*Y + Y", Q, ("X", "Y"))
    cert = galois_test_low_degree(model)
    assert cert.verdict == "not_galois"
    disc = cert.details["discriminant"]
    assert disc.num == parse_poly("-4*y^3 - 27*y^2", Q, ("y",)).to_poly1("y")


def test_discriminant_against_resultant_oracle(Q):
    # independent oracle: disc(f) = -Res_x(f, f') for a monic cubic
    from planegalois.polynomials import resultant

    curve = curve_from_implicit(parse_poly("X^3 + X*Y*Z + Y*Z^2", Q, CURVE_VARS))
    model = projection_model(curve, ProjPoint.from_ints(Q, (1, 0, 0)))
    cert = galois_test_low_degree(model)
    disc = cert.details["discriminant"]
    f = model.fiber_poly
    res = resultant(f, f.derivative("X"), "X").to_poly1("Y")
    assert disc.den.degree() == 0
    assert disc.num == -res


def test_express_sigma_examples(Z8, Z3, Q):
    quartic, P = _quartic_scenario(Z8)
    i = Z8.parse("z^2")
    x_t, sx_t, _ = parameter_data(quartic.param, P, LineMobius.diagonal(Z8, i, Z8.one()))
    # x(t) = t + t^3, sigma(x)(t) = i t - i t^3
    expect_x = parse_poly("t + t^3", Z8, ("t",)).to_poly1("t")
    expect_sx = (parse_poly("z^2*t - z^2*t^3", Z8, ("t",))).to_poly1("t")
    assert x_t.num == expect_x and x_t.den.degree() == 0
    assert sx_t.num.monic() == expect_sx.monic()
    cubic, Pc = _cubic_scenario(Z3)
    w = Z3.generator()
    xc, sxc, _ = parameter_data(cubic.param, Pc, LineMobius.diagonal(Z3, w, Z3.one()))
    assert xc.num == parse_poly("t + t^2", Z3, ("t",)).to_poly1("t")
    assert sxc.num.monic() == parse_poly("z*t + z^2*t^2", Z3, ("t",)).to_poly1("t").monic()
    # identity deck
    x_id, sx_id, _ = parameter_data(cubic.param, Pc, LineMobius.identity(Z3))
    assert x_id == sx_id


def test_mobius_solver_cubic_matches_paper(Z3):
    cubic, P = _cubic_scenario(Z3)
    w = Z3.generator()
    g = LineMobius.diagonal(Z3, w, Z3.one())
    model = projection_model(cubic, P)
    x_t, sx_t, psi_t = parameter_data(cubic.param, P, g)
    sol = mobius_solver(x_t, sx_t, psi_t, Z3, default_degree_bound(model))
    assert sol.found()
    paper = MobiusOverBase(
        (
            parse_poly("y - z", Z3, ("y",)).to_poly1("y"),
            parse_poly("(1 - z)*y", Z3, ("y",)).to_poly1("y"),
            parse_poly("z - 1", Z3, ("y",)).to_poly1("y"),
            parse_poly("z*y - 1", Z3, ("y",)).to_poly1("y"),
        )
    )
    assert sol.mobius.proportional_to(paper)


def test_mobius_solver_quartic_refutation(Z8):
    quartic, P = _quartic_scenario(Z8)
    i = Z8.parse("z^2")
    x_t, sx_t, psi_t = parameter_data(quartic.param, P, LineMobius.diagonal(Z8, i, Z8.one()))
    sol = mobius_solver(x_t, sx_t, psi_t, Z8, 3)
    assert sol.status in ("none_up_to_bound", "none_proven")
    assert sol.mobius is None
    # sigma^2 : x -> -x is fractional linear
    sol2 = mobius_solver(
        *parameter_data(quartic.param, P, LineMobius.diagonal(Z8, -Z8.one(), Z8.one())),
        Z8,
        3,
    )
    assert sol2.found()
    alpha, beta, gamma, delta = sol2.mobius.entries
    assert beta.is_zero() and gamma.is_zero()


def test_mobius_solver_defers_above_the_bound(Z3):
    # the graded solver finds sigma's degree-1 map; below that degree the ansatz answers
    scenario = load_scenario("cubic-omega")
    C, P, g = scenario.curve, scenario.point, scenario.generators[0]
    x_t, sx_t, psi_t = parameter_data(C.param, P, g)
    assert mobius_solver(x_t, sx_t, psi_t, Z3, 0).status == "none_up_to_bound"
    sol = mobius_solver(x_t, sx_t, psi_t, Z3, 1)
    assert sol.found()
    assert max(int(r.degree()) for r in sol.mobius.entries if not r.is_zero()) <= 1


def test_mobius_solver_proves_none_off_the_diagonal():
    # quartic-i reparametrized by u -> u + v: the generator nu^-1 g nu is not
    # diagonal and psi no longer factors through t -> t^4, yet sigma's
    # refutation is proven and sigma^2 is still x -> -x
    scenario = load_scenario("quartic-i")
    field, P, g = scenario.field, scenario.point, scenario.generators[0]
    nu = LineMobius(field, ((field.one(), field.one()), (field.zero(), field.one())))
    phi = Parametrization([nu.substitute_into(f) for f in scenario.curve.param.forms])
    h = nu.inverse().compose(g).compose(nu)
    assert deck_verify(project_param(phi, P), h)
    assert mobius_solver(*parameter_data(phi, P, h), field, 3).status == "none_proven"
    x_t, sx_t, psi_t = parameter_data(phi, P, h.compose(h))
    sol = mobius_solver(x_t, sx_t, psi_t, field, 3)
    assert sol.found()
    alpha, beta, gamma, delta = sol.mobius.entries
    assert beta.is_zero() and gamma.is_zero() and alpha == -delta
    _assert_congruence(sol.mobius, x_t, sx_t, psi_t, field)


def test_mobius_solver_degree_bound_on_a_double_cover(Q):
    # phi = (u^2 + uv + 2v^2, u^2, v^2) from [1:0:0] is the double cover
    # y = t^2, and u -> -u maps x = y + 2 + t to -x + 2y + 4: its least
    # witness has degree 1, so the bound D means degree <= D
    phi = Parametrization([parse_poly(f, Q, PARAM_VARS) for f in ("u^2 + u*v + 2*v^2", "u^2", "v^2")])
    P = ProjPoint.from_ints(Q, (1, 0, 0))
    g = LineMobius.diagonal(Q, -Q.one(), Q.one())
    assert deck_verify(project_param(phi, P), g)
    x_t, sx_t, psi_t = parameter_data(phi, P, g)
    assert psi_t.degree_as_map() == 2
    assert mobius_solver(x_t, sx_t, psi_t, Q, 0).status == "none_up_to_bound"
    sol = mobius_solver(x_t, sx_t, psi_t, Q, 1)
    assert sol.found()
    assert max(int(r.degree()) for r in sol.mobius.entries if not r.is_zero()) <= 1
    _assert_congruence(sol.mobius, x_t, sx_t, psi_t, Q)


@pytest.mark.parametrize("p", [0, 2])
def test_nondegenerate_members(p):
    from planegalois.fields import FieldDescriptor, make_field
    from planegalois.galois import _nondegenerate
    from planegalois.polynomials import Poly1

    field = make_field(FieldDescriptor.prime(p) if p else FieldDescriptor.rational())

    def vec(*entries):
        return tuple(Poly1(field, [field.from_int(e)]) for e in entries)

    # every basis determinant vanishes, the polarization does not: v1 + v2 = (1, 0, 0, 1)
    assert _nondegenerate([vec(1, 0, 0, 0), vec(0, 0, 0, 1)]) == [vec(1, 0, 0, 1)]
    # alpha and beta only: the determinant vanishes on the whole span
    assert _nondegenerate([vec(1, 0, 0, 0), vec(0, 1, 0, 0)]) == []
    assert _nondegenerate([]) == []
    # basis members with nonzero determinant are returned as they are
    basis = [vec(1, 0, 0, 0), vec(0, 1, 1, 0), vec(1, 0, 0, 1)]
    assert _nondegenerate(basis) == basis[1:]


def test_mobius_solver_identity(Z3):
    cubic, P = _cubic_scenario(Z3)
    model = projection_model(cubic, P)
    x_t, sx_t, psi_t = parameter_data(cubic.param, P, LineMobius.identity(Z3))
    sol = mobius_solver(x_t, sx_t, psi_t, Z3, default_degree_bound(model))
    assert sol.found()
    assert sol.mobius.is_identity()


def test_mobius_solutions_satisfy_congruence(Z3, F3):
    # every returned Moebius satisfies sigma(x)*(gamma x + delta) = alpha x + beta in k(t)
    for build, field, gen in (
        (_cubic_scenario, Z3, LineMobius.diagonal(Z3, Z3.generator(), Z3.one())),
        (_char3_scenario, F3, LineMobius(F3, ((F3.one(), F3.zero()), (F3.one(), F3.one())))),
    ):
        curve, P = build(field)
        model = projection_model(curve, P)
        x_t, sx_t, psi_t = parameter_data(curve.param, P, gen)
        sol = mobius_solver(x_t, sx_t, psi_t, field, default_degree_bound(model))
        assert sol.found()
        alpha, beta, gamma, delta = sol.mobius.entries
        det = alpha * delta - beta * gamma
        assert not det.is_zero()
        _assert_congruence(sol.mobius, x_t, sx_t, psi_t, field)


def _assert_congruence(mob, x_t, sx_t, psi_t, field):
    """sigma(x)*(gamma x + delta) = alpha x + beta in k(t), y = psi(t)."""
    alpha, beta, gamma, delta = mob.entries

    def compose_y(r):
        # r(psi(t)) as a RatFunc in t
        return _eval_poly_at_ratfunc(r, psi_t, field)

    lhs = sx_t * (compose_y(gamma) * x_t + compose_y(delta))
    rhs = compose_y(alpha) * x_t + compose_y(beta)
    assert lhs == rhs


def _eval_poly_at_ratfunc(p, psi, field):
    acc = RatFunc.from_const(field, field.zero())
    for c in reversed(p.coeffs):
        acc = acc * psi + RatFunc.from_const(field, c)
    return acc


def test_lemma31_formulas_examples(Z3):
    w = Z3.generator()

    def rc(e):
        return RatFunc.from_const(Z3, e)

    zero = rc(Z3.zero())
    # f = x^3 - y, nu = (0, w, 0): gamma = 0, delta = -w, alpha = -w^2, beta = 0
    a = (zero, zero, RatFunc.from_poly(parse_poly("-1*y", Z3, ("y",)).to_poly1("y")))
    mob = lemma31_formulas(a, (zero, rc(w), zero))
    alpha, beta, gamma, delta = mob.entries
    assert alpha == Poly1.const(Z3, -(w * w)) and delta == Poly1.const(Z3, -w)
    assert beta.is_zero() and gamma.is_zero()
    # identity
    mob_id = lemma31_formulas(a, (zero, rc(Z3.one()), zero))
    assert mob_id.is_identity()
    # degenerate nu rejected
    with pytest.raises(ValueError):
        lemma31_formulas(a, (zero, zero, rc(Z3.one())))


def test_lemma31_beta_rederivation_generic():
    """Reduce (gamma x + delta) sigma(x) mod f with fully generic symbols and
    check the constant coefficient equals a2 nu0 nu2 - a0 nu2^2 - nu0 nu1."""
    from planegalois.fields import FieldDescriptor, make_field

    Q = make_field(FieldDescriptor.rational())
    # symbols: x plus generic coefficients as extra variables
    V = ("x", "y", "u", "v", "s", "t")  # a2=y a1=u a0=v nu2=s nu1=t nu0 handled below
    # we need 7 symbols; reuse X for nu0
    V = ("x", "y", "u", "v", "s", "t", "X")
    a2 = MultiPoly.variable(Q, V, "y")
    a1 = MultiPoly.variable(Q, V, "u")
    a0 = MultiPoly.variable(Q, V, "v")
    n2 = MultiPoly.variable(Q, V, "s")
    n1 = MultiPoly.variable(Q, V, "t")
    n0 = MultiPoly.variable(Q, V, "X")
    x = MultiPoly.variable(Q, V, "x")
    sigma = n2 * x * x + n1 * x + n0
    gamma = n2
    delta = a2 * n2 - n1
    product = (gamma * x + delta) * sigma
    # reduce modulo f = x^3 + a2 x^2 + a1 x + a0 by repeated substitution
    reduced = product
    f_tail = a2 * x * x + a1 * x + a0
    while reduced.degree_in("x") not in (0, 1) and reduced.degree_in("x") > 1:
        top = int(reduced.degree_in("x"))
        if top < 3:
            break
        by_power = reduced.univariate_coefficients("x")
        head = by_power[top]
        x_pow = x ** (top - 3)
        reduced = reduced - head * x**top + head * x_pow * (-f_tail)
    by_power = reduced.univariate_coefficients("x")
    assert set(by_power) <= {0, 1}
    beta = by_power.get(0, MultiPoly.zero(Q, V))
    alpha = by_power.get(1, MultiPoly.zero(Q, V))
    assert beta == a2 * n0 * n2 - a0 * n2 * n2 - n0 * n1
    assert alpha == a2 * n1 * n2 - a1 * n2 * n2 + n0 * n2 - n1 * n1


def test_cubic_sigma_polynomial_form_cross_oracle(Z3):
    cubic, P = _cubic_scenario(Z3)
    model = projection_model(cubic, P)
    nu = cubic_sigma_polynomial_form(model, galois_test_low_degree(model))
    assert nu is not None
    coeffs = model.monic_coefficients()
    mob = lemma31_formulas((coeffs[2], coeffs[1], coeffs[0]), nu)
    g = LineMobius.diagonal(Z3, Z3.generator(), Z3.one())
    x_t, sx_t, psi_t = parameter_data(cubic.param, P, g)
    sol1 = mobius_solver(x_t, sx_t, psi_t, Z3, default_degree_bound(model))
    g2 = g.compose(g)
    x2, sx2, _ = parameter_data(cubic.param, P, g2)
    sol2 = mobius_solver(x2, sx2, psi_t, Z3, default_degree_bound(model))
    assert mob.proportional_to(sol1.mobius) or mob.proportional_to(sol2.mobius)


def test_jonquieres_builder_examples(Z3, F3):
    # cubic: the built map matches the paper's displayed extension
    cubic, P = _cubic_scenario(Z3)
    model = projection_model(cubic, P)
    g = LineMobius.diagonal(Z3, Z3.generator(), Z3.one())
    x_t, sx_t, psi_t = parameter_data(cubic.param, P, g)
    sol = mobius_solver(x_t, sx_t, psi_t, Z3, default_degree_bound(model))
    J = jonquieres_builder(sol.mobius, P, Z3)
    num = parse_poly("(Y - z*Z)*X + Y*Z*(1 - z)", Z3, CURVE_VARS)
    den = parse_poly("(z - 1)*X + z*Y - Z", Z3, CURVE_VARS)
    Yv = parse_poly("Y", Z3, CURVE_VARS)
    Zv = parse_poly("Z", Z3, CURVE_VARS)
    paper = PlaneRationalMap([num, Yv * den, Zv * den])
    assert J == paper

    # char-3: sigma acts by x -> x + y, giving [X + Y : Y : Z]
    char3, P3 = _char3_scenario(F3)
    model3 = projection_model(char3, P3)
    g3 = LineMobius(F3, ((F3.one(), F3.zero()), (F3.one(), F3.one())))
    x3, sx3, psi3 = parameter_data(char3.param, P3, g3)
    sol3 = mobius_solver(x3, sx3, psi3, F3, default_degree_bound(model3))
    J3 = jonquieres_builder(sol3.mobius, P3, F3)
    expected = PlaneRationalMap(
        [
            parse_poly("X + Y", F3, CURVE_VARS),
            parse_poly("Y", F3, CURVE_VARS),
            parse_poly("Z", F3, CURVE_VARS),
        ]
    )
    assert J3 == expected
    # F o J = F exactly for the char-3 cubic
    F = char3.implicit
    sub = {v: c for v, c in zip(CURVE_VARS, expected.components)}
    assert F.substitute(sub) == F

    # identity Moebius gives the identity map
    ident = MobiusOverBase.identity(F3)
    assert jonquieres_builder(ident, P3, F3) == PlaneRationalMap.identity(F3)


def test_jonquieres_builder_builds_one_plane_map(Z3, monkeypatch):
    # off [1:0:0] the chart moves the standard-position map in one
    # conjugation: one PlaneRationalMap, not five
    entries = ("y - z", "(1 - z)*y", "z - 1", "z*y - 1")  # cubic-omega's sigma
    sigma = MobiusOverBase(tuple(parse_poly(t, Z3, ("y",)).to_poly1("y") for t in entries))
    P = ProjPoint.from_ints(Z3, (2, 1, 3))
    calls = []
    init = PlaneRationalMap.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlaneRationalMap, "__init__", counting_init)
    J = jonquieres_builder(sigma, P, Z3)
    assert len(calls) == 1
    # the same map as composing the chart's matrix maps around the map at [1:0:0]
    T = move_point_first(P)
    J_std = jonquieres_builder(sigma, ProjPoint.from_ints(Z3, (1, 0, 0)), Z3)
    back = PlaneRationalMap.from_matrix(Z3, mat_inv(T, Z3))
    assert J.components == PlaneRationalMap.from_matrix(Z3, T).compose(J_std).compose(back).components


def test_deck_group_projects_once(monkeypatch):
    # the candidates and every closure product are checked against one
    # projected pair
    scenario = load_scenario("quintic-zeta5")
    calls = []

    def counting_project(phi, P):
        calls.append(1)
        return project_param(phi, P)

    monkeypatch.setattr(galois, "project_param", counting_project)
    cert = deck_group_from_candidates(scenario.curve.param, scenario.point, scenario.generators)
    assert cert.verdict == "galois" and len(cert.group) == 5
    assert len(calls) == 1


def test_linear_extension_solver_examples(Q, Z5):
    deg7, P = _quintic_scenario(Z5)
    z = Z5.generator()
    res = linear_extension_solver(deg7.param, LineMobius.diagonal(Z5, z, Z5.one()))
    assert res.status == "none"
    assert res.details["certificate"] == "inconsistent system"
    # all powers of the generator are refuted
    for k in (2, 3, 4):
        g = LineMobius.diagonal(Z5, z**k, Z5.one())
        assert linear_extension_solver(deg7.param, g).status == "none"

    conic_param = Parametrization(
        [
            parse_poly("u^2", Q, PARAM_VARS),
            parse_poly("u*v", Q, PARAM_VARS),
            parse_poly("v^2", Q, PARAM_VARS),
        ]
    )
    rng = random.Random(14)
    from planegalois.cremona import conic_lift

    for _ in range(8):
        while True:
            entries = [Q.from_int(rng.randint(-4, 4)) for _ in range(4)]
            try:
                g = LineMobius(Q, ((entries[0], entries[1]), (entries[2], entries[3])))
                break
            except ValueError:
                continue
        res = linear_extension_solver(conic_param, g)
        assert res.found()
        lift = conic_lift(g)
        flat_res = [x for row in res.matrix for x in row]
        flat_lift = [x for row in lift for x in row]
        assert proportional_eq(flat_res, flat_lift)

    ident = linear_extension_solver(conic_param, LineMobius.identity(Q))
    assert ident.found()
    flat = [x for row in ident.matrix for x in row]
    expect = [Q.one() if i % 4 == 0 else Q.zero() for i in range(9)]
    assert proportional_eq(flat, expect)


def test_extension_verdicts_cubic_all_jonquieres(Z3):
    cubic, P = _cubic_scenario(Z3)
    cert = deck_group_from_candidates(
        cubic.param, P, [LineMobius.diagonal(Z3, Z3.generator(), Z3.one())]
    )
    reports = extension_verdict(cubic, P, cert, seed=0)
    assert all(r.verdict == "jonquieres" for r in reports)


def test_extension_verdicts_deck_elements_need_a_parametrization(Z3):
    cubic, P = _cubic_scenario(Z3)
    cert = deck_group_from_candidates(
        cubic.param, P, [LineMobius.diagonal(Z3, Z3.generator(), Z3.one())]
    )
    with pytest.raises(ValueError):
        extension_verdict(curve_from_implicit(cubic.implicit), P, cert, seed=0)


def test_extension_verdicts_implicit_cubic_sigma_powers(Z3):
    # no parametrization: sigma^2's witness is the square of sigma's Moebius map
    F = parse_poly("X^3 + 2*Y^3 - Y^2*Z + 3*Z^3", Z3, CURVE_VARS)
    curve = curve_from_implicit(F)
    P = ProjPoint.from_ints(Z3, (1, 0, 0))
    cert = galois_test_low_degree(projection_model(curve, P))
    assert cert.verdict == "galois"
    reports = {r.element: r for r in extension_verdict(curve, P, cert, seed=0)}
    assert list(reports) == ["identity", "sigma", "sigma^2"]
    mob, _ = reports["sigma"].witness
    mob2, J2 = reports["sigma^2"].witness
    assert reports["sigma^2"].verdict == "jonquieres"
    assert mob2.proportional_to(mob.compose(mob))
    assert not mob2.proportional_to(mob)
    assert mob.compose(mob2).is_identity()
    for r in reports.values():
        if r.element != "identity":
            _, J = r.witness
            sub = {v: c for v, c in zip(CURVE_VARS, J.components)}
            assert divides(F, F.substitute(sub))
    assert reports["sigma^2"].witness[1] != reports["sigma"].witness[1]


def test_extension_verdicts_quintic_proven_none(Z5):
    deg7, P = _quintic_scenario(Z5)
    cert = deck_group_from_candidates(
        deg7.param, P, [LineMobius.diagonal(Z5, Z5.generator(), Z5.one())]
    )
    reports = extension_verdict(deg7, P, cert, seed=0)
    for r in reports:
        if isinstance(r.element, LineMobius) and r.element.is_identity():
            assert r.verdict == "jonquieres"
        else:
            assert r.verdict == "none_found"
            assert r.proven


def test_deck_verify_conjugation_stable(Z8):
    quartic, P = _quartic_scenario(Z8)
    i = Z8.parse("z^2")
    g = LineMobius.diagonal(Z8, i, Z8.one())
    bad = LineMobius.diagonal(Z8, Z8.from_int(3), Z8.one())
    rng = random.Random(8)
    from planegalois.maps import linear_pushforward

    for _ in range(6):
        M = [[Z8.from_int(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        if mat_det(M, Z8).is_zero():
            continue
        moved = linear_pushforward(quartic, M)
        P_moved = ProjPoint(Z8, mat_vec(M, list(P.coords)))
        projected, base = project_param(moved.param, P_moved), project_param(quartic.param, P)
        assert deck_verify(projected, g) == deck_verify(base, g)
        assert deck_verify(projected, bad) == deck_verify(base, bad)


@pytest.mark.parametrize("name, witness_of, checked_as", [("quartic-i", 2, 1), ("cubic-omega", 1, 2)])
def test_witness_of_another_deck_element_is_refused(name, witness_of, checked_as):
    """The de Jonquieres witness J of g^witness_of maps C onto itself, yet it
    does not restrict to g^checked_as: the one restriction check refuses it."""
    scenario = load_scenario(name)
    C, P, g = scenario.curve, scenario.point, scenario.generators[0]
    phi = C.param
    powers = {1: g, 2: g.compose(g)}
    cert = deck_group_from_candidates(phi, P, [g])
    reports = {r.element: r for r in extension_verdict(C, P, cert, seed=0)}
    right, wrong = powers[witness_of], powers[checked_as]
    assert reports[right].verdict == "jonquieres"
    J = reports[right].witness[1]
    j_phi = [c.substitute(dict(zip(CURVE_VARS, phi.forms))) for c in J.components]
    assert C.implicit.substitute(dict(zip(CURVE_VARS, j_phi))).is_zero()  # J maps C onto itself
    assert _witness_checks(phi, right, J)
    assert not _witness_checks(phi, wrong, J)
    with pytest.raises(RuntimeError, match="does not restrict to the deck action"):
        _verify_jonquieres(P, phi, wrong, J)
