import random

import pytest

import planegalois.maps
from planegalois.curves import (
    CURVE_VARS,
    PARAM_VARS,
    ProjPoint,
    curve_from_implicit,
    move_point_first,
    multiplicity_implicit,
)
from planegalois.fields import FieldDescriptor, make_field
from planegalois.linalg import mat_det, mat_inv, mat_vec
from planegalois.maps import (
    LineMobius,
    MobiusOverBase,
    PlaneRationalMap,
    conjugate_by,
    jonquieres_decompose,
    linear_pushforward,
    proportional_eq,
    std_quadratic_pushforward,
)
from planegalois.parsing import parse_poly
from planegalois.polynomials import MultiPoly, exact_div, poly_gcd

QUARTIC = "X^4 - 4*Z*Y*X^2 - Z*Y^3 + 2*Z^2*Y^2 - Y*Z^3"


def _rand_matrix(field, rng, span=3):
    while True:
        M = [[field.from_int(rng.randint(-span, span)) for _ in range(3)] for _ in range(3)]
        if not mat_det(M, field).is_zero():
            return M


def test_standard_quadratic_is_an_involution(Q):
    tau = PlaneRationalMap.standard_quadratic(Q)
    assert tau.compose(tau) == PlaneRationalMap.identity(Q)


def test_linear_compose_is_matrix_product(Q):
    rng = random.Random(2)
    A = _rand_matrix(Q, rng)
    B = _rand_matrix(Q, rng)
    from planegalois.linalg import mat_mul

    left = PlaneRationalMap.from_matrix(Q, A).compose(PlaneRationalMap.from_matrix(Q, B))
    right = PlaneRationalMap.from_matrix(Q, mat_mul(A, B))
    assert left == right


def test_coordinate_change_inverse_composes_to_identity(Z8):
    is2 = Z8.parse("z + z^3")
    two = Z8.from_int(2)
    T_inv = [
        [Z8.zero(), is2, is2],
        [two, -Z8.one(), Z8.one()],
        [two, Z8.one(), -Z8.one()],
    ]
    T = mat_inv(T_inv, Z8)
    left = PlaneRationalMap.from_matrix(Z8, T).compose(PlaneRationalMap.from_matrix(Z8, T_inv))
    assert left == PlaneRationalMap.identity(Z8)


def test_map_apply(Q):
    tau = PlaneRationalMap.standard_quadratic(Q)
    assert tau.apply(ProjPoint.from_ints(Q, (1, 0, 0))) is None
    assert tau.apply(ProjPoint.from_ints(Q, (1, 1, 1))) == ProjPoint.from_ints(Q, (1, 1, 1))


def test_corrected_quartic_matrix_sends_singular_points_to_coordinates(Z8):
    is2 = Z8.parse("z + z^3")
    two = Z8.from_int(2)
    T_inv = [
        [Z8.zero(), is2, is2],
        [two, -Z8.one(), Z8.one()],
        [two, Z8.one(), -Z8.one()],
    ]
    T = mat_inv(T_inv, Z8)
    singulars = [
        ProjPoint.from_ints(Z8, (0, 1, 1)),
        ProjPoint(Z8, [is2, -Z8.one(), Z8.one()]),
        ProjPoint(Z8, [is2, Z8.one(), -Z8.one()]),
    ]
    images = set()
    T_map = PlaneRationalMap.from_matrix(Z8, T)
    for P in singulars:
        img = T_map.apply(P)
        images.add(tuple(str(c) for c in img.coords))
    assert images == {("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")}


def test_proportional_eq(Q, Z5):
    a = parse_poly("u^5*(u^2 + v^2)", Z5, PARAM_VARS)
    b = parse_poly("v^5*(u^2 + v^2)", Z5, PARAM_VARS)
    assert proportional_eq(
        (a, b), (parse_poly("u^5", Z5, PARAM_VARS), parse_poly("v^5", Z5, PARAM_VARS))
    )
    F = parse_poly("X^2 - Y*Z", Q, CURVE_VARS)
    assert proportional_eq((F,), (F + F,))
    u4 = parse_poly("u^4", Q, PARAM_VARS)
    v4 = parse_poly("v^4", Q, PARAM_VARS)
    uv3 = parse_poly("u*v^3", Q, PARAM_VARS)
    assert not proportional_eq((u4, v4), (u4, uv3))


def test_linear_pushforward_examples(Q, Z8):
    # paper's transformed quartic via the corrected matrix
    is2 = Z8.parse("z + z^3")
    two = Z8.from_int(2)
    T_inv = [
        [Z8.zero(), is2, is2],
        [two, -Z8.one(), Z8.one()],
        [two, Z8.one(), -Z8.one()],
    ]
    T = mat_inv(T_inv, Z8)
    quartic = curve_from_implicit(parse_poly(QUARTIC, Z8, CURVE_VARS))
    moved = linear_pushforward(quartic, T)
    expected = parse_poly(
        "X^2*Y^2 + 6*X^2*Y*Z + X^2*Z^2 + 4*Y^2*Z^2", Z8, CURVE_VARS
    ).monic()
    assert moved.implicit == expected

    # second matrix: published entries act as the substitution direction
    i = Z8.parse("z^2")
    s2 = Z8.parse("z - z^3")
    M_pub = [
        [Z8.from_int(4) * i, Z8.zero(), -i],
        [Z8.zero(), two * s2, Z8.zero()],
        [Z8.from_int(8), Z8.from_int(-6) * s2, two],
    ]
    conic = curve_from_implicit(parse_poly("4*X^2 + Y^2 + 6*Y*Z + Z^2", Z8, CURVE_VARS))
    target = linear_pushforward(conic, mat_inv(M_pub, Z8))
    assert proportional_eq(
        (target.implicit,), (parse_poly("Y^2 - X*Z", Z8, CURVE_VARS),)
    )

    # identity
    ident = [[Q.one() if i == j else Q.zero() for j in range(3)] for i in range(3)]
    c = curve_from_implicit(parse_poly(QUARTIC, Q, CURVE_VARS))
    assert linear_pushforward(c, ident).implicit == c.implicit

    with pytest.raises(ValueError):
        linear_pushforward(c, [[Q.zero()] * 3 for _ in range(3)])


def test_pushforward_roundtrip(Q):
    rng = random.Random(9)
    c = curve_from_implicit(parse_poly(QUARTIC, Q, CURVE_VARS))
    for _ in range(5):
        M = _rand_matrix(Q, rng)
        about = linear_pushforward(c, M)
        back = linear_pushforward(about, mat_inv(M, Q))
        assert back.implicit == c.implicit


def test_std_quadratic_examples(Q, Z8):
    transformed = curve_from_implicit(
        parse_poly("X^2*Y^2 + 6*X^2*Y*Z + X^2*Z^2 + 4*Y^2*Z^2", Z8, CURVE_VARS)
    )
    result = std_quadratic_pushforward(transformed)
    assert result.multiplicities == (2, 2, 2)
    assert result.degree == 2
    assert proportional_eq(
        (result.curve.implicit,),
        (parse_poly("4*X^2 + Y^2 + 6*Y*Z + Z^2", Z8, CURVE_VARS),),
    )

    line = curve_from_implicit(parse_poly("X + Y + Z", Q, CURVE_VARS))
    conic = std_quadratic_pushforward(line)
    assert conic.curve.implicit == parse_poly("X*Y + X*Z + Y*Z", Q, CURVE_VARS).monic()
    assert conic.degree == 2

    self_dual = curve_from_implicit(parse_poly("X*Y - Z^2", Q, CURVE_VARS))
    back = std_quadratic_pushforward(self_dual)
    assert proportional_eq((back.curve.implicit,), (self_dual.implicit,))

    with pytest.raises(ValueError):
        std_quadratic_pushforward(curve_from_implicit(parse_poly("X", Q, CURVE_VARS)))


def test_degree_formula_on_random_curves(Q):
    rng = random.Random(21)
    for text in (QUARTIC, "X^2*Y^2 + 6*X^2*Y*Z + X^2*Z^2 + 4*Y^2*Z^2", "Y^2*Z - X^3"):
        C = curve_from_implicit(parse_poly(text, Q, CURVE_VARS))
        result = std_quadratic_pushforward(C)
        mults = [
            multiplicity_implicit(C, ProjPoint.from_ints(Q, tuple(1 if i == k else 0 for i in range(3))))
            for k in range(3)
        ]
        assert result.degree == 2 * C.degree - sum(mults)


def test_jonquieres_decompose_examples(Q, Z3, F3):
    # [X+Y : Y : Z] at [1:0:0]
    f = PlaneRationalMap(
        [
            parse_poly("X + Y", F3, CURVE_VARS),
            parse_poly("Y", F3, CURVE_VARS),
            parse_poly("Z", F3, CURVE_VARS),
        ]
    )
    w = jonquieres_decompose(f, ProjPoint.from_ints(F3, (1, 0, 0)))
    assert w is not None and w.base_action.is_identity()

    # the cubic lemma's explicit extension
    num = parse_poly("(Y - z*Z)*X + Y*Z*(1 - z)", Z3, CURVE_VARS)
    den = parse_poly("(z - 1)*X + z*Y - Z", Z3, CURVE_VARS)
    Yv = parse_poly("Y", Z3, CURVE_VARS)
    Zv = parse_poly("Z", Z3, CURVE_VARS)
    J = PlaneRationalMap([num, Yv * den, Zv * den])
    w2 = jonquieres_decompose(J, ProjPoint.from_ints(Z3, (1, 0, 0)))
    assert w2 is not None and w2.base_action.is_identity()
    alpha, beta, gamma, delta = w2.fiber_action.entries
    assert not (alpha * delta - beta * gamma).is_zero()

    # the standard quadratic preserves the pencil with base swap [Y:Z]->[Z:Y]
    tau = PlaneRationalMap.standard_quadratic(Q)
    w3 = jonquieres_decompose(tau, ProjPoint.from_ints(Q, (1, 0, 0)))
    assert w3 is not None
    (a, b), (c, d) = w3.base_action.matrix
    assert a.is_zero() and d.is_zero() and not b.is_zero() and not c.is_zero()

    # a map that genuinely moves the pencil is refused
    g = PlaneRationalMap(
        [
            parse_poly("Y", Q, CURVE_VARS),
            parse_poly("X", Q, CURVE_VARS),
            parse_poly("Z", Q, CURVE_VARS),
        ]
    )
    assert jonquieres_decompose(g, ProjPoint.from_ints(Q, (1, 0, 0))) is None


def test_jonquieres_witness_base_action_identity(Q):
    # pi_P o f is proportional to alpha o pi_P for the returned witness
    tau = PlaneRationalMap.standard_quadratic(Q)
    P = ProjPoint.from_ints(Q, (1, 0, 0))
    w = jonquieres_decompose(tau, P)
    pencil = mat_inv(move_point_first(P), Q)[1:]  # the lines through P, read off the chart
    L1, L2 = mat_vec(pencil, [MultiPoly.variable(Q, CURVE_VARS, v) for v in CURVE_VARS])
    pi_after = mat_vec(pencil, tau.components)
    (a, b), (c, d) = w.base_action.matrix
    alpha_pi = (L1.scale(a) + L2.scale(b), L1.scale(c) + L2.scale(d))
    assert proportional_eq(pi_after, alpha_pi)


def test_jonquieres_witness_determinant_nonzero(Z3):
    num = parse_poly("(Y - z*Z)*X + Y*Z*(1 - z)", Z3, CURVE_VARS)
    den = parse_poly("(z - 1)*X + z*Y - Z", Z3, CURVE_VARS)
    Yv = parse_poly("Y", Z3, CURVE_VARS)
    Zv = parse_poly("Z", Z3, CURVE_VARS)
    J = PlaneRationalMap([num, Yv * den, Zv * den])
    w = jonquieres_decompose(J, ProjPoint.from_ints(Z3, (1, 0, 0)))
    det = w.fiber_action.determinant()
    assert not det.is_zero()
    # the fiber action is read off as polynomials in y = Y/Z
    assert w.fiber_action.entries == _polys_in_y(Z3, "y - z", "(1 - z)*y", "z - 1", "z*y - 1")


def test_compose_associativity(Q):
    rng = random.Random(33)
    maps = [PlaneRationalMap.from_matrix(Q, _rand_matrix(Q, rng)) for _ in range(3)]
    maps.append(PlaneRationalMap.standard_quadratic(Q))
    for _ in range(4):
        f, g, h = rng.sample(maps, 3)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))
    ident = PlaneRationalMap.identity(Q)
    for m in maps:
        assert m.compose(ident) == m
        assert ident.compose(m) == m


def _rand_form(field, rng, degree):
    """A nonzero form of the given degree with coefficients in [-2, 2]."""
    monomials = [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    while True:
        form = MultiPoly(field, CURVE_VARS, {m: field.from_int(rng.randint(-2, 2)) for m in monomials})
        if not form.is_zero():
            return form


@pytest.mark.parametrize("name", ["Q", "Z5", "F7"])
def test_conjugate_by_matches_composing_matrix_maps(name, request):
    """A o f o A^-1 from the forms of f, in one construction, has the
    components of from_matrix(A) o f o from_matrix(A^-1).  In every other
    draw the forms share a linear factor, which the constructor divides out
    of the conjugated forms (its gcd branch)."""
    field = request.getfixturevalue(name)
    rng = random.Random(f"conjugate/{name}")
    for trial in range(8):
        A = _rand_matrix(field, rng, span=2)
        forms = [_rand_form(field, rng, 2) for _ in range(3)]
        if trial % 2:
            factor = _rand_form(field, rng, 1)
            forms = [f * factor for f in forms]
        f = PlaneRationalMap(forms)
        back = PlaneRationalMap.from_matrix(field, mat_inv(A, field))
        want = PlaneRationalMap.from_matrix(field, A).compose(f).compose(back)
        got = conjugate_by(A, forms)
        assert got.components == want.components
        if trial % 2:
            assert got.degree < 3


def test_line_mobius_basics(Q):
    g = LineMobius(Q, ((Q.from_int(2), Q.from_int(1)), (Q.zero(), Q.one())))
    assert g.compose(g.inverse()).is_identity()
    with pytest.raises(ValueError):
        LineMobius(Q, ((Q.one(), Q.one()), (Q.one(), Q.one())))
    swap = LineMobius(Q, ((Q.zero(), Q.one()), (Q.one(), Q.zero())))
    assert swap.order() == 2


def _polys_in_y(field, *texts):
    return tuple(parse_poly(t, field, ("y",)).to_poly1("y") for t in texts)


def test_mobius_over_base_divides_out_the_common_factor(Q):
    # (y + 1) * (2, 4y, 0, 6): the monic content goes, the constant 2 stays
    shared = MobiusOverBase(_polys_in_y(Q, "2*y + 2", "4*y^2 + 4*y", "0", "6*y + 6"))
    assert shared.entries == _polys_in_y(Q, "2", "4*y", "0", "6")
    with pytest.raises(ValueError):
        MobiusOverBase(_polys_in_y(Q, "y", "y^2", "1", "y"))


def test_mobius_over_base_order_three(Z3):
    # cubic-omega's sigma over Q(zeta_3): sigma^3 is a polynomial multiple of
    # the identity, which the content removal brings back to a constant one
    sigma = MobiusOverBase(_polys_in_y(Z3, "y - z", "(1 - z)*y", "z - 1", "z*y - 1"))
    square = sigma.compose(sigma)
    assert not square.is_identity() and not sigma.is_identity()
    assert square.compose(sigma).is_identity()
    assert sigma.compose(square) == MobiusOverBase.identity(Z3)


def _line_form(field):
    """Z - X - 2Y, the form of the line on which PlaneRationalMap tests coprimality."""
    return parse_poly("Z - X - 2*Y", field, CURVE_VARS)


@pytest.mark.parametrize("name", ["Q", "Z5", "F7", "F2"])
def test_common_factor_vanishing_on_the_line_is_cleared(name, request):
    field = make_field(FieldDescriptor.prime(2)) if name == "F2" else request.getfixturevalue(name)
    L = _line_form(field)
    xs = [MultiPoly.variable(field, CURVE_VARS, v) for v in CURVE_VARS]
    for factor in (L, L * L * xs[0]):
        reduced = PlaneRationalMap([x * factor for x in xs])
        assert reduced.components == PlaneRationalMap.identity(field).components


def test_base_point_on_the_line_falls_back_to_the_full_gcd(Q, monkeypatch):
    # sigma o (X - Z, Y, Z) has the base point [1:0:1] on Z = X + 2Y, so the
    # restrictions share a root and only the trivariate gcd proves coprimality
    forms = [parse_poly(t, Q, CURVE_VARS) for t in ("Y*Z", "X*Z - Z^2", "X*Y - Y*Z")]
    calls = []

    def counting_gcd(f, g):
        calls.append((f, g))
        return poly_gcd(f, g)

    monkeypatch.setattr(planegalois.maps, "poly_gcd", counting_gcd)
    assert PlaneRationalMap(forms).components == tuple(forms)
    assert calls


def _reduced_by_gcd(forms):
    """The forms over their explicit poly_gcd, scaled so the first nonzero one is monic."""
    common = None
    for f in forms:
        if not f.is_zero():
            common = f if common is None else poly_gcd(common, f)
    forms = [exact_div(f, common) if not f.is_zero() else f for f in forms]
    lead = next(f for f in forms if not f.is_zero()).leading_coefficient().inverse()
    return tuple(f.scale(lead) for f in forms)


@pytest.mark.parametrize("name", ["Q", "Z5", "F7", "F2"])
def test_random_compositions_match_an_explicit_gcd_reduction(name, request):
    """Random words in linear maps (signed permutations among them, which move
    the base points of sigma onto each other) and sigma, composed without
    reduction, reduce to the same components as an explicit gcd reduction."""
    field = make_field(FieldDescriptor.prime(2)) if name == "F2" else request.getfixturevalue(name)
    rng = random.Random(f"compose/{name}")
    sigma = PlaneRationalMap.standard_quadratic(field)
    xs = [MultiPoly.variable(field, CURVE_VARS, v) for v in CURVE_VARS]
    shared = coprime = 0
    for _ in range(12):
        forms = list(xs)
        for step in range(rng.randint(2, 4)):
            if step % 2:
                M = sigma
            elif rng.random() < 0.5:
                M = PlaneRationalMap.from_matrix(field, _rand_matrix(field, rng, span=2))
            else:
                M = PlaneRationalMap([xs[i].scale(field.from_int(rng.choice((1, -1)))) for i in rng.sample(range(3), 3)])
            sub = dict(zip(CURVE_VARS, forms))
            forms = [c.substitute(sub) for c in M.components]
        want = _reduced_by_gcd(forms)
        assert PlaneRationalMap(forms).components == want
        if want[0].degree() < forms[0].degree():
            shared += 1
        else:
            coprime += 1
    assert shared and coprime
