"""The fraction-free Moebius solver: the shared reduction table, the k[y]
kernel line from 3x3 minors, and the count that keeps k(y) out of it."""

import random

import pytest

from planegalois import polynomials
from planegalois.curves import PARAM_VARS, Parametrization, ProjPoint
from planegalois.galois import (
    _kernel_line,
    _reduction_matrix,
    deck_group_from_candidates,
    deck_verify,
    default_degree_bound,
    mobius_solver,
    parameter_data,
    project_param,
    projection_model,
)
from planegalois.linalg import mat_det, nullspace
from planegalois.maps import LineMobius
from planegalois.parsing import parse_poly
from planegalois.polynomials import Poly1, RatFunc, RatFuncField, pseudo_rem
from planegalois.scenarios import conjugate_scenario, load_scenario


def _pseudo_rem_matrix(products, m, field):
    """The matrix of the four pseudo-remainders, one `pseudo_rem` each."""
    n = len(m) - 1
    width = max(n + 1, max(len(w.coeffs) for w in products))
    reduced = [pseudo_rem([Poly1(field, [w[i]]) for i in range(width)], m) for w in products]
    return [[r[i] if i < len(r) else Poly1.zero(field) for r in reduced] for i in range(n)], reduced


def _solver_matrix(x_t, sx_t, psi_t, field):
    """mobius_solver's products and minimal polynomial of t, and its M."""
    n = psi_t.degree_as_map()
    products = [-(sx_t.den * x_t.num), -(sx_t.den * x_t.den), sx_t.num * x_t.num, sx_t.num * x_t.den]
    m = [Poly1(field, [psi_t.num[i], -psi_t.den[i]]) for i in range(n + 1)]
    return products, m, _reduction_matrix(products, m, field)


def _y(field, *coeffs):
    return Poly1(field, [field.from_int(c) for c in coeffs])


@pytest.mark.parametrize("name", ["Q", "Z3", "F7"])
def test_reduction_table_matches_pseudo_rem(name, request):
    field = request.getfixturevalue(name)
    rng = random.Random(f"reduction-table-{name}")
    shorter = vanishing_lead = 0
    for n in range(1, 6):
        for _ in range(6):
            # lc(m) = p_n - y q_n: a constant when q_n = 0, else of degree 1
            p = [rng.randint(-3, 3) for _ in range(n)] + [rng.choice((1, 2, -1))]
            q = [rng.randint(-3, 3) for _ in range(n)] + [rng.choice((0, 1, 3))]
            m = [_y(field, a, -b) for a, b in zip(p, q)]
            # sparse products of mixed lengths; one may be zero
            products = [
                Poly1(field, [field.from_int(rng.choice((0, 0, 1, -2, 5))) for _ in range(rng.randint(0, 2 * n + 3))])
                for _ in range(4)
            ]
            want, reduced = _pseudo_rem_matrix(products, m, field)
            assert _reduction_matrix(products, m, field) == want
            width = max(n + 1, max(len(w.coeffs) for w in products))
            shorter += any(len(w.coeffs) < width for w in products)
            vanishing_lead += any(len(r) < n for r in reduced)
    # both pseudo_rem branches that pop and apply the leftover powers of lc ran
    assert shorter and vanishing_lead


def test_kernel_line_skips_triples_whose_minors_vanish(Q):
    # row 1 is y times row 0, so the triples (0, 1, 2) and (0, 1, 3) have
    # rank 2; the line comes from (0, 2, 3), whose kernel is
    # (-y^3, y^2, -y, 1), and row 1 is orthogonal to it
    z, one, y, y2 = _y(Q), _y(Q, 1), _y(Q, 0, 1), _y(Q, 0, 0, 1)
    M = [[one, y, z, z], [y, y2, z, z], [z, one, y, z], [z, z, one, y]]
    assert _kernel_line(M) == [_y(Q, 0, 0, 0, 1), -y2, y, -one]


def test_kernel_line_residual_proves_rank_four(Q):
    # det M = y - 2: rank 3 at y = 2, rank 4 over k(y); the line of the
    # first triple, (0, 0, 0, -1), is not orthogonal to the last row
    z, one = _y(Q), _y(Q, 1)
    M = [[one, z, z, z], [z, one, z, z], [z, z, one, z], [z, z, _y(Q, -2, 1), _y(Q, -2, 1)]]
    two = Q.from_int(2)
    assert nullspace([[e.evaluate(two) for e in row] for row in M], Q, width=4)
    assert _kernel_line(M) == []


def test_mobius_solver_residual_gives_none_proven(Q, monkeypatch):
    # the same M, fed to the solver for an n = 4 input: the evaluation at
    # y = 2 cannot refute it, the residual does
    z, one = _y(Q), _y(Q, 1)
    M = [[one, z, z, z], [z, one, z, z], [z, z, one, z], [z, z, _y(Q, -2, 1), _y(Q, -2, 1)]]
    monkeypatch.setattr("planegalois.galois._reduction_matrix", lambda products, m, field: M)
    t = RatFunc.from_poly(Poly1.x(Q))
    t4 = RatFunc.from_poly(Poly1(Q, [Q.zero()] * 4 + [Q.one()]))
    assert mobius_solver(t, t, t4, Q, 3).status == "none_proven"


def test_kernel_line_of_a_two_to_one_cover(Q):
    # (u^4, v^4, u^2 v^2) is 2:1 onto the conic X*Y = Z^2, so n = 4 while x
    # has degree 2 over k(y); u -> -u fixes the curve pointwise, every minor
    # vanishes, and the bounded search finds the least-degree witness, the
    # identity, already at bound 0
    phi = Parametrization([parse_poly(f, Q, PARAM_VARS) for f in ("u^4", "v^4", "u^2*v^2")])
    P = ProjPoint.from_ints(Q, (1, 1, 0))
    g = LineMobius.diagonal(Q, -Q.one(), Q.one())
    assert deck_verify(project_param(phi, P), g)
    x_t, sx_t, psi_t = parameter_data(phi, P, g)
    assert psi_t.degree_as_map() == 4
    assert _kernel_line(_solver_matrix(x_t, sx_t, psi_t, Q)[2]) is None
    sol = mobius_solver(x_t, sx_t, psi_t, Q, 0)
    assert sol.found() and sol.mobius.is_identity()


def _conjugated_goldens(name):
    """The scenarios of tests/data/<name>-conjugated-{0,1}.json: criterion 7's
    first two draws."""
    scenario = load_scenario(name)
    field = scenario.field
    rng = random.Random(900 + len(name))
    moved = []
    while len(moved) < 2:
        M = [[field.from_int(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        if not mat_det(M, field).is_zero():
            moved.append(conjugate_scenario(scenario, M))
    return moved


@pytest.mark.parametrize("name", ["cubic-omega", "cubic-char3", "quartic-i", "quintic-zeta5"])
def test_kernel_line_matches_ratfunc_nullspace(name):
    lines = 0
    for moved in _conjugated_goldens(name):
        field, phi, P = moved.field, moved.curve.param, moved.point
        for g in deck_group_from_candidates(phi, P, moved.generators).group:
            x_t, sx_t, psi_t = parameter_data(phi, P, g)
            if psi_t.degree_as_map() < 3:
                continue
            M = _solver_matrix(x_t, sx_t, psi_t, field)[2]
            kernel = nullspace([[RatFunc.from_poly(e) for e in row] for row in M], RatFuncField(field), width=4)
            line = _kernel_line(M)
            if not kernel:
                assert line == []
                continue
            assert len(kernel) == 1 and any(not e.is_zero() for e in line)
            v = kernel[0]
            for i in range(4):
                for j in range(4):
                    assert RatFunc.from_poly(line[i]) * v[j] == RatFunc.from_poly(line[j]) * v[i]
            lines += 1
    # two conjugations: every cubic element, quartic-i's identity and
    # generator^2, and the quintic's identity have a line; the rest rank 4
    assert lines == {"cubic-omega": 6, "cubic-char3": 6, "quartic-i": 4, "quintic-zeta5": 2}[name]


def test_mobius_solver_builds_no_rational_functions(monkeypatch):
    # generator^2 of a conjugated quartic-i is found through the kernel line
    # (the generator itself is refuted at y = 2): k[y] only, no RatFunc
    moved = _conjugated_goldens("quartic-i")[0]
    g = moved.generators[0]
    data = parameter_data(moved.curve.param, moved.point, g.compose(g))
    bound = default_degree_bound(projection_model(moved.curve, moved.point))
    calls = []
    init = polynomials.RatFunc.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(polynomials.RatFunc, "__init__", counting_init)
    solution = mobius_solver(*data, moved.field, bound)
    assert solution.found()
    assert len(calls) == 0
