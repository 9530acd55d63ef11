"""Galois structure of the projection of a plane curve from a point.

The projection from P turns k(C) into an extension of k(y) of degree
d - m_P.  This module models that extension, verifies deck transformations
of a parametrization, decides Galois-ness in low degree through the
discriminant, solves for fractional-linear normal forms of automorphisms
over the base (and refutes them by exact linear algebra), builds de
Jonquieres extensions, and solves or refutes linear extensions to the plane.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .curves import (
    CURVE_VARS,
    Parametrization,
    PlaneCurve,
    ProjPoint,
    has_point_of_multiplicity_ge,
    move_point_first,
    multiplicity_implicit,
    projection_forms,
    pullback_line,
    substitute_matrix,
)
from .fields import Field, FieldElement, UNDETERMINED, Undetermined, sqrt_in_field
from .linalg import mat_inv, mat_vec, nullspace, solve_affine
from .maps import (
    LineMobius,
    MobiusOverBase,
    PlaneRationalMap,
    proportional_eq,
)
from .polynomials import MultiPoly, NEG_INF, Poly1, RatFunc, RatFuncField, exact_div, poly_gcd


class ProjectionModel:
    """The extension k(C)/k(y) induced by projecting C from the center P.

    The chart moves P to [1:0:0] and dehomogenizes at Z = 1, arranging the
    curve equation by powers of the fiber coordinate x; the extension degree
    is deg(C) - m_P.
    """

    __slots__ = ("curve", "center", "fiber_poly", "ext_degree", "chart", "multiplicity")

    def __init__(self, curve: PlaneCurve, center: ProjPoint, fiber_poly: MultiPoly, ext_degree: int, chart, multiplicity: int):
        self.curve = curve
        self.center = center
        self.fiber_poly = fiber_poly
        self.ext_degree = ext_degree
        self.chart = chart  # matrix T with T([1:0:0]) = center
        self.multiplicity = multiplicity

    def x_coefficients(self) -> Dict[int, Poly1]:
        """Fiber polynomial arranged by x-powers, coefficients in k[y]."""
        field = self.fiber_poly.field
        out: Dict[int, Dict[int, FieldElement]] = {}
        for e, c in self.fiber_poly.terms.items():
            out.setdefault(e[0], {})[e[1]] = c
        result = {}
        for k, coeffs in out.items():
            top = max(coeffs)
            result[k] = Poly1(field, [coeffs.get(j, field.zero()) for j in range(top + 1)])
        return result

    def monic_coefficients(self) -> List[RatFunc]:
        """Coefficients [c_0, ..., c_(n-1)] of the monic fiber polynomial
        over k(y); the leading coefficient is divided out."""
        n = self.ext_degree
        coeffs = self.x_coefficients()
        lead = RatFunc.from_poly(coeffs[n])
        out = []
        zero_poly = Poly1(self.fiber_poly.field, [])
        for k in range(n):
            num = coeffs.get(k, zero_poly)
            out.append(RatFunc.from_poly(num) / lead)
        return out

    def __repr__(self):
        return (
            f"ProjectionModel(degree={self.ext_degree}, m_P={self.multiplicity}, "
            f"f={self.fiber_poly})"
        )


def projection_model(C: PlaneCurve, P: ProjPoint) -> ProjectionModel:
    """Model of k(C)/K_P; fails when C is a line through P."""
    if not C.irreducible_trusted:
        raise ValueError("projection model needs an irreducibility-trusted curve")
    m = multiplicity_implicit(C, P)
    d = C.degree
    n = d - m
    if n == 0:
        raise ValueError("C is a line through P: the projection degenerates")
    T = move_point_first(P)
    moved = substitute_matrix(C.implicit, T)
    fiber = moved.dehomogenize("Z")
    if fiber.degree_in("X") != n:
        raise ValueError("fiber polynomial has unexpected x-degree; chart degenerated")
    return ProjectionModel(C, P, fiber, n, T, m)


# -- deck transformations ------------------------------------------------------


class GaloisCertificate:
    """Outcome of a Galois decision: degree, verdict, and verified deck data."""

    __slots__ = ("degree", "verdict", "generators", "group", "method", "details")

    def __init__(self, degree, verdict, generators=(), group=(), method="", details=None):
        self.degree = degree
        self.verdict = verdict  # "galois" | "not_galois" | "undetermined"
        self.generators = tuple(generators)
        self.group = tuple(group)
        self.method = method
        self.details = details or {}

    def is_galois(self) -> bool:
        return self.verdict == "galois"

    def __repr__(self):
        return f"GaloisCertificate(degree={self.degree}, verdict={self.verdict!r}, method={self.method!r})"


def project_param(phi: Parametrization, P: ProjPoint) -> Tuple[MultiPoly, MultiPoly]:
    """pi_P composed with phi, with common factors cleared; the pair of
    binary forms representing the induced map of P^1."""
    L1, L2 = projection_forms(P)
    a = pullback_line(L1, phi)
    b = pullback_line(L2, phi)
    if a.is_zero() or b.is_zero():
        raise ValueError("projection of the parametrization collapses")
    g = poly_gcd(a, b)
    if g.degree() not in (NEG_INF, 0):
        a = exact_div(a, g)
        b = exact_div(b, g)
    return a, b


def deck_verify(phi: Parametrization, P: ProjPoint, g: LineMobius) -> bool:
    """True iff psi o g is projectively equal to psi, psi = pi_P o phi."""
    a, b = project_param(phi, P)
    ag = g.substitute_into(a)
    bg = g.substitute_into(b)
    return proportional_eq((a, b), (ag, bg))


def deck_group_from_candidates(
    phi: Parametrization, P: ProjPoint, candidates: Sequence[LineMobius]
) -> GaloisCertificate:
    """Close the verified candidates under composition and compare the group
    order with the extension degree."""
    a, b = project_param(phi, P)
    n = max(int(a.degree()), int(b.degree()))

    verified = [g for g in candidates if deck_verify(phi, P, g)]
    group = {LineMobius.identity(phi.field)}
    group.update(verified)
    cap = 8 * max(n, 1) + 16
    changed = True
    while changed and len(group) <= cap:
        changed = False
        current = list(group)
        for g in current:
            for h in current:
                gh = g.compose(h)
                if gh not in group:
                    if not deck_verify(phi, P, gh):
                        raise RuntimeError("composition of deck maps failed verification")
                    group.add(gh)
                    changed = True
    if len(group) > cap:
        return GaloisCertificate(n, "undetermined", verified, (), "deck closure exceeded cap")
    order = len(group)
    if order == n:
        return GaloisCertificate(
            n, "galois", verified, sorted(group, key=_mobius_sort_key), "verified deck group",
            {"order": order},
        )
    if order > n:
        return GaloisCertificate(
            n, "not_galois", verified, sorted(group, key=_mobius_sort_key),
            "deck group larger than the covering degree (inseparable or invalid input)",
            {"order": order},
        )
    return GaloisCertificate(
        n, "undetermined", verified, sorted(group, key=_mobius_sort_key),
        "verified deck group too small",
        {"order": order},
    )


def _mobius_sort_key(g: LineMobius):
    return tuple(str(x) for row in g.matrix for x in row)


# -- low-degree Galois decision ------------------------------------------------


def galois_test_low_degree(model: ProjectionModel, sqrt_budget=None) -> GaloisCertificate:
    """Degree 1: trivially Galois.  Degree 2: Galois iff separable.
    Degree 3 (char != 2): Galois iff the discriminant is a square in k(y),
    by the square test reduced to a constant-field square root."""
    n = model.ext_degree
    field = model.fiber_poly.field
    if n > 3:
        raise ValueError("algebraic Galois test only covers extension degree <= 3")
    if n == 1:
        return GaloisCertificate(1, "galois", method="projection is birational")
    if n == 2:
        fx = model.fiber_poly.derivative("X")
        if fx.is_zero():
            return GaloisCertificate(2, "not_galois", method="inseparable quadratic extension")
        return GaloisCertificate(2, "galois", method="separable quadratic extension")
    if field.characteristic == 2:
        return GaloisCertificate(3, "undetermined", method="degree-3 test unavailable in characteristic 2")
    a2, a1, a0 = _monic_cubic_coefficients(model)
    disc = _cubic_discriminant(a2, a1, a0)
    if disc.is_zero():
        raise ValueError("fiber polynomial is not separable (vanishing discriminant)")
    verdict, root = _poly_is_square(disc.num * disc.den, sqrt_budget)
    details = {"discriminant": disc, "square_root": root}
    if verdict is True:
        return GaloisCertificate(3, "galois", method="discriminant is a square in k(y)", details=details)
    if verdict is False:
        return GaloisCertificate(3, "not_galois", method="discriminant is not a square in k(y)", details=details)
    return GaloisCertificate(3, "undetermined", method="square test hit the reconstruction budget", details=details)


def _monic_cubic_coefficients(model: ProjectionModel) -> Tuple[RatFunc, RatFunc, RatFunc]:
    coeffs = model.monic_coefficients()
    return coeffs[2], coeffs[1], coeffs[0]


def _cubic_discriminant(a2: RatFunc, a1: RatFunc, a0: RatFunc) -> RatFunc:
    ring = a2.num.ring
    c18 = RatFunc.from_const(ring, ring.from_int(18))
    c4 = RatFunc.from_const(ring, ring.from_int(4))
    c27 = RatFunc.from_const(ring, ring.from_int(27))
    return (
        c18 * a2 * a1 * a0
        - c4 * a2 * a2 * a2 * a0
        + a2 * a2 * a1 * a1
        - c4 * a1 * a1 * a1
        - c27 * a0 * a0
    )


def _sqrt_const(c: FieldElement, budget=None) -> Union[FieldElement, None, Undetermined]:
    field = c.field
    if field.characteristic == 0:
        return sqrt_in_field(c, budget)
    p = field.descriptor.p
    if p == 2:
        return UNDETERMINED
    a = c.data
    if a == 0:
        return field.zero()
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    return field.from_int(_tonelli_shanks(a, p))


def _tonelli_shanks(a: int, p: int) -> int:
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, temp = 0, t
        while temp != 1:
            temp = temp * temp % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _poly_is_square(P: Poly1, budget=None) -> Tuple[Union[bool, Undetermined], Optional[Poly1]]:
    """Is P a square in k[y]?  Solves for the square root top-down (char != 2),
    delegating the leading constant to the constant-field square root."""
    field = P.ring
    if P.is_zero():
        return True, P
    d = P.degree()
    if d % 2 == 1:
        return False, None
    if field.characteristic == 2:
        return UNDETERMINED, None
    lead_root = _sqrt_const(P.lc(), budget)
    if lead_root is None:
        return False, None
    if isinstance(lead_root, Undetermined):
        return UNDETERMINED, None
    m = int(d) // 2
    h = [field.zero()] * (m + 1)
    h[m] = lead_root
    two_lead_inv = (lead_root + lead_root).inverse()
    for j in range(m - 1, -1, -1):
        acc = P[m + j]
        for i in range(j + 1, m):
            partner = m + j - i
            if j < partner < m:
                acc = acc - h[i] * h[partner]
        h[j] = acc * two_lead_inv
    candidate = Poly1(field, h)
    if candidate * candidate == P:
        return True, candidate
    return False, None


# -- expressing sigma on the generator ----------------------------------------


def parameter_data(
    phi: Parametrization, P: ProjPoint, g: LineMobius
) -> Tuple[RatFunc, RatFunc, RatFunc]:
    """(x(t), x(g(t)), y(t)) in the chart that moves P to [1:0:0]."""
    field = phi.field
    T = move_point_first(P)
    T_inv = mat_inv(T, field)
    std_forms = mat_vec(T_inv, phi.forms)
    d1, d2, d3 = [_binary_dehom(f, field) for f in std_forms]
    if d3.is_zero():
        raise ValueError("the curve lies in the chart's line at infinity")
    x_t = RatFunc(d1, d3)
    psi_t = RatFunc(d2, d3)
    g_forms = [g.substitute_into(f) for f in std_forms]
    e1, e2, e3 = [_binary_dehom(f, field) for f in g_forms]
    sigma_x_t = RatFunc(e1, e3)
    return x_t, sigma_x_t, psi_t


def _binary_dehom(form: MultiPoly, field: Field) -> Poly1:
    """f(t, 1) for a binary form in (u, v)."""
    coeffs: Dict[int, FieldElement] = {}
    for e, c in form.terms.items():
        coeffs[e[0]] = coeffs.get(e[0], field.zero()) + c
    if not coeffs:
        return Poly1(field, [])
    top = max(coeffs)
    return Poly1(field, [coeffs.get(k, field.zero()) for k in range(top + 1)])


# -- the Moebius solver --------------------------------------------------------


class MobiusSolution:
    """Result of mobius_solver: a witness or a NONE with its refutation status."""

    __slots__ = ("status", "mobius", "bound", "details")

    def __init__(self, status: str, mobius: Optional[MobiusOverBase], bound: int, details=None):
        self.status = status  # "found" | "none_up_to_bound" | "none_proven"
        self.mobius = mobius
        self.bound = bound
        self.details = details or {}

    def found(self) -> bool:
        return self.status == "found"

    def __repr__(self):
        return f"MobiusSolution({self.status!r}, bound={self.bound})"


def mobius_solver(
    x_t: RatFunc,
    sigma_x_t: RatFunc,
    psi_t: RatFunc,
    field: Field,
    degree_bound: int,
    seed: int = 0,
) -> MobiusSolution:
    """Search for alpha, beta, gamma, delta in k[y] of degree <= degree_bound
    with sigma(x) = (alpha(y) x + beta(y)) / (gamma(y) x + delta(y)) as an
    identity in k(t), y = psi(t).

    The identity is linear in the unknown coefficients; the nullspace of the
    resulting exact system is scanned for a vector with nonzero determinant.
    When every vector of the solution space is degenerate (checked through
    the polarized determinant form, valid away from characteristic 2), the
    answer is NONE; it is reported as proven when the base map is a pure
    power map t -> c*t^n with a primitive n-th root of unity in k, which
    yields a completeness bound for the coefficient degrees.
    """
    D = degree_bound
    graded = _graded_mobius_solve(x_t, sigma_x_t, psi_t, field, D)
    if graded is not None:
        return graded
    xn, xd = x_t.num, x_t.den
    sn, sd = sigma_x_t.num, sigma_x_t.den
    p, q = psi_t.num, psi_t.den

    pq = []
    for i in range(D + 1):
        pq.append(p**i * q ** (D - i))
    bases = [sd * xn, sd * xd, sn * xn, sn * xd]  # A, B, Gamma, Delta multipliers
    signs = [-1, -1, 1, 1]
    columns: List[Poly1] = []
    for b_idx, base in enumerate(bases):
        for i in range(D + 1):
            col = base * pq[i]
            columns.append(-col if signs[b_idx] < 0 else col)
    height = max((len(c.coeffs) for c in columns), default=0)
    rows = []
    for r in range(height):
        rows.append([c[r] for c in columns])
    kernel = nullspace(rows, field, width=len(columns))

    def unpack(vec) -> Tuple[Poly1, Poly1, Poly1, Poly1]:
        chunks = []
        for m in range(4):
            chunk = vec[m * (D + 1) : (m + 1) * (D + 1)]
            chunks.append(Poly1(field, chunk))
        return tuple(chunks)

    solutions = [unpack(v) for v in kernel]
    dets = [(s[0] * s[3] - s[1] * s[2]) for s in solutions]
    found_index = next((i for i, dv in enumerate(dets) if not dv.is_zero()), None)
    if found_index is not None:
        return _finish_mobius(solutions[found_index], D)

    if solutions and field.characteristic != 2:
        # Every basis determinant vanishes; the determinant vanishes on the
        # whole solution space iff all polarizations vanish too.
        for i in range(len(solutions)):
            for j in range(i + 1, len(solutions)):
                si, sj = solutions[i], solutions[j]
                polar = si[0] * sj[3] + sj[0] * si[3] - si[1] * sj[2] - sj[1] * si[2]
                if not polar.is_zero():
                    # det(v_i + c v_j) = c * polar for any c != 0 here.
                    combo = tuple(a + b for a, b in zip(si, sj))
                    return _finish_mobius(combo, D)
    elif solutions:  # characteristic 2: no polarization identity, search
        combo = _search_combinations(solutions, field, seed)
        if combo is not None:
            return _finish_mobius(combo, D)
        return MobiusSolution("none_up_to_bound", None, D, {"reason": "char-2 search exhausted"})

    proven_bound = _pure_power_bound(x_t, sigma_x_t, psi_t, field)
    if proven_bound is not None and D >= proven_bound and field.characteristic != 2:
        return MobiusSolution(
            "none_proven",
            None,
            D,
            {"completeness_bound": proven_bound, "nullspace_dimension": len(solutions)},
        )
    return MobiusSolution(
        "none_up_to_bound", None, D, {"nullspace_dimension": len(solutions)}
    )


def _finish_mobius(parts: Tuple[Poly1, Poly1, Poly1, Poly1], D: int) -> MobiusSolution:
    alpha, beta, gamma, delta = parts
    content = alpha
    for other in (beta, gamma, delta):
        content = content.gcd(other)
        if content.degree() == 0:
            break
    if not content.is_zero() and content.degree() not in (NEG_INF, 0):
        alpha, beta, gamma, delta = (
            x.exact_div(content) if not x.is_zero() else x for x in (alpha, beta, gamma, delta)
        )
    mob = MobiusOverBase.from_polynomials((alpha, beta, gamma, delta))
    return MobiusSolution("found", mob, D)


def _search_combinations(solutions, field, seed):
    rng = random.Random(seed)
    p = field.characteristic
    small = [field.from_int(k) for k in range(p)] if p and p <= 5 else None
    if small and len(solutions) <= 4:
        import itertools as _it

        for coeffs in _it.product(small, repeat=len(solutions)):
            if all(c.is_zero() for c in coeffs):
                continue
            cand = _linear_combo(solutions, coeffs, field)
            det = cand[0] * cand[3] - cand[1] * cand[2]
            if not det.is_zero():
                return cand
        return None
    for _ in range(200):
        coeffs = [field.from_int(rng.randint(0, 6)) for _ in solutions]
        if all(c.is_zero() for c in coeffs):
            continue
        cand = _linear_combo(solutions, coeffs, field)
        det = cand[0] * cand[3] - cand[1] * cand[2]
        if not det.is_zero():
            return cand
    return None


def _linear_combo(solutions, coeffs, field):
    acc = [Poly1(field, []) for _ in range(4)]
    for sol, c in zip(solutions, coeffs):
        if c.is_zero():
            continue
        acc = [a + s.scale(c) for a, s in zip(acc, sol)]
    return tuple(acc)


def _graded_mobius_solve(x_t, sigma_x_t, psi_t, field, D) -> Optional[MobiusSolution]:
    """Complete Moebius decision when the base map factors as a Moebius of a
    pure power, psi = beta(t^n) with a primitive n-th root of unity in k.

    k(t) = sum_k k(t^n) t^k splits the defining identity into one equation
    per graded component, a 4-unknown linear system over the rational
    function field k(s), s = t^n; solutions transform back through beta.
    Returns None when the grading does not apply (then the caller runs the
    polynomial ansatz); falls back likewise if a solution exists only above
    the requested degree bound."""
    if field.characteristic == 2:
        return None
    n = psi_t.degree_as_map()
    if n < 2:
        return None
    zeta = primitive_nth_root(field, n)
    if zeta is None:
        return None
    twisted = RatFunc(_twist(psi_t.num, zeta, field), _twist(psi_t.den, zeta, field))
    if twisted != psi_t:
        return None  # psi does not factor through t -> t^n
    beta = _factor_through_power(psi_t, n, field)
    if beta is None:
        return None
    one = RatFunc.from_const(field, field.one())
    w_list = [sigma_x_t * x_t, sigma_x_t, x_t, one]
    components = []
    for w in w_list:
        comps = _graded_components(w, n, zeta, field)
        if comps is None:
            return None
        components.append(comps)
    ring = RatFuncField(field)
    # unknown order (Gamma, Delta, A, B); signs make the identity
    # Gamma*(sx*x) + Delta*sx - A*x - B = 0 read off directly.
    rows = []
    for k in range(n):
        rows.append(
            [components[0][k], components[1][k], -components[2][k], -components[3][k]]
        )
    kernel = nullspace(rows, ring, width=4)
    if not kernel:
        return MobiusSolution("none_proven", None, D, {"method": "graded components", "nullspace_dimension": 0})
    beta_inv = beta.inverse()
    reps = []
    for vec in kernel:
        in_y = [_ratfunc_compose_mobius(r, beta_inv, field) for r in vec]
        reps.append(_clear_ratfunc_vector(in_y, field))

    def as_mobius_parts(rep):
        gamma_p, delta_p, a_p, b_p = rep
        return (a_p, b_p, gamma_p, delta_p)

    valid = []
    for rep in reps:
        alpha, beta_p, gamma, delta = as_mobius_parts(rep)
        det = alpha * delta - beta_p * gamma
        if not det.is_zero():
            valid.append((alpha, beta_p, gamma, delta))
    if not valid and len(reps) > 1:
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                ai = as_mobius_parts(reps[i])
                aj = as_mobius_parts(reps[j])
                polar = ai[0] * aj[3] + aj[0] * ai[3] - ai[1] * aj[2] - aj[1] * ai[2]
                if not polar.is_zero():
                    valid.append(tuple(x + y for x, y in zip(ai, aj)))
                    break
            if valid:
                break
    if not valid:
        return MobiusSolution(
            "none_proven", None, D, {"method": "graded components", "nullspace_dimension": len(kernel)}
        )
    best = min(valid, key=lambda parts: max(int(x.degree()) for x in parts if not x.is_zero()))
    top = max(int(x.degree()) for x in best if not x.is_zero())
    if top <= D:
        return _finish_mobius(best, D)
    return None  # a solution exists above the bound: defer to the ansatz


def _factor_through_power(psi: RatFunc, n: int, field: Field) -> Optional[LineMobius]:
    """Moebius beta with psi(t) = beta(t^n), as a LineMobius on the s-line."""
    P, Q = psi.num, psi.den
    # a*s*Q + b*Q - c*s*P - d*P = 0 as polynomials in t, s = t^n.
    s_shift_Q = Poly1(field, [field.zero()] * n + list(Q.coeffs))
    s_shift_P = Poly1(field, [field.zero()] * n + list(P.coeffs))
    columns = [s_shift_Q, Q, -s_shift_P, -P]
    height = max(len(c.coeffs) for c in columns)
    rows = [[c[r] for c in columns] for r in range(height)]
    kernel = nullspace(rows, field, width=4)
    for vec in kernel:
        a, b, c, d = vec
        if not (a * d - b * c).is_zero():
            return LineMobius(field, ((a, b), (c, d)))
    return None


def _ratfunc_compose_mobius(r: RatFunc, m: LineMobius, field: Field) -> RatFunc:
    """r(m(y)) for a Moebius m = (a y + b)/(c y + d)."""
    (a, b), (c, d) = m.matrix
    lin_num = Poly1(field, [b, a])
    lin_den = Poly1(field, [d, c])
    N = max(len(r.num.coeffs), len(r.den.coeffs)) - 1
    if N < 0:
        return r
    num_pows = [lin_num**i for i in range(N + 1)]
    den_pows = [lin_den**i for i in range(N + 1)]
    new_num = Poly1.zero(field)
    for i, coef in enumerate(r.num.coeffs):
        if not coef.is_zero():
            new_num = new_num + (num_pows[i] * den_pows[N - i]).scale(coef)
    new_den = Poly1.zero(field)
    for i, coef in enumerate(r.den.coeffs):
        if not coef.is_zero():
            new_den = new_den + (num_pows[i] * den_pows[N - i]).scale(coef)
    return RatFunc(new_num, new_den)


def _clear_ratfunc_vector(vec, field) -> Tuple[Poly1, Poly1, Poly1, Poly1]:
    lcm = Poly1.one(field)
    for r in vec:
        g = lcm.gcd(r.den)
        lcm = lcm * r.den.exact_div(g)
    cleared = [r.num * lcm.exact_div(r.den) for r in vec]
    content = None
    for c in cleared:
        if c.is_zero():
            continue
        content = c if content is None else content.gcd(c)
        if content.degree() == 0:
            break
    if content is not None and content.degree() not in (NEG_INF, 0):
        cleared = [c.exact_div(content) if not c.is_zero() else c for c in cleared]
    return tuple(cleared)


def primitive_nth_root(field: Field, n: int) -> Optional[FieldElement]:
    if n == 1:
        return field.one()
    if n == 2 and field.characteristic != 2:
        return -field.one()
    if field.kind == "cyclotomic":
        m = field.descriptor.n
        if m % n == 0:
            return field.generator() ** (m // n)
        return None
    if field.kind == "prime":
        p = field.descriptor.p
        if (p - 1) % n != 0 or p > 10_000:
            return None
        for k in range(2, p):
            candidate = field.from_int(k)
            if _mult_order(candidate, n) == n:
                return candidate
        return None
    return None


def _mult_order(x: FieldElement, cap: int) -> Optional[int]:
    acc = x
    for k in range(1, cap + 1):
        if acc.is_one():
            return k
        acc = acc * x
    return None


def _pure_power_bound(x_t, sigma_x_t, psi_t, field) -> Optional[int]:
    """Completeness bound for the ansatz degree when psi is c*t^n.

    k(t) splits over k(t^n) into graded components; expressing the defining
    identity componentwise gives an exact linear system over k(y) whose
    Cramer solutions have degree at most 3 * (largest cleared entry degree).
    """
    if not psi_t.den.degree() in (NEG_INF, 0):
        return None
    p = psi_t.num
    n = int(p.degree())
    if n < 1:
        return None
    if any(not p[k].is_zero() for k in range(n)):
        return None
    zeta = primitive_nth_root(field, n)
    if zeta is None:
        return None
    one = RatFunc.from_const(field, field.one())
    w_list = [sigma_x_t * x_t, sigma_x_t, x_t, one]
    max_entry = 0
    components = []
    for w in w_list:
        comps = _graded_components(w, n, zeta, field)
        if comps is None:
            return None
        components.append(comps)
    for k in range(n):
        row = [components[m][k] for m in range(4)]
        lcm = Poly1.one(field)
        for r in row:
            g = lcm.gcd(r.den)
            lcm = lcm * r.den.exact_div(g)
        for r in row:
            if r.is_zero():
                continue
            cleared = r.num * lcm.exact_div(r.den)
            max_entry = max(max_entry, int(cleared.degree()))
    return 3 * max_entry


def _graded_components(h: RatFunc, n: int, zeta: FieldElement, field: Field) -> Optional[List[RatFunc]]:
    """Split h(t) = sum_k h_k(t^n) t^k; components returned as functions of s."""
    num, den = h.num, h.den
    den_star = Poly1.one(field)
    for j in range(1, n):
        den_star = den_star * _twist(den, zeta**j, field)
    big_den = den * den_star
    for k, c in enumerate(big_den.coeffs):
        if k % n != 0 and not c.is_zero():
            return None
    den_s = Poly1(field, [big_den[k] for k in range(0, len(big_den.coeffs), n)])
    big_num = num * den_star
    comps = []
    for k in range(n):
        coeffs = []
        idx = k
        while idx < len(big_num.coeffs) or not coeffs:
            coeffs.append(big_num[idx])
            idx += n
        comps.append(RatFunc(Poly1(field, coeffs), den_s))
    return comps


def _twist(p: Poly1, factor: FieldElement, field: Field) -> Poly1:
    """p(factor * t)."""
    out = []
    acc = field.one()
    for c in p.coeffs:
        out.append(c * acc)
        acc = acc * factor
    return Poly1(field, out)


def default_degree_bound(model: ProjectionModel) -> int:
    """Spec default: max y-degree of the fiber coefficients plus 2."""
    coeffs = model.x_coefficients()
    top = max(int(c.degree()) for c in coeffs.values() if not c.is_zero())
    return top + 2


# -- Lemma 3.1 normal form -----------------------------------------------------


def lemma31_formulas(
    cubic: Tuple[RatFunc, RatFunc, RatFunc], nu: Tuple[RatFunc, RatFunc, RatFunc]
) -> MobiusOverBase:
    """Fractional-linear normal form of an order-3 automorphism of a monic
    cubic extension, given its polynomial form sigma(x) = nu2 x^2 + nu1 x + nu0.

    Uses alpha = a2 nu1 nu2 - a1 nu2^2 + nu0 nu2 - nu1^2, gamma = nu2,
    delta = a2 nu2 - nu1, and beta = a2 nu0 nu2 - a0 nu2^2 - nu0 nu1; the
    defining congruence (gamma x + delta) sigma(x) = alpha x + beta mod f is
    re-verified by an independent reduction before returning.
    """
    a2, a1, a0 = cubic
    nu2, nu1, nu0 = nu
    alpha = a2 * nu1 * nu2 - a1 * nu2 * nu2 + nu0 * nu2 - nu1 * nu1
    beta = a2 * nu0 * nu2 - a0 * nu2 * nu2 - nu0 * nu1
    gamma = nu2
    delta = a2 * nu2 - nu1
    ring = RatFuncField(a2.num.ring)
    f = Poly1(ring, [a0, a1, a2, ring.one()])
    sigma = Poly1(ring, [nu0, nu1, nu2])
    lhs = (Poly1(ring, [delta, gamma]) * sigma) % f
    rhs = Poly1(ring, [beta, alpha])
    if lhs != rhs:
        raise ValueError("congruence check failed: nu is not an automorphism's polynomial form")
    try:
        return MobiusOverBase((alpha, beta, gamma, delta))
    except ValueError as exc:
        raise ValueError("formulas produced a degenerate Moebius: nu does not describe an automorphism") from exc


def cubic_sigma_polynomial_form(model: ProjectionModel) -> Optional[Tuple[RatFunc, RatFunc, RatFunc]]:
    """Polynomial form (nu2, nu1, nu0) of an order-3 generator for a Galois
    cubic model, from the square root of the discriminant: the conjugate root
    is (-(a2 + x) + sqrt(disc) / f'(x)) / 2."""
    base_field = model.fiber_poly.field
    if base_field.characteristic == 2:
        return None
    a2, a1, a0 = _monic_cubic_coefficients(model)
    disc = _cubic_discriminant(a2, a1, a0)
    if disc.is_zero():
        return None
    ok, root = _poly_is_square(disc.num * disc.den)
    if ok is not True:
        return None
    delta_rf = RatFunc(root, disc.den)
    ring = RatFuncField(base_field)
    f = Poly1(ring, [a0, a1, a2, ring.one()])
    f_prime = f.derivative()
    g, s, _ = f_prime.xgcd(f)
    if g.degree() != 0:
        return None
    inv_fprime = s.scale(ring.one() / g[0])
    half = RatFunc.from_const(base_field, base_field.from_int(2).inverse())
    x_poly = Poly1.x(ring)
    a2_const = Poly1.const(ring, a2)
    sigma = ((inv_fprime.scale(delta_rf) - x_poly - a2_const) % f).scale(half)
    # sigma must be a conjugate root: f(sigma(x)) = 0 mod f.
    acc = Poly1.zero(ring)
    for c in reversed(f.coeffs):
        acc = (acc * sigma) % f + Poly1.const(ring, c)
    if not acc.is_zero():
        return None
    return sigma[2], sigma[1], sigma[0]


# -- building plane maps from fiber actions ------------------------------------


def jonquieres_builder(mob: MobiusOverBase, P: ProjPoint, field: Field) -> PlaneRationalMap:
    """Plane map fixing the pencil through P and acting on the chart fiber
    coordinate by the given Moebius transformation."""
    A, B, Cc, Dd = mob.cleared()
    M = max(int(x.degree()) for x in (A, B, Cc, Dd) if not x.is_zero())
    Ah = _homog_y(A, M, field)
    Bh = _homog_y(B, M, field)
    Ch = _homog_y(Cc, M, field)
    Dh = _homog_y(Dd, M, field)
    X = MultiPoly.variable(field, CURVE_VARS, "X")
    Y = MultiPoly.variable(field, CURVE_VARS, "Y")
    Z = MultiPoly.variable(field, CURVE_VARS, "Z")
    num = Ah * X + Bh * Z
    den = Ch * X + Dh * Z
    J_std = PlaneRationalMap([num * Z, Y * den, Z * den])
    T = move_point_first(P)
    T_inv = mat_inv(T, field)
    as_map = PlaneRationalMap.from_matrix(field, T)
    back = PlaneRationalMap.from_matrix(field, T_inv)
    return as_map.compose(J_std).compose(back)


def _homog_y(p: Poly1, degree: int, field: Field) -> MultiPoly:
    terms = {}
    for k, c in enumerate(p.coeffs):
        if not c.is_zero():
            terms[(0, k, degree - k)] = c
    return MultiPoly(field, CURVE_VARS, terms)


# -- linear extensions ---------------------------------------------------------


class LinearExtensionResult:
    __slots__ = ("status", "matrix", "details")

    def __init__(self, status: str, matrix=None, details=None):
        self.status = status  # "found" | "none"
        self.matrix = matrix
        self.details = details or {}

    def found(self) -> bool:
        return self.status == "found"

    def __repr__(self):
        return f"LinearExtensionResult({self.status!r})"


def linear_extension_solver(phi: Parametrization, g: LineMobius) -> LinearExtensionResult:
    """Solve A . phi(u, v) = phi(g(u, v)) for an invertible 3x3 matrix A.

    The system is linear in the nine entries (the projective scalar is
    absorbed into A); NONE comes with the certificate that the solution
    space is inconsistent or contains only singular matrices.
    """
    field = phi.field
    e = phi.degree
    targets = [g.substitute_into(f) for f in phi.forms]
    monomials = [(j, e - j) for j in range(e + 1)]
    rows = []
    rhs = []
    for i in range(3):
        for (a, b) in monomials:
            row = [field.zero()] * 9
            for l in range(3):
                row[3 * i + l] = phi.forms[l].coefficient((a, b))
            rows.append(row)
            rhs.append(targets[i].coefficient((a, b)))
    solved = solve_affine(rows, rhs, field)
    if solved is None:
        return LinearExtensionResult("none", details={"certificate": "inconsistent system"})
    particular, kernel = solved
    lam_vars = tuple(f"l{i}" for i in range(len(kernel)))
    det = _symbolic_det(particular, kernel, lam_vars, field)
    if det.is_zero():
        return LinearExtensionResult(
            "none", details={"certificate": "solution space contains only singular matrices"}
        )
    assignment = _nonvanishing_point(det, lam_vars, field)
    if assignment is None:
        return LinearExtensionResult(
            "none", details={"certificate": "no invertible member found over the ground field"}
        )
    entries = list(particular)
    for vec, value in zip(kernel, assignment):
        if value.is_zero():
            continue
        entries = [x + y * value for x, y in zip(entries, vec)]
    matrix = [entries[0:3], entries[3:6], entries[6:9]]
    return LinearExtensionResult("found", matrix=matrix)


def _symbolic_det(particular, kernel, lam_vars, field) -> MultiPoly:
    def entry(idx):
        acc = MultiPoly.constant(field, lam_vars, particular[idx])
        for k, vec in enumerate(kernel):
            if not vec[idx].is_zero():
                acc = acc + MultiPoly.variable(field, lam_vars, lam_vars[k]).scale(vec[idx])
        return acc

    m = [[entry(3 * r + c) for c in range(3)] for r in range(3)]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _nonvanishing_point(det: MultiPoly, lam_vars, field) -> Optional[List[FieldElement]]:
    if not lam_vars:
        return [] if not det.is_zero() else None
    rng = random.Random(20240603)
    p = field.characteristic
    if p and p <= 7 and len(lam_vars) <= 6:
        import itertools as _it

        for values in _it.product(range(p), repeat=len(lam_vars)):
            point = [field.from_int(v) for v in values]
            if not det.evaluate(dict(zip(lam_vars, point))).is_zero():
                return point
        return None
    for _ in range(300):
        point = [field.from_int(rng.randint(-6, 6)) for _ in lam_vars]
        if not det.evaluate(dict(zip(lam_vars, point))).is_zero():
            return point
    return None


# -- per-element extension verdicts --------------------------------------------


class ElementReport:
    """Extension verdict for one Galois-group element."""

    __slots__ = ("element", "verdict", "witness", "proven", "notes")

    def __init__(self, element, verdict, witness=None, proven=False, notes=""):
        self.element = element
        self.verdict = verdict  # jonquieres | cremona_only | linear | none_found | undetermined
        self.witness = witness
        self.proven = proven
        self.notes = notes

    def __repr__(self):
        return f"ElementReport({self.element!r}, {self.verdict!r})"


def extension_verdict(
    C: PlaneCurve,
    P: ProjPoint,
    certificate: GaloisCertificate,
    chain=None,
    degree_bound: Optional[int] = None,
    seed: int = 0,
) -> List[ElementReport]:
    """Classify each Galois-group element by the best extension exhibited:
    a de Jonquieres witness, a Cremona extension through a reduction chain,
    a linear extension, or a refutation of all three."""
    if not certificate.is_galois():
        raise ValueError("extension verdicts need an established Galois certificate")
    model = projection_model(C, P)
    D = degree_bound if degree_bound is not None else default_degree_bound(model)
    phi = C.param
    reports: List[ElementReport] = []

    elements: Sequence = certificate.group
    if not elements:
        # Algebraic certificates carry no explicit deck maps; report on
        # abstract group elements instead.
        elements = ["identity"] + [f"sigma^{k}" if k > 1 else "sigma" for k in range(1, certificate.degree)]

    multip_ok = None  # lazily computed Lemma-multip hypothesis
    chain_transport = None  # cached (forward parametrization data) per chain

    for g in elements:
        if isinstance(g, str):
            if g == "identity":
                reports.append(
                    ElementReport(g, "jonquieres", witness=MobiusOverBase.identity(C.field), notes="identity")
                )
            else:
                reports.append(_implicit_element_report(model, g))
            continue
        if g.is_identity():
            reports.append(
                ElementReport(g, "jonquieres", witness=MobiusOverBase.identity(C.field), notes="identity")
            )
            continue
        if phi is None:
            reports.append(_implicit_element_report(model, g))
            continue
        x_t, sigma_x_t, psi_t = parameter_data(phi, P, g)
        solution = mobius_solver(x_t, sigma_x_t, psi_t, C.field, D, seed=seed)
        if solution.found():
            J = jonquieres_builder(solution.mobius, P, C.field)
            _verify_jonquieres(C, P, phi, g, J)
            reports.append(ElementReport(g, "jonquieres", witness=(solution.mobius, J)))
            continue
        if chain is not None:
            if chain_transport is None:
                from .cremona import ChainTransport

                chain_transport = ChainTransport(chain, phi)
            if chain_transport.valid:
                J = chain_transport.extension_for(g)
                if J is not None:
                    preserves, restricts = _witness_checks(C, phi, g, J)
                    if preserves and restricts:
                        notes = "no de Jonquieres witness up to the bound; Cremona extension exhibited"
                        if solution.status == "none_proven":
                            notes = "de Jonquieres refuted (proven); Cremona extension exhibited"
                        reports.append(ElementReport(g, "cremona_only", witness=J, notes=notes))
                        continue
        linear = linear_extension_solver(phi, g)
        if linear.found():
            reports.append(ElementReport(g, "linear", witness=linear.matrix))
            continue
        # all refutations hold; upgrade through the multiplicity lemma
        if multip_ok is None:
            threshold = (C.degree + 2) // 3
            result = has_point_of_multiplicity_ge(C, max(threshold, 1), seed=seed)
            multip_ok = result.verdict is False
        if multip_ok:
            notes = (
                "all singular multiplicities < deg/3, so only linear extensions are "
                "possible; the linear system is "
                + linear.details.get("certificate", "empty")
            )
            reports.append(ElementReport(g, "none_found", proven=True, notes=notes))
        elif solution.status == "none_proven":
            reports.append(
                ElementReport(
                    g,
                    "none_found",
                    proven=False,
                    notes="de Jonquieres refuted (proven) and linear refuted; general Cremona extension undecided",
                )
            )
        else:
            reports.append(
                ElementReport(g, "undetermined", notes="refutations are bound-limited")
            )
    return reports


def _implicit_element_report(model: ProjectionModel, g: str) -> ElementReport:
    """Implicit-only curves: construct the witness of g = sigma^k algebraically,
    as the k-th power of sigma's Moebius map, when the extension degree is at
    most 3."""
    n = model.ext_degree
    field = model.fiber_poly.field
    nu = cubic_sigma_polynomial_form(model) if n == 3 else None
    if n == 2:
        coeffs = model.monic_coefficients()
        ring = RatFuncField(field)
        mob = MobiusOverBase((-(ring.one()), -coeffs[1], ring.zero(), ring.one()))
        notes = "x -> -x - a1"
    elif nu is not None:
        mob = lemma31_formulas(_monic_cubic_coefficients(model), nu)
        notes = "Lemma 3.1 normal form"
    else:
        return ElementReport(g, "undetermined", notes="no parametrization and no algebraic route")
    power = mob
    for _ in range(int(g.partition("^")[2] or 1) - 1):
        power = power.compose(mob)
    J = jonquieres_builder(power, model.center, field)
    return ElementReport(g, "jonquieres", witness=(power, J), notes=notes)


def _verify_jonquieres(C: PlaneCurve, P: ProjPoint, phi, g, J: PlaneRationalMap):
    preserves, restricts = _witness_checks(C, phi, g, J)
    if not preserves:
        raise RuntimeError("built de Jonquieres map does not preserve the curve")
    L1, L2 = projection_forms(P)
    sub = {v: c for v, c in zip(CURVE_VARS, J.components)}
    if not proportional_eq((L1.substitute(sub), L2.substitute(sub)), (L1, L2)):
        raise RuntimeError("built map does not fix the pencil through the center")
    if not restricts:
        raise RuntimeError("built de Jonquieres map does not restrict to the deck action")


def _witness_checks(C: PlaneCurve, phi, g, J: PlaneRationalMap) -> Tuple[bool, bool]:
    """(preserves curve, restricts to the deck action).

    With a parametrization, curve preservation F | F o J is equivalent to
    F(J(phi(t))) = 0 (F irreducible, phi dominant onto C), which stays in
    cheap binary-form arithmetic; the raw pullback forms also serve for the
    restriction check, no gcd clearing needed."""
    F = C.implicit
    if phi is None:
        from .polynomials import divides

        sub = {v: c for v, c in zip(CURVE_VARS, J.components)}
        return divides(F, F.substitute(sub)), True
    sub_phi = {v: f for v, f in zip(CURVE_VARS, phi.forms)}
    j_phi = [c.substitute(sub_phi) for c in J.components]
    pullback = F.substitute({v: f for v, f in zip(CURVE_VARS, j_phi)})
    preserves = pullback.is_zero()
    if g is None:
        return preserves, True
    right = [g.substitute_into(f) for f in phi.forms]
    restricts = proportional_eq(j_phi, right)
    return preserves, restricts

