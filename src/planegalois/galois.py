"""Galois structure of the projection of a plane curve from a point.

The projection from P turns k(C) into an extension of k(y) of degree
d - m_P.  This module models that extension, verifies deck transformations
of a parametrization, decides Galois-ness in low degree through the
discriminant, solves for fractional-linear normal forms of automorphisms
over the base (and refutes them by exact linear algebra), builds de
Jonquieres extensions, and solves or refutes linear extensions to the plane.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Sequence, Tuple, Union

from .cremona import ChainTransport
from .curves import (
    CURVE_VARS,
    Parametrization,
    PlaneCurve,
    ProjPoint,
    has_point_of_multiplicity_ge,
    move_point_first,
    multiplicity_implicit,
    substitute_matrix,
)
from .fields import Field, FieldElement, UNDETERMINED, Undetermined
from .linalg import mat_inv, mat_vec, nullspace, solve_affine
from .maps import (
    LineMobius,
    MobiusOverBase,
    PlaneRationalMap,
    conjugate_by,
    proportional_eq,
)
from .polynomials import (
    MultiPoly,
    NEG_INF,
    Poly1,
    RatFunc,
    RatFuncField,
    clear_denominators,
    exact_div,
    poly_gcd,
    primitive,
    roots,
)


class ProjectionModel:
    """The extension k(C)/k(y) induced by projecting C from the center P.

    The chart moves P to [1:0:0] and dehomogenizes at Z = 1, arranging the
    curve equation by powers of the fiber coordinate x; the extension degree
    is deg(C) - m_P.
    """

    __slots__ = ("center", "fiber_poly", "ext_degree", "multiplicity")

    def __init__(self, center: ProjPoint, fiber_poly: MultiPoly, ext_degree: int, multiplicity: int):
        self.center = center
        self.fiber_poly = fiber_poly
        self.ext_degree = ext_degree
        self.multiplicity = multiplicity

    def monic_coefficients(self) -> List[RatFunc]:
        """Coefficients [c_0, ..., c_(n-1)] of the monic fiber polynomial
        over k(y); the leading coefficient is divided out."""
        n = self.ext_degree
        by_power = self.fiber_poly.univariate_coefficients("X")
        zero = MultiPoly.zero(self.fiber_poly.field, self.fiber_poly.vars)
        coeffs = [RatFunc.from_poly(by_power.get(k, zero).to_poly1("Y")) for k in range(n + 1)]
        return [c / coeffs[n] for c in coeffs[:n]]

    def __repr__(self):
        return (
            f"ProjectionModel(degree={self.ext_degree}, m_P={self.multiplicity}, "
            f"f={self.fiber_poly})"
        )


def projection_model(C: PlaneCurve, P: ProjPoint) -> ProjectionModel:
    """Model of k(C)/K_P; fails when C is a line through P."""
    m = multiplicity_implicit(C, P)
    d = C.degree
    n = d - m
    if n == 0:
        raise ValueError("C is a line through P: the projection degenerates")
    fiber = substitute_matrix(C.implicit, move_point_first(P)).dehomogenize("Z")
    if fiber.degree_in("X") != n:
        raise ValueError("fiber polynomial has unexpected x-degree; chart degenerated")
    return ProjectionModel(P, fiber, n, m)


# -- deck transformations ------------------------------------------------------


class GaloisCertificate:
    """Outcome of a Galois decision: degree, verdict, and verified deck data."""

    __slots__ = ("degree", "verdict", "group", "method", "details")

    def __init__(self, degree, verdict, group=(), method="", details=None):
        self.degree = degree
        self.verdict = verdict  # "galois" | "not_galois" | "undetermined"
        self.group = tuple(group)
        self.method = method
        self.details = details or {}

    def is_galois(self) -> bool:
        return self.verdict == "galois"

    def __repr__(self):
        return f"GaloisCertificate(degree={self.degree}, verdict={self.verdict!r}, method={self.method!r})"


def project_param(phi: Parametrization, P: ProjPoint) -> Tuple[MultiPoly, MultiPoly]:
    """pi_P composed with phi, with common factors cleared; the pair of
    binary forms representing the induced map of P^1.  The pencil of lines
    through P is rows 1 and 2 of T^-1 for the chart T = move_point_first(P),
    so those rows applied to the forms of phi give the pair."""
    a, b = mat_vec(mat_inv(move_point_first(P), phi.field)[1:], phi.forms)
    if a.is_zero() or b.is_zero():
        raise ValueError("projection of the parametrization collapses")
    g = poly_gcd(a, b)
    if g.degree() not in (NEG_INF, 0):
        a = exact_div(a, g)
        b = exact_div(b, g)
    return a, b


def deck_verify(projected: Tuple[MultiPoly, MultiPoly], g: LineMobius) -> bool:
    """True iff psi o g is projectively equal to psi, where psi = pi_P o phi
    is given by its pair of binary forms `project_param(phi, P)`."""
    a, b = projected
    return proportional_eq(projected, (g.substitute_into(a), g.substitute_into(b)))


def deck_group_from_candidates(
    phi: Parametrization, P: ProjPoint, candidates: Sequence[LineMobius]
) -> GaloisCertificate:
    """Close the verified candidates under composition and compare the group
    order with the extension degree."""
    projected = project_param(phi, P)
    n = max(int(f.degree()) for f in projected)

    verified = [g for g in candidates if deck_verify(projected, g)]
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
                    if not deck_verify(projected, gh):
                        raise RuntimeError("composition of deck maps failed verification")
                    group.add(gh)
                    changed = True
    if len(group) > cap:
        return GaloisCertificate(n, "undetermined", (), "deck closure exceeded cap")
    order = len(group)
    elements = sorted(group, key=_mobius_sort_key)
    if order == n:
        return GaloisCertificate(n, "galois", elements, "verified deck group")
    if order > n:
        return GaloisCertificate(
            n, "not_galois", elements, "deck group larger than the covering degree (inseparable or invalid input)"
        )
    return GaloisCertificate(n, "undetermined", elements, "verified deck group too small")


def _mobius_sort_key(g: LineMobius):
    return tuple(str(x) for row in g.matrix for x in row)


# -- low-degree Galois decision ------------------------------------------------


def galois_test_low_degree(model: ProjectionModel) -> GaloisCertificate:
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
    verdict, root = _poly_is_square(disc.num * disc.den)
    details = {"discriminant": disc, "square_root": root}
    if verdict is True:
        return GaloisCertificate(3, "galois", method="discriminant is a square in k(y)", details=details)
    if verdict is False:
        return GaloisCertificate(3, "not_galois", method="discriminant is not a square in k(y)", details=details)
    return GaloisCertificate(3, "undetermined", method="square test undecided at every prime tried", details=details)


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


def _poly_is_square(P: Poly1) -> Tuple[Union[bool, Undetermined], Optional[Poly1]]:
    """Is P a square in k[y]?  Solves for the square root top-down (char != 2)
    from the greatest root of T^2 - lc(P) in k (`roots` order)."""
    field = P.ring
    if P.is_zero():
        return True, P
    d = P.degree()
    if d % 2 == 1:
        return False, None
    if field.characteristic == 2:
        return UNDETERMINED, None
    lead_roots, complete = roots(Poly1(field, [-P.lc(), field.zero(), field.one()]))
    if not lead_roots:
        return (False if complete else UNDETERMINED), None
    lead_root = lead_roots[-1]
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
    d1, d2, d3 = [f.dehomogenize("v").to_poly1("u") for f in std_forms]
    if d3.is_zero():
        raise ValueError("the curve lies in the chart's line at infinity")
    x_t = RatFunc(d1, d3)
    psi_t = RatFunc(d2, d3)
    g_forms = [g.substitute_into(f) for f in std_forms]
    e1, e2, e3 = [f.dehomogenize("v").to_poly1("u") for f in g_forms]
    sigma_x_t = RatFunc(e1, e3)
    return x_t, sigma_x_t, psi_t


# -- the Moebius solver --------------------------------------------------------


class MobiusSolution:
    """Result of mobius_solver: a witness, or NONE with its refutation status."""

    __slots__ = ("status", "mobius")

    def __init__(self, status: str, mobius: Optional[MobiusOverBase] = None):
        self.status = status  # "found" | "none_up_to_bound" | "none_proven"
        self.mobius = mobius

    def found(self) -> bool:
        return self.status == "found"

    def __repr__(self):
        return f"MobiusSolution({self.status!r})"


def mobius_solver(
    x_t: RatFunc,
    sigma_x_t: RatFunc,
    psi_t: RatFunc,
    field: Field,
    degree_bound: int,
) -> MobiusSolution:
    """Decide whether sigma(x) = (alpha(y) x + beta(y)) / (gamma(y) x + delta(y))
    with alpha, beta, gamma, delta in k[y] of degree <= degree_bound, as an
    identity in k(t), y = psi(t).

    With psi = p/q and n = max(deg p, deg q), k(t) = k(y)[T]/(m) for the
    minimal polynomial m(T) = p(T) - y q(T) of t over k(y).  Pseudo-dividing
    the products sd*xn, sd*xd, sn*xn and sn*xd by m, with one power of lc(m)
    for all four, turns Gamma*sigma(x)*x + Delta*sigma(x) - A*x - B = 0 into
    M v = 0 for an n x 4 matrix M over k[y] and v = (A, B, Gamma, Delta);
    by linearity one table of lc(m)^E T^i mod m serves all four products.

    If x has degree >= 3 over k(y) (n >= 3 unless phi is a k:1 cover), 1, x
    and x^2 are independent and sigma(x) is not in k(y): the kernel is at
    most a line.  Rank 4 at y = 2 proves NONE (specializing only lowers the
    rank).  Else the signed 3x3 minors of the first row triple with a
    nonzero minor span it, unless a remaining row is not orthogonal to
    them (rank 4, NONE).  A degenerate line means NONE; else its primitive
    vector is the least-degree witness, found if its degree is at most the
    bound, else NONE up to the bound.  For n <= 2, and when every minor
    vanishes, the kernel has dimension >= 2: the witness is the first
    nondegenerate member of the k-kernel of M's coefficient system for
    entries of degree <= D', D' least up to the bound; else NONE up to it.
    """
    xn, xd = x_t.num, x_t.den
    sn, sd = sigma_x_t.num, sigma_x_t.den
    p, q = psi_t.num, psi_t.den
    n = psi_t.degree_as_map()
    products = [-(sd * xn), -(sd * xd), sn * xn, sn * xd]
    M = _reduction_matrix(products, [Poly1(field, [p[i], -q[i]]) for i in range(n + 1)], field)
    if n <= 2:
        return _bounded_mobius(M, field, degree_bound)
    if not nullspace([[e.evaluate(field.from_int(2)) for e in row] for row in M], field, width=4):
        return MobiusSolution("none_proven")
    line = _kernel_line(M)
    if line is None:
        return _bounded_mobius(M, field, degree_bound)
    if not line or not _nondegenerate([line]):
        return MobiusSolution("none_proven")
    witness = primitive(line)
    if max(int(e.degree()) for e in witness if not e.is_zero()) > degree_bound:
        return MobiusSolution("none_up_to_bound")
    return _found(witness)


def _reduction_matrix(products: Sequence[Poly1], m: List[Poly1], field: Field) -> List[List[Poly1]]:
    """M[r][j] = [T^r] lc(m)^E w_j mod m, E = width - n (width: the longest
    product's length, at least n + 1), is sum_i w_j[i] [T^r] U_i for the table
    U_i = lc(m)^E T^i mod m = lc(m)^(E - k) S_i, S_i = lc(m)^k T^i mod m, k = max(0, i - n + 1)."""
    n, lc, zero = len(m) - 1, m[-1], Poly1.zero(field)
    E = max(n + 1, max(len(w.coeffs) for w in products)) - n
    powers = list(itertools.accumulate([lc] * E, Poly1.__mul__, initial=Poly1.one(field)))
    table, S = [], [Poly1.one(field)] + [zero] * (n - 1)
    for i in range(n + E):
        table.append([s * powers[E - max(0, i - n + 1)] for s in S])
        top, S = S[-1], [zero] + S[:-1]
        if i >= n - 1:
            S = [lc * s - top * c for s, c in zip(S, m)]
    def entry(w: Poly1, r: int) -> Poly1:
        acc = [field.zero()] * (E + 1)
        for c, U in zip(w.coeffs, table):
            if not c.is_zero():
                for k, a in enumerate(U[r].coeffs):
                    acc[k] = acc[k] + c * a
        return Poly1(field, acc)

    return [[entry(w, r) for w in products] for r in range(n)]


def _kernel_line(M: List[List[Poly1]]) -> Optional[List[Poly1]]:
    """The signed 3x3 minors of M's first row triple (combinations order) with
    a nonzero minor; [] if a remaining row is not orthogonal to them (rank 4),
    None if every minor vanishes (rank <= 2)."""
    for triple in itertools.combinations(range(len(M)), 3):
        minors = [_det3([M[i][:j] + M[i][j + 1 :] for i in triple]) for j in range(4)]
        if any(not e.is_zero() for e in minors):
            line = [-e if j % 2 else e for j, e in enumerate(minors)]
            rest = (M[i] for i in range(len(M)) if i not in triple)
            residuals = (sum(map(Poly1.__mul__, r, line), Poly1.zero(r[0].ring)) for r in rest)
            return [] if any(not r.is_zero() for r in residuals) else line
    return None


def _bounded_mobius(M: List[List[Poly1]], field: Field, D: int) -> MobiusSolution:
    """A least-degree witness: for the least D' <= D whose k-kernel of M v = 0,
    in the coefficients of the entries of v of degree <= D' (entry j, y^i at
    column j * (D' + 1) + i), has a nondegenerate member, the first one."""
    longest = max((len(e.coeffs) for row in M for e in row), default=0)
    for d in range(D + 1):
        rows = [
            [row[j][k - i] for j in range(4) for i in range(d + 1)]
            for row in M
            for k in range(longest + d)
        ]
        kernel = nullspace(rows, field, width=4 * (d + 1))
        solutions = [
            tuple(Poly1(field, vec[j * (d + 1) : (j + 1) * (d + 1)]) for j in range(4)) for vec in kernel
        ]
        members = _nondegenerate(solutions)
        if members:
            return _found(primitive(members[0]))
    return MobiusSolution("none_up_to_bound")


def _nondegenerate(solutions: Sequence[Tuple[Poly1, Poly1, Poly1, Poly1]]) -> List[Tuple[Poly1, ...]]:
    """Members of the span of (alpha, beta, gamma, delta) vectors with nonzero
    determinant alpha*delta - beta*gamma: the basis members that have one,
    or else v_i + v_j for the first nonzero polarization.

    det(sum c_i v_i) = sum c_i^2 det(v_i) + sum_(i<j) c_i c_j polar(v_i, v_j)
    in every characteristic, so an empty answer means that the determinant
    vanishes on the whole span."""
    members = [s for s in solutions if not (s[0] * s[3] - s[1] * s[2]).is_zero()]
    if members:
        return members
    for i, si in enumerate(solutions):
        for sj in solutions[i + 1 :]:
            polar = si[0] * sj[3] + sj[0] * si[3] - si[1] * sj[2] - sj[1] * si[2]
            if not polar.is_zero():
                return [tuple(a + b for a, b in zip(si, sj))]
    return []


def _found(parts: Tuple[Poly1, Poly1, Poly1, Poly1]) -> MobiusSolution:
    """The primitive witness (alpha, beta, gamma, delta) in its canonical
    scaling: the first nonzero entry of (beta, alpha, delta, gamma) monic."""
    lead = next(p for p in (parts[1], parts[0], parts[3], parts[2]) if not p.is_zero())
    inv = lead.lc().inverse()
    return MobiusSolution("found", MobiusOverBase([p.scale(inv) for p in parts]))


def default_degree_bound(model: ProjectionModel) -> int:
    """Spec default: max y-degree of the fiber coefficients plus 2."""
    return max(int(c.degree_in("Y")) for c in model.fiber_poly.univariate_coefficients("X").values()) + 2


# -- Lemma 3.1 normal form -----------------------------------------------------


def lemma31_formulas(
    cubic: Tuple[RatFunc, RatFunc, RatFunc], nu: Tuple[RatFunc, RatFunc, RatFunc]
) -> MobiusOverBase:
    """Fractional-linear normal form of an order-3 automorphism of a monic
    cubic extension, given its polynomial form sigma(x) = nu2 x^2 + nu1 x + nu0.

    Uses alpha = a2 nu1 nu2 - a1 nu2^2 + nu0 nu2 - nu1^2, gamma = nu2,
    delta = a2 nu2 - nu1, and beta = a2 nu0 nu2 - a0 nu2^2 - nu0 nu1.  For
    every nu these satisfy (gamma x + delta) sigma(x) = alpha x + beta mod f
    identically (reduce the product by x^3 = -a2 x^2 - a1 x - a0), so there
    is nothing to re-check; a degenerate result is refused.  That nu is an
    automorphism's polynomial form is certified where nu is made
    (`cubic_sigma_polynomial_form` checks f(sigma(x)) = 0 mod f).
    """
    a2, a1, a0 = cubic
    nu2, nu1, nu0 = nu
    alpha = a2 * nu1 * nu2 - a1 * nu2 * nu2 + nu0 * nu2 - nu1 * nu1
    beta = a2 * nu0 * nu2 - a0 * nu2 * nu2 - nu0 * nu1
    gamma = nu2
    delta = a2 * nu2 - nu1
    try:
        return MobiusOverBase(clear_denominators((alpha, beta, gamma, delta)))
    except ValueError as exc:
        raise ValueError("formulas produced a degenerate Moebius: nu does not describe an automorphism") from exc


def cubic_sigma_polynomial_form(
    model: ProjectionModel, certificate: GaloisCertificate
) -> Optional[Tuple[RatFunc, RatFunc, RatFunc]]:
    """Polynomial form (nu2, nu1, nu0) of an order-3 generator for a Galois
    cubic model, from the square root of the discriminant that the degree-3
    certificate carries (never issued in characteristic 2): the conjugate
    root is (-(a2 + x) + sqrt(disc) / f'(x)) / 2."""
    base_field = model.fiber_poly.field
    a2, a1, a0 = _monic_cubic_coefficients(model)
    disc = certificate.details["discriminant"]
    delta_rf = RatFunc(certificate.details["square_root"], disc.den)
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
    A, B, Cc, Dd = mob.entries
    M = max(int(x.degree()) for x in (A, B, Cc, Dd) if not x.is_zero())
    Ah, Bh, Ch, Dh = (p.to_multipoly(field, CURVE_VARS, "Y").homogenize("Z", M) for p in (A, B, Cc, Dd))
    X = MultiPoly.variable(field, CURVE_VARS, "X")
    Y = MultiPoly.variable(field, CURVE_VARS, "Y")
    Z = MultiPoly.variable(field, CURVE_VARS, "Z")
    num = Ah * X + Bh * Z
    den = Ch * X + Dh * Z
    # Their only common factors are powers of Z (A, B, C and D are coprime).
    forms = [num * Z, Y * den, Z * den]
    shared = Z ** min(e[2] for f in forms for e in f.terms)
    return conjugate_by(move_point_first(P), [exact_div(f, shared) for f in forms])


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
    lams = [MultiPoly.variable(field, lam_vars, v) for v in lam_vars]
    const = [MultiPoly.constant(field, lam_vars, c) for c in particular]
    sym = [sum((lam.scale(vec[i]) for lam, vec in zip(lams, kernel)), const[i]) for i in range(9)]
    det = _det3([sym[0:3], sym[3:6], sym[6:9]])
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


def _det3(m):
    """A 3x3 determinant over any commutative ring, along the first row."""
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
        for values in itertools.product(range(p), repeat=len(lam_vars)):
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
    phi = C.param
    if certificate.group and phi is None:
        raise ValueError("extension verdicts for deck elements need a parametrization")
    model = projection_model(C, P)
    D = degree_bound if degree_bound is not None else default_degree_bound(model)

    def identity(element) -> ElementReport:
        return ElementReport(element, "jonquieres", witness=MobiusOverBase.identity(C.field), notes="identity")

    if not certificate.group:
        # Algebraic certificates carry no explicit deck maps; report on
        # abstract group elements instead.
        return [identity("identity")] + _sigma_power_reports(model, certificate)
    reports: List[ElementReport] = []
    multip_ok = None  # lazily computed Lemma-multip hypothesis
    chain_transport = None  # cached (forward parametrization data) per chain

    for g in certificate.group:
        if g.is_identity():
            reports.append(identity(g))
            continue
        x_t, sigma_x_t, psi_t = parameter_data(phi, P, g)
        solution = mobius_solver(x_t, sigma_x_t, psi_t, C.field, D)
        if solution.found():
            J = jonquieres_builder(solution.mobius, P, C.field)
            _verify_jonquieres(P, phi, g, J)
            reports.append(ElementReport(g, "jonquieres", witness=(solution.mobius, J)))
            continue
        if chain is not None:
            if chain_transport is None:
                chain_transport = ChainTransport(chain, phi)
            if chain_transport.valid:
                J = chain_transport.extension_for(g)
                if J is not None and _witness_checks(phi, g, J):
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


def _sigma_power_reports(model: ProjectionModel, certificate: GaloisCertificate) -> List[ElementReport]:
    """Reports on sigma^k, 0 < k < n, for a curve without deck maps.

    sigma's Moebius map is built once, when the extension degree n is at
    most 3, and the witness of sigma^k is its k-th power."""
    field = model.fiber_poly.field
    degree = model.ext_degree
    labels = [f"sigma^{k}" if k > 1 else "sigma" for k in range(1, degree)]
    nu = cubic_sigma_polynomial_form(model, certificate) if degree == 3 else None
    if degree == 2:
        a1 = model.monic_coefficients()[1]
        mob = MobiusOverBase((-a1.den, -a1.num, Poly1.zero(field), a1.den))
        notes = "x -> -x - a1"
    elif nu is not None:
        mob = lemma31_formulas(_monic_cubic_coefficients(model), nu)
        notes = "Lemma 3.1 normal form"
    else:
        return [ElementReport(g, "undetermined", notes="no parametrization and no algebraic route") for g in labels]
    reports = []
    power = mob
    for k, g in enumerate(labels):
        if k:
            power = power.compose(mob)
        J = jonquieres_builder(power, model.center, field)
        reports.append(ElementReport(g, "jonquieres", witness=(power, J), notes=notes))
    return reports


def _verify_jonquieres(P: ProjPoint, phi, g, J: PlaneRationalMap):
    pencil = mat_inv(move_point_first(P), P.field)[1:]  # the lines through P
    xs = [MultiPoly.variable(P.field, CURVE_VARS, v) for v in CURVE_VARS]
    if not proportional_eq(mat_vec(pencil, J.components), mat_vec(pencil, xs)):
        raise RuntimeError("built map does not fix the pencil through the center")
    if not _witness_checks(phi, g, J):
        raise RuntimeError("built de Jonquieres map does not restrict to the deck action")


def _witness_checks(phi, g, J: PlaneRationalMap) -> bool:
    """Whether J restricts to the deck element g on the curve C = phi(P^1):
    J(phi(t)) = lambda(t) * phi(g(t)), with J(phi) not identically zero
    (`proportional_eq` refuses a zero side), on the raw pullback forms, no
    gcd clearing needed.

    This alone certifies the witness: it makes F(J(phi)) = lambda^d *
    (F o phi)(g) = 0 for the equation F of C of degree d, because F o phi
    = 0 (param-only curves are implicitized, and a file whose implicit form
    does not vanish on its param is refused); so J maps C onto itself."""
    sub_phi = {v: f for v, f in zip(CURVE_VARS, phi.forms)}
    j_phi = [c.substitute(sub_phi) for c in J.components]
    return proportional_eq(j_phi, [g.substitute_into(f) for f in phi.forms])
