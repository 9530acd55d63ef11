"""Reduction of rational curves toward lines and transport of automorphisms.

Covers the intersection-pairing arithmetic behind the degree < 6
line-equivalence criterion, explicit reduction chains built from linear maps
and standard quadratic steps, the lifting of line automorphisms to the conic
Y^2 = XZ, and conjugation of an end automorphism through a chain to produce
a plane Cremona extension.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .curves import CURVE_VARS, Parametrization, PlaneCurve, ProjPoint, multiplicity_implicit, substitute_matrix
from .fields import Field, FieldElement
from .linalg import mat_det, mat_inv
from .maps import (
    LineMobius,
    PlaneRationalMap,
    conjugate_by,
    linear_pushforward,
    proportional_eq,
    std_quadratic_pushforward,
)
from .polynomials import MultiPoly, divides, exact_div, poly_gcd


class PairingReport:
    """Intersection number of the pulled-back line class with 2K + C~."""

    __slots__ = ("degree", "multiplicities", "pairing", "per_point", "line_equivalence_guaranteed")

    def __init__(self, degree: int, multiplicities: Sequence[int]):
        self.degree = degree
        self.multiplicities = tuple(multiplicities)
        self.pairing = degree - 6
        self.per_point = tuple(2 - m for m in self.multiplicities)
        self.line_equivalence_guaranteed = degree < 6

    def __repr__(self):
        return (
            f"PairingReport(degree={self.degree}, pairing={self.pairing}, "
            f"guaranteed={self.line_equivalence_guaranteed})"
        )


def kodaira_pairing(degree: int, multiplicities: Sequence[int]) -> PairingReport:
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if any(m < 0 for m in multiplicities):
        raise ValueError("multiplicities must be nonnegative")
    return PairingReport(degree, multiplicities)


def line_equivalence_decision(C: PlaneCurve) -> str:
    """'equivalent_to_line' for rational curves of degree < 6, else 'unknown'."""
    if C.param is None:
        raise ValueError("rationality unverified: the curve has no parametrization")
    return "equivalent_to_line" if C.degree < 6 else "unknown"


class ChainStep:
    """One reduction step: a linear change or a quadratic at three points."""

    __slots__ = ("kind", "matrix", "points")

    def __init__(self, kind: str, matrix=None, points=None):
        if kind not in ("linear", "std_quadratic_at"):
            raise ValueError(f"unknown chain step kind {kind!r}")
        self.kind = kind
        self.matrix = matrix
        self.points = tuple(points) if points is not None else None

    @staticmethod
    def linear(matrix) -> "ChainStep":
        return ChainStep("linear", matrix=matrix)

    @staticmethod
    def quadratic_at(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> "ChainStep":
        return ChainStep("std_quadratic_at", points=(p1, p2, p3))

    def __repr__(self):
        if self.kind == "linear":
            return "ChainStep(linear)"
        return f"ChainStep(std_quadratic_at {self.points})"


def _points_matrix(points: Sequence[ProjPoint], field: Field):
    """Matrix whose columns are the three points; invertible iff non-collinear."""
    M = [[points[j].coords[i] for j in range(3)] for i in range(3)]
    if mat_det(M, field).is_zero():
        raise ValueError("the three points are collinear")
    return M


def quadratic_at_three_points(
    C: PlaneCurve, p1: ProjPoint, p2: ProjPoint, p3: ProjPoint
) -> Tuple[PlaneCurve, ChainStep]:
    """Standard quadratic transformation conjugated to base points p1, p2, p3.

    The points must be non-collinear and lie on C (multiplicity >= 1); the
    image degree is 2d - m1 - m2 - m3.
    """
    field = C.field
    A = _points_matrix((p1, p2, p3), field)
    for p in (p1, p2, p3):
        if multiplicity_implicit(C, p) < 1:
            raise ValueError(f"point {p} does not lie on the curve")
    moved = linear_pushforward(C, mat_inv(A, field))
    pushed = std_quadratic_pushforward(moved)
    result = linear_pushforward(pushed.curve, A)
    expected = 2 * C.degree - sum(
        multiplicity_implicit(C, p) for p in (p1, p2, p3)
    )
    if result.degree != expected:
        raise RuntimeError("degree formula violated in conjugated quadratic step")
    return result, ChainStep.quadratic_at(p1, p2, p3)


def apply_step(C: PlaneCurve, step: ChainStep) -> PlaneCurve:
    if step.kind == "linear":
        return linear_pushforward(C, step.matrix)
    return quadratic_at_three_points(C, *step.points)[0]


def step_map(step: ChainStep, field: Field) -> PlaneRationalMap:
    if step.kind == "linear":
        return PlaneRationalMap.from_matrix(field, step.matrix)
    A = _points_matrix(step.points, field)
    return conjugate_by(A, PlaneRationalMap.standard_quadratic(field).components)


def inverse_step_map(step: ChainStep, field: Field) -> PlaneRationalMap:
    if step.kind == "linear":
        return PlaneRationalMap.from_matrix(field, mat_inv(step.matrix, field))
    return step_map(step, field)  # conjugated quadratics are involutions


class ReductionChain:
    """Ordered reduction steps applied once to a start curve, with every
    intermediate image recorded in stages (stages[0] is the start curve,
    stages[-1] the end)."""

    __slots__ = ("start", "steps", "stages", "end")

    def __init__(self, start: PlaneCurve, steps: Sequence[ChainStep]):
        current = start
        stages = [start]
        for step in steps:
            current = apply_step(current, step)
            stages.append(current)
        self.start = start
        self.steps = tuple(steps)
        self.stages = tuple(stages)
        self.end = current

    def forward_map(self) -> PlaneRationalMap:
        field = self.start.field
        total = PlaneRationalMap.identity(field)
        for step in self.steps:
            total = step_map(step, field).compose(total)
        return total

    def backward_map(self) -> PlaneRationalMap:
        field = self.start.field
        total = PlaneRationalMap.identity(field)
        for step in self.steps:
            total = total.compose(inverse_step_map(step, field))
        return total

    def __repr__(self):
        return f"ReductionChain({len(self.steps)} steps, degree {self.start.degree} -> {self.end.degree})"


def conic_lift(g: LineMobius) -> List[List[FieldElement]]:
    """3x3 matrix acting on the conic Y^2 = XZ induced by g through the
    parametrization rho: [u:v] -> [u^2 : uv : v^2], normalized by 1/det.

    With g(u, v) = (au + bv, cu + dv), expanding rho(g(u, v)) in the basis
    (u^2, uv, v^2) forces the doubled entries onto the first and last rows;
    the resulting matrix satisfies rho o g = lift(g) o rho exactly and
    preserves Y^2 - XZ.
    """
    field = g.field
    (a, b), (c, d) = g.matrix
    det_inv = (a * d - b * c).inverse()
    two = field.from_int(2)
    rows = [
        [a * a, two * a * b, b * b],
        [a * c, a * d + b * c, b * d],
        [c * c, two * c * d, d * d],
    ]
    return [[x * det_inv for x in row] for row in rows]


class ChainTransport:
    """Cached data for transporting deck actions through a chain that ends
    on the standard conic: the composed forward/backward maps and the Moebius
    reparametrization mu with chain o phi = rho o mu."""

    __slots__ = ("chain", "forward", "backward", "mu", "valid")

    def __init__(self, chain: ReductionChain, phi: Parametrization):
        self.chain = chain
        field = chain.start.field
        X = MultiPoly.variable(field, CURVE_VARS, "X")
        Y = MultiPoly.variable(field, CURVE_VARS, "Y")
        Z = MultiPoly.variable(field, CURVE_VARS, "Z")
        std_conic = (Y * Y - X * Z).monic()
        self.forward = None
        self.backward = None
        self.mu = None
        self.valid = False
        if chain.end.implicit.monic() != std_conic:
            return
        self.forward = chain.forward_map()
        self.backward = chain.backward_map()
        h = self.forward.apply_to_param(phi)
        self.mu = _mobius_from_conic_param(h)
        self.valid = self.mu is not None

    def end_automorphism(self, g: LineMobius) -> Optional[List[List[FieldElement]]]:
        if not self.valid:
            return None
        return conic_lift(self.mu.compose(g).compose(self.mu.inverse()))

    def extension_for(self, g: LineMobius) -> Optional[PlaneRationalMap]:
        """Conjugated extension without the start-curve divisibility pass; the
        caller is expected to re-verify on the parametrization."""
        A = self.end_automorphism(g)
        if A is None:
            return None
        return _conjugate(self.chain, A, self.forward, self.backward)


def _mobius_from_conic_param(h: Parametrization) -> Optional[LineMobius]:
    """mu with h proportional to rho o mu, rho = [u^2 : uv : v^2], if any.

    If h = c (m1^2, m1 m2, m2^2) with m1, m2 coprime, then (h1, h2) divided
    by gcd(h1, h2) is proportional to (m1, m2); so this one candidate decides."""
    f1, f2 = h.forms[0], h.forms[1]
    if f1.is_zero():
        return None
    g = poly_gcd(f1, f2)
    m1, m2 = exact_div(f1, g), exact_div(f2, g)
    try:
        mu = LineMobius(
            h.field,
            ((m1.coefficient((1, 0)), m1.coefficient((0, 1))), (m2.coefficient((1, 0)), m2.coefficient((0, 1)))),
        )
    except ValueError:
        return None
    return mu if proportional_eq(_rho_of(mu), h.forms) else None


def _rho_of(mu: LineMobius) -> Tuple[MultiPoly, MultiPoly, MultiPoly]:
    field = mu.field
    u = MultiPoly.variable(field, ("u", "v"), "u")
    v = MultiPoly.variable(field, ("u", "v"), "v")
    (a, b), (c, d) = mu.matrix
    m1 = u.scale(a) + v.scale(b)
    m2 = u.scale(c) + v.scale(d)
    return (m1 * m1, m1 * m2, m2 * m2)


def conjugate_extension(chain: ReductionChain, end_automorphism: List[List[FieldElement]]) -> PlaneRationalMap:
    """chain^-1 o end_automorphism o chain as a plane rational map.

    The end automorphism must preserve chain.end; the result is checked to
    preserve chain.start (its implicit form divides the pullback)."""
    J = _conjugate(chain, end_automorphism, chain.forward_map(), chain.backward_map())
    F = chain.start.implicit
    if not divides(F, F.substitute(dict(zip(CURVE_VARS, J.components)))):
        raise RuntimeError("conjugated extension does not preserve the start curve")
    return J


def _conjugate(
    chain: ReductionChain,
    end_automorphism: List[List[FieldElement]],
    forward: PlaneRationalMap,
    backward: PlaneRationalMap,
) -> PlaneRationalMap:
    """backward o end_automorphism o forward, for an end automorphism that
    preserves chain.end."""
    end_F = chain.end.implicit
    if not divides(end_F, substitute_matrix(end_F, end_automorphism)):
        raise ValueError("the end automorphism does not preserve the end curve")
    moved = [substitute_matrix(c, end_automorphism) for c in backward.components]
    return PlaneRationalMap(moved).compose(forward)
