"""Rational self-maps of the plane and the line.

PlaneRationalMap holds three coprime homogeneous forms; LineMobius a 2x2
matrix acting on [u:v]; MobiusOverBase a fractional-linear transformation in
the fiber coordinate whose entries are four coprime polynomials in the base
coordinate, read projectively.  Pushforwards cover linear maps and the
standard quadratic involution [X:Y:Z] -> [YZ:XZ:XY]; general Cremona images
are out of scope.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .curves import (
    CURVE_VARS,
    PARAM_VARS,
    Parametrization,
    PlaneCurve,
    ProjPoint,
    move_point_first,
    multiplicity_implicit,
    substitute_matrix,
)
from .fields import Field, FieldElement
from .linalg import mat_det, mat_inv, mat_mul, mat_vec
from .polynomials import MultiPoly, NEG_INF, Poly1, exact_div, poly_gcd, primitive


class LineMobius:
    """Invertible 2x2 matrix acting on [u:v], scaled so the first nonzero
    entry (row-major) is 1."""

    __slots__ = ("field", "matrix")

    def __init__(self, field: Field, matrix: Sequence[Sequence[FieldElement]]):
        a, b = matrix[0]
        c, d = matrix[1]
        det = a * d - b * c
        if det.is_zero():
            raise ValueError("Moebius matrix must be invertible")
        pivot = next(x for x in (a, b, c, d) if not x.is_zero())
        inv = pivot.inverse()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "matrix", ((a * inv, b * inv), (c * inv, d * inv)))

    def __setattr__(self, *args):
        raise AttributeError("LineMobius is immutable")

    @staticmethod
    def identity(field: Field) -> "LineMobius":
        one, zero = field.one(), field.zero()
        return LineMobius(field, ((one, zero), (zero, one)))

    @staticmethod
    def diagonal(field: Field, a: FieldElement, d: FieldElement) -> "LineMobius":
        zero = field.zero()
        return LineMobius(field, ((a, zero), (zero, d)))

    def compose(self, other: "LineMobius") -> "LineMobius":
        """self after other."""
        return LineMobius(self.field, mat_mul(self.matrix, other.matrix))

    def inverse(self) -> "LineMobius":
        (a, b), (c, d) = self.matrix
        return LineMobius(self.field, ((d, -b), (-c, a)))

    def is_identity(self) -> bool:
        (a, b), (c, d) = self.matrix
        return b.is_zero() and c.is_zero() and a == d

    def order(self, limit: int = 120) -> Optional[int]:
        current = self
        for k in range(1, limit + 1):
            if current.is_identity():
                return k
            current = current.compose(self)
        return None

    def substitute_into(self, form: MultiPoly) -> MultiPoly:
        """form(g(u, v)) for a binary form."""
        (a, b), (c, d) = self.matrix
        u = MultiPoly.variable(form.field, PARAM_VARS, "u")
        v = MultiPoly.variable(form.field, PARAM_VARS, "v")
        return form.substitute({"u": u.scale(a) + v.scale(b), "v": u.scale(c) + v.scale(d)})

    def apply(self, u0: FieldElement, v0: FieldElement) -> Tuple[FieldElement, FieldElement]:
        (a, b), (c, d) = self.matrix
        return (a * u0 + b * v0, c * u0 + d * v0)

    def __eq__(self, other):
        return isinstance(other, LineMobius) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        (a, b), (c, d) = self.matrix
        return f"[[{a}, {b}], [{c}, {d}]]"


class MobiusOverBase:
    """x -> (alpha(y) x + beta(y)) / (gamma(y) x + delta(y)) with polynomial
    entries, nonzero determinant and their monic common factor divided out."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Poly1]):
        alpha, beta, gamma, delta = entries
        if (alpha * delta - beta * gamma).is_zero():
            raise ValueError("degenerate Moebius over the base: alpha*delta = beta*gamma")
        object.__setattr__(self, "entries", primitive(entries))

    def __setattr__(self, *args):
        raise AttributeError("MobiusOverBase is immutable")

    @staticmethod
    def identity(base_ring) -> "MobiusOverBase":
        one, zero = Poly1.one(base_ring), Poly1.zero(base_ring)
        return MobiusOverBase((one, zero, zero, one))

    def compose(self, other: "MobiusOverBase") -> "MobiusOverBase":
        """self after other."""
        alpha, beta, gamma, delta = self.entries
        product = mat_mul(((alpha, beta), (gamma, delta)), (other.entries[:2], other.entries[2:]))
        return MobiusOverBase(product[0] + product[1])

    def determinant(self) -> Poly1:
        alpha, beta, gamma, delta = self.entries
        return alpha * delta - beta * gamma

    def is_identity(self) -> bool:
        alpha, beta, gamma, delta = self.entries
        return beta.is_zero() and gamma.is_zero() and alpha == delta

    def __eq__(self, other):
        if not isinstance(other, MobiusOverBase):
            return NotImplemented
        return self.proportional_to(other)

    def proportional_to(self, other: "MobiusOverBase") -> bool:
        return proportional_eq(self.entries, other.entries)

    def __repr__(self):
        alpha, beta, gamma, delta = self.entries
        return f"Mobius[({alpha!r})x + ({beta!r}) / ({gamma!r})x + ({delta!r})]"


class JonquieresWitness:
    """Certificate that a plane map preserves the pencil through a point."""

    __slots__ = ("base_action", "fiber_action")

    def __init__(self, base_action: LineMobius, fiber_action: MobiusOverBase):
        object.__setattr__(self, "base_action", base_action)
        object.__setattr__(self, "fiber_action", fiber_action)

    def __setattr__(self, *args):
        raise AttributeError("witnesses are immutable")

    def __repr__(self):
        return f"JonquieresWitness(base={self.base_action!r}, fiber={self.fiber_action!r})"


class PlaneRationalMap:
    """Rational self-map of P^2: three coprime forms of one degree, scaled so
    the graded-lex leading coefficient of the first nonzero component is 1."""

    __slots__ = ("field", "components")

    def __init__(self, components: Sequence[MultiPoly]):
        components = [c if c.vars == CURVE_VARS else c.align(CURVE_VARS) for c in components]
        if len(components) != 3:
            raise ValueError("a plane map needs three components")
        field = components[0].field
        nonzero = [c for c in components if not c.is_zero()]
        if not nonzero:
            raise ValueError("all components vanish: the composition is degenerate")
        for c in nonzero:
            if not c.is_homogeneous():
                raise ValueError("components must be homogeneous")
        degrees = {int(c.degree()) for c in nonzero}
        if len(degrees) != 1:
            raise ValueError("components must share one degree")
        if not _coprime_on_line(nonzero, degrees.pop()):
            common = nonzero[0]
            for c in nonzero[1:]:
                common = poly_gcd(common, c)
                if common.degree() == 0:
                    break
            if common.degree() not in (NEG_INF, 0):
                components = [exact_div(c, common) if not c.is_zero() else c for c in components]
        lead = next(c for c in components if not c.is_zero()).leading_coefficient()
        inv = lead.inverse()
        components = [c.scale(inv) for c in components]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "components", tuple(components))

    def __setattr__(self, *args):
        raise AttributeError("maps are immutable")

    @staticmethod
    def identity(field: Field) -> "PlaneRationalMap":
        return PlaneRationalMap(
            [MultiPoly.variable(field, CURVE_VARS, v) for v in CURVE_VARS]
        )

    @staticmethod
    def from_matrix(field: Field, matrix: Sequence[Sequence[FieldElement]]) -> "PlaneRationalMap":
        xs = [MultiPoly.variable(field, CURVE_VARS, v) for v in CURVE_VARS]
        return PlaneRationalMap(mat_vec(matrix, xs))

    @staticmethod
    def standard_quadratic(field: Field) -> "PlaneRationalMap":
        X = MultiPoly.variable(field, CURVE_VARS, "X")
        Y = MultiPoly.variable(field, CURVE_VARS, "Y")
        Z = MultiPoly.variable(field, CURVE_VARS, "Z")
        return PlaneRationalMap([Y * Z, X * Z, X * Y])

    @property
    def degree(self) -> int:
        return int(next(c for c in self.components if not c.is_zero()).degree())

    def is_linear(self) -> bool:
        return self.degree == 1

    def matrix(self) -> List[List[FieldElement]]:
        if not self.is_linear():
            raise ValueError("only linear maps have a matrix")
        out = []
        for c in self.components:
            row = []
            for var in CURVE_VARS:
                exps = tuple(1 if v == var else 0 for v in CURVE_VARS)
                row.append(c.coefficient(exps))
            out.append(row)
        return out

    def compose(self, other: "PlaneRationalMap") -> "PlaneRationalMap":
        """self after other (components of other substituted into self)."""
        sub = {v: c for v, c in zip(CURVE_VARS, other.components)}
        comps = [c.substitute(sub) for c in self.components]
        if all(c.is_zero() for c in comps):
            raise ValueError("composition is identically degenerate")
        return PlaneRationalMap(comps)

    def apply(self, point: ProjPoint) -> Optional[ProjPoint]:
        """Image point, or None at a base point (all components vanish)."""
        coords = {v: c for v, c in zip(CURVE_VARS, point.coords)}
        values = [c.evaluate(coords) for c in self.components]
        if all(v.is_zero() for v in values):
            return None
        return ProjPoint(self.field, values)

    def apply_to_param(self, phi: Parametrization) -> Parametrization:
        sub = {v: f for v, f in zip(CURVE_VARS, phi.forms)}
        return Parametrization([c.substitute(sub) for c in self.components])

    def __eq__(self, other):
        return isinstance(other, PlaneRationalMap) and proportional_eq(self.components, other.components)

    def __repr__(self):
        return "[" + " : ".join(str(c) for c in self.components) + "]"


def _coprime_on_line(forms: Sequence[MultiPoly], degree: int) -> bool:
    """True when the restrictions of the forms to the line Z = X + 2Y (a line
    in every characteristic) prove them coprime: a common factor of positive
    degree restricts to a nonconstant common factor, or to zero.  At
    [x : 1 : x + 2] they are univariate, and all vanish at [1 : 0 : 1] iff
    none keeps the full degree."""
    field = forms[0].field
    shift = Poly1(field, [field.from_int(2), field.one()])
    common, full = None, False
    for form in forms:
        parts = {}  # Z-degree -> coefficients of the X-powers, at Y = 1
        for (a, _, k), c in form.terms.items():
            parts.setdefault(k, [field.zero()] * (degree + 1))[a] = c
        restricted = Poly1.zero(field)
        for k in range(max(parts), -1, -1):
            restricted = restricted * shift + Poly1(field, parts.get(k, ()))
        common = restricted if common is None else common.gcd(restricted)
        full = full or restricted.degree() == degree
        if full and common.degree() == 0:
            return True
    return False


def proportional_eq(fs: Sequence, gs: Sequence) -> bool:
    """Projective equality: all cross products f_i g_j - f_j g_i vanish."""
    if len(fs) != len(gs):
        raise ValueError("tuples must have equal arity")
    fs_zero = all(f.is_zero() for f in fs)
    gs_zero = all(g.is_zero() for g in gs)
    if fs_zero or gs_zero:
        return fs_zero and gs_zero
    if len(fs) == 1:
        return fs[0].monic() == gs[0].monic()
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if not (fs[i] * gs[j] - fs[j] * gs[i]).is_zero():
                return False
    return True


def linear_pushforward(C: PlaneCurve, M: Sequence[Sequence[FieldElement]]) -> PlaneCurve:
    """Image of C under the linear map x -> M x (implicit form F o M^-1)."""
    field = C.field
    det = mat_det(M, field)
    if det.is_zero():
        raise ValueError("singular matrix")
    inverse = mat_inv(M, field)
    implicit = None
    if C.has_implicit() or C.param is None:
        implicit = substitute_matrix(C.implicit, inverse).monic()
    param = None
    if C.param is not None:
        param = Parametrization(mat_vec(M, C.param.forms))
    return PlaneCurve(field, implicit, param)


class QuadraticPushforward:
    """Image curve plus the contraction bookkeeping of one standard
    quadratic step."""

    __slots__ = ("curve", "multiplicities", "degree")

    def __init__(self, curve, multiplicities, degree):
        self.curve = curve
        self.multiplicities = multiplicities
        self.degree = degree


def std_quadratic_pushforward(C: PlaneCurve) -> QuadraticPushforward:
    """Push C through [X:Y:Z] -> [YZ:XZ:XY], dividing out the coordinate
    multiplicities; the image degree is 2d - m1 - m2 - m3."""
    field = C.field
    F = C.implicit
    for var in CURVE_VARS:
        if F == MultiPoly.variable(field, CURVE_VARS, var):
            raise ValueError("coordinate lines collapse to a point under the quadratic map")
    mults = [
        multiplicity_implicit(C, ProjPoint.from_ints(field, tuple(1 if i == k else 0 for i in range(3))))
        for k in range(3)
    ]
    X = MultiPoly.variable(field, CURVE_VARS, "X")
    Y = MultiPoly.variable(field, CURVE_VARS, "Y")
    Z = MultiPoly.variable(field, CURVE_VARS, "Z")
    G = F.substitute({"X": Y * Z, "Y": X * Z, "Z": X * Y})
    divisor = X ** mults[0] * Y ** mults[1] * Z ** mults[2]
    image = exact_div(G, divisor)
    mins = [min(e[i] for e in image.terms) for i in range(3)]
    if any(mins):
        raise RuntimeError("quadratic pushforward left a monomial factor; multiplicity bookkeeping failed")
    d_new = 2 * C.degree - sum(mults)
    if int(image.degree()) != d_new:
        raise RuntimeError("degree formula violated in quadratic pushforward")
    param = None
    if C.param is not None:
        f1, f2, f3 = C.param.forms
        try:
            param = Parametrization([f2 * f3, f1 * f3, f1 * f2])
        except ValueError:
            param = None
    return QuadraticPushforward(PlaneCurve(field, image.monic(), param), tuple(mults), d_new)


def jonquieres_decompose(f: PlaneRationalMap, P: ProjPoint) -> Optional[JonquieresWitness]:
    """Witness that f lies in the de Jonquieres group of P, or None.

    Internally moves P to [1:0:0]; a witness consists of the induced Moebius
    action on the pencil [Y:Z] and the Moebius action on the fiber coordinate
    x = X/Z, with entries polynomial in y = Y/Z.  None is returned when the
    pencil image genuinely depends on the fiber coordinate, when the induced
    base map is not an automorphism of P^1, or when the fiber action is not
    fractional-linear (so f cannot be birational).
    """
    field = f.field
    T = move_point_first(P)
    T_inv = mat_inv(T, field)
    moved = [substitute_matrix(c, T) for c in f.components]
    work = PlaneRationalMap(mat_vec(T_inv, moved))
    q2, q3 = work.components[1], work.components[2]
    g = poly_gcd(q2, q3)
    if g.degree() not in (NEG_INF, 0):
        q2 = exact_div(q2, g)
        q3 = exact_div(q3, g)
    if q2.degree_in("X") not in (NEG_INF, 0) or q3.degree_in("X") not in (NEG_INF, 0):
        return None  # pencil image depends on the fiber coordinate
    base_degree = max(int(q2.degree()) if not q2.is_zero() else 0, int(q3.degree()) if not q3.is_zero() else 0)
    if base_degree != 1:
        return None  # base map constant or not an automorphism of P^1
    p2, p3 = q2.dehomogenize("Z").to_poly1("Y"), q3.dehomogenize("Z").to_poly1("Y")
    a, b, c, d = p2[1], p2[0], p3[1], p3[0]
    if (a * d - b * c).is_zero():
        return None
    alpha = LineMobius(field, ((a, b), (c, d)))

    num = work.components[0].dehomogenize("Z")
    den = work.components[2].dehomogenize("Z")
    if den.is_zero():
        return None
    frac_gcd = poly_gcd(num, den)
    if frac_gcd.degree() not in (NEG_INF, 0):
        num = exact_div(num, frac_gcd)
        den = exact_div(den, frac_gcd)
    if num.degree_in("X") not in (NEG_INF, 0, 1) or den.degree_in("X") not in (NEG_INF, 0, 1):
        return None  # fiber action is not fractional-linear
    zero = MultiPoly.zero(field, num.vars)
    entries = []
    for source in (num, den):
        by_power = source.univariate_coefficients("X")
        entries += [by_power.get(k, zero).to_poly1("Y") for k in (1, 0)]
    try:
        fiber = MobiusOverBase(entries)
    except ValueError:
        return None
    return JonquieresWitness(alpha, fiber)

