"""Projective plane curves: implicit forms, rational parametrizations,
point multiplicities by two independent methods, implicitization as the
kernel of the coefficient matrix of F o phi, and certified
multiplicity-bound searches.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Sequence, Tuple, Union

from .fields import Field, FieldElement, UNDETERMINED
from .linalg import mat_det, mat_inv, mat_vec, nullspace
from .polynomials import MultiPoly, NEG_INF, Poly1, exact_div, poly_gcd, resultant, roots
from .polynomials import sylvester_det  # noqa: F401  unused; bench/tests/test_bench.py pins curves.sylvester_det

CURVE_VARS = ("X", "Y", "Z")
PARAM_VARS = ("u", "v")


class ProjPoint:
    """Point of P^2, normalized so the first nonzero coordinate is 1."""

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords: Sequence[FieldElement]):
        coords = tuple(coords)
        if len(coords) != 3:
            raise ValueError("projective points have three coordinates")
        pivot = next((i for i, c in enumerate(coords) if not c.is_zero()), None)
        if pivot is None:
            raise ValueError("not a projective point: all coordinates are zero")
        inv = coords[pivot].inverse()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", tuple(c * inv for c in coords))

    def __setattr__(self, *args):
        raise AttributeError("points are immutable")

    @staticmethod
    def from_ints(field: Field, triple: Sequence[int]) -> "ProjPoint":
        return ProjPoint(field, [field.from_int(k) for k in triple])

    def pivot(self) -> int:
        return next(i for i, c in enumerate(self.coords) if not c.is_zero())

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


class Parametrization:
    """Triple of coprime binary forms of equal degree mapping P^1 to P^2."""

    __slots__ = ("field", "forms", "degree")

    def __init__(self, forms: Sequence[MultiPoly]):
        forms = list(forms)
        if len(forms) != 3:
            raise ValueError("a plane parametrization needs three components")
        field = forms[0].field
        for f in forms:
            if f.vars != PARAM_VARS:
                f_aligned = f.align(PARAM_VARS) if set(f.vars) <= set(PARAM_VARS) else None
                if f_aligned is None:
                    raise ValueError("parametrization components must live in k[u, v]")
        forms = [f if f.vars == PARAM_VARS else f.align(PARAM_VARS) for f in forms]
        if all(f.is_zero() for f in forms):
            raise ValueError("all components are zero")
        nonzero = [f for f in forms if not f.is_zero()]
        for f in nonzero:
            if not f.is_homogeneous():
                raise ValueError("components must be homogeneous binary forms")
        common = nonzero[0]
        for f in nonzero[1:]:
            common = poly_gcd(common, f)
        if common.degree() > 0:
            forms = [exact_div(f, common) if not f.is_zero() else f for f in forms]
            nonzero = [f for f in forms if not f.is_zero()]
        degrees = {int(f.degree()) for f in nonzero}
        if len(degrees) != 1:
            raise ValueError("components must share one degree after clearing factors")
        degree = degrees.pop()
        if _pairwise_proportional(forms):
            raise ValueError("components are proportional: the image is a point")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "forms", tuple(forms))
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, *args):
        raise AttributeError("parametrizations are immutable")

    def apply(self, u0: FieldElement, v0: FieldElement) -> ProjPoint:
        point = {"u": u0, "v": v0}
        return ProjPoint(self.field, [f.evaluate(point) for f in self.forms])

    def __eq__(self, other):
        return isinstance(other, Parametrization) and self.forms == other.forms

    def __repr__(self):
        return "[" + " : ".join(str(f) for f in self.forms) + "]"


def _pairwise_proportional(forms: Sequence[MultiPoly]) -> bool:
    for i in range(3):
        for j in range(i + 1, 3):
            fi, fj = forms[i], forms[j]
            if fi.is_zero() or fj.is_zero():
                continue
            if fi.monic() != fj.monic():
                return False
    return True


def parametrization_from_affine(components: Sequence[MultiPoly]) -> Parametrization:
    """Homogenize affine t-images (p(t), q(t), r(t)) into binary forms."""
    degree = max(int(c.degree()) for c in components if not c.is_zero())
    forms = []
    for c in components:
        if c.is_zero():
            forms.append(MultiPoly.zero(c.field, PARAM_VARS))
            continue
        terms = {}
        for e, coeff in c.terms.items():
            k = e[0] if c.vars else 0
            terms[(k, degree - k)] = coeff
        forms.append(MultiPoly(c.field, PARAM_VARS, terms))
    return Parametrization(forms)


class PlaneCurve:
    """Plane projective curve with an implicit form and/or a parametrization."""

    __slots__ = ("field", "_implicit", "param", "_mult_cache", "_bound_cache")

    def __init__(self, field: Field, implicit: Optional[MultiPoly], param: Optional[Parametrization]):
        if implicit is None and param is None:
            raise ValueError("a curve needs an implicit form or a parametrization")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_implicit", implicit)
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "_mult_cache", {})
        object.__setattr__(self, "_bound_cache", {})

    def __setattr__(self, *args):
        raise AttributeError("curves are immutable (implicit memoization excepted)")

    @property
    def implicit(self) -> MultiPoly:
        if self._implicit is None:
            computed = implicitize(self.param)
            object.__setattr__(self, "_implicit", computed)
        return self._implicit

    def has_implicit(self) -> bool:
        return self._implicit is not None

    @property
    def degree(self) -> int:
        if self._implicit is not None:
            return int(self._implicit.degree())
        return self.param.degree

    def contains(self, point: ProjPoint) -> bool:
        value = self.implicit.evaluate(
            {v: c for v, c in zip(CURVE_VARS, point.coords)}
        )
        return value.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, PlaneCurve)
            and self.field == other.field
            and self.implicit.monic() == other.implicit.monic()
        )

    def __repr__(self):
        if self._implicit is not None:
            return f"PlaneCurve({self._implicit})"
        return f"PlaneCurve(param={self.param!r})"


def curve_from_implicit(F: MultiPoly) -> PlaneCurve:
    if F.is_zero():
        raise ValueError("the zero polynomial does not define a curve")
    if not F.is_homogeneous():
        raise ValueError("implicit form must be homogeneous")
    F = F.align(CURVE_VARS) if F.vars != CURVE_VARS else F
    return PlaneCurve(F.field, F.monic(), None)


def curve_from_parametrization(forms: Union[Parametrization, Sequence[MultiPoly]]) -> PlaneCurve:
    phi = forms if isinstance(forms, Parametrization) else Parametrization(forms)
    return PlaneCurve(phi.field, None, phi)


# -- implicitization ----------------------------------------------------------


class ImplicitizationError(RuntimeError):
    """The kernel of F o phi did not yield a vanishing form: reported, never guessed around."""


def implicitize(phi: Parametrization) -> MultiPoly:
    """Implicit homogeneous form of the image of a parametrization.

    The coefficients of a form F of degree d with F o phi = 0 span the kernel
    of the matrix whose columns are the coefficients of the products
    phi1^a phi2^b phi3^c, a + b + c = d (Corless, Giesbrecht, Kotsireas and
    Watt, AISC 2000).  The image has degree d | e = deg phi and is the first
    such d with a nonzero kernel; there the kernel is spanned by the image's
    equation G, and G^(e/d) is returned, so a k:1 cover keeps degree e.  The
    result is verified against the parametrization.
    """
    field = phi.field
    f1, f2, f3 = phi.forms
    e = phi.degree
    # Components that vanish identically pin a coordinate line.
    for form, line_var in ((f1, "X"), (f2, "Y"), (f3, "Z")):
        if form.is_zero():
            return MultiPoly.variable(field, CURVE_VARS, line_var)

    powers = []
    for f in phi.forms:
        g = Poly1(field, [f.coefficient((j, e - j)) for j in range(e + 1)])
        chain = [Poly1.one(field)]
        for _ in range(e):
            chain.append(chain[-1] * g)
        powers.append(chain)
    for d in (k for k in range(1, e + 1) if e % k == 0):
        monomials = [(a, b, d - a - b) for a in range(d + 1) for b in range(d - a + 1)]
        columns = [powers[0][a] * powers[1][b] * powers[2][c] for a, b, c in monomials]
        kernel = nullspace([[col[j] for col in columns] for j in range(d * e + 1)], field)
        if kernel:
            break
    if len(kernel) != 1:
        raise ImplicitizationError(f"kernel of F o phi has dimension {len(kernel)} in degree {d}")
    G = MultiPoly(field, CURVE_VARS, {m: c for m, c in zip(monomials, kernel[0]) if not c.is_zero()})
    if not G.substitute({"X": f1, "Y": f2, "Z": f3}).is_zero():
        raise ImplicitizationError("computed form does not vanish on the parametrization")
    return (G ** (e // d)).monic()


# -- multiplicities -----------------------------------------------------------


def move_point_first(P: ProjPoint) -> List[List[FieldElement]]:
    """The chart: invertible matrix T with T([1:0:0]) = P.

    Every computation at a point P works in this one normal form, where the
    projection from P is [X:Y:Z] -> [Y:Z].
    """
    field = P.field
    k = P.pivot()
    others = [i for i in range(3) if i != k]
    cols = [list(P.coords)]
    for idx in others:
        col = [field.zero()] * 3
        col[idx] = field.one()
        cols.append(col)
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def substitute_matrix(F: MultiPoly, M: Sequence[Sequence[FieldElement]]) -> MultiPoly:
    """F o M: each variable of F replaced by its row of M applied to (X, Y, Z)."""
    xs = [MultiPoly.variable(F.field, CURVE_VARS, v) for v in CURVE_VARS]
    return F.substitute(dict(zip(CURVE_VARS, mat_vec(M, xs))))


def multiplicity_implicit(C: PlaneCurve, P: ProjPoint) -> int:
    """Lowest total degree of the equation in the chart that puts P at the origin."""
    cached = C._mult_cache.get(P.coords)
    if cached is not None:
        return cached
    affine = substitute_matrix(C.implicit, move_point_first(P)).dehomogenize("X")
    if affine.is_zero():
        raise ValueError("curve equation vanished in the chart; input was degenerate")
    result = int(min(sum(e) for e in affine.terms))
    C._mult_cache[P.coords] = result
    return result


def multiplicity_param(
    phi: Parametrization, P: ProjPoint, trials: int = 5, seed: int = 0
) -> int:
    """Multiplicity at P from the parametrization: minimal gcd degree of the
    pullbacks of two independent lines through P (generic lines attain m_P).

    The lines through P are spanned by rows 1 and 2 of T^-1 for the chart
    T = move_point_first(P); pulling back is linear, so the pullbacks of
    their combinations are the same combinations of the two pulled back."""
    a, b = mat_vec(mat_inv(move_point_first(P), phi.field)[1:], phi.forms)
    rng = random.Random(seed)
    best = None
    for trial in range(max(1, trials)):
        if trial == 0:
            pa, pb = a, b
        else:
            c1 = phi.field.from_int(rng.randint(-9, 9))
            c2 = phi.field.from_int(rng.randint(-9, 9))
            if (phi.field.one() - c1 * c2).is_zero():
                continue  # dependent pair
            pa = a + b.scale(c1)
            pb = b + a.scale(c2)
        if pa.is_zero() or pb.is_zero():
            continue  # the line contains the whole curve
        g = poly_gcd(pa, pb)
        deg = 0 if g.degree() is NEG_INF else int(g.degree())
        best = deg if best is None else min(best, deg)
        if best == 0:
            break
    if best is None:
        raise ValueError("could not find independent lines missing the curve")
    return best


class MultiplicityBoundResult:
    """Outcome of has_point_of_multiplicity_ge: verdict + witness/certificate."""

    __slots__ = ("verdict", "witness", "certificate")

    def __init__(self, verdict, witness=None, certificate=None):
        self.verdict = verdict  # True | False | UNDETERMINED
        self.witness = witness
        self.certificate = certificate or {}

    def __repr__(self):
        if self.verdict is True:
            return f"MultiplicityBoundResult(True, witness={self.witness})"
        if self.verdict is False:
            return "MultiplicityBoundResult(False, certified empty)"
        return "MultiplicityBoundResult(UNDETERMINED)"


def has_point_of_multiplicity_ge(
    C: PlaneCurve, m: int, seed: int = 0
) -> MultiplicityBoundResult:
    """Search for a point of multiplicity >= m with a certified FALSE branch.

    In characteristic 0 (or > deg C) multiplicity >= m is equivalent to the
    vanishing of all order-(m-1) partials.  After a random coordinate change
    making every partial nonzero at [0:0:1], the pairwise Z-resultants of the
    partials have constant leading coefficients, so a trivial gcd certifies
    that no common zero exists over any extension.  In characteristic 0 the
    certificate is first run on F modulo the field's split prime, where only
    a False is taken.  Results are memoized on the curve by (m, seed).
    """
    key = (m, seed)
    if key not in C._bound_cache:
        C._bound_cache[key] = _multiplicity_bound_search(C, m, seed)
    return C._bound_cache[key]


def _multiplicity_bound_search(C: PlaneCurve, m: int, seed: int) -> MultiplicityBoundResult:
    F = C.implicit
    d = int(F.degree())
    p = F.field.characteristic
    if p and p <= d:
        raise ValueError(
            f"characteristic {p} <= degree {d}: the partial-derivative "
            "multiplicity criterion does not apply"
        )
    if m < 1:
        raise ValueError("multiplicity threshold must be >= 1")
    rng = random.Random(seed)
    field = F.field

    if m == 1:
        if C.param is not None:
            witness = C.param.apply(field.one(), field.one())
            return MultiplicityBoundResult(True, witness=witness)
        for point in _candidate_points(field, rng, 60):
            if C.contains(point):
                return MultiplicityBoundResult(True, witness=point)
        return MultiplicityBoundResult(UNDETERMINED)

    partials = _order_partials(F, m - 1)
    partials = [g for g in partials if not g.is_zero()]
    if not partials:
        return MultiplicityBoundResult(True, witness=None, certificate={"note": "all partials vanish identically"})

    for point in _candidate_points(field, rng, 24):
        coords = {v: c for v, c in zip(CURVE_VARS, point.coords)}
        if all(g.evaluate(coords).is_zero() for g in partials):
            return MultiplicityBoundResult(True, witness=point)

    if p == 0:
        # A point of multiplicity >= m over the closure reduces to a common
        # zero of the reduced partials, so none mod p proves there is none.
        # Only that False is sought: the stage ends at the first chart whose
        # resultants share a factor, and the exact search goes on.
        reduction = field.split_prime_reduction()
        try:
            reduced = MultiPoly(reduction.target, F.vars, {e: reduction(c) for e, c in F.terms.items()})
        except ZeroDivisionError:  # the prime divides a denominator
            pass
        else:
            for attempt, M, H in _charts(reduced, m, random.Random(seed)):
                common, pairs = _resultant_gcd(H)
                if common is not None and common.degree() == 0:
                    return _certificate(M, pairs, seed, attempt, prime=reduction.target.descriptor.p)
                break
    for attempt, M, H in _charts(F, m, rng):
        common, pairs = _resultant_gcd(H)
        if common is None or common.is_zero():
            continue
        if common.degree() == 0:
            return _certificate(M, pairs, seed, attempt)
        result = _witness_search(H, M, common)
        if result is not None:
            return result
    return MultiplicityBoundResult(UNDETERMINED)


def _charts(F: MultiPoly, m: int, rng: random.Random):
    """(attempt, M, H) for each of five random charts M that moves no common
    zero of the order-(m-1) partials to [0:0:1]; H are the partials of F o M."""
    field = F.field
    origin = {"X": field.zero(), "Y": field.zero(), "Z": field.one()}
    for attempt in range(5):
        M = _random_invertible(field, rng)
        H = [g for g in _order_partials(substitute_matrix(F, M), m - 1) if not g.is_zero()]
        if not any(h.evaluate(origin).is_zero() for h in H):
            yield attempt, M, H


def _resultant_gcd(H) -> Tuple[Optional[MultiPoly], list]:
    """The gcd of the pairwise Z-resultants of H, stopping at the first
    constant one, and the pairs used; None when H has one member."""
    common = None
    pairs_used = []
    for i, j in itertools.combinations(range(len(H)), 2):
        R = resultant(H[i], H[j], "Z")
        pairs_used.append((i, j))
        common = R if common is None else poly_gcd(common, R)
        if common.degree() == 0:
            break
    return common, pairs_used


def _certificate(M, pairs, seed, attempt, **extra) -> MultiplicityBoundResult:
    return MultiplicityBoundResult(
        False,
        certificate={
            "matrix": M,
            "pairs": pairs,
            "method": "pairwise Z-resultants, gcd 1",
            "seed": seed,
            "attempt": attempt,
            **extra,
        },
    )


def _witness_search(H, M, common: MultiPoly) -> Optional[MultiplicityBoundResult]:
    """A common zero of H over a ground-field root [x0:y0] of the binary
    form common in (X, Y), moved back by M."""
    field = H[0].field
    one, zero = field.one(), field.zero()
    candidates = [(r, one) for r in roots(common.dehomogenize("Y").to_poly1("X"))[0]]
    if common.evaluate({"X": one, "Y": zero}).is_zero():
        candidates.insert(0, (one, zero))
    for x0, y0 in candidates:
        slices = [h.substitute({"X": x0, "Y": y0}).to_poly1("Z") for h in H]
        gz = None
        for s in slices:
            gz = s if gz is None else gz.gcd(s)
            if gz.degree() == 0:
                break
        if gz is None or gz.degree() == 0:
            continue
        for z0 in roots(gz)[0]:
            Q = ProjPoint(field, [x0, y0, z0])
            coords = {v: c for v, c in zip(CURVE_VARS, Q.coords)}
            if all(h.evaluate(coords).is_zero() for h in H):
                original = ProjPoint(field, mat_vec(M, list(Q.coords)))
                return MultiplicityBoundResult(True, witness=original)
        # A common Z-root exists over the closure even without a
        # ground-field representative: the point exists.
        return MultiplicityBoundResult(
            True,
            witness=None,
            certificate={"note": "common zero exists over an extension field"},
        )
    return None


def _order_partials(F: MultiPoly, order: int) -> List[MultiPoly]:
    out = [F]
    for _ in range(order):
        nxt = []
        seen = set()
        for g in out:
            for v in CURVE_VARS:
                d = g.derivative(v)
                key = tuple(sorted(d.terms.items(), key=lambda t: t[0]))
                if key not in seen:
                    seen.add(key)
                    nxt.append(d)
        out = nxt
    return out


def _random_invertible(field: Field, rng: random.Random) -> List[List[FieldElement]]:
    while True:
        M = [[field.from_int(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        if not mat_det(M, field).is_zero():
            return M


def _candidate_points(field: Field, rng: random.Random, count: int):
    yield ProjPoint.from_ints(field, (1, 0, 0))
    yield ProjPoint.from_ints(field, (0, 1, 0))
    yield ProjPoint.from_ints(field, (0, 0, 1))
    for _ in range(count):
        triple = [rng.randint(-4, 4) for _ in range(3)]
        if any(triple):
            yield ProjPoint.from_ints(field, triple)
