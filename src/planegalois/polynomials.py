"""Sparse multivariate polynomial arithmetic over the exact fields.

MultiPoly is the workhorse: a sparse map from exponent vectors to nonzero
coefficients with a graded-lexicographic canonical order.  Poly1 provides
dense univariate polynomials over any field-like coefficient ring (the exact
fields themselves, or rational functions), and RatFunc the fraction field of
Poly1 used for Moebius transformations over a base line.

Degree of the zero polynomial is the distinguished sentinel NEG_INF.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .fields import Field, FieldElement, FieldMismatchError
from .linalg import mat_det

NEG_INF = float("-inf")


def _grlex_key(exps: Tuple[int, ...]):
    return (sum(exps), exps)


class MultiPoly:
    """Sparse multivariate polynomial over a fixed field and variable tuple."""

    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: Field, vars: Tuple[str, ...], terms: Dict[Tuple[int, ...], FieldElement]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if not c.is_zero()})

    def __setattr__(self, *args):
        raise AttributeError("polynomials are immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(field: Field, vars: Sequence[str]) -> "MultiPoly":
        return MultiPoly(field, tuple(vars), {})

    @staticmethod
    def constant(field: Field, vars: Sequence[str], value: FieldElement) -> "MultiPoly":
        vars = tuple(vars)
        if value.is_zero():
            return MultiPoly(field, vars, {})
        return MultiPoly(field, vars, {(0,) * len(vars): value})

    @staticmethod
    def one(field: Field, vars: Sequence[str]) -> "MultiPoly":
        return MultiPoly.constant(field, vars, field.one())

    @staticmethod
    def variable(field: Field, vars: Sequence[str], name: str) -> "MultiPoly":
        vars = tuple(vars)
        exps = [0] * len(vars)
        exps[vars.index(name)] = 1
        return MultiPoly(field, vars, {tuple(exps): field.one()})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> FieldElement:
        if self.is_zero():
            return self.field.zero()
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str):
        if not self.terms:
            return NEG_INF
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def leading_exponents(self) -> Tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=_grlex_key)

    def leading_coefficient(self) -> FieldElement:
        return self.terms[self.leading_exponents()]

    def coefficient(self, exps: Tuple[int, ...]) -> FieldElement:
        return self.terms.get(tuple(exps), self.field.zero())

    def monic(self) -> "MultiPoly":
        """Scale so the graded-lex leading coefficient is 1."""
        if self.is_zero():
            return self
        inv = self.leading_coefficient().inverse()
        return self.scale(inv)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.field != other.field or self.vars != other.vars:
            raise FieldMismatchError("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return MultiPoly(self.field, self.vars, terms)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.field, self.vars, {e: -c for e, c in self.terms.items()})

    def scale(self, c: FieldElement) -> "MultiPoly":
        if c.is_zero():
            return MultiPoly.zero(self.field, self.vars)
        return MultiPoly(self.field, self.vars, {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms: Dict[Tuple[int, ...], FieldElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                s = terms.get(e)
                terms[e] = prod if s is None else s + prod
        return MultiPoly(self.field, self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = MultiPoly.one(self.field, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.vars, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __repr__(self):
        from .parsing import render_poly

        return f"MultiPoly({render_poly(self)!r})"

    def __str__(self):
        from .parsing import render_poly

        return render_poly(self)

    # -- calculus and structure ---------------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        i = self.vars.index(var)
        terms: Dict[Tuple[int, ...], FieldElement] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            factor = self.field.from_int(e[i])
            if factor.is_zero():
                continue
            new = list(e)
            new[i] -= 1
            key = tuple(new)
            add = c * factor
            s = terms.get(key)
            terms[key] = add if s is None else s + add
        return MultiPoly(self.field, self.vars, terms)

    def align(self, new_vars: Sequence[str]) -> "MultiPoly":
        """Re-embed into a superset variable tuple."""
        new_vars = tuple(new_vars)
        positions = [new_vars.index(v) for v in self.vars]
        terms = {}
        for e, c in self.terms.items():
            exp = [0] * len(new_vars)
            for pos, val in zip(positions, e):
                exp[pos] = val
            terms[tuple(exp)] = c
        return MultiPoly(self.field, new_vars, terms)

    def evaluate(self, point: Mapping[str, FieldElement]) -> FieldElement:
        """Evaluate; every variable actually occurring must be assigned."""
        total = self.field.zero()
        powers: Dict[Tuple[int, int], FieldElement] = {}
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    key = (i, k)
                    p = powers.get(key)
                    if p is None:
                        p = point[self.vars[i]] ** k
                        powers[key] = p
                    term = term * p
            total = total + term
        return total

    def substitute(self, assignment: Mapping[str, Union["MultiPoly", FieldElement]]) -> "MultiPoly":
        """Ring homomorphism sending assigned variables to the given images.

        Unassigned variables map to themselves; every polynomial image must
        share one ring, which becomes the ring of the result.
        """
        poly_images = [v for v in assignment.values() if isinstance(v, MultiPoly)]
        if poly_images:
            target_field = poly_images[0].field
            target_vars = poly_images[0].vars
        else:
            target_field = self.field
            target_vars = self.vars
        images: Dict[str, MultiPoly] = {}
        for v in self.vars:
            img = assignment.get(v)
            if img is None:
                images[v] = MultiPoly.variable(target_field, target_vars, v)
            elif isinstance(img, FieldElement):
                images[v] = MultiPoly.constant(target_field, target_vars, img)
            else:
                if img.field != target_field or img.vars != target_vars:
                    raise FieldMismatchError("substitution images live in different rings")
                images[v] = img
        result = MultiPoly.zero(target_field, target_vars)
        powers: Dict[Tuple[str, int], MultiPoly] = {}
        for e, c in self.terms.items():
            term = MultiPoly.constant(target_field, target_vars, c)
            for i, v in enumerate(self.vars):
                k = e[i]
                if k:
                    key = (v, k)
                    p = powers.get(key)
                    if p is None:
                        p = images[v] ** k
                        powers[key] = p
                    term = term * p
            result = result + term
        return result

    def homogenize(self, var: str, degree: int) -> "MultiPoly":
        """Pad every term with powers of var up to the requested total degree."""
        d = self.degree()
        if self.is_zero():
            base = self if var in self.vars else self.align(self.vars + (var,))
            return base
        if degree < d:
            raise ValueError(f"requested degree {degree} below actual degree {d}")
        p = self if var in self.vars else self.align(self.vars + (var,))
        i = p.vars.index(var)
        if p.degree_in(var) > 0:
            raise ValueError(f"polynomial already involves {var}")
        terms = {}
        for e, c in p.terms.items():
            new = list(e)
            new[i] = degree - sum(e)
            terms[tuple(new)] = c
        return MultiPoly(p.field, p.vars, terms)

    def dehomogenize(self, var: str) -> "MultiPoly":
        """Substitute var = 1 and drop it from the variable tuple."""
        i = self.vars.index(var)
        new_vars = self.vars[:i] + self.vars[i + 1 :]
        terms: Dict[Tuple[int, ...], FieldElement] = {}
        for e, c in self.terms.items():
            key = e[:i] + e[i + 1 :]
            s = terms.get(key)
            terms[key] = c if s is None else s + c
        return MultiPoly(self.field, new_vars, terms)

    def univariate_coefficients(self, var: str) -> Dict[int, "MultiPoly"]:
        """Arrange by powers of var; coefficients keep the full variable tuple."""
        i = self.vars.index(var)
        buckets: Dict[int, Dict[Tuple[int, ...], FieldElement]] = {}
        for e, c in self.terms.items():
            k = e[i]
            stripped = e[:i] + (0,) + e[i + 1 :]
            buckets.setdefault(k, {})[stripped] = c
        return {k: MultiPoly(self.field, self.vars, t) for k, t in buckets.items()}

    def to_poly1(self, var: str, ring=None) -> "Poly1":
        """Convert a univariate polynomial to its dense representation."""
        for v in self.vars:
            if v != var and self.degree_in(v) not in (NEG_INF, 0):
                raise ValueError(f"polynomial involves {v}, not univariate in {var}")
        ring = ring or self.field
        d = self.degree_in(var)
        if d is NEG_INF:
            return Poly1(ring, [])
        i = self.vars.index(var)
        coeffs = [self.field.zero()] * (int(d) + 1)
        for e, c in self.terms.items():
            coeffs[e[i]] = c
        return Poly1(ring, coeffs)


# -- division, gcd, resultants ---------------------------------------------


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient f / g; raises ValueError when the division leaves a remainder."""
    q, r = _divmod_multi(f, g)
    if not r.is_zero():
        raise ValueError("exact_div remainder nonzero")
    return q


def divides(g: MultiPoly, f: MultiPoly) -> bool:
    if g.is_zero():
        return f.is_zero()
    return _divmod_multi(f, g)[1].is_zero()


def _divmod_multi(f: MultiPoly, g: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """Multivariate division by a single divisor under graded-lex order.

    A single divisor is a Groebner basis of the ideal it generates, so the
    remainder vanishes exactly when g divides f.
    """
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    g_lead = g.leading_exponents()
    g_lc = g.terms[g_lead]
    quotient: Dict[Tuple[int, ...], FieldElement] = {}
    remainder: Dict[Tuple[int, ...], FieldElement] = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=_grlex_key)
        c = work.pop(e)
        if all(a >= b for a, b in zip(e, g_lead)):
            shift = tuple(a - b for a, b in zip(e, g_lead))
            factor = c / g_lc
            quotient[shift] = quotient.get(shift, f.field.zero()) + factor
            for ge, gc in g.terms.items():
                if ge == g_lead:
                    continue
                key = tuple(a + b for a, b in zip(shift, ge))
                cur = work.get(key, f.field.zero())
                cur = cur - factor * gc
                if cur.is_zero():
                    work.pop(key, None)
                else:
                    work[key] = cur
        else:
            remainder[e] = c
    return (
        MultiPoly(f.field, f.vars, quotient),
        MultiPoly(f.field, f.vars, remainder),
    )


def _pseudo_rem(fc: list, gc: list) -> list:
    """Pseudo-remainder prem(f, g) = lc(g)^(deg f - deg g + 1) * f mod g,
    over any commutative coefficient ring (dense ascending lists)."""
    rem = list(fc)
    dg = len(gc) - 1
    lead_g = gc[-1]
    e = (len(rem) - 1) - dg + 1
    while rem and len(rem) - 1 >= dg:
        dr = len(rem) - 1
        lead_r = rem[-1]
        rem = [c * lead_g for c in rem]
        for j, c in enumerate(gc):
            rem[dr - dg + j] = rem[dr - dg + j] - lead_r * c
        rem.pop()
        while rem and rem[-1].is_zero():
            rem.pop()
        e -= 1
    for _ in range(e):
        rem = [c * lead_g for c in rem]
    return rem


def _subresultant(fc: list, gc: list, one):
    """End state of the subresultant PRS of two dense lists of MultiPoly
    coefficients (ascending, not both constant): (deg A, B, h, sign).

    B is the last nonzero member and A the one before it; B has positive
    degree exactly when the inputs share a factor.  h is the sequence's
    scaling factor and sign the product of the (-1)^(deg A * deg B) factors,
    so that Res = sign * lc(B)^deg A / h^(deg A - 1) when B is constant.
    Every interior division is exact by the subresultant theory (Collins
    1967; Brown and Traub 1971)."""
    A, B = list(fc), list(gc)
    sign = 1
    if len(A) < len(B):
        A, B = B, A
        if (len(A) - 1) * (len(B) - 1) % 2:
            sign = -sign
    g = h = one
    while len(B) > 1:
        if (len(A) - 1) * (len(B) - 1) % 2:
            sign = -sign
        delta = len(A) - len(B)
        R = _pseudo_rem(A, B)
        if not R:
            break
        divisor = g if delta == 0 else g * _ring_pow(h, delta)
        A, B = B, [exact_div(c, divisor) for c in R]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = exact_div(_ring_pow(g, delta), _ring_pow(h, delta - 1))
    return len(A) - 1, B, h, sign


def _ring_pow(c, n: int):
    out = c
    for _ in range(n - 1):
        out = out * c
    return out


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd via content/primitive-part recursion with subresultant PRS."""
    f._check(g)
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    active = [v for v in f.vars if f.degree_in(v) > 0 or g.degree_in(v) > 0]
    if not active:
        return MultiPoly.one(f.field, f.vars)
    var = active[0]
    fc = _dense_coeffs(f, var)
    gc = _dense_coeffs(g, var)
    one = MultiPoly.one(f.field, f.vars)
    if len(active) == 1:
        return _from_dense(_subresultant(fc, gc, one)[1], f, var).monic()
    cont_f = _content(fc)
    cont_g = _content(gc)
    content = poly_gcd(cont_f, cont_g)
    fp = [exact_div(c, cont_f) for c in fc]
    gp = [exact_div(c, cont_g) for c in gc]
    last = _subresultant(fp, gp, one)[1]
    last_content = _content(last)
    primitive = [exact_div(c, last_content) for c in last]
    result = _from_dense(primitive, f, var) * content
    return result.monic()


def _content(coeffs: list) -> MultiPoly:
    it = iter(coeffs)
    acc = next(it)
    for c in it:
        acc = poly_gcd(acc, c)
        if acc.is_constant() and not acc.is_zero():
            break
    return acc.monic()


def _dense_coeffs(p: MultiPoly, var: str) -> list:
    d = p.degree_in(var)
    if d is NEG_INF:
        return []
    by_power = p.univariate_coefficients(var)
    zero = MultiPoly.zero(p.field, p.vars)
    return [by_power.get(k, zero) for k in range(int(d) + 1)]


def _from_dense(coeffs: list, template: MultiPoly, var: str) -> MultiPoly:
    i = template.vars.index(var)
    terms: Dict[Tuple[int, ...], FieldElement] = {}
    for k, c in enumerate(coeffs):
        if isinstance(c, MultiPoly):
            for e, v in c.terms.items():
                key = e[:i] + (e[i] + k,) + e[i + 1 :]
                terms[key] = v
        else:
            if not c.is_zero():
                e = [0] * len(template.vars)
                e[i] = k
                terms[tuple(e)] = c
    return MultiPoly(template.field, template.vars, terms)


# -- resultants --------------------------------------------------------------


def sylvester_det(fc: Sequence[FieldElement], gc: Sequence[FieldElement], field: Field) -> FieldElement:
    """Determinant of the Sylvester matrix of two dense coefficient lists.

    Convention: Res(f, g) = lc(f)^deg(g) * prod g(root of f), so that
    Res(x - a, x - b) = a - b.
    """
    df, dg = len(fc) - 1, len(gc) - 1
    if df < 0 or dg < 0:
        raise ValueError("resultant of the zero polynomial")
    size = df + dg
    zero = field.zero()
    f_desc = list(reversed(fc))
    g_desc = list(reversed(gc))
    rows = [[zero] * i + f_desc + [zero] * (size - i - df - 1) for i in range(dg)]
    rows += [[zero] * i + g_desc + [zero] * (size - i - dg - 1) for i in range(df)]
    return mat_det(rows, field)


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant eliminating var, read off the end of the
    subresultant PRS over the ring of polynomials in the other variables.

    Same convention as sylvester_det: Res(f, g) = lc(f)^deg(g) * prod g(root of f).
    """
    f._check(g)
    df = f.degree_in(var)
    dg = g.degree_in(var)
    if df is NEG_INF or dg is NEG_INF or df == 0 or dg == 0:
        raise ValueError("resultant needs positive degree in the eliminated variable")
    one = MultiPoly.one(f.field, f.vars)
    deg_a, B, h, sign = _subresultant(_dense_coeffs(f, var), _dense_coeffs(g, var), one)
    if len(B) > 1:
        return MultiPoly.zero(f.field, f.vars)
    value = B[0] if deg_a == 1 else exact_div(_ring_pow(B[0], deg_a), _ring_pow(h, deg_a - 1))
    return value if sign > 0 else -value


# -- dense univariate polynomials over a field-like ring ---------------------


class Poly1:
    """Dense univariate polynomial over a duck-typed field of coefficients.

    The ring handle only needs zero() and one(); coefficients must support
    +, -, *, /, is_zero and equality.  Instances are immutable.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: Iterable):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("polynomials are immutable")

    @staticmethod
    def zero(ring) -> "Poly1":
        return Poly1(ring, [])

    @staticmethod
    def one(ring) -> "Poly1":
        return Poly1(ring, [ring.one()])

    @staticmethod
    def x(ring) -> "Poly1":
        return Poly1(ring, [ring.zero(), ring.one()])

    @staticmethod
    def const(ring, c) -> "Poly1":
        return Poly1(ring, [c])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero()

    def __add__(self, other: "Poly1") -> "Poly1":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly1(self.ring, [self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "Poly1") -> "Poly1":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly1(self.ring, [self[i] - other[i] for i in range(n)])

    def __neg__(self) -> "Poly1":
        return Poly1(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly1):
            if self.is_zero() or other.is_zero():
                return Poly1.zero(self.ring)
            out = [self.ring.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly1(self.ring, out)
        return Poly1(self.ring, [c * other for c in self.coeffs])

    def scale(self, c) -> "Poly1":
        return Poly1(self.ring, [a * c for a in self.coeffs])

    def __pow__(self, n: int) -> "Poly1":
        result = Poly1.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly1"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(other.coeffs)
        if len(rem) < dn:
            return Poly1.zero(self.ring), self
        inv = self.ring.one() / other.lc()
        quot = [self.ring.zero()] * (len(rem) - dn + 1)
        for i in range(len(rem) - dn, -1, -1):
            q = rem[i + dn - 1] * inv
            quot[i] = q
            if not q.is_zero():
                for j, c in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - q * c
        return Poly1(self.ring, quot), Poly1(self.ring, rem[: dn - 1])

    def __mod__(self, other: "Poly1") -> "Poly1":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Poly1") -> "Poly1":
        return divmod(self, other)[0]

    def exact_div(self, other: "Poly1") -> "Poly1":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact univariate division")
        return q

    def monic(self) -> "Poly1":
        if self.is_zero():
            return self
        inv = self.ring.one() / self.lc()
        return self.scale(inv)

    def derivative(self) -> "Poly1":
        out = []
        for k in range(1, len(self.coeffs)):
            c = self.coeffs[k]
            acc = self.ring.zero()
            for _ in range(k):
                acc = acc + c
            out.append(acc)
        return Poly1(self.ring, out)

    def evaluate(self, x):
        acc = self.ring.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other: "Poly1") -> "Poly1":
        acc = Poly1.zero(self.ring)
        for c in reversed(self.coeffs):
            acc = acc * other + Poly1.const(self.ring, c)
        return acc

    def gcd(self, other: "Poly1") -> "Poly1":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other: "Poly1"):
        """Returns (g, s, t) with s*self + t*other = g, g monic."""
        r0, r1 = self, other
        s0, s1 = Poly1.one(self.ring), Poly1.zero(self.ring)
        t0, t1 = Poly1.zero(self.ring), Poly1.one(self.ring)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return r0, s0, t0
        inv = self.ring.one() / r0.lc()
        return r0.scale(inv), s0.scale(inv), t0.scale(inv)

    def __eq__(self, other):
        return isinstance(other, Poly1) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly1(0)"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            mono = "" if k == 0 else ("_" if k == 1 else f"_^{k}")
            parts.append(f"({c}){mono}" if mono else f"({c})")
        return "Poly1(" + " + ".join(parts) + ")"

    def to_multipoly(self, field: Field, vars: Sequence[str], var: str) -> MultiPoly:
        vars = tuple(vars)
        i = vars.index(var)
        terms = {}
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                e = [0] * len(vars)
                e[i] = k
                terms[tuple(e)] = c
        return MultiPoly(field, vars, terms)


# -- rational functions -------------------------------------------------------


class RatFunc:
    """Reduced fraction of univariate polynomials; denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly1, den: Poly1, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            if num.is_zero():
                den = Poly1.one(num.ring)
            else:
                g = num.gcd(den)
                if g.degree() != 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                lead_inv = num.ring.one() / den.lc()
                num = num.scale(lead_inv)
                den = den.scale(lead_inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("rational functions are immutable")

    @staticmethod
    def from_poly(p: Poly1) -> "RatFunc":
        return RatFunc(p, Poly1.one(p.ring), reduce=False)

    @staticmethod
    def from_const(ring, c) -> "RatFunc":
        return RatFunc(Poly1.const(ring, c), Poly1.one(ring), reduce=False)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, reduce=False)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    def degree_as_map(self) -> int:
        return int(max(self.num.degree(), self.den.degree()))


class RatFuncField:
    """Field handle for RatFunc coefficients, usable as a Poly1 ring."""

    __slots__ = ("base",)

    def __init__(self, base_ring):
        self.base = base_ring

    def zero(self) -> RatFunc:
        return RatFunc.from_const(self.base, self.base.zero())

    def one(self) -> RatFunc:
        return RatFunc.from_const(self.base, self.base.one())

    def __eq__(self, other):
        return isinstance(other, RatFuncField) and self.base == other.base

    def __hash__(self):
        return hash(("RatFuncField", self.base))
