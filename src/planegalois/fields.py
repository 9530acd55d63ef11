"""Exact arithmetic for the three coefficient-field kinds used by the package.

Supported fields: the rationals Q, cyclotomic extensions Q(zeta_n) for small n,
and prime fields F_p.  Elements are immutable and kept in a unique canonical
form, so equality is plain data equality and values can be shared freely
between threads:

- Q: a reduced `Fraction`;
- Q(zeta_n): the power-basis coordinates 1, z, ..., z^(phi - 1) (reduced
  modulo the n-th cyclotomic polynomial) as one integer vector over one
  common denominator, `(coords, den)` with `den > 0` and
  `gcd(den, *coords) == 1`, so zero is `((0,) * phi, 1)` (Cohen, GTM 138,
  section 4.2);
- F_p: a residue in [0, p).

`Fraction` appears in cyclotomic arithmetic only where a rational value goes
in or out: `from_fraction`, `from_coords`, `inverse` and `__str__`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

CYCLOTOMIC_CEILING = 64
SPLIT_PRIME_FLOOR = 1000  # split primes are the least ones above this constant

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981  # deterministic below this bound


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class Undetermined:
    """Outcome of a budgeted decision procedure that could not conclude.

    Deliberately has no truth value: callers must compare against the
    UNDETERMINED singleton instead of accidentally treating it as False.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDETERMINED"

    def __bool__(self):
        raise TypeError("an undetermined result has no truth value")


UNDETERMINED = Undetermined()


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"prime modulus {n} exceeds the deterministic test range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _int_poly_divmod(num: list, den: list) -> tuple:
    """Exact division of integer coefficient lists (ascending order)."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0
        quot[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    assert all(c == 0 for c in num)
    return quot


_cyclotomic_cache: dict = {}


def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, ascending, computed by dividing x^n - 1."""
    if n in _cyclotomic_cache:
        return _cyclotomic_cache[n]
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_divmod(poly, list(cyclotomic_polynomial(d)))
    result = tuple(poly)
    _cyclotomic_cache[n] = result
    return result


@dataclass(frozen=True)
class FieldDescriptor:
    """Identifies one of the supported coefficient fields."""

    kind: str  # "rational" | "cyclotomic" | "prime"
    n: int = 0  # cyclotomic order (kind == "cyclotomic")
    p: int = 0  # modulus (kind == "prime")

    @staticmethod
    def rational() -> "FieldDescriptor":
        return FieldDescriptor("rational")

    @staticmethod
    def cyclotomic(n: int) -> "FieldDescriptor":
        return FieldDescriptor("cyclotomic", n=n)

    @staticmethod
    def prime(p: int) -> "FieldDescriptor":
        return FieldDescriptor("prime", p=p)

    def characteristic(self) -> int:
        return self.p if self.kind == "prime" else 0


_field_cache: dict = {}


def make_field(spec: FieldDescriptor) -> "Field":
    """Validate a descriptor and return the (cached) field handle."""
    if spec not in _field_cache:
        _field_cache[spec] = Field(spec)
    return _field_cache[spec]


class Field:
    """Handle for a coefficient field; produces and validates its elements."""

    def __init__(self, descriptor: FieldDescriptor):
        kind = descriptor.kind
        if kind == "rational":
            pass
        elif kind == "cyclotomic":
            n = descriptor.n
            if not (3 <= n <= CYCLOTOMIC_CEILING):
                raise ValueError(f"cyclotomic order {n} outside [3, {CYCLOTOMIC_CEILING}]")
            self.n = n
            self.phi = euler_phi(n)
            minpoly = cyclotomic_polynomial(n)
            # Rows give x^(phi + j) reduced mod Phi_n, for j = 0 .. phi - 2.
            rows = []
            prev = [-c for c in minpoly[:-1]]
            rows.append(tuple(prev))
            for _ in range(self.phi - 2):
                shifted = [0] + prev[:-1]
                top = prev[-1]
                prev = [shifted[i] - top * minpoly[i] for i in range(self.phi)]
                rows.append(tuple(prev))
            self._reduction_rows = tuple(rows)
            self._minpoly = minpoly
        elif kind == "prime":
            if not is_prime(descriptor.p):
                raise ValueError(f"{descriptor.p} is not prime")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.descriptor = descriptor
        self.kind = kind
        self._split_prime_reductions = []

    def split_prime_reduction(self, index: int = 0) -> "SplitPrimeReduction":
        """The reduction modulo this field's index-th split prime (counting
        from 0 upwards from SPLIT_PRIME_FLOOR), built on first use."""
        reductions = self._split_prime_reductions
        while len(reductions) <= index:
            after = reductions[-1].target.descriptor.p if reductions else SPLIT_PRIME_FLOOR
            reductions.append(SplitPrimeReduction(self, after))
        return reductions[index]

    @property
    def characteristic(self) -> int:
        return self.descriptor.characteristic()

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, k: int) -> "FieldElement":
        return self.from_fraction(Fraction(k))

    def from_fraction(self, q: Fraction) -> "FieldElement":
        if self.kind == "rational":
            return FieldElement(self, q)
        if self.kind == "prime":
            p = self.descriptor.p
            den = q.denominator % p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes in the prime field")
            return FieldElement(self, q.numerator * pow(den, p - 2, p) % p)
        coords = [0] * self.phi
        coords[0] = q.numerator
        return FieldElement(self, (tuple(coords), q.denominator))

    def from_coords(self, coords: Sequence[Fraction]) -> "FieldElement":
        if self.kind != "cyclotomic":
            raise ValueError("coordinate vectors only make sense for cyclotomic fields")
        if len(coords) != self.phi:
            raise ValueError(f"expected {self.phi} coordinates, got {len(coords)}")
        values = [Fraction(c) for c in coords]
        # Over the lcm of reduced denominators the numerators share no factor
        # with it, so the pair is already normalized.
        den = lcm(*(v.denominator for v in values))
        return FieldElement(
            self, (tuple(v.numerator * (den // v.denominator) for v in values), den)
        )

    def generator(self) -> "FieldElement":
        """zeta_n for cyclotomic fields."""
        if self.kind != "cyclotomic":
            raise ValueError(f"{self} has no distinguished generator")
        coords = [0] * self.phi
        coords[1] = 1
        return FieldElement(self, (tuple(coords), 1))

    def parse(self, text: str) -> "FieldElement":
        """Parse element text (`p`, `p/q`, and `z`-polynomials for cyclotomic)."""
        from .parsing import parse_element

        return parse_element(text, self)

    def _reduce(self, conv: list) -> tuple:
        """Reduce a length-(2*phi - 1) integer convolution mod Phi_n."""
        phi = self.phi
        out = list(conv[:phi])
        for j in range(phi, len(conv)):
            c = conv[j]
            if c:
                row = self._reduction_rows[j - phi]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Field) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return f"F{self.descriptor.p}"
        return f"Q(z{self.descriptor.n})"


class FieldElement:
    """Immutable field element in canonical form."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *args):
        raise AttributeError("field elements are immutable")

    def _check(self, other: "FieldElement"):
        # make_field interns one Field per descriptor; the descriptor test
        # catches elements of a directly constructed Field.
        if self.field is not other.field and self.field.descriptor != other.field.descriptor:
            raise FieldMismatchError(
                f"cannot combine elements of {self.field} and {other.field}"
            )

    def is_zero(self) -> bool:
        if self.field.kind == "cyclotomic":
            return not any(self.data[0])
        return self.data == 0

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        kind = self.field.kind
        if kind == "rational":
            return FieldElement(self.field, self.data + other.data)
        if kind == "prime":
            return FieldElement(self.field, (self.data + other.data) % self.field.descriptor.p)
        (ca, da), (cb, db) = self.data, other.data
        if da == db:
            return _cyclotomic(self.field, tuple(a + b for a, b in zip(ca, cb)), da)
        return _cyclotomic(self.field, tuple(a * db + b * da for a, b in zip(ca, cb)), da * db)

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        kind = self.field.kind
        if kind == "rational":
            return FieldElement(self.field, -self.data)
        if kind == "prime":
            return FieldElement(self.field, (-self.data) % self.field.descriptor.p)
        coords, den = self.data
        return FieldElement(self.field, (tuple(-a for a in coords), den))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        kind = self.field.kind
        if kind == "rational":
            return FieldElement(self.field, self.data * other.data)
        if kind == "prime":
            return FieldElement(self.field, self.data * other.data % self.field.descriptor.p)
        (ca, da), (cb, db) = self.data, other.data
        conv = [0] * (2 * self.field.phi - 1)
        for i, a in enumerate(ca):
            if a:
                for j, b in enumerate(cb):
                    if b:
                        conv[i + j] += a * b
        return _cyclotomic(self.field, self.field._reduce(conv), da * db)

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        kind = self.field.kind
        if kind == "rational":
            return FieldElement(self.field, 1 / self.data)
        if kind == "prime":
            p = self.field.descriptor.p
            return FieldElement(self.field, pow(self.data, p - 2, p))
        # Extended Euclid against Phi_n over Q[x].
        phi = self.field.phi
        r0 = [Fraction(c) for c in self.field._minpoly]
        r1 = list(self._coords())
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                inv_c = 1 / r1[0]
                coords = [c * inv_c for c in s1] + [Fraction(0)] * phi
                return self.field.from_coords(coords[:phi])
            q, r = _frac_poly_divmod(r0, r1)
            s_next = _frac_poly_sub(s0, _frac_poly_mul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s_next

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self.inverse() if exponent < 0 else self
        return _power(base, abs(exponent), self.field.one())

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and (self.field is other.field or self.field.descriptor == other.field.descriptor)
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field.descriptor, self.data))

    def __str__(self):
        kind = self.field.kind
        if kind == "rational":
            return str(self.data)
        if kind == "prime":
            return str(self.data)
        coords = self._coords()
        parts = []
        for j in range(len(coords) - 1, -1, -1):
            c = coords[j]
            if c == 0:
                continue
            mono = "" if j == 0 else ("z" if j == 1 else f"z^{j}")
            if mono and abs(c) == 1:
                body = mono
            elif mono:
                body = f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self} in {self.field}>"

    def _coords(self) -> tuple:
        """Cyclotomic coordinates as `Fraction`s."""
        coords, den = self.data
        return tuple(Fraction(c, den) for c in coords)


def _cyclotomic(field: Field, coords: tuple, den: int) -> FieldElement:
    """The cyclotomic element coords / den (den > 0), normalized."""
    if den != 1:
        g = gcd(den, *coords)
        if g != 1:
            den //= g
            coords = tuple(c // g for c in coords)
    return FieldElement(field, (coords, den))


class SplitPrimeReduction:
    """Reduction of Q or Q(zeta_n) modulo a prime of degree one.

    The prime p is the least one above `after` with p = 1 (mod n) (n = 1
    for Q), and zeta maps to a primitive n-th root of unity r mod p (`root`),
    a root of Phi_n mod p.  So the map Z[zeta] -> F_p, zeta -> r, is a ring
    homomorphism, extended to every element whose denominator p does not
    divide; the others are refused (Brown, JACM 18, 1971; Cohen, GTM 138).
    """

    __slots__ = ("source", "target", "root", "_powers")

    def __init__(self, field: Field, after: int):
        if field.kind == "prime":
            raise ValueError("prime fields have no split-prime reduction")
        n = field.n if field.kind == "cyclotomic" else 1
        p = next(q for q in itertools.count(after + 1) if (q - 1) % n == 0 and is_prime(q))
        # r = a^((p - 1)/n) has order dividing n; it is primitive when no
        # r^(n/q) for a prime q | n is 1.
        prime_divisors = [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]
        powers = (pow(a, (p - 1) // n, p) for a in itertools.count(2))
        root = next(r for r in powers if all(pow(r, n // q, p) != 1 for q in prime_divisors))
        self.source = field.descriptor
        self.target = make_field(FieldDescriptor.prime(p))
        self.root = root
        self._powers = tuple(pow(root, j, p) for j in range(field.phi if n > 1 else 1))

    def __call__(self, c: FieldElement) -> FieldElement:
        if c.field.descriptor != self.source:
            raise FieldMismatchError(f"cannot reduce an element of {c.field} modulo another field's split prime")
        coords, den = c.data if c.field.kind == "cyclotomic" else ((c.data.numerator,), c.data.denominator)
        p = self.target.descriptor.p
        if den % p == 0:
            raise ZeroDivisionError(f"the split prime {p} divides the denominator of {c}")
        value = sum(a * w for a, w in zip(coords, self._powers)) * pow(den, -1, p) % p
        return FieldElement(self.target, value)


def _power(base, n: int, one):
    """base ** n for n >= 0 by binary powering, for any value with a
    multiplication; squares only while higher bits of n remain."""
    if n < 0:
        raise ValueError("negative exponent")
    result = one
    while n:
        if n & 1:
            result = base if result is one else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _frac_poly_divmod(num: list, den: list) -> tuple:
    num = list(num)
    dn = len(den)
    if len(num) < dn:
        return [Fraction(0)], num
    quot = [Fraction(0)] * (len(num) - dn + 1)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - dn, -1, -1):
        q = num[i + dn - 1] * inv_lead
        quot[i] = q
        if q:
            for j in range(dn):
                num[i + j] -= q * den[j]
    return quot, num[: dn - 1]


def _frac_poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _frac_poly_sub(a: list, b: list) -> list:
    size = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
        for i in range(size)
    ]
