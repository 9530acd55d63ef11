import random
from fractions import Fraction
from math import gcd

import pytest

from planegalois.fields import (
    Field,
    FieldDescriptor,
    FieldElement,
    FieldMismatchError,
    UNDETERMINED,
    Undetermined,
    cyclotomic_polynomial,
    make_field,
    sqrt_in_field,
)


def test_make_field_cyclotomic_4(Z4):
    i = Z4.generator()
    assert i * i == Z4.from_int(-1)


def test_make_field_cyclotomic_3(Z3):
    w = Z3.generator()
    assert w * w + w + Z3.one() == Z3.zero()


def test_make_field_prime_3(F3):
    assert F3.characteristic == 3
    assert F3.from_int(5) == F3.from_int(2)


def test_make_field_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_field(FieldDescriptor.prime(10))
    with pytest.raises(ValueError):
        make_field(FieldDescriptor.cyclotomic(2))
    with pytest.raises(ValueError):
        make_field(FieldDescriptor.cyclotomic(100))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)


def test_zeta5_relations(Z5):
    z = Z5.generator()
    assert z**5 == Z5.one()
    # z^4 in the power basis is -1 - z - z^2 - z^3
    expected = Z5.from_coords([Fraction(-1)] * 4)
    assert z**4 == expected


def test_sqrt2_in_z8(Z8):
    z = Z8.generator()
    s = z + z**7
    assert s * s == Z8.from_int(2)


def test_division_and_descriptor_mismatch(Q, Z3, Z4):
    with pytest.raises(ZeroDivisionError):
        Q.one() / Q.zero()
    with pytest.raises(FieldMismatchError):
        Q.one() + Z3.one()
    with pytest.raises(FieldMismatchError):
        Z3.one() * Z4.generator()
    # A directly constructed Field is not the interned handle: elements
    # combine by descriptor, and a different descriptor still fails.
    w = Field(FieldDescriptor.cyclotomic(3)).generator()
    assert w * Z3.generator() == Z3.generator() ** 2
    assert w == Z3.generator() and hash(w) == hash(Z3.generator())
    with pytest.raises(FieldMismatchError):
        Field(FieldDescriptor.cyclotomic(4)).one() + Z3.one()


def test_cyclotomic_canonical_form(Z5):
    half = Z5.from_coords([Fraction(1, 2), 0, 3, 0])
    same = Z5.from_coords([Fraction(2, 4), Fraction(0, 7), Fraction(6, 2), 0])
    assert half == same and hash(half) == hash(same)
    b = Z5.from_coords([Fraction(1, 3), -1, 0, Fraction(3, 2)])
    assert str(b) == "3/2*z^3 - z + 1/3"
    for value, expected in (((half * b) / b, half), (half - half, Z5.zero()), (b + -b, Z5.zero())):
        assert value == expected and hash(value) == hash(expected)
    assert (half - half).data == ((0, 0, 0, 0), 1)
    # Every result is one integer vector over a positive denominator that
    # shares no factor with it.
    rng = random.Random(17)
    x = b
    for _ in range(200):
        y = Z5.from_coords([Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(4)])
        x = rng.choice((x + y, x - y, x * y, x / y if y else x))
        coords, den = x.data
        assert den > 0 and gcd(den, *coords) == 1
        assert Z5.from_coords(x._coords()) == x


@pytest.fixture(scope="module")
def Z64():
    return make_field(FieldDescriptor.cyclotomic(64))


@pytest.mark.parametrize("field_name", ["Q", "Z3", "Z5", "Z8", "Z64", "F3", "F7"])
def test_field_axioms_random(field_name, request):
    field = request.getfixturevalue(field_name)
    rng = random.Random(hash(field_name) & 0xFFFF)

    def sample():
        if field.kind == "cyclotomic":
            return field.from_coords(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(field.phi)]
            )
        if field.kind == "prime":
            return field.from_int(rng.randint(-30, 30))
        return field.from_fraction(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))

    # Q(zeta_64) (phi = 32) runs the longest reduction rows; its inverses
    # cost 0.2-0.8 s each, so it gets fewer rounds.
    rounds, inverses = (100, 5) if field_name == "Z64" else (1000, 200)
    for _ in range(rounds):
        a, b, c = sample(), sample(), sample()
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
    for _ in range(inverses):
        a = sample()
        if a.is_zero():
            continue
        assert a.inverse() * a == field.one()
        assert a**5 == a * a * a * a * a
        assert a**0 == field.one()
        assert a**-2 == (a * a).inverse()


def test_generator_satisfies_minimal_polynomial(Z5, Z8):
    for field in (Z5, Z8):
        z = field.generator()
        n = field.descriptor.n
        assert z**n == field.one()
        phi_n = cyclotomic_polynomial(n)
        acc = field.zero()
        for k, c in enumerate(phi_n):
            acc = acc + z**k * field.from_int(c)
        assert acc.is_zero()


def test_sqrt_rational(Q):
    assert sqrt_in_field(Q.from_int(4)) == Q.from_int(2)
    assert sqrt_in_field(Q.from_int(-1)) is None
    assert sqrt_in_field(Q.from_fraction(Fraction(9, 4))) == Q.from_fraction(Fraction(3, 2))
    assert sqrt_in_field(Q.from_int(2)) is None
    assert sqrt_in_field(Q.zero()) == Q.zero()


def test_sqrt_minus_27_in_z3(Z3):
    r = sqrt_in_field(Z3.from_int(-27))
    assert isinstance(r, FieldElement)
    assert r * r == Z3.from_int(-27)
    # the stated root: 3(2w + 1) up to sign
    w = Z3.generator()
    stated = Z3.from_int(3) * (Z3.from_int(2) * w + Z3.one())
    assert r == stated or r == -stated


def test_sqrt_two_in_z8(Z8):
    r = sqrt_in_field(Z8.from_int(2))
    assert isinstance(r, FieldElement)
    assert r * r == Z8.from_int(2)


def test_sqrt_of_random_squares(Z3, Z5, Q):
    rng = random.Random(99)
    for field in (Q, Z3, Z5):
        for _ in range(10):
            if field.kind == "cyclotomic":
                r = field.from_coords(
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.phi)]
                )
            else:
                r = field.from_fraction(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
            square = r * r
            s = sqrt_in_field(square)
            assert isinstance(s, FieldElement), f"no root found for {square} in {field}"
            assert s * s == square


def test_sqrt_rejects_prime_fields(F3):
    with pytest.raises(ValueError):
        sqrt_in_field(F3.from_int(1))


def test_undetermined_has_no_truth_value():
    with pytest.raises(TypeError):
        bool(UNDETERMINED)
    assert isinstance(UNDETERMINED, Undetermined)


def test_element_text_roundtrip(Q, Z3, Z8, F3):
    rng = random.Random(5)
    for field in (Q, Z3, Z8, F3):
        for _ in range(40):
            if field.kind == "cyclotomic":
                e = field.from_coords(
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(field.phi)]
                )
            elif field.kind == "prime":
                e = field.from_int(rng.randint(-10, 10))
            else:
                e = field.from_fraction(Fraction(rng.randint(-30, 30), rng.randint(1, 11)))
            assert field.parse(str(e)) == e


def test_immutability(Q):
    one = Q.one()
    with pytest.raises(AttributeError):
        one.data = Fraction(2)
