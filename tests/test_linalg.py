import random

import pytest

from planegalois.linalg import mat_det, mat_inv, mat_mul, mat_vec, nullspace, solve_affine
from planegalois.polynomials import Poly1, RatFunc, RatFuncField

FIELDS = ["Q", "Z5", "F7"]


def _entry(field, rng):
    c = field.from_int(rng.randint(-3, 3))
    if field.kind == "cyclotomic":
        c = c + field.generator() * field.from_int(rng.randint(-2, 2))
    return c


def _matrix(field, rng, rows, cols):
    return [[_entry(field, rng) for _ in range(cols)] for _ in range(rows)]


def _identity(ring, n):
    return [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]


def _combine(ring, rows, weights):
    out = [ring.zero()] * len(rows[0])
    for row, w in zip(rows, weights):
        out = [a + w * b for a, b in zip(out, row)]
    return out


@pytest.mark.parametrize("name", FIELDS)
def test_mat_inv_and_det(name, request):
    field = request.getfixturevalue(name)
    rng = random.Random(11)
    inverted = 0
    for n in (1, 2, 3, 4) * 3:
        M = _matrix(field, rng, n, n)
        if mat_det(M, field).is_zero():
            with pytest.raises(ZeroDivisionError):
                mat_inv(M, field)
            continue
        inverse = mat_inv(M, field)
        assert mat_mul(inverse, M) == _identity(field, n)
        assert mat_mul(M, inverse) == _identity(field, n)
        assert mat_det(inverse, field) * mat_det(M, field) == field.one()
        inverted += 1
    assert inverted >= 8
    # a row that is a combination of the others makes the matrix singular
    M = _matrix(field, rng, 2, 3)
    M.append(_combine(field, M, [_entry(field, rng), field.one()]))
    assert mat_det(M, field).is_zero()
    with pytest.raises(ZeroDivisionError):
        mat_inv(M, field)


@pytest.mark.parametrize("name", FIELDS)
def test_mat_det_is_multiplicative_and_alternating(name, request):
    field = request.getfixturevalue(name)
    rng = random.Random(12)
    for n in (2, 3, 4):
        A, B = _matrix(field, rng, n, n), _matrix(field, rng, n, n)
        assert mat_det(mat_mul(A, B), field) == mat_det(A, field) * mat_det(B, field)
        swapped = [A[1], A[0]] + A[2:]
        assert mat_det(swapped, field) == -mat_det(A, field)
    (a, b, c), (d, e, f), (g, h, i) = M = _matrix(field, rng, 3, 3)
    expansion = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert mat_det(M, field) == expansion
    assert mat_det([], field) == field.one()


@pytest.mark.parametrize("name", FIELDS)
def test_solve_affine(name, request):
    field = request.getfixturevalue(name)
    rng = random.Random(13)
    zero = [field.zero()] * 3
    for _ in range(6):
        # rank 2 in 5 unknowns: the third row is a combination of the first two
        A = _matrix(field, rng, 2, 5)
        weights = [_entry(field, rng), _entry(field, rng)]
        A.append(_combine(field, A, weights))
        x = [_entry(field, rng) for _ in range(5)]
        b = mat_vec(A, x)
        particular, kernel = solve_affine(A, b, field)
        assert mat_vec(A, particular) == b
        assert len(kernel) == 3
        for v in kernel:
            assert mat_vec(A, v) == zero
        # an inconsistent right-hand side
        bad = b[:2] + [b[2] + field.one()]
        assert solve_affine(A, bad, field) is None
    assert solve_affine([], [], field) == ([], [])


def test_nullspace_over_rational_functions(Q):
    ring = RatFuncField(Q)
    t = RatFunc.from_poly(Poly1.x(Q))

    def rf(*coeffs):
        return RatFunc.from_poly(Poly1(Q, [Q.from_int(c) for c in coeffs]))

    one = ring.one()
    rows = [
        [one, t, t * t, rf(1, 0, 0, 1)],
        [t, rf(2, 1), (t + one).inverse(), one],
    ]
    kernel = nullspace(rows, ring)
    assert len(kernel) == 2
    for v in kernel:
        assert mat_vec(rows, v) == [ring.zero(), ring.zero()]
    # a third row that is a rational-function combination of the first two
    rows.append(_combine(ring, rows, [t * (t - one).inverse(), rf(3, 0, 1)]))
    kernel = nullspace(rows, ring)
    assert len(kernel) == 2
    for v in kernel:
        assert mat_vec(rows, v) == [ring.zero()] * 3
    # no rows: the whole space, of the stated width
    assert nullspace([], ring, width=2) == _identity(ring, 2)
