"""Exact dense linear algebra over any field-like coefficient ring.

Matrices are lists of lists of duck-typed field elements (anything with
+, -, *, /, is_zero and inverse).  Everything here is small and exact;
no pivoting heuristics beyond "first nonzero".
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> List[List]:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a: Sequence[Sequence], v: Sequence) -> List:
    out = []
    for row in a:
        acc = v[0] * row[0]
        for k in range(1, len(v)):
            acc = acc + v[k] * row[k]
        out.append(acc)
    return out


def mat_det(a: Sequence[Sequence], ring) -> object:
    n = len(a)
    work = [list(row) for row in a]
    det = ring.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if pivot is None:
            return ring.zero()
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col].inverse()
        for r in range(col + 1, n):
            if not work[r][col].is_zero():
                factor = work[r][col] * inv
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det


def mat_inv(a: Sequence[Sequence], ring) -> List[List]:
    """Inverse through the rref of [A | I]; raises ZeroDivisionError when A is singular."""
    n = len(a)
    aug = [list(row) + [ring.one() if i == j else ring.zero() for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots = rref(aug, ring)
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in reduced]


def rref(rows: List[List], ring) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Left of its pivot the pivot row is zero, so each row update touches only
    the pivot row's nonzero columns right of the pivot; the pivot column is
    set to 1 or 0 directly.
    """
    work = [list(r) for r in rows]
    if not work:
        return work, []
    cols = len(work[0])
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if not work[r][col].is_zero()), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        inv = prow[col].inverse()
        support = [j for j in range(col + 1, cols) if not prow[j].is_zero()]
        for j in support:
            prow[j] = prow[j] * inv
        prow[col] = ring.one()
        for r, row in enumerate(work):
            if r != rank and not row[col].is_zero():
                factor = row[col]
                for j in support:
                    row[j] = row[j] - factor * prow[j]
                row[col] = ring.zero()
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work, pivots


def _kernel(reduced: List[List], pivots: List[int], cols: int, ring) -> List[List]:
    """Nullspace basis read off a reduced row echelon form, one vector per free column."""
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ring.zero()] * cols
        vec[fc] = ring.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def nullspace(rows: List[List], ring, width: Optional[int] = None) -> List[List]:
    """Basis of the right nullspace of the matrix."""
    if not rows:
        return _kernel([], [], width or 0, ring)
    reduced, pivots = rref(rows, ring)
    return _kernel(reduced, pivots, len(rows[0]), ring)


def solve_affine(rows: List[List], rhs: List, ring) -> Optional[Tuple[List, List[List]]]:
    """Solve A x = b exactly.

    Returns (particular solution, nullspace basis) or None when inconsistent.
    """
    if not rows:
        return [], []
    cols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug, ring)
    if cols in pivots:
        return None  # pivot in the constant column: inconsistent
    particular = [ring.zero()] * cols
    for r, pc in enumerate(pivots):
        particular[pc] = reduced[r][cols]
    return particular, _kernel(reduced, pivots, cols, ring)


def lll_reduce(basis: Sequence[Sequence[int]]) -> List[List[int]]:
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by linearly
    independent integer rows, by the all-integer algorithm of Cohen, GTM 138,
    Alg. 2.6.7: d[i] is the Gram determinant of the first i rows and
    lam[k][j] = d[j + 1] * mu[k][j], so every division below is exact."""
    b = [list(row) for row in basis]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram_schmidt(k):
        for j in range(k + 1):
            u = dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        size_reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            mu = lam[k][k - 1]
            swapped = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
                lam[i][k - 1] = (swapped * t + mu * lam[i][k]) // d[k + 1]
            d[k] = swapped
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b
