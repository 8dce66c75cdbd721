"""Exact integer linear algebra helpers.

Fraction-free determinants (Bareiss), modular linear solves, and an
integral LLL reduction, which the generator runs first on every congruence
lattice to bound the enumeration box.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .padic import _as_p, _as_rational


def bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free.

    Every intermediate division in the Bareiss recurrence is exact, so the
    whole computation stays in arbitrary-precision integers.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            mik = row_i[k]  # column k below the pivot is never read again, so it is not zeroed
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def solve_mod_prime(matrix: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]],
                    q: int) -> list[list[int]]:
    """Solve M z = b (mod q) for each b in rhs, prime q not dividing det M.

    One Gauss-Jordan elimination of M augmented by every b.  Returns the
    unique solutions in the order of rhs, entries in [0, q).  Raises
    ValueError when the system is singular mod q.
    """
    q = _as_p(q, "q")
    n = len(matrix)
    aug = [[matrix[i][j] % q for j in range(n)] + [b[i] % q for b in rhs] for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col] % q != 0:
                pivot = r
                break
        if pivot is None:
            raise ValueError(f"matrix singular mod {q}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, q)
        aug[col] = [(x * inv) % q for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % q for a, b in zip(aug[r], aug[col])]
    return [[aug[i][n + k] for i in range(n)] for k in range(len(rhs))]


def lll_reduce(basis: Sequence[Sequence[int]], delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """LLL-reduce linearly independent integer vectors in integer arithmetic.

    Integral LLL (Cohen, Alg. 2.6.7; de Weger 1987): d[i] is the Gram
    determinant of the first i vectors and lam[k][j] = d[j+1] mu_kj, both
    integers, updated in place by every size reduction and swap.  Each step
    fully size-reduces b_k against b_(k-1), ..., b_0 (round(mu) ties to even),
    then applies the Lovasz test B_k >= (delta - mu_(k,k-1)^2) B_(k-1), which
    for delta = num/den reads den d_(k+1) d_(k-1) >= num d_k^2 - den lam^2.
    """
    b = [list(v) for v in basis]
    n = len(b)
    num, den = _as_rational(delta, "delta").as_integer_ratio()
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):  # lam[k][k] is d[k+1] and is not read after this loop
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            lam[k][j] = u
        d[k + 1] = lam[k][k]
        if d[k + 1] == 0:
            raise ValueError("basis vectors are linearly dependent")
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lk[j]) > dj:
                r, rem = divmod(lk[j], dj)
                if 2 * rem > dj or (2 * rem == dj and r % 2):
                    r += 1
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                lk[j] -= r * dj
                for i in range(j):
                    lk[i] -= r * lam[j][i]
        lkk = lk[k - 1]
        if den * d[k + 1] * d[k - 1] >= num * d[k] ** 2 - den * lkk * lkk:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        lam[k - 1][:k - 1], lk[:k - 1] = lk[:k - 1], lam[k - 1][:k - 1]
        new_d = (d[k - 1] * d[k + 1] + lkk * lkk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lkk * t) // d[k]
            lam[i][k - 1] = (new_d * t + lkk * lam[i][k]) // d[k + 1]
        d[k] = new_d
        k = max(k - 1, 1)
    return b
