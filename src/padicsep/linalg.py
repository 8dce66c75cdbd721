"""Exact integer linear algebra helpers.

Fraction-free determinants (Bareiss), modular linear solves, and a small
exact-arithmetic LLL used only as a fallback when exhaustive lattice
enumeration would be too large.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


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
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def solve_mod_prime(matrix: Sequence[Sequence[int]], rhs: Sequence[int], q: int) -> list[int]:
    """Solve M z = rhs (mod q) for prime q with q not dividing det M.

    Returns the unique solution with entries in [0, q).  Raises ValueError
    when the system is singular mod q.
    """
    n = len(matrix)
    aug = [[matrix[i][j] % q for j in range(n)] + [rhs[i] % q] for i in range(n)]
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
    return [aug[i][n] for i in range(n)]


def lll_reduce(basis: Sequence[Sequence[int]], delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """LLL-reduce a list of integer basis vectors (exact rational Gram-Schmidt).

    Textbook algorithm; adequate for the small dimensions used here.  The
    caller re-verifies norms and independence afterwards, so this routine only
    needs to return *some* basis of the same lattice.
    """
    b = [list(v) for v in basis]
    n = len(b)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram_schmidt():
        bstar: list[list[Fraction]] = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            w = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    mu[i][j] = Fraction(0)
                    continue
                mu[i][j] = Fraction(dot(b[i], bstar[j])) / norms[j]
                w = [a - mu[i][j] * c for a, c in zip(w, bstar[j])]
            bstar.append(w)
            norms.append(dot(w, w))
        return bstar, mu, norms

    bstar, mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = round(mu[k][j])
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                bstar, mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            bstar, mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return b
