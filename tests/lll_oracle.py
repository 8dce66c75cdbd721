"""The rational-arithmetic LLL that the integral `linalg.lll_reduce` replaced.

Gram-Schmidt is recomputed in Fractions after every size reduction and swap,
with the same decisions as the integral version: full size reduction of b_k
against b_(k-1), ..., b_0 with Fraction.__round__ (ties to even), then the
Lovasz test.  Tests compare the two outputs exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def lll_reduce_rational(basis: Sequence[Sequence[int]],
                        delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
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
