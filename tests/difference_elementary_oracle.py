"""The generator-sum power-sum route to root differences, kept as a test oracle.

`roots._difference_elementary` now reads each S_k off a tabled row of signed
binomials and runs plain integer loops.  The form it replaced is here: every
sum a generator, (-1)^m and C(k, m) computed per term.
"""

from math import comb
from typing import Sequence


def difference_elementary_by_sums(coeffs: Sequence[int]) -> list[int]:
    """[E_0..E_N], N = n(n-1), of the root differences beta_i - beta_j, beta_i = a_n alpha_i."""
    n = len(coeffs) - 1
    big_n = n * (n - 1)
    c = [1] + [coeffs[n - k] * coeffs[n] ** (k - 1) for k in range(1, n + 1)] + [0] * big_n
    t = [n] + [0] * big_n
    for k in range(1, big_n + 1):
        t[k] = -k * c[k] - sum(c[j] * t[k - j] for j in range(1, min(k, n + 1)))
    e = [1] + [0] * big_n
    s = [0] * (big_n + 1)
    for k in range(2, big_n + 1, 2):  # the terms m and k - m of S_k are equal
        s[k] = (-1) ** (k // 2) * comb(k, k // 2) * t[k // 2] ** 2 + 2 * sum(
            (-1) ** m * comb(k, m) * t[m] * t[k - m] for m in range(k // 2))
        e[k], rem = divmod(-sum(e[k - i] * s[i] for i in range(2, k + 1, 2)), k)
        assert rem == 0, f"Newton's identity left {k} E_{k} indivisible by {k}"
    return e
