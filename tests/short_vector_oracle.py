"""The radius-doubling short-vector search that `lattice._minima_search` replaced,
and the pure-elimination rank tracker behind its greedy.

Boxes of radius 1, 2, 4, ... are enumerated while box_count_estimate stays
within enum_limit, and the (sup-norm, lexicographic) greedy runs on each; the
first success gives the exact successive minima.  Otherwise the greedy runs
on the basis reduced by the rational LLL of `lll_oracle`.  Tests compare
`short_vectors` and `successive_minima` against it exactly, and
`lattice._RankTracker`, which tests rank d - 1 by one dot product with a
normal vector, against `EliminationTracker`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from lll_oracle import lll_reduce_rational
from padicsep.lattice import _greedy_minima, _max_abs, _sign_normalize


def doubling_search(lat, want: int, enum_limit: int):
    radius = 1
    while lat.box_count_estimate(radius) <= enum_limit:
        pts = sorted((_max_abs(v), v) for v in lat.half_box_points(radius))
        chosen = _greedy_minima(pts, want)
        if len(chosen) == want:
            return chosen
        radius *= 2
    return None


def short_vectors_oracle(lat, enum_limit: int):
    """(vectors, c0, method) as the doubling search and rational LLL give them."""
    n = lat.n
    chosen = doubling_search(lat, n + 1, enum_limit)
    method = "enumeration"
    if chosen is None:
        reduced = [tuple(v) for v in lll_reduce_rational([list(c) for c in lat.basis])]
        chosen = _greedy_minima(sorted({(_max_abs(v), _sign_normalize(v)) for v in reduced}), n + 1)
        method = "lll"
    return (tuple(v for _, v in chosen), Fraction(max(nm for nm, _ in chosen), lat.box_q), method)


def successive_minima_oracle(lat, want: int, enum_limit: int):
    """The minima, or None where successive_minima must raise RuntimeError."""
    chosen = doubling_search(lat, want, enum_limit)
    return None if chosen is None else [Fraction(nm, lat.box_q) for nm, _ in chosen]


class EliminationTracker:
    """Incremental rank by fraction-free row elimination at every rank."""

    def __init__(self):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def try_add(self, vec) -> bool:
        row = list(vec)
        for piv, r in zip(self.pivots, self.rows):
            f = row[piv]
            if f:
                g = r[piv]
                row = [g * a - f * c for a, c in zip(row, r)]
        for j, val in enumerate(row):
            if val:
                content = gcd(*row)
                self.rows.append([a // content for a in row])
                self.pivots.append(j)
                return True
        return False

