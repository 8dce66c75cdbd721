"""The flat coefficient stream that the census kernel's block loop replaced.

`census._records` walks the same order block by block; tests compare its
blocks, and the records of the per-record oracles, against this stream.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional


def iter_coeffs(n: int, height_bound: int, an_lo: int = 1,
                an_hi: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Canonical coefficient tuples (a_0..a_n) with a_n in [an_lo, an_hi].

    Sign normalization a_n > 0: each polynomial stands for the pair {P, -P}.
    Deterministic order: a_n ascending, then a_(n-1), ..., then a_0.
    """
    hi = an_hi if an_hi is not None else height_bound
    box = range(-height_bound, height_bound + 1)
    for an in range(an_lo, hi + 1):
        for rest in itertools.product(box, repeat=n):  # (a_(n-1), ..., a_0)
            yield rest[::-1] + (an,)
