"""The output-sensitive congruence-descent enumerator against the full walk it replaced.

`lattice._box_points` must yield the very list `box_points_oracle` yields,
order included: the first point decides the measure estimate's hit predicate
and the order feeds the successive-minima greedy.
"""

import itertools
import random
from math import prod

from box_points_oracle import box_points_oracle
from padicsep.lattice import _box_has_point, _box_points

RADII = (0, 1, 2, 3, 5, 8, 12)


def _estimate(p, b, radius):
    return prod(2 * radius // p**bi + 1 for bi in b)


def _agree(p, b, x, radius):
    want = list(box_points_oracle(p, b, x, radius))
    assert list(_box_points(p, b, x, radius)) == want, (p, b, x, radius)
    assert _box_has_point(p, b, x, radius) == bool(want)
    assert _box_has_point(p, b, x, radius, require_top=True) == bool(want and want[0][-1])
    return want


def _grid():
    # every b in {0, 1, 2}^(n+1), then a class of 5 or more members under a
    # window far narrower than its child's modulus, below a zero prefix and not
    for p, n in itertools.product((2, 3, 5), range(1, 5)):
        yield from ((p, b) for b in itertools.product(range(3), repeat=n + 1))
    yield from ((p, b) for p, e in ((2, 6), (5, 3)) for b in ((e, 0), (e, 0, 0), (0, e, 0)))


def test_box_points_match_the_full_walk_on_an_exhaustive_grid():
    # every x mod p^max(b) and radii up to 12 while the box stays small:
    # classes wider and narrower than the window, wrapped windows and zero
    # prefixes all occur here
    calls = points = 0
    for p, b in _grid():
        for x in range(p ** max(b)):
            for radius in RADII:
                if _estimate(p, b, radius) > 200:
                    break
                points += len(_agree(p, b, x, radius))
                calls += 1
    assert calls > 50_000 and points > 300_000


def test_box_points_match_the_full_walk_at_the_workload_lattices():
    # the generator's theorem2 and theorem3 lattices, the pinch measure's
    # (9, 19, 0, 0) box and the golden n = 2 lattice, at seeded centres
    rng = random.Random(1901)
    cases = [(2, (9, 3, 0, 0), 32), (2, (12, 3, 1, 0), 16), (2, (12, 3, 1, 0), 32),
             (2, (9, 19, 0, 0), 32), (3, (4, 2, 0), 9), (3, (4, 2, 0), 27)]
    hits = 0
    for p, b, radius in cases:
        for _ in range(12):
            hits += bool(_agree(p, b, rng.randrange(p ** (max(b) + 4)), radius))
    assert hits > 0


def test_box_points_at_radius_zero_is_empty():
    for p, b, x in [(2, (0, 0), 0), (3, (2, 0, 1), 5), (5, (0, 0, 0, 0, 0), 7), (2, (9, 19, 0, 0), 3)]:
        assert _agree(p, b, x, 0) == []
