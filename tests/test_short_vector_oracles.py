"""The integral LLL, the one-box short-vector search, its dual certificate and
its rank tracker against the routes they replaced: the rational LLL of
`lll_oracle`, the radius-doubling search and pure elimination of
`short_vector_oracle`, and brute-force minima."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lll_oracle import lll_reduce_rational
from padicsep.lattice import (
    GENERATE_ENUM_LIMIT,
    XiParams,
    _dual_certificate,
    _greedy_minima,
    _max_abs,
    _RankTracker,
    build_gamma,
    congruence_lattice,
    preset_theorem2,
    preset_theorem3,
    short_vectors,
    successive_minima,
)
from padicsep.linalg import bareiss_det, lll_reduce
from short_vector_oracle import EliminationTracker, short_vectors_oracle, successive_minima_oracle

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


def _gram_det(basis):
    return bareiss_det([[sum(x * y for x, y in zip(u, v)) for v in basis] for u in basis])


@st.composite
def integer_bases(draw):
    """Independent integer vectors, dim 2-6, half of them built around mu = k + 1/2.

    In a tie basis b_0 = (2a, 0, ..., 0) and every later vector starts with an
    odd multiple of a, so each mu_(i,0) is a half-integer on the first pass.
    """
    dim = draw(st.integers(2, 6))
    ambient = dim + draw(st.integers(0, 1))
    entry = st.integers(-12, 12)
    rows = [draw(st.lists(entry, min_size=ambient, max_size=ambient)) for _ in range(dim)]
    if draw(st.booleans()):
        a = draw(st.integers(1, 4))
        rows[0] = [2 * a] + [0] * (ambient - 1)
        for row in rows[1:]:
            row[0] = a * (2 * draw(st.integers(-4, 4)) + 1)
    assume(_gram_det(rows) != 0)
    return rows


@PROPERTY
@given(integer_bases(), st.sampled_from([Fraction(3, 4), Fraction(1, 2), Fraction(99, 100)]))
def test_integral_lll_equals_rational_oracle(basis, delta):
    assert lll_reduce(basis, delta) == lll_reduce_rational(basis, delta)


def test_integral_lll_rounds_ties_to_even_and_rejects_dependence():
    # mu = 3/2 and 5/2 both round to 2, as Fraction.__round__ does
    assert lll_reduce([[2, 0], [3, 5]]) == [[2, 0], [-1, 5]]
    assert lll_reduce([[2, 0], [5, 5]]) == [[2, 0], [1, 5]]
    assert lll_reduce([[2, 0], [1, 5]]) == [[2, 0], [1, 5]]  # mu = 1/2 is already reduced
    with pytest.raises(ValueError):
        lll_reduce([[1, 2, 3], [2, 4, 6]])


def _random_lattice(rng, max_n):
    n = rng.randint(1, max_n)
    p = rng.choice([2, 3, 5])
    t = rng.randint(1, 3)
    b = [0] * (n + 1)
    for _ in range(t * (n + 1)):
        b[rng.randrange(n + 1)] += 1
    return build_gamma(rng.randrange(p ** (max(b) + 2)), XiParams(p, t, tuple(b)))


def test_short_vectors_and_minima_equal_the_doubling_search():
    # vectors, c0 and method of short_vectors, and successive_minima's values
    # or RuntimeError, at budgets from "no box fits" to "every box fits"
    rng = random.Random(4141)
    routes = set()
    for _ in range(90):
        lat = _random_lattice(rng, 3)
        for limit in (1, 30, 500, 5000):
            sv = short_vectors(lat, limit)
            assert (sv.vectors, sv.c0, sv.method) == short_vectors_oracle(lat, limit)
            routes.add(sv.route)
            for want in range(1, lat.n + 3):
                try:
                    got = successive_minima(lat, want, limit)
                except RuntimeError:
                    got = None
                assert got == successive_minima_oracle(lat, want, limit), (lat, want, limit)
    assert routes == {"enumeration", "lll_after_box", "lll_dual_certificate"}
    with pytest.raises(ValueError):
        successive_minima(lat, 0)


def test_rank_tracker_equals_pure_elimination(monkeypatch):
    # streams that reach rank d - 1 and then offer vectors of that hyperplane
    # (dependent) mixed with random ones, small and huge; every decision, and
    # the greedy at every want <= d on the sorted stream, as elimination gives
    rng = random.Random(4242)
    dependent_at_hyperplane = 0
    for _ in range(400):
        dim = rng.randint(1, 5)
        scale = rng.choice([3, 9, 10**9])
        base = [[rng.randint(-scale, scale) for _ in range(dim)] for _ in range(dim - 1)]
        stream = base[:]
        for _ in range(rng.randint(0, 10)):
            if base and rng.random() < 0.6:
                mix = [rng.randint(-3, 3) for _ in base]
                stream.append([sum(c * row[j] for c, row in zip(mix, base)) for j in range(dim)])
            else:
                stream.append([rng.randint(-scale, scale) for _ in range(dim)])
        rng.shuffle(stream)
        fast, slow = _RankTracker(), EliminationTracker()
        for vec in stream:
            rank = len(slow.rows)
            took = slow.try_add(vec)
            assert fast.try_add(vec) == took, (stream, vec)
            dependent_at_hyperplane += rank == dim - 1 and not took
        points = sorted((max(map(abs, v)), tuple(v)) for v in stream)
        for want in range(1, dim + 1):
            got = _greedy_minima(points, want)
            with monkeypatch.context() as patch:
                patch.setattr("padicsep.lattice._RankTracker", EliminationTracker)
                assert got == _greedy_minima(points, want)
    assert dependent_at_hyperplane > 200


def _brute_last_minimum(lat, radius):
    """lambda_(n+1) by filtering the full box of the given radius, or None if it is larger."""
    box = range(-radius, radius + 1)
    points = sorted((max(map(abs, v)), v) for v in itertools.product(box, repeat=lat.n + 1)
                    if any(v) and lat.contains(v))
    tracker = _RankTracker()
    found = 0
    for norm, v in points:
        found += tracker.try_add(v)
        if found == lat.n + 1:
            return norm
    return None


def test_dual_certificate_never_fires_within_the_last_minimum():
    # for every R >= brute-force lambda_(n+1) the certificate must stay silent,
    # on the reduced basis and on the raw basis; it must fire somewhere below
    rng = random.Random(5151)
    checked = fired = 0
    while checked < 60:
        n = rng.randint(1, 2)
        p = rng.choice([2, 3, 5])
        b = [rng.randint(0, 2) for _ in range(n + 1)]
        lat = congruence_lattice(rng.randint(-40, 40), p, b)
        bases = [[tuple(v) for v in lll_reduce([list(c) for c in lat.basis])],
                 [tuple(c) for c in lat.basis]]
        top = max(max(map(abs, v)) for v in bases[0])
        if top > 12:
            continue
        last = _brute_last_minimum(lat, top)
        assert last is not None and last <= top
        for basis in bases:
            for radius in range(0, top + 3):
                if radius >= last:
                    assert not _dual_certificate(lat, basis, radius), (lat, basis, radius)
                else:
                    fired += _dual_certificate(lat, basis, radius)
        checked += 1
    assert fired


class _HoldsEveryCorner:
    """A stand-in for lat that holds every vector, so only the strict branch can fire."""

    def __init__(self, lat):
        self.covolume = lat.covolume

    @staticmethod
    def contains(vec):
        return True


def _check_certified_box(lat, basis, radius):
    """Check a firing certificate on the box; True when only the equality branch fired."""
    points = sorted((_max_abs(v), v) for v in lat.half_box_points(radius))
    assert len(_greedy_minima(points, lat.n + 1)) <= lat.n, (lat, basis, radius)
    return not _dual_certificate(_HoldsEveryCorner(lat), basis, radius)


def _seeded_lattices(rng):
    """Lattices of _random_lattice (dimension 2-5) and of the theorem presets at n = 2-4."""
    lattices = [_random_lattice(rng, 4) for _ in range(60)]
    for n in (2, 3, 4):
        for params in (preset_theorem2(n, 2, 2, Fraction(1)), preset_theorem2(n, 3, 3, Fraction(1)),
                       preset_theorem3(n, 2, 3, Fraction(1))):
            lattices += [build_gamma(rng.randrange(params.p ** (max(params.b) + 2)), params)
                         for _ in range(8)]
    return lattices


def test_dual_certificate_leaves_fewer_than_n_plus_1_independent_box_points():
    # wherever the certificate fires, strictly or at equality with the corners
    # +-R sign(w) outside the lattice, the greedy over the box finds at most n
    # independent vectors.  Every theorem2 n=3 p=2 t=3 class mod 64 and
    # theorem3 n=3 p=2 t=4 class mod 32 at each power-of-two radius the search
    # may pick, with short_vectors as the doubling search gives it; seeded
    # lattices of dimension 2-5 at every radius with a small box
    equality = 0
    presets = ((preset_theorem2(3, 2, 3, Fraction(1)), 64), (preset_theorem3(3, 2, 4, Fraction(1)), 32))
    for params, classes in presets:
        for x in range(classes):
            lat = build_gamma(x, params)
            sv = short_vectors(lat, GENERATE_ENUM_LIMIT)
            assert (sv.vectors, sv.c0, sv.method) == short_vectors_oracle(lat, GENERATE_ENUM_LIMIT)
            reduced = [tuple(v) for v in lll_reduce([list(c) for c in lat.basis])]
            radius, big = 1, max(map(_max_abs, reduced))
            while radius < big and lat.box_count_estimate(radius) <= GENERATE_ENUM_LIMIT:
                if _dual_certificate(lat, reduced, radius):
                    equality += _check_certified_box(lat, reduced, radius)
                radius *= 2
    assert equality
    dims = set()
    for lat in _seeded_lattices(random.Random(6262)):
        reduced = [tuple(v) for v in lll_reduce([list(c) for c in lat.basis])]
        radius, big = 1, max(map(_max_abs, reduced))
        while radius < big and lat.box_count_estimate(radius) <= 2000:
            if _dual_certificate(lat, reduced, radius) and _check_certified_box(lat, reduced, radius):
                dims.add(lat.n + 1)
            radius += 1
    assert len(dims) >= 2, dims


def test_lll_routes_build_no_rank_tracker_beyond_the_box(monkeypatch):
    # lll_reduce refuses dependent rows, so the LLL route sorts its n + 1 rows
    # without a rank test: lll_dual_certificate builds no _RankTracker, and
    # lll_after_box only the one its box greedy used
    built = []

    class Spy(_RankTracker):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr("padicsep.lattice._RankTracker", Spy)
    rng = random.Random(4343)
    seen = set()
    for _ in range(90):
        lat = _random_lattice(rng, 3)
        for limit in (0, 1, 30, 500):
            built.clear()
            sv = short_vectors(lat, limit)
            want = {"enumeration": 1, "lll_after_box": 1, "lll_dual_certificate": 0}[sv.route]
            assert len(built) == want, (lat, limit, sv.route)
            assert (sv.vectors, sv.c0, sv.method) == short_vectors_oracle(lat, limit)
            seen.add(sv.route)
    assert seen == {"enumeration", "lll_after_box", "lll_dual_certificate"}


def test_dual_certificate_computes_only_its_minors(monkeypatch):
    # D is the covolume congruence_lattice checked, so the only determinants
    # are the n + 1 signed n x n minors of each cofactor row tried
    sizes = []
    monkeypatch.setattr("padicsep.lattice.bareiss_det",
                        lambda rows: sizes.append(len(rows)) or bareiss_det(rows))
    fired = silent = 0
    for lat in _seeded_lattices(random.Random(6363)):
        reduced = [tuple(v) for v in lll_reduce([list(c) for c in lat.basis])]
        dim = lat.n + 1
        for radius in (1, 2, 4):
            sizes.clear()
            if _dual_certificate(lat, reduced, radius):
                fired += 1
                assert sizes and len(sizes) % dim == 0 and len(sizes) <= dim * dim
            else:
                silent += 1
                assert len(sizes) == dim * dim
            assert set(sizes) == {lat.n}, (lat, radius, sizes)
    assert fired and silent
