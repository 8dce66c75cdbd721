"""The constructive polynomial generator: parameter rounding, the coefficient
lattice with prescribed derivative divisibilities, short-vector extraction,
normalization bookkeeping, and the congruence/Eisenstein twist that turns
n+1 short lattice vectors into n+1 independent irreducible polynomials.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, gcd
from operator import mul
from typing import Iterator, Optional, Sequence

from .intpoly import IntPoly, content_primitive, eisenstein_check
from .linalg import bareiss_det, lll_reduce, solve_mod_prime
from .padic import (INF, InvariantError, _as_int, _as_p, _as_rational, _ceil_log, _power_exponent,
                    is_prime, valuation)

DEFAULT_ENUM_LIMIT = 10**7


class RoundingInfeasible(ValueError):
    """No admissible integer rounding of the xi parameters exists."""


class DegenerateSample(RuntimeError):
    """The generator hit a degenerate x (flagged, never silently dropped)."""


@dataclass(frozen=True)
class XiParams:
    """Rounded size parameters: xi_i = p^-b_i, Q = p^t, sum b_i = t(n+1)."""

    p: int
    t: int
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", _as_p(self.p))
        _as_int(self.t, "t", 0)
        if len(self.b) < 2:
            raise ValueError("need n >= 1, i.e. at least two b entries")
        for bi in self.b:
            _as_int(bi, "every b entry", 0)
        if sum(self.b) != self.t * len(self.b):
            raise ValueError(
                f"sum(b) = {sum(self.b)} must equal t(n+1) = {self.t * len(self.b)}"
            )

    @property
    def n(self) -> int:
        return len(self.b) - 1

    @property
    def Q(self) -> int:
        return self.p**self.t

    def xi(self, i: int) -> Fraction:
        return Fraction(1, self.p ** self.b[i])


def round_params(xi: Sequence[Fraction], p, Q: Optional[Fraction] = None) -> XiParams:
    """Round positive rationals xi_i to powers p^-b_i with sum b_i = t(n+1).

    Each b_i is constrained by p^-b_i <= xi_i <= p^(-b_i+n); the sum condition
    picks t >= 1.  Returns the lexicographically smallest feasible b.  Raises
    RoundingInfeasible when no admissible b exists (reporting the deficit).

    Closed form.  Each b_i ranges over [lo_i, hi_i], so the totals fill
    [sum lo, sum hi]; no b exists when T, the least multiple of n+1 that is
    >= max(n+1, sum lo), exceeds sum hi.  Else b_i = max(lo_i, T - sum_(j<i)
    b_j - sum_(j>i) hi_j) in turn keeps sum_(j<i) b_j + sum_(j>=i) hi_j >= T
    (so b_i <= hi_i) and sum_(j<i) b_j + sum_(j>=i) lo_j <= T, so sum b = T.
    A feasible b' <lex b first differs where b'_i < b_i, so b_i > lo_i and
    sum b' < T, and no admissible total lies in [sum lo, T): b is the least.
    """
    q = _as_p(p)
    n = len(xi) - 1
    if n < 1:
        raise ValueError("need at least two xi values")
    xs = [_as_rational(x, "every xi") for x in xi]
    if any(x <= 0 for x in xs):
        raise ValueError("xi values must be positive")
    # p^-b <= xi  <=>  b >= ceil(log_p 1/xi);   xi <= p^(n-b)  <=>  b <= n - ceil(log_p xi)
    lo = [max(0, _ceil_log(1 / x, q)) for x in xs]
    hi = [n - _ceil_log(x, q) for x in xs]
    if any(l > h for l, h in zip(lo, hi)):
        bad = [i for i, (l, h) in enumerate(zip(lo, hi)) if l > h]
        raise RoundingInfeasible(f"xi at indices {bad} admit no b in the sandwich")
    if Q is not None:
        prod = Fraction(1)
        for x in xs:
            prod *= x
        ratio = _as_rational(Q, "Q") ** (n + 1) * prod
        tol = Fraction(q) ** ((n + 1) * (n + 1))
        if not (1 / tol <= ratio <= tol):
            raise RoundingInfeasible(
                f"prod(xi) = {prod} is not within sandwich tolerance of Q^-(n+1)"
            )
    mod = n + 1
    total = max(mod, ((sum(lo) + mod - 1) // mod) * mod)
    if total > sum(hi):
        raise RoundingInfeasible(
            f"no admissible rounding: achievable sums [{sum(lo)}, {sum(hi)}]"
            f" miss every positive multiple of {mod}"
        )
    chosen: list[int] = []
    rest = sum(hi)  # sum_(j<i) b_j + sum_(j>=i) hi_j, which stays >= total
    for l, h in zip(lo, hi):
        chosen.append(max(l, total - (rest - h)))
        rest += chosen[-1] - h
    if rest != total:
        raise InvariantError("closed-form rounding produced an invalid total")
    return XiParams(q, total // mod, tuple(chosen))


def taylor_matrix(x: int, n: int) -> list[list[int]]:
    """Unit upper-triangular T with T[i][j] = C(j, i) x^(j-i).

    Row i of T a gives the normalized derivative (1/i!) P^(i)(x) for the
    coefficient vector a; T(x)^-1 = T(-x).
    """
    return [
        [comb(j, i) * x ** (j - i) if j >= i else 0 for j in range(n + 1)]
        for i in range(n + 1)
    ]


@dataclass(frozen=True)
class GammaLattice:
    """Sublattice of Z^(n+1) of coefficient vectors with v_p((1/i!)P^(i)(x)) >= b_i.

    box_q is the semi-axis of the reference box for successive minima; lattices
    built from XiParams use Q = p^t.
    """

    basis: tuple[tuple[int, ...], ...]  # columns
    x: int
    p: int
    b: tuple[int, ...]
    box_q: int

    @property
    def n(self) -> int:
        return len(self.b) - 1

    @property
    def covolume(self) -> int:
        out = 1
        for bi in self.b:
            out *= self.p**bi
        return out

    @cached_property
    def taylor(self) -> list[list[int]]:
        """taylor_matrix(x, n), built once per lattice."""
        return taylor_matrix(self.x, self.n)

    def hasse_values(self, vec: Sequence[int]) -> list[int]:
        """(1/i!)P^(i)(x) for i = 0..n, P having coefficient vector vec."""
        return [sum(c * a for c, a in zip(row, vec)) for row in self.taylor]

    def contains(self, vec: Sequence[int]) -> bool:
        return all(
            valuation(value, self.p) >= bi
            for value, bi in zip(self.hasse_values(vec), self.b)
        )

    def box_count_estimate(self, radius: int) -> int:
        est = 1
        for bi in self.b:
            est *= 2 * radius // self.p**bi + 1
        return est

    def half_box_points(self, radius: int) -> list[tuple[int, ...]]:
        """Nonzero lattice vectors with sup-norm <= radius, one per +-v pair."""
        return list(_box_points(self.p, self.b, self.x, radius))


def _box_points(p: int, b: Sequence[int], x: int, radius: int) -> Iterator[tuple[int, ...]]:
    """Nonzero a with sup-norm <= radius and v_p((1/i!)P^(i)(x)) >= b_i, one per +-a pair.

    The representative's highest-index nonzero coordinate is positive.  Level i
    holds the offsets o_k = sum_(j>i) C(j,k) x^(j-k) a_j of the levels k <= i and
    runs a_i = -o_i mod m_i = p^b_i over [-radius, radius], or over [0, radius]
    under a zero prefix (a_j = 0 for j > i; level 0 then stops before 0).
    Window: level i-1's class, -(o_(i-1) + i x a_i) mod M = m_(i-1), has top
    radius - s mod M, s = radius + o_(i-1) + i x a_i, so a_i passes iff
    s mod M <= 2 radius; a_i = 0 under a zero prefix has s = radius and a child
    stopping at 0 with top radius - radius mod M >= 0, and passes.  All a_i pass
    if M <= 2 radius + 1.  Else the passing a_i have key i x a_i mod M in
    lo..hi = lo + 2 radius, lo = -(radius + o_(i-1)) mod M: [lo, hi], or [lo, M)
    and [0, hi - M] if hi >= M, each one run of the class sorted by key, so two
    bisects keep what the direct filter (used on classes of <= 4 members and
    windows of >= M/4 residues, where tables do not pay) keeps.  Order: each
    level takes its passing members in descending order and a failing one has
    no point below it, so points come in decreasing (a_n, ..., a_0) order, as
    in a walk of every class; the first has the largest a_n.  Levels 1 and 0
    run in level 2's consumer, with no generator frame per prefix.
    """
    n = len(b) - 1
    powers = [x**e for e in range(n + 1)]
    # column i of taylor_matrix above the diagonal: C(i, k) x^(i-k), k < i
    cols = [[comb(i, k) * powers[i - k] for k in range(i)] for i in range(n + 1)]
    mods = [p**bi for bi in b]
    span = 2 * radius
    tables: list[dict[int, tuple[list[int], list[int]]]] = [{} for _ in range(n + 1)]

    def live(i: int, offs: list[int], zero: bool) -> Sequence[int]:
        m, big = mods[i], mods[i - 1]
        top = radius - (radius + offs[i]) % m
        members = range(top, -1 if zero else -radius - 1, -m)
        if big <= span + 1:
            return members
        r, shift = cols[i][i - 1], radius + offs[i - 1]
        if len(members) <= 4 or 4 * (span + 1) >= big:
            return [a for a in members if (shift + r * a) % big <= span]
        if top not in tables[i]:
            pairs = sorted((r * a % big, a) for a in range(top, -radius - 1, -m))
            tables[i][top] = ([k for k, _ in pairs], [a for _, a in pairs])
        keys, vals = tables[i][top]
        lo = -shift % big
        picked = vals[bisect_left(keys, lo):bisect_right(keys, lo + span)]
        if lo + span >= big:
            picked += vals[:bisect_right(keys, lo + span - big)]
        picked.sort(reverse=True)
        return [a for a in picked if a >= 0] if zero else picked

    def prefixes(i: int, offs: list[int], zero: bool, tail: tuple[int, ...]):
        col = cols[i]
        for a in live(i, offs, zero):
            if i == 2:
                yield (offs[0] + col[0] * a, offs[1] + col[1] * a), zero and a == 0, (a,) + tail
            else:
                yield from prefixes(i - 1, [o + c * a for o, c in zip(offs, col)], zero and a == 0,
                                    (a,) + tail)

    for offs, zero, tail in prefixes(n, [0] * (n + 1), True, ()) if n > 1 else [([0, 0], True, ())]:
        for a1 in live(1, offs, zero):
            top0 = radius - (radius + offs[0] + x * a1) % mods[0]
            rest = (a1,) + tail
            for a0 in range(top0, 0 if zero and a1 == 0 else -radius - 1, -mods[0]):
                yield (a0,) + rest


def _box_has_point(p: int, b: Sequence[int], x: int, radius: int,
                   require_top: bool = False) -> bool:
    """Is there a nonzero vector, sup-norm <= radius, meeting all congruences?

    The congruences are v_p(sum_(j>=i) C(j,i) x^(j-i) a_j) >= b_i.  With
    require_top the top coefficient must be nonzero (degree exactly n); the
    first point _box_points yields has the largest a_n in the box, so it
    alone decides.
    """
    first = next(_box_points(p, b, x, radius), None)
    return first is not None and (first[-1] != 0 or not require_top)


def congruence_lattice(x: int, p: int, b: Sequence[int], box_q: Optional[int] = None) -> GammaLattice:
    """Lattice of coefficient vectors with v_p((1/i!)P^(i)(x)) >= b_i, general b.

    The basis is T(-x) diag(p^b_i): column i solves the congruence system with
    right-hand side p^b_i e_i.  Covolume and per-column membership are
    re-verified by direct computation rather than trusted by construction.
    """
    b = tuple(_as_int(bi, "every b entry", 0) for bi in b)
    if len(b) < 2:
        raise ValueError("b must have n >= 1, i.e. at least two entries")
    n = len(b) - 1
    x_red = x % p ** max(b)  # x mod p^0 = 0 when every b_i is 0
    t_inv = taylor_matrix(-x_red, n)
    cols = []
    for i in range(n + 1):
        scale = p ** b[i]
        cols.append(tuple(t_inv[r][i] * scale for r in range(n + 1)))
    lat = GammaLattice(tuple(cols), x_red, p, b, box_q if box_q is not None else p ** max(b))
    if abs(bareiss_det(cols)) != lat.covolume:
        raise InvariantError("basis determinant does not match covolume")
    for col in cols:
        if not lat.contains(col):
            raise InvariantError("basis column fails lattice membership")
    return lat


def build_gamma(x: int, params: XiParams) -> GammaLattice:
    """The generator's lattice: covolume p^(t(n+1)) = Q^(n+1), box semi-axis Q."""
    return congruence_lattice(x, params.p, params.b, params.Q)


def _signed_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """(-1)^j det(rows less column j) for d-1 rows of length d: <w, v> = +-det(rows; v)."""
    return [(-1) ** j * bareiss_det([r[:j] + r[j + 1:] for r in rows])
            for j in range(len(rows) + 1)]


class _RankTracker:
    """Incremental exact rank via fraction-free integer row elimination.

    A new row is cross-multiplied against each stored row r at r's pivot,
    row <- r[piv] row - row[piv] r, which zeroes that entry without leaving
    the integers; a stored row is divided by its content to keep entries small.
    At rank d - 1 in dimension d the rows span a hyperplane whose normal is
    their d signed maximal minors (expand det(rows; vec) along vec), so vec is
    independent iff it has a nonzero dot product with it; at rank d, with
    the normal zeroed, nothing is.
    """

    def __init__(self):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.normal: Optional[list[int]] = None

    def try_add(self, vec: Sequence[int]) -> bool:
        if len(self.rows) == len(vec) - 1:
            if self.normal is None:
                self.normal = _signed_minors(self.rows)
            if not sum(map(mul, self.normal, vec)):
                return False
            self.normal = [0] * len(vec)
            return True
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


def _sign_normalize(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical representative of {v, -v}: highest-index nonzero entry positive."""
    top = next(v for v in reversed(vec) if v)  # vec is an lll_reduce basis row, never zero
    return vec if top > 0 else tuple(-a for a in vec)


@dataclass(frozen=True)
class ShortVectors:
    """n+1 independent lattice vectors of small sup-norm; c0 = max norm / Q.

    route is the _minima_search route; method is "enumeration" or "lll".
    """

    vectors: tuple[tuple[int, ...], ...]
    c0: Fraction
    route: str

    @property
    def method(self) -> str:
        return "enumeration" if self.route == "enumeration" else "lll"


def _greedy_minima(points: list[tuple[int, tuple[int, ...]]], want: int):
    tracker = _RankTracker()
    chosen = []
    for norm, vec in points:
        if tracker.try_add(vec):
            chosen.append((norm, vec))
            if len(chosen) == want:
                break
    return chosen


def _max_abs(vec: tuple[int, ...]) -> int:
    return max(map(abs, vec))


def _dual_certificate(lat: GammaLattice, basis: list[tuple[int, ...]], radius: int) -> bool:
    """True when a signed cofactor row w of basis proves lambda_(n+1) > radius.

    Rows b_j of basis span lat, D = |det|, and w_j = (-1)^j minor(i, j) is row i
    of the cofactor matrix up to one sign, so <b_j, w> = +-D delta_ij and
    <v, w> lies in D Z for every lattice vector v.  For v in the box,
    |<v, w>| <= radius ||w||_1.  Strict: D > radius ||w||_1 forces <v, w> = 0.
    Equality: D = radius ||w||_1 with every w_j != 0 allows |<v, w>| = D only
    where every |v_j| = radius with sign(v_j) = +-sign(w_j), i.e. at the corners
    +-radius sign(w); when lat does not hold them (it holds both or neither),
    <v, w> = 0 again.  Either way every box point lies in the hyperplane
    w^perp, so no n+1 of them are independent.
    """
    det, dim = abs(bareiss_det(basis)), range(len(basis))
    for i in dim:
        w = _signed_minors([r for k, r in enumerate(basis) if k != i])
        bound = radius * sum(map(abs, w))
        if det > bound or (det == bound and all(w)
                           and not lat.contains([radius if c > 0 else -radius for c in w])):
            return True
    return False


def _minima_search(lat: GammaLattice, want: int, enum_limit: int):
    """(LLL-reduced basis, the greedy's `want` vectors or None, route).

    The reduced basis has n+1 independent vectors of sup-norm <= M, so
    lambda_(n+1) <= M.  cap is the largest power of two with
    box_count_estimate(cap) <= enum_limit (0 if none): the last box that
    doubling the radius from 1 would enumerate.  One box, of radius
    R = min(M, cap), is enumerated for the (sup-norm, lexicographic) greedy.
    This equals the doubling search: the greedy's k-th pick has
    norm lambda_k, so its picks depend only on the points of norm
    <= lambda_want.  If lambda_want <= R, doubling succeeds at the first power
    of two >= lambda_want, which is <= cap, and both boxes hold all those
    points.  Otherwise R = cap < M and both fail.  The box is skipped when
    R = 0, or when R < M, want > n and _dual_certificate proves lambda_(n+1) > R.
    """
    reduced = [tuple(v) for v in lll_reduce([list(col) for col in lat.basis])]
    if not all(lat.contains(v) for v in reduced):
        raise InvariantError("reduced vector fails membership re-verification")
    big = max(_max_abs(v) for v in reduced)
    radius = 1 if lat.box_count_estimate(1) <= enum_limit else 0
    while 0 < radius < big and lat.box_count_estimate(2 * radius) <= enum_limit:
        radius *= 2
    radius = min(radius, big)
    if radius == 0 or (radius < big and want > lat.n and _dual_certificate(lat, reduced, radius)):
        return reduced, None, "lll_dual_certificate"
    chosen = _greedy_minima(sorted((_max_abs(v), v) for v in lat.half_box_points(radius)), want)
    if len(chosen) == want:
        return reduced, chosen, "enumeration"
    return reduced, None, "lll_after_box"


def short_vectors(lat: GammaLattice, enum_limit: int = DEFAULT_ENUM_LIMIT) -> ShortVectors:
    """Find n+1 independent lattice vectors of small sup-norm.

    LLL, then one box (see _minima_search): the greedy on the box gives the
    exact successive minima (ties broken by (sup-norm, lexicographic order) on
    canonical sign representatives), else it runs on the verified LLL basis.
    """
    n = lat.n
    reduced, chosen, route = _minima_search(lat, n + 1, enum_limit)
    if chosen is None:
        chosen = _greedy_minima(sorted({(_max_abs(v), _sign_normalize(v)) for v in reduced}), n + 1)
        if len(chosen) != n + 1:
            raise InvariantError("LLL basis lost independence")
    vectors = tuple(v for _, v in chosen)
    c0 = Fraction(max(norm for norm, _ in chosen), lat.box_q)
    return ShortVectors(vectors, c0, route)


def successive_minima(lat: GammaLattice, count: Optional[int] = None,
                      enum_limit: int = DEFAULT_ENUM_LIMIT) -> list[Fraction]:
    """Exact successive minima of the sup-norm box of semi-axis Q on the lattice."""
    want = _as_int(count, "count", 1) if count is not None else lat.n + 1
    chosen = _minima_search(lat, want, enum_limit)[1]
    if chosen is None:
        raise RuntimeError("successive minima enumeration exceeds limit")
    return [Fraction(norm, lat.box_q) for norm, _ in chosen]


# --- normalization bookkeeping ----------------------------------------------


@dataclass(frozen=True)
class NormalizationCertificate:
    k: int
    lhs_exponent: Fraction  # log_p of prod_(i<k) d |g_i|_p
    rhs_exponent: Fraction  # log_p of the certified lower bound
    ok: bool


@dataclass(frozen=True)
class Normalization:
    """Exact renormalization data: |g_i|_p = p^g_exponents[i], d = p^d_exponent.

    Satisfies d^(n+1) prod |g_i|_p = 1 exactly, and carries the partial-product
    lower-bound certificates used by the non-divergence argument.
    """

    mode: str
    params: XiParams
    delta_exponent: int  # delta = p^-delta_exponent
    c2_exponent: int  # C2 = p^c2_exponent (even), pinch mode only
    i_pinch: Optional[int]
    v: Fraction
    g_exponents: tuple[int, ...]
    d_exponent: int
    certificates: tuple[NormalizationCertificate, ...]

    @property
    def d(self) -> Fraction:
        p = self.params.p
        e = self.d_exponent
        return Fraction(p**e) if e >= 0 else Fraction(1, p**-e)


def normalization(params: XiParams, mode: str, delta: Fraction,
                  c2: Optional[int] = None, i_pinch: Optional[int] = None,
                  v: Optional[Fraction] = None) -> Normalization:
    """Build the exact g_i / d renormalization for either mode.

    mode "height-floor": |g_i|_p = delta/xi_i, d = 1/(delta Q).
    mode "derivative-pinch": index i_pinch gets the extra factor
    delta^(2(n+1)) C2^-(n+1); |g_i|_p = delta/(delta_i xi_i), d = delta/(C2 Q).
    Both satisfy d^(n+1) prod |g_i|_p = 1 exactly.
    """
    p, t, b, n = params.p, params.t, params.b, params.n
    if t < 1:
        raise ValueError("normalization needs Q = p^t > 1")
    if b[-1] != 0 or any(b[i] < b[i + 1] for i in range(n)):
        raise ValueError("normalization requires xi_0 <= ... <= xi_n = 1 (b non-increasing, b_n = 0)")
    delta_e = _power_exponent(_as_rational(delta, "delta"), p)
    if delta_e is None or delta_e >= 0:
        raise ValueError("delta must be a power of p strictly below 1")
    dv = -delta_e  # delta = p^-dv with dv >= 1
    if v is None:
        v = min(Fraction(1), Fraction(b[0], t) - 1)
    v = _as_rational(v, "v")
    if not 0 < v <= 1:
        raise ValueError(f"need 0 < v <= 1 (xi_0 <= Q^-(1+v)); got v = {v}")
    if Fraction(b[0], t) < 1 + v:
        raise ValueError("xi_0 > Q^-(1+v): b_0 < t(1+v)")

    if mode == "height-floor":
        g_exp = tuple(bi - dv for bi in b)
        d_exp = dv - t
        c2_exp = 0
        # certified floor: prod_(i<k) d|g_i|_p >= Q^v
        rhs_exp = Fraction(t) * v
    elif mode == "derivative-pinch":
        c2_exp = _pinch_c2_exponent(params, i_pinch, c2)
        g_exp = tuple(
            (bi - dv) if i != i_pinch
            else bi + dv * (2 * (n + 1) - 1) + c2_exp * (n + 1)
            for i, bi in enumerate(b)
        )
        # d C2 Q = R = delta, so d = delta / (C2 Q)
        d_exp = -dv - c2_exp - t
        # certified floor: prod_(i<k) d|g_i|_p >= Q^v delta^(4n+2) C2^(-2n-2)
        rhs_exp = Fraction(t) * v - dv * (4 * n + 2) - c2_exp * (2 * n + 2)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if (n + 1) * d_exp + sum(g_exp) != 0:
        raise InvariantError("normalization identity d^(n+1) prod|g_i|_p = 1 failed")

    certs = []
    lhs = Fraction(0)
    for k in range(1, n + 1):
        lhs += d_exp + g_exp[k - 1]
        certs.append(NormalizationCertificate(k, lhs, rhs_exp, lhs >= rhs_exp))
    return Normalization(mode, params, dv, c2_exp if mode == "derivative-pinch" else 0,
                         i_pinch if mode == "derivative-pinch" else None, v,
                         g_exp, d_exp, tuple(certs))


def _pinch_c2_exponent(params: XiParams, i_pinch: Optional[int], c2: Optional[int]) -> int:
    """The even exponent of C2 = p^e >= 1, once i_pinch is checked to lie in [0, n]."""
    if _as_int(i_pinch, "i_pinch", 0) > params.n:
        raise ValueError(f"pinch mode needs i_pinch in [0, {params.n}], got {i_pinch!r}")
    c2_exp = None if c2 is None else _power_exponent(_as_int(c2, "c2", 1), params.p)
    if c2_exp is None or c2_exp % 2:
        raise ValueError(f"pinch mode needs C2 a power of p^2, at least 1, got {c2!r}")
    return c2_exp


# --- the Eisenstein twist and the full pipeline ------------------------------


def admissible_primes(m: int, p) -> Iterator[int]:
    """All primes q with m < q < 4m and q != p, ascending."""
    pp = _as_p(p)
    for q in range(_as_int(m, "m", 1) + 1, 4 * m):
        if q != pp and is_prime(q):
            yield q


def choose_q(m: int, p) -> int:
    """Smallest prime q with m < q < 4m and q != p (exists by Bertrand)."""
    for q in admissible_primes(m, p):
        return q
    raise InvariantError(f"no prime in ({m}, {4*m}) differing from {p}")


@dataclass(frozen=True)
class TwistResult:
    polys_raw: tuple[IntPoly, ...]
    etas: tuple[tuple[int, ...], ...]
    t_vec: tuple[int, ...]
    q: int
    columns: tuple[tuple[int, ...], ...]  # the A columns the twist combined


def eisenstein_twist(columns: Sequence[Sequence[int]], q: int) -> TwistResult:
    """Combine lattice vectors into polynomials with Eisenstein pattern at q.

    Inverts A mod q in one elimination, takes t = A^(-1) e_n, so that
    A t = s = (0,...,0,1) mod q, and u = (A t - s)/q.  Then for each l it
    builds eta_l = t + q gamma_l with gamma_l = A^(-1) (r_l - u) mod q, so
    that A eta_l = s + q r_l mod q^2, which forces a_i = 0 mod q (i < n),
    a_n = 1 mod q and a_0 != 0 mod q^2.  Every output thus has
    a_n = s_n = 1 mod q and degree n.  solve_mod_prime raises ValueError
    when q | det A; generate never asks for that q, since there
    det A = m p^(t(n+1)) with m < q and q != p.
    """
    q = _as_p(q, "q")
    dim = len(columns)
    n = dim - 1
    rows = [[columns[c][r] for c in range(dim)] for r in range(dim)]
    s = [0] * n + [1]
    inv_cols = solve_mod_prime(rows, [[1 if i == j else 0 for i in range(dim)]
                                      for j in range(dim)], q)
    t_vec = inv_cols[n]
    inv = list(zip(*inv_cols))  # the rows of A^(-1) mod q
    u, rem = zip(*(divmod(sum(map(mul, row, t_vec)) - s_r, q) for row, s_r in zip(rows, s)))
    if any(rem):
        raise InvariantError("A t != s mod q")
    etas, polys = [], []
    for l in range(dim):
        r_l = [1] * (dim - l) + [0] * l
        rhs = [r_l[r] - u[r] for r in range(dim)]
        gamma = [sum(map(mul, row, rhs)) % q for row in inv]
        eta = tuple(t_vec[c] + q * gamma[c] for c in range(dim))
        poly = IntPoly(sum(map(mul, row, eta)) for row in rows)
        if poly.degree != n or not eisenstein_check(poly, q):
            raise InvariantError("twist output violates the Eisenstein pattern")
        etas.append(eta)
        polys.append(poly)
    return TwistResult(tuple(polys), tuple(etas), tuple(t_vec), q,
                       tuple(tuple(col) for col in columns))


@dataclass(frozen=True)
class PolyCertificate:
    """Per-polynomial verification record for one generator output."""

    coeffs: tuple[int, ...]
    content: int
    degree_ok: bool
    eisenstein_ok: bool
    membership_margins: tuple  # v_p((1/i!)P^(i)(x)) - b_i, entries int or INF
    membership_ok: bool
    height: int
    height_ok: bool

    @property
    def ok(self) -> bool:
        return self.degree_ok and self.eisenstein_ok and self.membership_ok and self.height_ok


@dataclass(frozen=True)
class GeneratorOutput:
    x: int
    params: XiParams
    q: int
    m: int
    c0: Fraction
    c2: int
    polys: tuple[IntPoly, ...]
    certificates: tuple[PolyCertificate, ...]
    route: str  # ShortVectors.route

    @property
    def method(self) -> str:
        return "enumeration" if self.route == "enumeration" else "lll"

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.certificates)

    @property
    def delta0_exponent(self):
        """Largest membership margin: empirical delta_0 = p^-margin."""
        worst = 0
        for cert in self.certificates:
            for margin in cert.membership_margins:
                if margin is INF:
                    return INF
                worst = max(worst, margin)
        return worst


def smallest_c2(p: int, lower: Fraction) -> int:
    """Smallest power of p^2 that is >= lower (and >= 1)."""
    e = _ceil_log(max(lower, 1), p)
    return p ** (e + e % 2)


GENERATE_ENUM_LIMIT = 100_000


def generate(x: int, params: XiParams) -> GeneratorOutput:
    """Full pipeline: lattice, short vectors, index m, prime q, twist, verify.

    Every claimed property of the outputs (degree, primitivity, Eisenstein
    pattern, lattice membership, height ceiling C2 Q) is re-verified by direct
    computation; degenerate samples raise DegenerateSample.
    """
    p = params.p
    lat = build_gamma(x, params)
    sv = short_vectors(lat, GENERATE_ENUM_LIMIT)
    m, rem = divmod(abs(bareiss_det(sv.vectors)), lat.covolume)
    if rem or not m:
        raise InvariantError("sublattice index det / cov(Gamma) is not a nonzero integer")
    c2 = smallest_c2(p, sv.c0 * ((4 * m) ** 2 - 1))

    last_error: Optional[DegenerateSample] = None
    for q in admissible_primes(m, p):
        try:
            twist = eisenstein_twist(sv.vectors, q)
            prim_polys, certs = _verify_twist(lat, twist, c2)
        except DegenerateSample as exc:
            last_error = exc  # p divided a content, or outputs became dependent
            continue
        return GeneratorOutput(
            x=lat.x, params=params, q=q, m=m, c0=sv.c0, c2=c2,
            polys=tuple(prim_polys), certificates=tuple(certs), route=sv.route,
        )
    # m >= 1 and (m, 4m) holds two primes (Bertrand twice; 2, 3 at m = 1): a q != p set last_error
    raise last_error


def _certify(lat: GammaLattice, prim: IntPoly, content: int, q: int, c2: int) -> PolyCertificate:
    """Certify prim against lat; build_gamma gives lat the b, n and box_q = Q of its XiParams."""
    margins = []
    for value, bi in zip(lat.hasse_values(prim.coeffs), lat.b):
        vv = valuation(value, lat.p)
        margins.append(vv if vv is INF else vv - bi)
    return PolyCertificate(
        coeffs=prim.coeffs,
        content=content,
        degree_ok=prim.degree == lat.n,
        eisenstein_ok=eisenstein_check(prim, q),
        membership_margins=tuple(margins),
        membership_ok=all(mg is INF or mg >= 0 for mg in margins),
        height=prim.height,
        height_ok=prim.height <= c2 * lat.box_q,
    )


def _verify_twist(lat: GammaLattice, twist: TwistResult,
                  c2: int) -> tuple[list[IntPoly], list[PolyCertificate]]:
    """Primitivize and certify the twist outputs, repairing degenerate ones.

    Adding q^2 times a lattice column to an output preserves both defining
    congruences (so the Eisenstein pattern survives) and lattice membership;
    it is used to steer the content away from multiples of p (which would
    break the valuation upper bounds after dividing through) and to restore
    linear independence.  A content coprime to p leaves all p-valuations
    unchanged, so membership of the primitive part is then automatic.  Each
    candidate keeps a_n = 1 mod q, so it and its primitive part have degree n
    (and q = twist.q is prime to det A, or the twist could not be solved).
    A candidate is certified once, and taken if a member that adds rank.
    """
    q = twist.q
    prim_polys: list[IntPoly] = []
    certs: list[PolyCertificate] = []
    tracker = _RankTracker()
    for poly in twist.polys_raw:
        if not lat.contains(poly.coeffs):
            raise InvariantError("raw twist output is not a lattice member")
        candidates = [poly.coeffs] + [tuple(a + sign * q * q * b for a, b in zip(poly.coeffs, col))
                                      for col in twist.columns for sign in (1, -1)]
        for cand in candidates:
            content, prim = content_primitive(IntPoly(cand))
            cert = _certify(lat, prim, content, q, c2)
            if cert.membership_ok and tracker.try_add(prim.coeffs):
                break
        else:
            raise DegenerateSample("no q^2-shift yields a primitive independent output"
                                   " with valid bounds")
        prim_polys.append(prim)
        certs.append(cert)

    if bareiss_det([prim.coeffs for prim in prim_polys]) == 0:
        raise InvariantError("rank tracker accepted a dependent set")
    return prim_polys, certs


# --- presets ------------------------------------------------------------------


def preset_theorem2(n: int, p: int, t: int, theta: Fraction) -> XiParams:
    """Separation-mode parameters: xi_0 = Q^-(n+1)+theta, xi_1 = Q^-theta, rest 1.

    b_1 is t*theta rounded to the nearest integer (ties down); b_0 absorbs the
    remainder so that sum b_i = t(n+1) holds exactly.
    """
    theta = _as_rational(theta, "theta", 0)
    _as_int(n, "n", 2)
    target = _as_int(t, "t", 0) * theta
    b1 = int(target) + (1 if target - int(target) > Fraction(1, 2) else 0)
    b0 = t * (n + 1) - b1
    if b1 < 0 or b0 < b1:
        raise ValueError(f"theta = {theta} leaves no admissible ordering for t = {t}")
    return XiParams(p, t, (b0, b1) + (0,) * (n - 1))


def preset_theorem3(n: int, p: int, t: int, nu: Fraction) -> XiParams:
    """Discriminant-mode parameters from the optimal d_1, d_2 = ... = d_n split.

    Targets b_j = t theta_j with theta_(j-1) - theta_j = d_j,
    d_1 = n+1 - (n+2) nu / n and d_j = 2 nu / (n(n-1)) for j >= 2; the integer
    b minimizes the max deviation among non-increasing vectors with b_n = 0
    and sum b = t(n+1) (ties: lexicographically smallest).  At idx = n - 1,
    monotone tries only b_(n-1) = remaining, so it reaches idx = n with nothing
    left over; it always yields b = (t(n+1), 0, ..., 0), so min has a candidate.
    """
    nu = _as_rational(nu, "nu", 0)
    if nu > _as_int(n, "n", 2) - 1:
        raise ValueError(f"nu must lie in [0, {n-1}], got {nu}")
    _as_int(t, "t", 0)
    d = [Fraction(0)] * (n + 1)
    d[1] = Fraction(n + 1) - Fraction((n + 2) * nu, n)
    for j in range(2, n + 1):
        d[j] = Fraction(2 * nu, n * (n - 1))
    thetas = [Fraction(0)] * (n + 1)
    for j in range(n - 1, -1, -1):
        thetas[j] = thetas[j + 1] + d[j + 1]
    targets = [t * th for th in thetas]
    total = t * (n + 1)

    def monotone(idx: int, remaining: int, prev: int) -> Iterator[tuple[int, ...]]:
        if idx == n:
            yield (0,)
            return
        # b[idx] ranges over [ceil(remaining/(n-idx)) ... min(prev, remaining)]
        lo = -(-remaining // (n - idx))
        for bj in range(min(prev, remaining), lo - 1, -1):
            for rest in monotone(idx + 1, remaining - bj, bj):
                yield (bj,) + rest

    def deviation(b: tuple[int, ...]) -> tuple:
        return max(abs(bj - tj) for bj, tj in zip(b, targets)), b

    return XiParams(p, t, min(monotone(0, total, total), key=deviation))


def expand_preset(descr: dict) -> XiParams:
    """Expand a JSON preset descriptor {mode, n, p, t, theta?, nu?} to XiParams.

    theta or nu is an int, a Fraction or a string Fraction parses exactly.
    """
    mode = descr.get("mode")
    field, preset = {"theorem2": ("theta", preset_theorem2),
                     "theorem3": ("nu", preset_theorem3)}.get(mode, (None, None))
    if preset is None:
        raise ValueError(f"unknown preset mode {mode!r}")
    try:
        n, p, t = _as_int(descr["n"], "n"), _as_p(descr["p"]), _as_int(descr["t"], "t")
        value = descr[field]
    except KeyError as exc:
        raise ValueError(f"{mode} preset descriptor missing field {exc}") from exc
    if type(value) is str:
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{field} must be a rational string, got {value!r}") from None
    return preset(n, p, t, _as_rational(value, field))
