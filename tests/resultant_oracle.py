"""The resultant route to root differences, kept as an independent test oracle.

Res_x(P(x), P(x+y)) has degree n^2 in y, so it is interpolated from the
integer resultants (Bareiss determinants of Sylvester matrices) at n^2 + 1
integer nodes.  The package computes the same polynomial from power sums.
"""

from padicsep.intpoly import IntPoly, interpolate, resultant
from padicsep.roots import newton_polygon


def difference_poly_by_resultants(poly: IntPoly) -> IntPoly:
    """Res_x(P(x), P(x+y)) interpolated over the nodes 0, 1, -1, 2, -2, ..."""
    n = poly.degree
    ys = [0]
    step = 1
    while len(ys) < n * n + 1:
        ys.extend((step, -step))
        step += 1
    delta = interpolate(ys[:n * n + 1], [resultant(poly, poly.shift(y)) for y in ys[:n * n + 1]])
    assert delta is not None, "the resultant interpolated to non-integer coefficients"
    return delta


def separation_by_resultants(poly: IntPoly, p: int):
    """max v_p(alpha_i - alpha_j): minus the first slope of Delta(y) / y^n; None if D = 0."""
    n = poly.degree
    delta = difference_poly_by_resultants(poly)
    assert not any(delta.coeffs[:n]), "the difference polynomial lacks the factor y^n"
    if delta.coeffs[n] == 0:
        return None
    best = -newton_polygon(IntPoly(delta.coeffs[n:]), p).segments[0][0]
    return int(best) if best.denominator == 1 else best
