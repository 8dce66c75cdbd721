"""The argument gate: every library entry point takes its primes, integers and
rationals through padic._as_p, _as_int and _as_rational.

Floats, bools, strings and non-primes are refused with a ValueError that names
the argument, before any arithmetic runs; ints, Fractions and Prime pass as before.
"""

from fractions import Fraction

import pytest

from padicsep import (IntPoly, Prime, XiParams, build_gamma, disc_census, disc_threshold,
                      eisenstein_check, eisenstein_twist, generate, hadamard_bound, hensel_lift,
                      measure_estimate, min_conjugate_separation, normalization,
                      preset_theorem2, preset_theorem3, round_params, sep_census,
                      successive_minima, valuation, zp_roots)
from padicsep.intpoly import poly_irreducible_mod
from padicsep.lattice import admissible_primes, congruence_lattice, expand_preset
from padicsep.linalg import lll_reduce, solve_mod_prime
from padicsep.padic import _as_int, _as_p, _as_rational, is_prime

HALF = Fraction(1, 2)
SQRT2 = IntPoly([-2, 0, 1])
PINCH = XiParams(3, 2, (4, 2, 0))
TH2 = {"mode": "theorem2", "n": 2, "p": 3, "t": 2, "theta": "1"}
TH3 = {"mode": "theorem3", "n": 2, "p": 3, "t": 2, "nu": "1/2"}


@pytest.mark.parametrize("call, name", [
    (lambda: _as_p(3.9), "p"),
    (lambda: _as_p(2.5), "p"),
    (lambda: _as_p(Fraction(7, 2)), "p"),
    (lambda: _as_p("3"), "p"),
    (lambda: _as_p(3.0), "p"),
    (lambda: Prime(3.0), "p"),
    (lambda: disc_census(2, 3.9, [4], [HALF]), "p"),
    (lambda: valuation(0.5, 2), "x"),
    (lambda: valuation(HALF, 2), "x"),
    (lambda: IntPoly([0.5, 1.9]), "every coefficient"),
    (lambda: IntPoly([1, 2, 3]).shift(0.5), "every coefficient"),
    (lambda: IntPoly([1, 2, 3]).hasse_derivative(0.5), "i"),
    (lambda: congruence_lattice(3, 2, (1.7, 0)), "every b entry"),
    (lambda: XiParams(2, 1.5, (3, 0)), "t"),
    (lambda: XiParams(2.0, 1, (2, 0)), "p"),
    (lambda: XiParams(2, 1, (1.5, 0.5)), "every b entry"),
    (lambda: preset_theorem2(2, 3, 1.5, 1), "t"),
    (lambda: preset_theorem2(2, 3, 2, 0.5), "theta"),
    (lambda: preset_theorem3(2, 3, 2, 0.5), "nu"),
    (lambda: sep_census(2, 2, [5], [0.2]), "every nu or theta"),
    (lambda: disc_census(2, 3, [4], [0.1]), "every nu or theta"),
    (lambda: disc_census(True, 3, [4], [HALF]), "n"),
    (lambda: disc_census(2, 3, [4], [HALF], workers=True), "workers"),
    (lambda: disc_threshold(3, 10, HALF, 0.5), "c_exp"),
    (lambda: disc_threshold(3, 10.5, HALF, 0), "height_bound"),
    (lambda: eisenstein_check(IntPoly([4, 4, 1]), 4), "q"),
    (lambda: poly_irreducible_mod(IntPoly([1, 0, 1]), 4), "l"),
    (lambda: solve_mod_prime([[1]], [[1]], 4), "q"),
    (lambda: eisenstein_twist([(1, 0), (0, 1)], 4), "q"),
    (lambda: zp_roots(SQRT2, 7, 2.5), "precision"),
    (lambda: hensel_lift(SQRT2, 3, 7, 2.5), "precision"),
    (lambda: measure_estimate(PINCH, 1, "pinch", samples=8, i_pinch=True, c2=9), "i_pinch"),
    (lambda: measure_estimate(PINCH, 1, "pinch", samples=8, i_pinch=1, c2=9.0), "c2"),
    (lambda: round_params([HALF, 0.5, 1], 2), "every xi"),
    (lambda: round_params([HALF, HALF, 1], 2, Q=2.0), "Q"),
    (lambda: normalization(XiParams(2, 2, (5, 1, 0)), "height-floor", 0.5), "delta"),
    (lambda: normalization(XiParams(2, 2, (5, 1, 0)), "height-floor", HALF, v=0.5), "v"),
    (lambda: lll_reduce([[1, 0], [0, 1]], 0.75), "delta"),
    (lambda: successive_minima(build_gamma(5, PINCH), 1.5), "count"),
    (lambda: admissible_primes(2.5, 3).__next__(), "m"),
    (lambda: hadamard_bound(2.5, 3), "n"),
    (lambda: hadamard_bound(2, 1.5), "height"),
])
def test_library_rejects_inexact_arguments(call, name):
    with pytest.raises(ValueError, match=rf"^{name} (must be|= )"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: is_prime(3.0), "n"),
    (lambda: is_prime(True), "n"),
    (lambda: is_prime(2.5), "n"),
    (lambda: expand_preset({**TH2, "n": 2.7, "p": 3.9}), "n"),
    (lambda: expand_preset({**TH2, "p": 3.9}), "p"),
    (lambda: expand_preset({**TH2, "t": 2.0}), "t"),
    (lambda: expand_preset({**TH2, "theta": 1.0}), "theta"),
    (lambda: expand_preset({**TH2, "theta": True}), "theta"),
    (lambda: expand_preset({**TH2, "theta": "1/0"}), "theta"),
    (lambda: expand_preset({**TH3, "nu": 0.5}), "nu"),
    (lambda: expand_preset({**TH3, "nu": "half"}), "nu"),
])
def test_is_prime_and_presets_reject_inexact_arguments(call, name):
    with pytest.raises(ValueError, match=rf"^{name} (must be|= )"):
        call()


def test_gate_accepts_exactly_int_fraction_and_prime():
    assert _as_p(3) == _as_p(Prime(3)) == 3 and type(_as_p(Prime(3))) is int
    assert _as_int(0, "k", 0) == 0 and _as_rational(2, "r") == Fraction(2)
    assert _as_rational(HALF, "r", 0) == HALF
    for bad, gate in ((True, _as_int), (False, _as_rational), (1.0, _as_int), ("1", _as_rational)):
        with pytest.raises(ValueError, match="^k must be"):
            gate(bad, "k")
    with pytest.raises(ValueError, match="^k must be an integer >= 1, got 0$"):
        _as_int(0, "k", 1)
    with pytest.raises(ValueError, match="^p = 4 is not a prime$"):
        Prime(4)
    with pytest.raises(ValueError, match="^p = 4 is not a prime$"):
        XiParams(4, 1, (1, 1))


def test_ints_fractions_and_primes_still_accepted():
    assert valuation(-12, Prime(2)) == valuation(-12, 2) == 2
    assert XiParams(Prime(3), 2, (4, 2, 0)) == PINCH
    assert preset_theorem2(2, 3, 2, 1) == preset_theorem2(2, Prime(3), 2, Fraction(1))
    assert preset_theorem3(2, 3, 2, 1) == preset_theorem3(2, 3, 2, Fraction(1))
    assert disc_threshold(3, 10, 1, 0) == disc_threshold(Prime(3), 10, Fraction(1), 0)
    assert disc_census(2, Prime(3), [4], [1], c_exps=(0,)).rows == \
        disc_census(2, 3, [4], [Fraction(1)], c_exps=(0,)).rows
    assert round_params([HALF, 1, 1], 2) == round_params([Fraction(1, 2), Fraction(1), 1], Prime(2))
    assert eisenstein_check(IntPoly([2, 0, 1]), Prime(2))
    assert [r.residue for r in zp_roots(SQRT2, Prime(7), 2)] == [10, 39]
    assert lll_reduce([[1, 0], [0, 1]], Fraction(3, 4)) == lll_reduce([[1, 0], [0, 1]])
    assert expand_preset(TH2) == expand_preset({**TH2, "theta": 1}) == preset_theorem2(2, 3, 2, 1)
    assert expand_preset(TH3) == expand_preset({**TH3, "nu": "0.5"}) == \
        expand_preset({**TH3, "nu": HALF}) == preset_theorem3(2, 3, 2, HALF)
    assert [q for q in range(-3, 12) if is_prime(q)] == [2, 3, 5, 7, 11]


def test_readme_five_line_example_runs():
    assert [r.residue for r in zp_roots(IntPoly([-2, 0, 1]), 7, 3)] == [108, 235]
    assert min_conjugate_separation(IntPoly([-2, 0, 0, 1]), 3).val == Fraction(1, 2)
    out = generate(x=14, params=preset_theorem3(2, 3, 2, 1))
    assert len(out.polys) == 3 and out.all_ok
