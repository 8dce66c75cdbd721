import random
from fractions import Fraction

import pytest

from padicsep.intpoly import IntPoly
from padicsep.padic import (
    INF,
    PadicMag,
    Prime,
    _ceil_log,
    _power_exponent,
    is_prime,
    ultrametric_max,
    valuation,
    vp,
    vp_rat,
)
from padicsep.roots import newton_polygon, zp_roots


def test_vp_examples():
    assert vp(12, Prime(2)).val == 2
    assert vp(0, 5).is_zero
    assert vp(-9, 3).val == 2


def test_vp_rat_examples():
    assert vp_rat(1, 7, 7).val == -1
    assert vp_rat(14, 2, 7).val == 1
    assert vp_rat(0, 3, 3).is_zero
    with pytest.raises(ZeroDivisionError):
        vp_rat(1, 0, 3)


def test_ceil_log_against_fraction_loop():
    # the least e with p^e >= v, by stepping Fraction powers of p from p^0
    rng = random.Random(11)
    for _ in range(2000):
        p = rng.choice([2, 3, 5, 7])
        v = Fraction(rng.randint(1, 10**rng.randint(0, 6)), rng.randint(1, 10**rng.randint(0, 6)))
        if rng.random() < 0.3:
            v = Fraction(p) ** rng.randint(-12, 12)
        e = 0
        while Fraction(p) ** e < v:
            e += 1
        while Fraction(p) ** (e - 1) >= v:
            e -= 1
        assert _ceil_log(v, p) == e, (v, p)
        assert _power_exponent(v, p) == (e if Fraction(p) ** e == v else None), (v, p)
    assert _ceil_log(1, 2) == 0 and _ceil_log(Fraction(1, 9), 3) == -2 and _ceil_log(10, 3) == 3
    assert _power_exponent(Fraction(1, 27), Prime(3)) == -3 and _power_exponent(12, 2) is None
    for bad in (0, -4, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            _ceil_log(bad, 3)
        assert _power_exponent(bad, 3) is None


def test_ultrametric_max_examples():
    assert ultrametric_max(PadicMag(1), PadicMag(3)).val == 1
    assert ultrametric_max(PadicMag.zero(), PadicMag(2)).val == 2
    assert ultrametric_max(PadicMag(0), PadicMag(0)).val == 0


def test_prime_validation():
    with pytest.raises(ValueError):
        Prime(4)
    with pytest.raises(ValueError):
        Prime(1)
    assert Prime(2).p == 2
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_valuation_rejects_p_below_two():
    # p = 1 or p <= 0 would never terminate the division loop
    for bad in (1, 0, -1, -3):
        with pytest.raises(ValueError):
            valuation(5, bad)
        with pytest.raises(ValueError):
            vp(0, bad)
    assert valuation(5, 5) == 1


def test_composite_p_rejected():
    with pytest.raises(ValueError):
        valuation(8, 4)  # would report 1: 8 = 4 * 2
    with pytest.raises(ValueError):
        zp_roots(IntPoly([-2, 0, 1]), 6, 3)
    with pytest.raises(ValueError):
        newton_polygon(IntPoly([4, 2, 1]), 9)
    assert valuation(8, 2) == 3 and valuation(8, Prime(2)) == 3


def test_magnitude_ordering_is_by_size():
    # valuation 3 means a *smaller* magnitude than valuation 1
    assert PadicMag(3) < PadicMag(1)
    assert PadicMag.zero() < PadicMag(100)
    assert PadicMag(Fraction(1, 2)) > PadicMag(1)
    assert PadicMag(2) * PadicMag(5) == PadicMag(7)
    assert (PadicMag(2) * PadicMag.zero()).is_zero


def test_magnitude_comparisons_agree():
    # |x|_p for valuation 1 is larger than for valuation 2
    big, small, zero = PadicMag(1), PadicMag(2), PadicMag.zero()
    for a, b in ((small, big), (zero, big), (PadicMag(Fraction(5, 2)), PadicMag(Fraction(3, 2)))):
        assert a < b and a <= b and not a > b and not a >= b
        assert b > a and b >= a and not b < a and not b <= a
    for a in (big, PadicMag(Fraction(1, 3)), zero):
        same = PadicMag(a.val)
        assert a <= same and a >= same and not a < same and not a > same


def test_product_and_ultrametric_laws():
    rng = random.Random(1234)
    for _ in range(3000):
        p = rng.choice([2, 3, 5, 7, 11])
        x = rng.randint(-(2**40), 2**40) or 1
        y = rng.randint(-(2**40), 2**40) or 1
        vx, vy = valuation(x, p), valuation(y, p)
        assert valuation(x * y, p) == vx + vy
        vs = valuation(x + y, p)
        assert vs is INF or vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)


def test_valuation_bounded_by_archimedean_size():
    rng = random.Random(99)
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        x = rng.randint(1, 2**256)
        v = valuation(x, p)
        assert p**v <= x


def test_unit_round_trip():
    rng = random.Random(7)
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7])
        x = rng.randint(-(2**256), 2**256) or 1
        v = valuation(x, p)
        unit = x // p**v
        assert unit % p != 0
        assert p**v * unit == x


def test_infinity_semantics():
    assert INF + 5 == INF
    assert 5 + INF is INF
    assert INF - 3 is INF
    assert min(INF, Fraction(7, 2)) == Fraction(7, 2)
    assert max(INF, 100) is INF
    assert INF > Fraction(10**9)
    assert not INF < INF
    with pytest.raises(ArithmeticError):
        INF - INF
    with pytest.raises(ArithmeticError):
        3 - INF
