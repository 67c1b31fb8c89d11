"""Sharpness witnesses and their limits.

The phi witness phi(z) = z - (z-1)^3/12 has the quadratic coefficient
kappa2 = -1/6 in (1-x^2) phi*lambda_D(x) = 1 + kappa2 (1-x)^2 + ..., and the
disk functional tends to 4*kappa2 = -2/3. Both limits are checked here
against a 40-digit mpmath oracle and certified by an exact series over
fractions.Fraction, built from the map's polynomial alone. The same series
gives the annulus constant -1/3 - pi^2/(6 log(1/r)^2) as kappa2 plus the
t^2 coefficient of lambda_D/lambda_A_r, so that constant holds only with
kappa2 = -1/6. The documented targets -1/12 and -1/3 are exactly half the
proven values (-1/12 = kappa2/2 is the (1-x) coefficient of the absolute
error phi*lambda_D - lambda_D); witnesses keeps them, and the `phi` suite
reports its two limit checks red against them.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from hypmetrics.maps import example1_map, phi_map
from hypmetrics.metrics import disk_metric, pullback, punctured_disk_metric
from hypmetrics.witnesses import (annulus_expected_limit, annulus_sharpness_limit,
                                  disk_sharpness_functional, example1_limit,
                                  example1_ratio, phi_expansion_check)

mp.dps = 40


def _phi_functional_oracle(x):
    """((1-x^2) phi*lambda_D(x) - 1)/(1-x)^2 in 40-digit arithmetic."""
    x = mpf(x)
    phi = x - (x - 1) ** 3 / 12
    dphi = 1 - (x - 1) ** 2 / 4
    return float(((1 - x ** 2) * dphi / (1 - phi ** 2) - 1) / (1 - x) ** 2)


def test_phi_map_values():
    phi = phi_map()
    assert complex(phi.value(1.0)) == 1.0
    assert complex(phi.value(0.0)).real == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert complex(phi.derivative(1.0)) == 1.0


def test_phi_is_self_map_of_disk():
    thetas = np.linspace(0.0, 2.0 * math.pi, 2000)
    boundary = 0.999999 * np.exp(1j * thetas)
    assert float(np.abs(phi_map().value(boundary)).max()) < 1.0


def test_phi_expansion_values_match_oracle():
    check = phi_expansion_check()
    for x, v in zip(check.sample_points, check.functional_values):
        assert v == pytest.approx(_phi_functional_oracle(x), abs=1e-7)


def test_phi_expansion_limit_is_minus_one_sixth():
    check = phi_expansion_check()
    assert check.trend_ok
    assert check.extrapolated_limit == pytest.approx(-1.0 / 6.0, abs=1e-4)
    # the documented target is -1/12 and genuinely disagrees
    assert check.expected == pytest.approx(-1.0 / 12.0, rel=1e-12)
    assert abs(check.extrapolated_limit - check.expected) > 5e-2
    assert check.note


def test_disk_functional_limit_is_minus_two_thirds():
    # oracle: (F(x) - 1) ((1+x)/(1-x))^2 -> 4 * (-1/6)
    check = disk_sharpness_functional()
    x = mpf(1) - mpf(1) / 10 ** 4
    phi = x - (x - 1) ** 3 / 12
    dphi = 1 - (x - 1) ** 2 / 4
    F = (1 - x ** 2) * dphi / (1 - phi ** 2)
    oracle = float((F - 1) * ((1 + x) / (1 - x)) ** 2)
    assert check.functional_values[-1] == pytest.approx(oracle, abs=1e-6)
    assert check.extrapolated_limit == pytest.approx(-2.0 / 3.0, abs=1e-3)
    assert abs(check.extrapolated_limit - check.expected) > 0.3


def test_example1_map_values():
    f = example1_map()
    assert abs(complex(f.value(0.5))) == pytest.approx(0.5 * math.exp(-3.0), rel=1e-14)
    # maps the punctured disk into itself
    rng = np.random.default_rng(5)
    pts = np.exp(rng.uniform(math.log(1e-4), math.log(0.999), 300)) * \
        np.exp(1j * rng.uniform(0, 2 * math.pi, 300))
    images = np.abs(np.asarray(f.value(pts)))
    assert np.all((images > 0.0) & (images < 1.0))


def test_example1_ratio_matches_pullback_route():
    # dual route: closed-form distortion vs generic pullback evaluation
    pd = punctured_disk_metric()
    pulled = pullback(pd, example1_map(), pd.domain)
    for z in (0.5 + 0j, 0.01 + 0.02j, -0.3 + 0.1j, 1e-4 + 0j):
        direct = example1_ratio(z)
        generic = float(np.real(pulled.eval(z)) / np.real(pd.eval(z)))
        assert direct == pytest.approx(generic, rel=1e-12)


def test_example1_limit_minus_one():
    wl = example1_limit()
    assert wl.trend_ok
    assert wl.extrapolated_limit == pytest.approx(-1.0, abs=2e-3)
    # raw convergence is only logarithmic: still 5e-2 away at |z| = 1e-8
    assert wl.functional_values[-1] == pytest.approx(-0.9485088, abs=1e-6)


def test_example1_limit_off_axis():
    zs = [complex(0, 10.0 ** (-k)) for k in range(2, 9)]
    wl = example1_limit(zs)
    assert wl.extrapolated_limit == pytest.approx(-1.0, abs=2e-3)


def test_witness_ratios_strictly_below_one():
    lam = disk_metric()
    pulled = pullback(lam, phi_map(), lam.domain)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.7, 0.7, 100) + 1j * rng.uniform(-0.7, 0.7, 100)
    pts = pts[np.abs(pts) < 0.95]
    ratios = np.real(pulled.eval(pts)) / np.real(lam.eval(pts))
    assert float(ratios.max()) < 1.0
    assert all(example1_ratio(z) < 1.0 for z in np.abs(pts[:40]) * 0.5 + 1e-3)


def test_annulus_expected_constant():
    # r -> 0: the pi^2 term vanishes and the constant tends to -1/3
    assert annulus_expected_limit(1e-9) == pytest.approx(-1.0 / 3.0, abs=1e-2)
    assert annulus_expected_limit(0.5) == pytest.approx(
        -1.0 / 3.0 - math.pi ** 2 / (6.0 * math.log(2.0) ** 2), rel=1e-15)


@pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
def test_annulus_sharpness_limit(r):
    wl = annulus_sharpness_limit(r)
    assert wl.trend_ok
    assert wl.extrapolated_limit == pytest.approx(annulus_expected_limit(r), abs=1e-4)


def test_annulus_functional_against_oracle_value():
    # independent evaluation at x = 1 - 1e-3 in 40-digit arithmetic
    from mpmath import sin, pi, log, tan
    r = 0.5
    s = log(2)
    x = mpf(1) - mpf(1) / 1000
    L = log(1 / x)
    phi = x - (x - 1) ** 3 / 12
    dphi = 1 - (x - 1) ** 2 / 4
    ratio = (dphi / (1 - phi ** 2)) * (2 * x * s * sin(pi * L / s)) / pi
    e4 = (1 / tan(pi * L / (2 * s))) ** 2 * (pi / (2 * s)) ** 2
    oracle = float((ratio - 1) * e4)
    wl = annulus_sharpness_limit(r)  # x = 1 - 1e-3 is its second point
    assert wl.sample_points[1] == 1.0 - 1e-3
    assert wl.functional_values[1] == pytest.approx(oracle, rel=1e-9)


# Exact certification of the phi-witness constants.  Only fractions.Fraction
# and integers are used: no floats and nothing from hypmetrics.  Everything is
# expanded in t = 1 - x, and the symbol C = pi^2/s^2 (s = log(1/r)) carries
# the annulus density's transcendental part as its own rational coefficient.

_ORDER = 8


class _Series:
    """Truncated power series in t with coefficients polynomial in C.

    terms maps (i, j) to the coefficient of t^i C^j. Every coefficient of t^i
    with i < prec is exact; nothing at or above prec is kept.
    """

    def __init__(self, terms, prec=_ORDER):
        self.prec = min(prec, _ORDER)
        self.terms = {k: Fraction(v) for k, v in terms.items()
                      if v and k[0] < self.prec}

    @staticmethod
    def lift(a):
        return a if isinstance(a, _Series) else _Series({(0, 0): a})

    @property
    def val(self):
        return min((i for i, _ in self.terms), default=self.prec)

    def coeff(self, i):
        """{j: coefficient of t^i C^j}, for an exactly known order i."""
        assert i < self.prec
        return {j: q for (k, j), q in self.terms.items() if k == i}

    def shift(self, v):
        return _Series({(i - v, j): q for (i, j), q in self.terms.items()},
                       self.prec - v)

    def dt(self):
        return _Series({(i - 1, j): i * q for (i, j), q in self.terms.items()
                        if i}, self.prec - 1)

    def __add__(self, other):
        other = _Series.lift(other)
        terms = dict(self.terms)
        for k, q in other.terms.items():
            terms[k] = terms.get(k, 0) + q
        return _Series(terms, min(self.prec, other.prec))

    __radd__ = __add__

    def __neg__(self):
        return _Series({k: -q for k, q in self.terms.items()}, self.prec)

    def __sub__(self, other):
        return self + -_Series.lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _Series.lift(other)
        terms = {}
        for (i, j), p in self.terms.items():
            for (k, l), q in other.terms.items():
                terms[i + k, j + l] = terms.get((i + k, j + l), 0) + p * q
        return _Series(terms, min(self.prec + other.val, other.prec + self.val))

    __rmul__ = __mul__

    def __pow__(self, n):
        out = _Series.lift(1)
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        # divide both sides by the lowest power t^v of the divisor, whose
        # leading coefficient must be a nonzero rational, then invert
        # lead * (1 - u) as lead^-1 * (1 + u + u^2 + ...)
        other = _Series.lift(other)
        v = other.val
        lead = other.terms.get((v, 0))
        assert lead and not any(i == v and j for i, j in other.terms)
        assert self.val >= v, "the quotient has a pole at t = 0"
        num, den = self.shift(v), other.shift(v)
        u = 1 - den * (1 / lead)
        inv, term = _Series.lift(1), _Series.lift(1)
        for _ in range(1, den.prec):
            term = term * u
            inv = inv + term
        return num * inv * (1 / lead)


_T = _Series({(1, 0): 1})
_C = _Series({(0, 1): 1})


def _exact_phi():
    """x, and (1-x^2) phi*lambda_D(x) = (1-x^2) phi'(x)/(1-phi(x)^2), in t."""
    x = 1 - _T
    phi = x - (x - 1) ** 3 / 12
    dphi = -phi.dt()  # d/dx = -d/dt
    return x, phi, (1 - x * x) * dphi / (1 - phi * phi)


def _exact_disk_over_annulus(x):
    """lambda_D/lambda_A_r at real x = 2x (s/pi) sin(pi L/s)/(1-x^2).

    lambda_A_r(x) = pi/(2 x s sin(pi L/s)) with L = log(1/x) = -log(1-t),
    and (s/pi) sin(pi L/s) = sum_k (-C)^k L^(2k+1)/(2k+1)!.
    """
    L = sum(_T ** k / k for k in range(1, _ORDER))
    S = sum((-_C) ** k * L ** (2 * k + 1) / math.factorial(2 * k + 1)
            for k in range(_ORDER // 2))
    return 2 * x * S / (1 - x * x)


_KAPPA2 = Fraction(-1, 6)


def test_exact_phi_expansion_coefficient():
    _, phi, ratio = _exact_phi()
    # the same map as test_phi_map_values: phi(x = 0), i.e. t = 1, is 1/12
    assert phi.prec == _ORDER and sum(phi.terms.values()) == Fraction(1, 12)
    # (1-x^2) phi*lambda_D(x) = 1 - t^2/6 - t^3/24 + O(t^4)
    assert [ratio.coeff(i) for i in range(4)] == \
        [{0: 1}, {}, {0: _KAPPA2}, {0: Fraction(-1, 24)}]
    # criterion 6a's functional (ratio - 1)/t^2 tends to kappa2
    assert ((ratio - 1) / _T ** 2).coeff(0) == {0: _KAPPA2}


def test_exact_disk_functional_limit():
    x, _, ratio = _exact_phi()
    # e^(4 d_D(x,0)) = ((1+x)/(1-x))^2 and 1 - x = t
    functional = (ratio - 1) / _T ** 2 * (1 + x) ** 2
    assert functional.coeff(0) == {0: 4 * _KAPPA2} == {0: Fraction(-2, 3)}


def test_exact_annulus_constant_needs_kappa2():
    x, _, ratio = _exact_phi()
    density_ratio = _exact_disk_over_annulus(x)
    # lambda_D/lambda_A_r = 1 + (-1/6 - pi^2/(6 s^2)) t^2 + O(t^3)
    coeff2 = {0: Fraction(-1, 6), 1: Fraction(-1, 6)}
    assert [density_ratio.coeff(i) for i in range(3)] == [{0: 1}, {}, coeff2]
    # criterion 6c's constant -1/3 - pi^2/(6 s^2) is kappa2 + coeff2, which
    # is also the t^2 coefficient of phi*lambda_D/lambda_A_r itself
    constant_6c = {0: Fraction(-1, 3), 1: Fraction(-1, 6)}
    assert {0: _KAPPA2 + coeff2[0], 1: coeff2[1]} == constant_6c
    assert (ratio * density_ratio).coeff(2) == constant_6c


def test_exact_documented_expansion_target_is_half_kappa2():
    # -1/12 is the (1-x) coefficient of the absolute error
    # phi*lambda_D - lambda_D = (ratio - 1)/(1 - x^2), not of the relative one
    x, _, ratio = _exact_phi()
    error = (ratio - 1) / (1 - x * x)
    assert error.coeff(0) == {}
    assert error.coeff(1) == {0: _KAPPA2 / 2} == {0: Fraction(-1, 12)}
