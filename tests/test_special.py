"""Cross-validation of the in-package special functions against scipy,
which serves as the independent oracle and is used nowhere in the package
itself for these quantities."""

import math

import numpy as np
import pytest
from scipy import special as sp

import hlbounds.special as special
from hlbounds.errors import InvalidArgumentError, ResourceLimitError
from hlbounds.special import (
    MAX_ARGUMENT,
    MAX_ORDER,
    airy_ai_prime_first_zero,
    airy_ai_with_prime,
    bessel_j,
    bessel_j_first_zero,
)
from hlbounds.variational import ball_upper_bound


@pytest.mark.parametrize(
    "x",
    list(np.linspace(-6.0, 4.4, 27)) + list(np.linspace(4.6, 15.9, 23)) + [16.0, 20.0, 30.0],
)
def test_airy_matches_scipy(x):
    if x > 4.5:
        # the evaluator's domain ends at 4.5: above it, it refuses rather
        # than return a value that upward marching would have spoiled
        with pytest.raises(InvalidArgumentError):
            airy_ai_with_prime(float(x))
        return
    ai, aip = airy_ai_with_prime(float(x))
    ref_ai, ref_aip, _, _ = sp.airy(x)
    assert ai == pytest.approx(ref_ai, abs=5e-15)
    assert aip == pytest.approx(ref_aip, abs=5e-15)


def test_airy_domain_limit():
    with pytest.raises(InvalidArgumentError):
        airy_ai_with_prime(-7.0)
    with pytest.raises(InvalidArgumentError):
        airy_ai_with_prime(4.6)
    assert airy_ai_with_prime(4.5)[0] == pytest.approx(sp.airy(4.5)[0], abs=5e-15)


def test_airy_prime_first_zero():
    zero = airy_ai_prime_first_zero()
    assert zero == pytest.approx(sp.ai_zeros(1)[1][0], abs=1e-13)
    assert zero == pytest.approx(-1.019, abs=1e-3)


def test_airy_prime_first_zero_is_correctly_rounded():
    # a'_1 = -1.0187929716474710890... rounds to this double (mpmath, 40 digits)
    assert airy_ai_prime_first_zero() == -1.018792971647471


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 2.5, 7.0, 19.0])
def test_bessel_series_matches_scipy(nu):
    hi = max(nu, 0) + 3 + 2 * max(nu, 0) ** (1 / 3)
    for x in np.linspace(max(nu, 1e-3) + 0.05, hi, 9):
        assert bessel_j(nu, float(x)) == pytest.approx(sp.jv(nu, x), abs=1e-12)


@pytest.mark.parametrize("nu", [-0.5, -0.25, 0.0, 0.5, 2.0])
def test_bessel_at_zero_matches_scipy(nu):
    # J_nu(0) diverges for -1/2 <= nu < 0, is 1 at nu = 0 and 0 above
    assert bessel_j(nu, 0.0) == sp.jv(nu, 0.0)


def test_bessel_first_zeros():
    assert bessel_j_first_zero(-0.5) == pytest.approx(math.pi / 2, abs=1e-10)
    assert bessel_j_first_zero(0.0) == pytest.approx(2.404825557695773, abs=1e-10)
    assert bessel_j_first_zero(0.5) == pytest.approx(math.pi, abs=1e-10)
    assert bessel_j_first_zero(1.0) == pytest.approx(3.8317059702075125, abs=1e-9)


def test_bessel_rejects_unsupported_order():
    with pytest.raises(InvalidArgumentError):
        bessel_j(-1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        bessel_j(0.0, -1.0)


@pytest.mark.parametrize("nu", [40.0, 74.0, 129.5, 199.0, float(MAX_ORDER)])
def test_bessel_large_order_matches_scipy(nu):
    for x in (nu / 2, nu, nu + 5.0, MAX_ARGUMENT):
        assert bessel_j(nu, x) == pytest.approx(sp.jv(nu, x), rel=1e-12, abs=0)


@pytest.mark.parametrize("nu", list(range(0, 41)) + [74, 100, 199, 300, 400, MAX_ORDER])
def test_bessel_first_zero_matches_scipy(nu):
    assert bessel_j_first_zero(float(nu)) == pytest.approx(sp.jn_zeros(nu, 1)[0], rel=1e-13, abs=0)


def test_bessel_first_zero_of_order_one_half_is_pi():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x; the ball bound at p=3 is then 12 pi^2
    assert bessel_j_first_zero(0.5) == math.pi
    assert ball_upper_bound(3) == 12.0 * math.pi ** 2


def test_ball_bound_scan_starts_at_the_proven_lower_bound(monkeypatch):
    # the unit-step scan for j_{499,1} = 513.85 starts at 513, below the
    # bound 513.72, so one scan step brackets the zero; a scan from the
    # grid's first point, 499, would take 14 more evaluations
    calls = []

    def counted(nu, x):
        calls.append(x)
        return bessel_j(nu, x)

    monkeypatch.setattr(special, "bessel_j", counted)
    ball_upper_bound(1000)
    assert len(calls) <= 8


def test_bessel_resource_ceiling():
    with pytest.raises(ResourceLimitError):
        bessel_j_first_zero(MAX_ORDER + 0.5)
    with pytest.raises(ResourceLimitError):
        bessel_j(MAX_ORDER + 0.5, 1.0)
    with pytest.raises(ResourceLimitError):
        bessel_j(0.0, MAX_ARGUMENT * 1.001)
