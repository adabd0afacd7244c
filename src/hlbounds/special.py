"""Airy and Bessel evaluation without external special-function dependencies.

Ai and Ai' are summed from the Maclaurin series of Ai (DLMF 9.4.1), whose
coefficients follow from Ai(0), Ai'(0) and the ODE y'' = x y, by one Horner
pass that carries the derivative along.  The domain is |x| <= 3.5, where
the sum keeps about 3e-15 absolute accuracy; further out the terms grow
and cancel, and the library evaluates Ai only in [-2, -0.5], near the
first zero of Ai'.  J_nu sums the ascending series with iterated
terms in decimal arithmetic.  The terms grow to about e^x times the scale
of J_nu before they cancel (in double precision about 0.23 nu digits are
lost near x ~ nu, and (x/2)^nu overflows from nu ~ 163 on), so the working
precision is x log10(e) + 25 digits and the prefactor (x/2)^nu /
Gamma(nu + 1) is formed in the same arithmetic (see ``bessel_j``); J_nu
keeps double precision at every supported order.  The first zero of J_nu
is bracketed by a unit-step scan and refined by Illinois regula falsi;
the first zero of Ai' by bisection.
"""

from __future__ import annotations

import decimal
import math

from .errors import InvalidArgumentError, NumericalError, ResourceLimitError

AIRY_LIMIT = 3.5
"""Largest |x| at which Ai and Ai' are evaluated."""

_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)


def _maclaurin_coefficients(terms: int) -> tuple[float, ...]:
    """c_n of Ai(x) = sum c_n x^n: c_2 = 0 and c_{n+3} = c_n / ((n+2)(n+3))."""
    c = [_AI0, _AIP0, 0.0]
    for n in range(terms - 3):
        c.append(c[n] / ((n + 2) * (n + 3)))
    return tuple(c)


# At |x| = 3.5 the terms past the 60th sum to below 1e-21 in Ai and Ai'.
_AI_SERIES = _maclaurin_coefficients(60)

MAX_ORDER = 499
"""Largest Bessel order supported; the ball bound's order p/2 - 1 at p = 1000."""
MAX_ARGUMENT = 1000.0
"""Largest Bessel argument supported; the series then needs ~460 digits."""
_LOG10_E = math.log10(math.e)


def airy_ai_with_prime(x: float) -> tuple[float, float]:
    """(Ai(x), Ai'(x)) for |x| <= AIRY_LIMIT, to about 3e-15 absolute, by Horner."""
    if not abs(x) <= AIRY_LIMIT:  # also refuses NaN
        raise InvalidArgumentError(f"Ai evaluation supported for finite |x| <= {AIRY_LIMIT}")
    ai = aip = 0.0
    for c in reversed(_AI_SERIES):
        aip = aip * x + ai
        ai = ai * x + c
    return ai, aip


def airy_ai_prime_first_zero() -> float:
    """First (largest) zero of Ai', near -1.019, by bracketing bisection.

    Bisects until the midpoint of the bracket rounds to one of its ends,
    then returns the end with the smaller |Ai'|.
    """
    lo, hi = -2.0, -0.5
    flo = airy_ai_with_prime(lo)[1]
    fhi = airy_ai_with_prime(hi)[1]
    if flo * fhi >= 0:
        raise NumericalError("failed to bracket the first zero of Ai'")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(flo) <= abs(fhi) else hi
        fmid = airy_ai_with_prime(mid)[1]
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid


def bessel_j(nu: float, x: float) -> float:
    """J_nu(x) by the ascending series, summed in decimal arithmetic.

    Supported for -1/2 <= nu <= MAX_ORDER and 0 <= x <= MAX_ARGUMENT.  The
    prefactor's (x/2)^nu is a decimal power, except at half-integer nu =
    k + 1/2, where it is (x/2)^k sqrt(x/2): a non-integral decimal power
    runs through exp and ln and costs 4-6 times as much.  Both forms give
    the same doubles at every order and argument the ball bound visits.
    """
    if not nu >= -0.5:  # also refuses NaN
        raise InvalidArgumentError("the order must be a number >= -1/2")
    if not x >= 0:
        raise InvalidArgumentError("x must be a nonnegative number")
    if nu > MAX_ORDER or x > MAX_ARGUMENT:
        raise ResourceLimitError(
            f"J_nu(x) is supported up to order {MAX_ORDER} and argument {MAX_ARGUMENT}"
        )
    if x == 0.0:
        # J_nu(x) ~ (x/2)^nu / Gamma(nu + 1): 1 at nu = 0, 0 above, +inf below
        if nu == 0:
            return 1.0
        return math.inf if nu < 0 else 0.0
    # The terms' magnitudes sum to I_nu(x) <= e^x times J_nu's scale, so
    # x log10(e) digits can cancel; 25 more keep J_nu to double precision.
    s = nu + 1.0
    m = math.ceil(s) - 1
    with decimal.localcontext() as ctx:
        ctx.prec = int(x * _LOG10_E) + 25
        half = decimal.Decimal(0.5 * x)
        q = half * half
        order = decimal.Decimal(nu)
        term = decimal.Decimal(1)
        total = term
        k = 0
        while term.adjusted() >= total.adjusted() - 17:
            k += 1
            term = -term * q / (k * (order + k))
            total += term
        # Gamma(s) = (s-1)(s-2)...(s-m) Gamma(s-m), with s - m in (0, 1].
        gamma = decimal.Decimal(math.gamma(s - m))
        for i in range(1, m + 1):
            gamma *= order + 1 - i
        power = half ** (m - 1) * half.sqrt() if s - m == 0.5 else half ** order
        return float(total * power / gamma)


def bessel_j_first_zero(nu: float) -> float:
    """First positive zero of J_nu, -1/2 <= nu <= MAX_ORDER.

    J_nu > 0 on (0, j_{nu,1}) and j_{nu,2} - j_{nu,1} > pi, so a scan with
    unit steps on the grid max(nu, 10^-3) + k finds the first sign change;
    it ends by nu_eff + 3 + 2 nu_eff^(1/3) (nu_eff = max(nu, 0)), which lies
    beyond j_{nu,1} ~ nu + 1.8558 nu^(1/3).  The scan starts at the last
    grid point at or below nu_eff + |a_1| (nu_eff/2)^(1/3), with a_1 =
    -2.338107410459767 the first zero of Ai.  These are the leading terms of
    the uniform expansion, and a proven lower bound on j_{nu,1} for nu > 0
    (Qu and Wong, Trans. Amer. Math. Soc. 351 (1999) 2833; DLMF 10.21), so
    the skipped steps all have J_nu > 0 and the bracket and the zero are
    those of a scan from the grid's first point.  Illinois regula falsi then
    refines the bracket to 1e-14 relative.  J_{1/2}(x) = sqrt(2/(pi x)) sin x,
    so j_{1/2,1} is pi, returned exactly.
    """
    if not nu >= -0.5:  # also refuses NaN
        raise InvalidArgumentError("the order must be a number >= -1/2")
    if nu > MAX_ORDER:
        raise ResourceLimitError(f"Bessel orders above {MAX_ORDER} are not supported")
    nu_eff = max(nu, 0.0)
    hi = nu_eff + 3.0 + 2.0 * nu_eff ** (1.0 / 3.0)
    a = max(nu, 1e-3)
    start = nu_eff + 2.338107410459767 * (nu_eff / 2.0) ** (1.0 / 3.0)
    a += max(0, math.floor(start - a))
    fa = bessel_j(nu, a)
    if a >= hi or fa <= 0.0:
        raise NumericalError(f"the scan start {a} is not below the first zero of J_{nu}")
    if nu == 0.5:
        return math.pi
    while True:
        b = min(a + 1.0, hi)
        fb = bessel_j(nu, b)
        if fb <= 0.0:
            break
        if b == hi:
            raise NumericalError(f"no sign change of J_{nu} found below {hi}")
        a, fa = b, fb
    if fb == 0.0:
        return b
    side = 0
    for _ in range(100):
        c = (a * fb - b * fa) / (fb - fa)
        fc = bessel_j(nu, c)
        if fc == 0.0:
            return c
        if fc > 0.0:
            a, fa = c, fc
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side > 0:
                fa *= 0.5
            side = 1
        if b - a <= 1e-14 * b:
            return c
    raise NumericalError(f"regula falsi did not converge for the first zero of J_{nu}")
