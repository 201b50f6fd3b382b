"""Reference values computed apart from pwperiod.

Nothing here calls into the package: the checks compare its outputs with
these values.  Systems are given as ``(upper, lower)`` coefficient lists,
each a list of ``Fraction`` for x^d, x^(d-1) y, ..., y^d.

* ``period_coefficient`` is the closed form of the half-period coefficients
  from the generalized binomial series B_t(z), t = (1-n)/2 (Graham, Knuth &
  Patashnik, *Concrete Mathematics*, section 5.4).
* ``moment`` integrates cos^a sin^b over a half or whole circle through the
  Beta function at half-integer arguments, not through a recurrence.
* ``combined_series`` assembles the exact period series in r0 from those two.
* ``mp_period`` and ``mp_gap`` are 20-digit mpmath evaluations of the
  level-curve time integral and of the energy-matched return radii.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath

UPPER, LOWER, FULL = "upper", "lower", "full"
MP_DPS = 20  # digits of the mpmath periods and gaps, far below the 1e-9 check


def _half_int_gamma(twice: int) -> tuple[Fraction, int]:
    """Gamma(twice/2) as (rational, power of sqrt(pi))."""
    if twice % 2 == 0:
        return Fraction(factorial(twice // 2 - 1)), 0
    k = twice // 2  # Gamma(k + 1/2) = (2k)! / (4^k k!) sqrt(pi)
    return Fraction(factorial(2 * k), 4 ** k * factorial(k)), 1


def moment(a: int, b: int, rng: str) -> tuple[Fraction, Fraction]:
    """Integral of cos^a sin^b over the range, as (rational part, pi multiple)."""
    if rng == FULL:
        up, lo = moment(a, b, UPPER), moment(a, b, LOWER)
        return up[0] + lo[0], up[1] + lo[1]
    if a % 2:
        return Fraction(0), Fraction(0)  # odd in theta -> pi - theta
    # over [0, pi]: 2 * int_0^(pi/2) = B((a+1)/2, (b+1)/2)
    ga, pa = _half_int_gamma(a + 1)
    gb, pb = _half_int_gamma(b + 1)
    gab, pab = _half_int_gamma(a + b + 2)
    value = ga * gb / gab
    sqrt_pi_power = pa + pb - pab  # 0 or 2
    if rng == LOWER and (a + b) % 2:
        value = -value  # theta -> theta + pi flips cos and sin
    if sqrt_pi_power == 2:
        return Fraction(0), value
    return value, Fraction(0)


def _convolve(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def profile_integral(coeffs: list[Fraction], j: int, rng: str) -> tuple[Fraction, Fraction]:
    """Exact integral of g(theta)^j over the range, g the circle profile."""
    d = len(coeffs) - 1
    power = [Fraction(1)]
    for _ in range(j):
        power = _convolve(power, coeffs)
    rat, pi = Fraction(0), Fraction(0)
    for i, c in enumerate(power):
        if c:
            m = moment(j * d - i, i, rng)
            rat += c * m[0]
            pi += c * m[1]
    return rat, pi


def gen_binomial(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= x - i
    return out / factorial(k)


def period_coefficient(j: int, n: int) -> Fraction:
    """((j(n-1)+2)/2) 2^j C(tj-1, j) (-1/(tj-1)), t = (1-n)/2."""
    x = Fraction(1 - n, 2) * j - 1
    return Fraction(j * (n - 1) + 2, 2) * 2 ** j * gen_binomial(x, j) * (-1 / x)


def period_from_radius_coefficients(lams: list[Fraction], n: int) -> list[Fraction]:
    """Period coefficients from the level-radius coefficients lam_j of r(h).

    period_j = ((j(n-1)+2)/2) (2 lam_j + sum_{i1+i2=j} lam_i1 lam_i2).
    """
    out = []
    for j in range(1, len(lams) + 1):
        square = sum((lams[i - 1] * lams[j - i - 1] for i in range(1, j)), Fraction(0))
        out.append(Fraction(j * (n - 1) + 2, 2) * (2 * lams[j - 1] + square))
    return out


def half_series(coeffs: list[Fraction], rng: str, order: int) -> dict[int, tuple[Fraction, Fraction]]:
    """Non-constant terms of one side's half period in r0, through r0^order.

    With h(r0)^2 = r0^2 + 2 a0 r0^(n+1) the term c_i period_i h^(i(n-1))
    contributes c_i period_i C(i(n-1)/2, m) (2 a0)^m at r0^((i+m)(n-1)).
    """
    if not any(coeffs):
        return {}
    d = len(coeffs) - 1
    n = d - 1
    step = n - 1
    a0 = coeffs[0]
    kmax = order // step
    terms: dict[int, tuple[Fraction, Fraction]] = {}
    for i in range(1, kmax + 1):
        c_rat, c_pi = profile_integral(coeffs, i, rng)
        if not (c_rat or c_pi):
            continue
        w = period_coefficient(i, n)
        for m in range(0, kmax - i + 1):
            f = w * gen_binomial(Fraction(i * step, 2), m) * (2 * a0) ** m
            if not f:
                continue
            e = (i + m) * step
            rat, pi = terms.get(e, (Fraction(0), Fraction(0)))
            terms[e] = (rat + f * c_rat, pi + f * c_pi)
    return terms


def series_order(upper: list[Fraction], lower: list[Fraction], jmax: int) -> int | None:
    """Largest exponent through which both sides' series are complete."""
    steps = [len(c) - 3 for c in (upper, lower) if any(c)]
    return jmax * min(steps) if steps else None


def combined_series(upper: list[Fraction], lower: list[Fraction],
                    order: int) -> dict[int, tuple[Fraction, Fraction]]:
    """Nonzero non-constant terms of the crossing period in r0 through r0^order.

    The constant term is 2 pi (pi per side).  Sides must have degree >= 3.
    """
    terms: dict[int, tuple[Fraction, Fraction]] = {}
    for coeffs, rng in ((upper, UPPER), (lower, LOWER)):
        for e, (rat, pi) in half_series(coeffs, rng, order).items():
            old = terms.get(e, (Fraction(0), Fraction(0)))
            terms[e] = (old[0] + rat, old[1] + pi)
    return {e: v for e, v in sorted(terms.items()) if v[0] or v[1]}


def first_term(terms: dict[int, tuple[Fraction, Fraction]]):
    """(exponent, rational part, pi multiple) of the lowest term, or None."""
    for e in sorted(terms):
        return (e, *terms[e])
    return None


def _mp_coeffs(coeffs: list[Fraction]) -> list:
    return [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]


def _side_time(coeffs: list[Fraction], r0, lo, hi):
    """Integral of dtheta / (1 + d g r^(d-2)) along the level curve through (r0, 0)."""
    d = len(coeffs) - 1
    if not any(coeffs):
        return hi - lo
    cs = _mp_coeffs(coeffs)
    h2 = r0 * r0 + 2 * cs[0] * r0 ** d
    eps = mpmath.mpf(10) ** (2 - mpmath.mp.dps)

    def integrand(theta):
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        g = mpmath.fsum(cs[i] * c ** (d - i) * s ** i for i in range(d + 1))
        r = mpmath.sqrt(h2)  # Newton on r^2 + 2 g r^d = h^2 from the circle
        for _ in range(100):
            step = (r * r + 2 * g * r ** d - h2) / (2 * r + 2 * d * g * r ** (d - 1))
            r -= step
            if abs(step) <= eps * r:
                break
        else:
            raise ArithmeticError("level-curve radius did not converge")
        return 1 / (1 + d * g * r ** (d - 2))

    return mpmath.quad(integrand, [lo, hi])


def mp_period(upper: list[Fraction], lower: list[Fraction], r0: float) -> float:
    """Period of the crossing orbit through (r0, 0), by mpmath quadrature."""
    with mpmath.workdps(MP_DPS):
        r = mpmath.mpf(r0)
        total = (_side_time(upper, r, 0, mpmath.pi)
                 + _side_time(lower, r, mpmath.pi, 2 * mpmath.pi))
        return float(total)


def _return_radius(coeffs: list[Fraction], r0):
    """rho > 0 such that (-rho, 0) has the same energy as (r0, 0).

    Bracketed from rho = 0, where the energy is below the start's, so the
    root found is the near return point and not the trivial rho = -r0.
    """
    d = len(coeffs) - 1
    a0 = _mp_coeffs(coeffs)[0]
    target = r0 * r0 + 2 * a0 * r0 ** d

    def excess(rho):
        return rho * rho + 2 * a0 * (-rho) ** d - target

    lo, hi = mpmath.mpf(0), r0
    for _ in range(8):
        if excess(hi) >= 0:
            break
        lo, hi = hi, 2 * hi
    else:
        raise ArithmeticError("the start's energy level never returns to the axis")
    for _ in range(100):  # bisection to 2^-100 of the bracket
        mid = (lo + hi) / 2
        if excess(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def mp_gap(upper: list[Fraction], lower: list[Fraction], r0: float) -> float:
    """Upper minus lower return radius for the orbit starting at (r0, 0)."""
    with mpmath.workdps(MP_DPS):
        r = mpmath.mpf(r0)
        return float(_return_radius(upper, r) - _return_radius(lower, r))
