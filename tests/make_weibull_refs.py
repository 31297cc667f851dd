"""The mpmath references of the Weibull log-MGF rows that test_oracles.py
checks, and the script that stores them as float literals in weibull_refs.py.

Run it from the repository root after a change to the rows or to
``_mp_weibull`` (a few seconds at 50 digits):

    PYTHONPATH=src python tests/make_weibull_refs.py

test_oracles.py reads the stored table, and computes one row of each
evaluation path live against it, so the table cannot drift from the
reference.
"""

import functools
import math
import os

import mpmath as mp
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre

from tailbounds import oracles

SHAPES = (1.5, 2.0, 3.0, 4.0, 6.0)
MP_LAMS = (1e-12, 1e-9, 1e-6, 1e-3, 0.5, 3.0, 20.0)
# shapes near the least one taken, where the peak sits fewer than
# _GH_CLEAR widths above 0 at the series switch
NEAR_ONE = (1.05, 1.1, 1.2)


def _switch(m, terms=None):
    """(last lam whose moment series fits in ``terms`` terms, by default
    _SERIES_TERMS, next double above it), by bisection of the term count."""
    terms = oracles._SERIES_TERMS if terms is None else terms
    lo, hi = 1.0, 1e4
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if oracles._series_terms(m, np.array([mid]))[0] <= terms:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _rule_from(m):
    """The least lam whose row takes the Gauss-Hermite rule: just above the
    switch, or, where the peak lies fewer than _GH_CLEAR widths above 0
    there (m = 1.5), just above that clearance."""
    above = _switch(m)[1]
    x = (above / m) ** (1.0 / (m - 1.0))
    return _clear(m)[1] if (m - 1.0) * (1.0 + m * x ** m) < oracles._GH_CLEAR ** 2 else above


def _above_switch(m):
    """Three lams from just above the first rule row to 1e6."""
    return tuple(np.geomspace(_rule_from(m), 1e6, 4)[1:].tolist())


def _clear(m):
    """(last lam whose peak estimate lies fewer than _GH_CLEAR widths above 0,
    next double above it), by bisection."""
    def near(lam):
        x = (lam / m) ** (1.0 / (m - 1.0))
        return (m - 1.0) * (1.0 + m * x ** m) < oracles._GH_CLEAR ** 2

    lo, hi = 1.0, 10.0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if near(mid) else (lo, mid)
    return lo, hi


with mp.workdps(50):
    _MP_GAUSS_LEGENDRE_12 = GaussLegendre(mp.mp).get_nodes(-1, 1, 3, mp.mp.prec)


# ln(Gamma(1 + k/m) / k!) by (shape, working precision), k = 0, 1, ...: the
# moment-series coefficients, shared by every lam of a shape
_MP_SERIES: dict = {}


def _mp_series_coefficient(m, k):
    cs = _MP_SERIES.setdefault((m, mp.mp.dps), [])
    while len(cs) <= k:
        j = len(cs)
        cs.append(mp.loggamma(1 + j / m) - mp.loggamma(j + 1))
    return cs[k]


@functools.lru_cache(maxsize=None)
def _mp_weibull(m, lam):
    """ln E e^{lam X}, its slope and its second derivative for the tail
    exp(-x^m), at 50 digits, or 30 past the magnitude of lam times the
    tilted peak.

    Where the tilted peak lies fewer than ten standard deviations s above 0,
    the moment series, summed until its terms fall below 1e-55 of the sum.
    Elsewhere the density integrated over 120 panels s wide, from the peak
    -60 s (or 0) to +60 s, by 12-node Gauss-Legendre on each; the mass
    outside is below e^-1700 of the total.  The density's x^(m-1) is not
    smooth at 0, hence the ten widths.  The second derivative is the tilted
    variance: (E k(k-1) - (E k)^2)/lam^2 over the series' normalized terms,
    whose k = 1 term drops out for small lam, or the variance of x under
    the integral.  Cached: the three share one sum.
    """
    peak = (lam / m) ** (1 / (m - 1))
    with mp.workdps(max(50, 30 + int(math.log10(max(peak * lam, 1.0))))):
        power = int(m) if m == int(m) else mp.mpf(m)
        m, lam = mp.mpf(m), mp.mpf(lam)
        x = mp.mpf(peak)
        for _ in range(200):
            slope = (m - 1) / x + lam - m * x ** (power - 1)
            curv = (m - 1) / x ** 2 + m * (m - 1) * x ** (power - 2)
            x += slope / curv
            if abs(slope / curv) < x * mp.mpf(10) ** -45:
                break
        s = 1 / mp.sqrt(curv)
        if x < 10 * s:
            total = first = second = mp.mpf(0)
            log_lam = mp.log(lam)
            k = 0
            while True:
                t = mp.exp(_mp_series_coefficient(m, k) + k * log_lam)
                total += t
                first += k * t
                second += k * (k - 1) * t
                if k > 10 and t < total * mp.mpf(10) ** -55:
                    mean = first / total
                    return (float(mp.log(total)), float(mean / lam),
                            float((second / total - mean * mean) / (lam * lam)))
                k += 1

        def expo(t):
            return (m - 1) * mp.log(t) + lam * t - t ** power

        shift = expo(x)
        den = num = num2 = mp.mpf(0)
        for j in range(-60, 60):
            a, b = max(x + j * s, 0), x + (j + 1) * s
            if b <= 0:
                continue
            c, h = (a + b) / 2, (b - a) / 2
            for t, w in _MP_GAUSS_LEGENDRE_12:
                y = c + h * t
                e = w * h * mp.exp(expo(y) - shift)
                den += e
                num += e * y
                num2 += e * y * y
        mean = num / den
        return (float(mp.log(m) + shift + mp.log(den)), float(mean),
                float(num2 / den - mean * mean))


# the (shape, lam) rows that TestWeibullMomentSeries and TestWeibullNearZeroPeak
# of test_oracles.py check against mpmath
MOMENT_SERIES_ROWS = ([(m, lam) for m in SHAPES for lam in MP_LAMS]
                      + [(m, lam) for m in SHAPES for lam in _switch(m)]
                      # the first rule rows, where the switch row is still
                      # a series row near 0 (m = 1.5)
                      + [(m, lam) for m in SHAPES for lam in _clear(m)
                         if _rule_from(m) != _switch(m)[1]]
                      # rows of 512 and 1,024 terms, once series rows, now
                      # rule rows
                      + [(m, lam) for m in SHAPES for lam in _switch(m, 1024)]
                      + [(m, lam) for m in SHAPES for lam in _above_switch(m)])
NEAR_ZERO_PEAK_ROWS = ([(m, lam) for m in NEAR_ONE for lam in (_switch(m)[1], *_clear(m), 1e6)]
                       # xh's rounding spans 14 widths: the rule's node
                       # terms once overflowed
                       + [(1.2, 732710.5861386189)]
                       # xh passes 1e154: squaring it once overflowed
                       # Newton's step
                       + [(1.05, 86958713.17136206)]
                       # the 32-term series has not ended
                       + [(1.5, lam) for lam in (1.0, 2.0, 3.5)])


def main():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "weibull_refs.py")
    lines = ['"""Written by make_weibull_refs.py; do not edit."""', "",
             "# (shape, lam): (ln E e^{lam X}, its slope, its second derivative) for the",
             "# tail exp(-x^m), by make_weibull_refs._mp_weibull",
             "WEIBULL_REFS = {"]
    for m, lam in MOMENT_SERIES_ROWS + NEAR_ZERO_PEAK_ROWS:
        lines.append(f"    ({m!r}, {lam!r}):")
        lines.append(f"        ({', '.join(map(repr, _mp_weibull(m, lam)))}),")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
