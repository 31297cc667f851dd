#!/usr/bin/env python3
"""Fit the rational approximations of the normal quantile used by ``oracles.ndtri``.

    python scripts/fit_ndtri.py

Prints the three coefficient tables, as ``oracles.py`` holds them, and the
maximum relative error of each fit (coefficients rounded to doubles,
evaluated in exact arithmetic) on a check grid three times as dense.  The
regions follow the layout of Wichura's AS 241 (Appl. Statist. 37, 1988);
the coefficients are this script's own fits, not a copy of its table:

* centre, |q| <= 0.425 with q = u - 1/2: x = q * P(t) / Q(t), t = 0.180625 - q^2;
* near tail, r = sqrt(-ln min(u, 1 - u)) <= 5: |x| = P(r - 1.6) / Q(r - 1.6);
* far tail, 5 < r <= 27.3 (u down to the smallest subnormal): |x| = P(r - 5) / Q(r - 5).

Each fit is a linearized least-squares rational fit at ``DIGITS`` decimal
digits, in relative error, with the Sanathanan-Koerner reweighting by the
previous denominator and Lawson's reweighting toward the minimax fit; the
iterate with the smallest maximum error on the check grid is kept.  The
reference quantile is computed with mpmath: erfinv in the centre, and
Newton's method on ln Q(x) + r^2 = 0 in the tails, so that no precision is
lost to 1 - u.
"""

from __future__ import annotations

import textwrap

import mpmath as mp

DIGITS = 50  # working precision of the fits, in decimal digits
POINTS = 240  # Chebyshev fit nodes per region
ITERATIONS = 40  # reweighting passes per fit

CENTRE_Q = mp.mpf("0.425")
CENTRE_T = mp.mpf("0.180625")  # CENTRE_Q ** 2
# (name, variable lo, variable hi, shift, numerator degree, denominator degree)
REGIONS = (
    ("_NDTRI_CENTRE", 0.0, 0.180625, 0.0, 7, 7),
    ("_NDTRI_NEAR", None, 5.0, 1.6, 7, 7),
    ("_NDTRI_FAR", 5.0, 27.3, 5.0, 7, 7),
)


def upper_quantile(r):
    """x > 0 with Q(x) = exp(-r^2), Q the upper normal tail (Newton on ln Q)."""
    target = -r * r
    x = mp.sqrt(2) * r
    for _ in range(200):
        log_q = mp.log(mp.erfc(x / mp.sqrt(2)) / 2)
        # d/dx ln Q(x) = -phi(x) / Q(x)
        slope = -mp.exp(-x * x / 2 - log_q) / mp.sqrt(2 * mp.pi)
        step = (log_q - target) / slope
        x -= step
        if abs(step) < mp.mpf(10) ** (-mp.mp.dps + 5) * x:
            return x
    raise RuntimeError(f"Newton did not converge at r={r}")


def target(name: str, v):
    """The function each region's rational approximates, at variable v."""
    if name == "_NDTRI_CENTRE":
        q = mp.sqrt(CENTRE_T - v)
        if q == 0:
            return mp.sqrt(2 * mp.pi)  # x / q as q -> 0
        return mp.sqrt(2) * mp.erfinv(2 * q) / q
    return upper_quantile(v)


def chebyshev_points(lo, hi, n: int) -> list:
    """Chebyshev points of the first kind on [lo, hi]."""
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return [mid - half * mp.cos(mp.pi * (2 * k + 1) / (2 * n)) for k in range(n)]


def horner(coeffs, t):
    """Evaluate a polynomial given highest degree first."""
    acc = mp.mpf(0)
    for c in coeffs:
        acc = acc * t + c
    return acc


def fit(ts, fs, n: int, m: int, iterations: int):
    """Yield rational fits (p, q), highest degree first, with q's constant 1.

    ``ts`` are the fit's variable values and ``fs`` the target there.
    """
    scale = max(abs(t) for t in ts)
    ss = [t / scale for t in ts]
    weights = [mp.mpf(1)] * len(ts)
    q_prev = [mp.mpf(1)] * len(ts)
    for _ in range(iterations):
        rows, rhs = [], []
        for s, f, w, d in zip(ss, fs, weights, q_prev):
            g = mp.sqrt(w) / (abs(f) * d)
            rows.append([g * s ** j for j in range(n + 1)]
                        + [-g * f * s ** k for k in range(1, m + 1)])
            rhs.append(g * f)
        sol, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        # back to the unscaled variable t = s * scale
        p = [sol[j] / scale ** j for j in range(n + 1)][::-1]
        q = ([mp.mpf(1)] + [sol[n + k] / scale ** k for k in range(1, m + 1)])[::-1]
        yield p, q
        errs = [abs(horner(p, t) / horner(q, t) / f - 1) for t, f in zip(ts, fs)]
        total = sum(w * e for w, e in zip(weights, errs))
        weights = [w * e / total for w, e in zip(weights, errs)]
        q_prev = [abs(horner(q, t)) for t in ts]


def main() -> int:
    mp.mp.dps = DIGITS

    for name, lo, hi, shift, n, m in REGIONS:
        if lo is None:
            lo = mp.sqrt(-mp.log(mp.mpf("0.5") - CENTRE_Q))
        lo, hi, shift = mp.mpf(lo), mp.mpf(hi), mp.mpf(shift)
        nodes = chebyshev_points(lo, hi, POINTS)
        checks = chebyshev_points(lo, hi, 3 * POINTS) + [lo, hi]
        ts = [v - shift for v in nodes]
        fs = [target(name, v) for v in nodes]
        check_ts = [v - shift for v in checks]
        check_fs = [target(name, v) for v in checks]
        best = None
        for p, q in fit(ts, fs, n, m, ITERATIONS):
            # round to doubles, then measure in exact arithmetic
            p, q = [float(c) for c in p], [float(c) for c in q]
            err = max(abs(horner(p, t) / horner(q, t) / f - 1)
                      for t, f in zip(check_ts, check_fs))
            if best is None or err < best[0]:
                best = (err, p, q)
        err, p, q = best
        print(f"# max relative error {mp.nstr(err, 3)} on [{mp.nstr(lo, 8)}, {mp.nstr(hi, 8)}]")
        print(f"{name} = (")
        for coeffs in (p, q):
            print(textwrap.fill(", ".join(map(repr, coeffs)), 88, initial_indent="    (",
                                subsequent_indent="     ") + "),")
        print(")")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
