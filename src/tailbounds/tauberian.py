"""Two-sided limit diagnostic linking MGF growth and tail decay.

For a reference exponent phi, the two ratios

    K_mgf(lam)  = phi^{-1}(ln MGF(lam)) / lam
    K_tail(x)   = (phi*)^{-1}(|ln T(x)|) / x

converge to reciprocal constants.  Both are estimated on geometric ladders
with an extrapolation step, since at desk-scale caps the tail side still
carries a ln(x)/x^2-sized correction; a Monte Carlo mode replaces the exact
tail with a seeded empirical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InputError,
    NonInvertibleError,
    NotCertifiedError,
    NotConvergedError,
)
from .functions import (PhiFunction, _bisect_rows, _checked_grid, _grow_rows,
                        _raise_first, _values_or_errors, conjugate_values)
from .lower_bilateral import verify_regularity
from .oracles import OracleDistribution, empirical_tail


def _invert_increasing(evaluate, targets: np.ndarray, lo: float, seeds: np.ndarray) -> np.ndarray:
    """The root of fn(x) = target on [lo, inf) for each target, fn increasing.

    ``evaluate(xs)`` returns fn at each x and, by position, the package
    error of each x that has one.  Each row checks fn(lo) <= target, lo at
    least 1e-12, grows its bracket top from max(seed, 2 lo) by at most 199
    doublings, then bisects to a relative width of 1e-10 and returns the
    midpoint; every step makes one ``evaluate`` call for all rows.  A row
    stops at its first error, and the error of the lowest failing row is
    raised.
    """
    lo = max(lo, 1e-12)
    errors: dict = {}

    def fn(idx, xs):
        # fn at xs[k] for row idx[k]; NaN, and no evaluation, for a failed row
        out = np.full(idx.size, math.nan)
        keep = np.array([i not in errors for i in idx.tolist()], dtype=bool)
        out[keep], errs = evaluate(xs[keep])
        for k, exc in errs.items():
            errors[int(idx[keep][k])] = exc
        return out

    rows = np.arange(targets.size)
    floor = fn(rows, np.full(rows.size, lo)).tolist()
    for i, (t, f_lo) in enumerate(zip(targets.tolist(), floor)):
        if f_lo > t:
            errors[i] = NonInvertibleError(
                f"target {t} below function value {f_lo} at the domain floor")
    rows = np.array([i for i in rows.tolist() if i not in errors], dtype=int)
    goal = targets[rows]
    hi, open_top = _grow_rows(np.maximum(seeds[rows], 2.0 * lo),
                              lambda live, b: ~(fn(rows[live], b) >= goal[live]), 199)
    for i in rows[open_top].tolist():
        errors.setdefault(i, NonInvertibleError(f"no bracket for target {float(targets[i])}"))
    rows, goal, hi = rows[~open_top], goal[~open_top], hi[~open_top]
    a, b = _bisect_rows(np.full(rows.size, lo), hi,
                        lambda live, m: (fn(rows[live], m) < goal[live], np.nan), 200, 1e-10)
    _raise_first(errors)
    return 0.5 * (a + b)


def _extrapolate(xs: np.ndarray, ks: np.ndarray) -> tuple[float, bool]:
    """Limit estimate from the last three ladder points.

    Solves K(x) = K_inf + A ln(x)/x^2 + B/x^2 exactly on the last three
    points; the affine-in-ln(x) correction matches the structure of the
    tail-side error.  Falls back to the last raw value when the solve is
    singular or wildly inconsistent with it.
    """
    if xs.size < 3:
        return float(ks[-1]), False
    x3, k3 = xs[-3:], ks[-3:]
    mat = np.vstack([np.ones(3), np.log(x3) / x3 ** 2, 1.0 / x3 ** 2]).T
    try:
        sol = np.linalg.solve(mat, k3)
    except np.linalg.LinAlgError:
        return float(ks[-1]), False
    k_inf = float(sol[0])
    if not math.isfinite(k_inf) or abs(k_inf - ks[-1]) > 0.5 * max(abs(ks[-1]), 1e-12):
        return float(ks[-1]), False
    return k_inf, True


@dataclass(frozen=True)
class TauberianReport:
    k_mgf: float
    k_tail: float
    k_mgf_ladder: tuple
    k_tail_ladder: tuple
    lam_ladder: tuple
    x_ladder: tuple
    converged: bool
    consistency: float          # |k_mgf * k_tail - 1|
    mode: str = "analytic"
    details: dict = field(default_factory=dict)


def tauberian_check(
    phi: PhiFunction,
    source: OracleDistribution,
    x_ladder: Optional[Sequence[float]] = None,
    monte_carlo: bool = False,
    n_samples: int = 10_000_000,
    seed: int = 42,
) -> TauberianReport:
    """Estimate both limit constants and their product.

    ``source`` is a reference distribution with a finite MGF: its log-MGF
    gives the MGF targets and its log tail the tail targets.  The reference
    exponent must be regular enough for the limits to mean anything: its
    saddle-curvature report (:func:`verify_regularity`) must be positive.
    In Monte Carlo mode the tail side uses the empirical exceedance of
    ``n_samples`` seeded draws, the ladder is capped where counts stay
    positive, and no extrapolation is applied (the raw top value is
    reported, sampling noise dominating the correction).
    """
    if not isinstance(source, OracleDistribution):
        raise InputError(f"source must be an OracleDistribution, got {type(source).__name__}")
    reg = verify_regularity(phi)
    if not reg.ok:
        raise NotCertifiedError(
            f"{phi.label}: saddle-curvature report negative (V = {reg.v_value})"
        )
    mgf = source.mgf_exponent
    if mgf is None:
        raise InputError(f"{source.name} has no finite MGF to diagnose")

    start, top = max(phi.domain.lo, 1.0) + 1.0, min(50.0, float(mgf.domain.top()) * 0.98)
    if not top > start:
        raise InputError(f"{source.name}: the MGF ladder's first lambda {start!r} is not below "
                         f"its top {top!r} = min(50, 0.98 x its MGF domain top {mgf.domain.hi!r})")
    lams = np.geomspace(start, top, 7)
    if x_ladder is None:
        x_ladder = 2.0 * 2.0 ** (np.arange(7) / 3.0)  # 2 .. 8 geometric
    xs = _checked_grid(x_ladder, "x_ladder")

    # MGF side: phi^{-1}(ln MGF(lam)) / lam, each step one values call,
    # where each row takes its own point's value or error
    k_mgf_vals = _invert_increasing(lambda ts: _values_or_errors(phi, ts), mgf.values(lams),
                                    phi.domain.lo, np.maximum(lams, 1.0)) / lams
    k_mgf, conv_m = _extrapolate(lams, k_mgf_vals)

    mode = "analytic"
    details: dict = {}
    if monte_carlo:
        mode = "monte-carlo"
        frac = empirical_tail(source, seed, n_samples, xs)["fraction"]
        keep = frac > 0
        xs = xs[keep]
        neg_log_tail = np.array([abs(math.log(t)) for t in frac[keep].tolist()])
        # the fractions are count/n: rounding gives the count back, truncating may not
        details["counts"] = np.rint(frac * n_samples).astype(int).tolist()
        details["n_samples"] = n_samples
        details["seed"] = seed
        if xs.size == 0:
            raise NotConvergedError("no exceedances at any ladder point")
    else:
        neg_log_tail = -source.log_tail(xs)  # finite where the tail underflows

    # tail side: (phi*)^{-1}(|ln T(x)|) / x, each step one conjugate_values call
    def phi_stars(ts):
        vals, _, errors = conjugate_values(phi, ts)
        return vals, errors

    k_tail_vals = _invert_increasing(phi_stars, neg_log_tail, 1e-9, np.maximum(xs, 1.0)) / xs

    if monte_carlo:
        k_tail, conv_t = float(k_tail_vals[-1]), bool(xs.size >= 3)
    else:
        k_tail, conv_t = _extrapolate(xs, k_tail_vals)

    if k_mgf <= 0 or k_tail <= 0:
        raise NotConvergedError("nonpositive limit estimate",
                                diagnostic={"k_mgf": k_mgf, "k_tail": k_tail})
    consistency = abs(k_mgf * k_tail - 1.0)
    return TauberianReport(
        k_mgf=k_mgf, k_tail=k_tail,
        k_mgf_ladder=tuple(k_mgf_vals.tolist()),
        k_tail_ladder=tuple(k_tail_vals.tolist()),
        lam_ladder=tuple(lams.tolist()), x_ladder=tuple(xs.tolist()),
        converged=bool(conv_m and conv_t),
        consistency=consistency, mode=mode, details=details,
    )
