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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InputError,
    NonInvertibleError,
    NotCertifiedError,
    NotConvergedError,
    TailboundsError,
)
from .functions import PhiFunction, _bisect, _lockstep, conjugate_values
from .oracles import OracleDistribution, empirical_tail


def _invert_increasing(target: float, lo: float, hi_seed: float):
    """Bisection for increasing fn(x) = target as a generator: yields x, takes fn(x)."""
    lo = max(lo, 1e-12)
    f_lo = yield lo
    if f_lo > target:
        raise NonInvertibleError(
            f"target {target} below function value {f_lo} at the domain floor"
        )
    hi = max(hi_seed, 2.0 * lo)
    for _ in range(200):
        if (yield hi) >= target:
            break
        hi *= 2.0
    else:
        raise NonInvertibleError(f"no bracket for target {target}")
    a, b = yield from _bisect(lo, hi, lambda v: v < target, 200, 1e-10)
    return 0.5 * (a + b)


def _inverses(searches: list, evaluate) -> np.ndarray:
    """The searches' roots in lockstep; raises the first search's error."""
    out = _lockstep(searches, evaluate)
    first = next((res for res in out if isinstance(res, Exception)), None)
    if first is not None:
        raise first
    return np.array(out)


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
    source: OracleDistribution | tuple[Callable[[float], float], Callable[[float], float]],
    x_ladder: Optional[Sequence[float]] = None,
    monte_carlo: bool = False,
    n_samples: int = 10_000_000,
    seed: int = 42,
    check_regularity: bool = True,
) -> TauberianReport:
    """Estimate both limit constants and their product.

    ``source`` is a reference distribution or a (log_mgf, tail) callable
    pair.  The reference exponent must be regular enough for the limits to
    mean anything; by default its saddle-curvature report is required to be
    positive.  In Monte Carlo mode the tail side uses the empirical
    exceedance of ``n_samples`` seeded draws, the ladder is capped where
    counts stay positive, and no extrapolation is applied (the raw top
    value is reported, sampling noise dominating the correction).
    """
    if check_regularity:
        from .lower_bilateral import verify_regularity

        reg = verify_regularity(phi)
        if not reg.ok:
            raise NotCertifiedError(
                f"{phi.label}: saddle-curvature report negative (V = {reg.v_value})"
            )
    if isinstance(source, OracleDistribution):
        if source.mgf_exponent is None:
            raise InputError(f"{source.name} has no finite MGF to diagnose")
        log_mgf = source.mgf_exponent.values
        tail = lambda x: source.tail(x)
        mgf_dom_top = source.mgf_exponent.domain.top()
    else:
        (mgf, tail), mgf_dom_top = source, math.inf
        log_mgf = lambda ls: np.array([float(mgf(l)) for l in ls.tolist()])

    top = min(50.0, mgf_dom_top * 0.98 if math.isfinite(mgf_dom_top) else 50.0)
    lams = np.geomspace(max(phi.domain.lo, 1.0) + 1.0, top, 7)
    if x_ladder is None:
        x_ladder = 2.0 * 2.0 ** (np.arange(7) / 3.0)  # 2 .. 8 geometric
    xs = np.asarray(x_ladder, dtype=float)

    # MGF side: phi^{-1}(ln MGF(lam)) / lam, each round one values call
    def phi_values(idx, ts):
        try:
            return phi.values(ts).tolist(), {}
        except TailboundsError:
            # a point fails: each search takes its own point's value or error
            vals, errors = [math.nan] * len(ts), {}
            for k, t in enumerate(ts):
                try:
                    vals[k] = phi.value(t)
                except TailboundsError as exc:
                    errors[k] = exc
            return vals, errors

    k_mgf_vals = _inverses([_invert_increasing(t, phi.domain.lo, max(lam, 1.0))
                            for lam, t in zip(lams.tolist(), log_mgf(lams).tolist())],
                           phi_values) / lams
    k_mgf, conv_m = _extrapolate(lams, k_mgf_vals)

    mode = "analytic"
    details: dict = {}
    if monte_carlo:
        mode = "monte-carlo"
        if not isinstance(source, OracleDistribution):
            raise InputError("monte carlo mode needs a sampleable distribution")
        samples = source.sample(seed, n_samples)
        emp = empirical_tail(samples, xs)
        frac = emp["fraction"]
        keep = frac > 0
        xs = xs[keep]
        tail_vals = frac[keep]
        details["counts"] = (frac * n_samples).astype(int).tolist()
        details["n_samples"] = n_samples
        details["seed"] = seed
        if xs.size == 0:
            raise NotConvergedError("no exceedances at any ladder point")
    else:
        tail_vals = np.array([tail(float(x)) for x in xs])
        if np.any(tail_vals <= 0):
            raise InputError("tail must be positive along the ladder")

    # tail side: (phi*)^{-1}(|ln T(x)|) / x, each round one conjugate_values call
    def phi_stars(idx, ts):
        vals, _, errors = conjugate_values(phi, ts)
        return vals.tolist(), errors

    k_tail_vals = _inverses([_invert_increasing(abs(math.log(t)), 1e-9, max(x, 1.0))
                             for x, t in zip(xs.tolist(), tail_vals.tolist())],
                            phi_stars) / xs

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
