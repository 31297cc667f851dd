"""Lower tail envelopes from two-sided MGF-exponent envelopes.

Given exp(phi1) <= E exp(lam*X) <= exp(phi2), the tangent-line construction
bounds the tail from below at the left saddle abscissa:

    S(lam, x) = lam*x - phi2*(x),       x0(lam) = argmax_x S(lam, x)
    x_minus = x0(lam(1-d1)) < x0 < x_plus = x0(lam(1+d2))

    T(x_minus) >= e^{-lam x_plus} [ e^{phi1(lam)}
                   - lam e^{S(lam,x_minus)} / S'_x(lam,x_minus)
                   - lam e^{S(lam,x_plus)} / |S'_x(lam,x_plus)| ]

clamped at zero when the bracket is nonpositive.  The closure optimizes the
geometry per evaluation point.  On top of it sit the regularity report
(curvature of S along the saddle path), the refined envelope under a
(1-delta^2) pinch of the exponent pair, and the two-sided sandwich for an
exactly known MGF.

All exponential arithmetic is in log space; a naive evaluation overflows
already at lam around 40.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .envelope import LOWER, UPPER, TailEnvelope
from .errors import (
    GeometryInvalidError,
    InputError,
    NonUniqueArgmaxError,
    NotCertifiedError,
    OutOfDomainError,
)
from .functions import (
    PhiFunction,
    _saddle_points,
    _stars,
    conjugate_value,
    conjugate_values,
)

_LOG_EPS = math.log(2.0) * -1074  # smallest log float


# --------------------------------------------------------------------------
# S and the saddle geometry
# --------------------------------------------------------------------------


def s_value(phi2: PhiFunction, lam: float, x: float) -> tuple[float, float]:
    """S(lam, x) = lam*x - phi2*(x) and its x-derivative lam - (phi2*)'(x).

    The derivative uses the conjugate's maximizer (exact for convex phi2).
    """
    star, arg = conjugate_value(phi2, float(x))
    return float(lam) * float(x) - star, float(lam) - arg


def _raise_unrefused(errors: dict, refusals=(OutOfDomainError, InputError)) -> None:
    """Raise the error of the smallest index in ``errors`` that is not one
    of ``refusals``; ``refusals=()`` raises the first error."""
    for i in sorted(errors):
        if not isinstance(errors[i], refusals):
            raise errors[i]


def _x0_inverse(phi2: PhiFunction, zs) -> tuple[np.ndarray, dict]:
    """The t with x0(t) = z for each z; equals the conjugate maximizer at z.

    Returns the t's and, by index, the error of each z without a saddle
    (its t is NaN): an OutOfDomainError when z is below phi2'(lo) or beyond
    every phi2' value of the 200 doublings, or the error of the conjugate.
    With an analytic derivative all z bisect together, each with its own
    halvings.
    """
    zs = np.asarray(zs, dtype=float)
    mus = np.full(zs.size, math.nan)
    errors: dict = {}
    if not (phi2.convex and phi2.deriv is not None):
        _, mus, errors = conjugate_values(phi2, zs)
        _raise_unrefused(errors)
        return mus, errors
    lo = max(phi2.domain.lo, 1e-12)
    hi = phi2.domain.top()
    dlo = float(phi2.deriv(lo))
    for i in np.flatnonzero(dlo > zs):
        errors[int(i)] = OutOfDomainError(float(zs[i]), dlo, math.inf)
    live = ~(dlo > zs)
    b = np.full(zs.size, hi if math.isfinite(hi) else max(2.0 * lo, 1.0))
    if not math.isfinite(hi):
        grow = live.copy()
        for k in range(201):
            grow[grow] = ~(phi2.derivatives(b[grow]) > zs[grow])
            if k == 200 or not grow.any():
                break
            b[grow] *= 2.0
        for i in np.flatnonzero(grow):
            errors[int(i)] = OutOfDomainError(float(zs[i]), dlo, float(phi2.deriv(b[i])))
        live &= ~grow
    idx = np.flatnonzero(live)
    a, b, z = np.full(idx.size, lo), b[idx], zs[idx]
    active = np.ones(idx.size, dtype=bool)
    for _ in range(100):
        if not active.any():
            break
        m = 0.5 * (a[active] + b[active])
        below = phi2.derivatives(m) <= z[active]
        a[active] = np.where(below, m, a[active])
        b[active] = np.where(below, b[active], m)
        active[active] = ~((b[active] - a[active]) <= 1e-13 * np.maximum(1.0, b[active]))
    mus[idx] = 0.5 * (a + b)
    return mus, errors


def _x0s(phi2: PhiFunction, ts: np.ndarray) -> tuple[np.ndarray, dict]:
    """Saddle abscissa x0(t) at each t, and by index the package error of
    each t without one (its x0 is NaN).  phi2' for a convex phi2 with a
    derivative (which raises the error of the first failing t), the
    lockstep saddle searches of :func:`_saddle_points` otherwise."""
    if phi2.convex and phi2.deriv is not None:
        return phi2.derivatives(ts), {}
    out, errors = np.full(ts.size, math.nan), {}
    for i, x0 in enumerate(_saddle_points(phi2, ts.tolist())):
        if isinstance(x0, Exception):
            errors[i] = x0
        else:
            out[i] = x0
    return out, errors


def _stars_at_saddle(phi2: PhiFunction, ts: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, dict]:
    """phi2*(x) at each saddle x = x0(t), and by index the error of each x
    whose conjugate has one; NaN there and where x is NaN.  For a convex
    phi2 with a derivative, the touching identity t*x - phi2(t)."""
    if phi2.convex and phi2.deriv is not None:
        return ts * xs - phi2.values(ts), {}
    out = np.full(ts.size, math.nan)
    at = np.flatnonzero(~np.isnan(xs))
    out[at], _, errors = conjugate_values(phi2, xs[at])
    return out, {int(at[k]): e for k, e in errors.items()}


@dataclass(frozen=True)
class SaddleGeometry:
    """One (lam, x_minus, x0, x_plus) configuration with S data attached."""

    lam: float
    x0: float
    x_minus: float
    x_plus: float
    rule: str                  # "symmetric" | "asymmetric" | "explicit"
    delta1: float
    delta2: float
    s_minus: float
    s_plus: float
    s_x0: float
    ds_minus: float            # > 0 required
    ds_plus: float             # < 0 required

    def validate(self) -> None:
        if not (self.x_minus < self.x0 < self.x_plus):
            raise GeometryInvalidError(
                f"need x_minus < x0 < x_plus, got {self.x_minus}, {self.x0}, {self.x_plus}"
            )
        if not (self.ds_minus > 0.0 and self.ds_plus < 0.0):
            raise GeometryInvalidError(
                f"tangent slopes must straddle zero: {self.ds_minus}, {self.ds_plus}"
            )
        tol = 1e-9 * max(1.0, abs(self.s_x0))
        if self.s_x0 < max(self.s_minus, self.s_plus) - tol:
            raise GeometryInvalidError("S at the saddle below S at the side points")


def make_geometry(phi2: PhiFunction, lam: float, delta1: float,
                  delta2: Optional[float] = None,
                  x_pair: Optional[tuple[float, float]] = None) -> SaddleGeometry:
    """Build the saddle geometry at lam from dilation offsets or explicit x's."""
    lam = float(lam)
    if x_pair is not None:
        xm, xp = map(float, x_pair)
        x0s, errors = _x0s(phi2, np.array([lam]))
        _raise_unrefused(errors, ())
        x0v = float(x0s[0])
        xs = np.array([xm, xp, x0v])
        stars, args, errors = conjugate_values(phi2, xs)
        _raise_unrefused(errors, ())
        sm, sp, s0 = (lam * xs - stars).tolist()
        dsm, dsp, _ = (lam - args).tolist()
        geo = SaddleGeometry(lam=lam, x0=x0v, x_minus=xm, x_plus=xp, rule="explicit",
                             delta1=math.nan, delta2=math.nan,
                             s_minus=sm, s_plus=sp, s_x0=s0,
                             ds_minus=dsm, ds_plus=dsp)
        geo.validate()
        return geo

    d1 = float(delta1)
    d2 = d1 if delta2 is None else float(delta2)
    rule = "symmetric" if d2 == d1 else "asymmetric"
    if not (0.0 < d1 < 1.0 and 0.0 < d2):
        raise InputError("dilation offsets must be positive, delta1 < 1")
    mu = lam * (1.0 - d1)
    nu = lam * (1.0 + d2)
    for t in (mu, lam, nu):
        if not phi2.domain.contains(t):
            raise OutOfDomainError(t, phi2.domain.lo, phi2.domain.hi)
    ts = np.array([mu, nu, lam])
    x0s, errors = _x0s(phi2, ts)
    _raise_unrefused(errors, ())
    stars, errors = _stars_at_saddle(phi2, ts, x0s)
    _raise_unrefused(errors, ())
    xm, xp, x0v = x0s.tolist()
    sm, sp, s0 = (lam * x0s - stars).tolist()
    geo = SaddleGeometry(lam=lam, x0=x0v, x_minus=xm, x_plus=xp, rule=rule,
                         delta1=d1, delta2=d2,
                         s_minus=sm, s_plus=sp, s_x0=s0,
                         ds_minus=lam - mu, ds_plus=lam - nu)
    geo.validate()
    return geo


# --------------------------------------------------------------------------
# The tangent-line lower bound and its closure
# --------------------------------------------------------------------------


def tangent_bracket_log(phi1: PhiFunction, geometry: SaddleGeometry) -> float:
    """ln of the tangent-line lower bound on T(x_minus); -inf when clamped.

    Log-sum-exp arithmetic keeps exponents in the thousands exact.
    """
    geometry.validate()
    g = geometry
    return _bracket_log(g.lam, phi1.value(g.lam), g.s_minus, g.ds_minus,
                        g.s_plus, g.ds_plus, g.x_plus)


def _bracket_log(lam: float, t0: float, s_minus: float, ds_minus: float,
                 s_plus: float, ds_plus: float, x_plus: float) -> float:
    tm = math.log(lam) + s_minus - math.log(ds_minus)
    tp = math.log(lam) + s_plus - math.log(-ds_plus)
    m = max(t0, tm, tp)
    bracket = math.exp(t0 - m) - math.exp(tm - m) - math.exp(tp - m)
    if bracket <= 0.0:
        return -math.inf
    return -lam * x_plus + m + math.log(bracket)


def _bracket_logs(phi1: PhiFunction, phi2: PhiFunction, lams: np.ndarray,
                  d1s: np.ndarray, d2s: np.ndarray) -> np.ndarray:
    """tangent_bracket_log(phi1, make_geometry(phi2, lam, d1, d2)) per row.

    -inf where make_geometry refuses the row or the bracket clamps (or is
    NaN, which no maximum picks).  phi2 and x0 are evaluated once per
    distinct mu, lam and nu of the batch, phi1 once per valid lam.
    """
    out = np.full(lams.size, -math.inf)
    mus, nus = lams * (1.0 - d1s), lams * (1.0 + d2s)
    dom = phi2.domain
    rows = np.flatnonzero((0.0 < d1s) & (d1s < 1.0) & (0.0 < d2s) & dom.contains(mus)
                          & dom.contains(lams) & dom.contains(nus))
    if rows.size == 0:
        return out
    lam, k = lams[rows], rows.size
    ts, inv = np.unique(np.concatenate([mus[rows], lam, nus[rows]]), return_inverse=True)
    x0s, errors = _x0s(phi2, ts)
    _raise_unrefused(errors)
    stars, errors = _stars_at_saddle(phi2, ts, x0s)
    _raise_unrefused(errors)
    xm, x0, xp = (x0s[inv[j * k:(j + 1) * k]] for j in range(3))
    sm, s0, sp = (lam * x0s[inv[j * k:(j + 1) * k]] - stars[inv[j * k:(j + 1) * k]]
                  for j in range(3))
    dsm, dsp = lam - mus[rows], lam - nus[rows]
    # SaddleGeometry.validate, with Python's max(a, b) == (b if b > a else a)
    tol = 1e-9 * np.where(np.abs(s0) > 1.0, np.abs(s0), 1.0)
    valid = ((xm < x0) & (x0 < xp) & (dsm > 0.0) & (dsp < 0.0)
             & ~(s0 < np.where(sp > sm, sp, sm) - tol))
    if not valid.any():
        return out
    t0 = phi1.values(lam[valid])
    cols = [v[valid].tolist() for v in (lam, sm, dsm, sp, dsp, xp)]
    lv = np.array([_bracket_log(l, t, a, b, c, d, e)
                   for l, t, a, b, c, d, e in zip(cols[0], t0.tolist(), *cols[1:])])
    out[rows[valid]] = np.where(np.isnan(lv), -math.inf, lv)
    return out


def tangent_bracket_lower(phi1: PhiFunction, geometry: SaddleGeometry) -> float:
    """Linear-scale tangent-line lower bound at x_minus, clamped at 0."""
    lv = tangent_bracket_log(phi1, geometry)
    if lv == -math.inf:
        return 0.0
    return math.exp(lv) if lv > _LOG_EPS else 0.0


@dataclass(frozen=True)
class ClosureDiagnostics:
    all_clamped: bool
    per_z: dict = field(default_factory=dict)


def closure_lower_envelope(
    phi1: PhiFunction,
    phi2: PhiFunction,
    z_grid: Sequence[float],
) -> tuple[TailEnvelope, ClosureDiagnostics]:
    """Optimize the tangent-line bound over geometries, per evaluation point.

    For each z the driving parameter is recovered by inverting
    z = x0(lam(1-d1)), then (d1, d2) sweeps a 16 x 16 log-spaced grid on
    [1e-3, 0.5]; the envelope records the best bound.
    Points where every geometry clamps carry value 0 and are flagged.
    """
    if phi2.convex is not True:
        raise NotCertifiedError("closure needs a convexity-certified phi2")
    zs = np.asarray(z_grid, dtype=float)
    if zs.ndim != 1 or zs.size == 0 or (zs.size > 1 and not np.all(np.diff(zs) > 0)):
        raise InputError("z_grid must be nonempty strictly increasing")
    dg = np.geomspace(1e-3, 0.5, 16)
    d1 = np.repeat(dg, dg.size)
    d2 = np.tile(dg, dg.size)

    mus, no_saddle = _x0_inverse(phi2, zs)
    log_vals = np.full(zs.size, -math.inf)
    per_z = {}
    for i, (z, mu) in enumerate(zip(zs.tolist(), mus.tolist())):
        if i in no_saddle:
            per_z[z] = {"status": "no-saddle"}
            continue
        # every (d1, d2) geometry of this z in one batch
        lam = mu / (1.0 - d1)
        inside = (phi2.domain.contains(lam) & phi2.domain.contains(lam * (1.0 + d2))
                  & phi1.domain.contains(lam))
        rows, lam = np.flatnonzero(inside), lam[inside]
        lv = np.full(d1.size, -math.inf)
        lv[rows] = _bracket_logs(phi1, phi2, lam, d1[rows], d2[rows])
        j = int(np.argmax(lv))  # the first strict maximum in pair order
        best = float(lv[j])
        log_vals[i] = min(best, 0.0)
        per_z[z] = {
            "status": "ok" if best > -math.inf else "clamped",
            "best_offsets": (float(d1[j]), float(d2[j]), mu / (1.0 - float(d1[j])))
            if best > -math.inf else None,
            "log_value": best,
        }

    diag = ClosureDiagnostics(all_clamped=bool(np.all(np.isneginf(log_vals))), per_z=per_z)
    env = TailEnvelope(
        x=zs, log_values=log_vals, side=LOWER,
        provenance="tangent-closure",
        valid_from=max(1.0, float(zs[0])),
        meta={"all_clamped": diag.all_clamped},
    )
    return env, diag


# --------------------------------------------------------------------------
# Regularity of the saddle path
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """Curvature and absorption diagnostics for the saddle path of phi."""

    v_value: float
    v_argmin: tuple[float, float]     # (lam, delta) attaining the infimum
    c0: float
    c0_argmax: tuple[float, float]
    ok: bool
    grid: dict = field(default_factory=dict)


def verify_regularity(phi: PhiFunction) -> RegularityReport:
    """Estimate the normalized saddle-curvature infimum V and a feasible c0.

    V = inf over offsets d != 0 and lam >= e of
        [S(lam, x0(lam)) - S(lam, x0(lam(1+d)))] / [S(lam, x0(lam)) d^2],
    with S(lam, x0(lam)) = phi(lam) for convex phi.  c0 is the smallest
    constant making the saddle-shift absorption inequality hold on the
    (lam, d) grid; both are reports, not hard gates.
    """
    if phi.convex is not True:
        raise NotCertifiedError("regularity check needs convexity-certified phi")
    hi = phi.domain.top()
    top = min(100.0, hi * 0.999) if math.isfinite(hi) else 100.0
    lam_grid = np.geomspace(math.e, top, 24)
    base = np.array([0.05, 0.1, 0.15, 0.25, 0.35, 0.5])
    delta_grid = np.concatenate([-base[::-1], base])

    # x0 and phi*(x0) at every shifted lam of the grid in one batch; the
    # walk below meets each error where a cell asks for that point
    ts = lam_grid[:, None] * (1.0 + delta_grid)
    ts = np.unique(ts[phi.domain.contains(lam_grid)[:, None] & phi.domain.contains(ts)])
    x0s, x0_errors = _x0s(phi, ts)
    stars, star_errors = _stars_at_saddle(phi, ts, x0s)
    star_errors.update(x0_errors)  # no phi* where x0 has no value
    at = {t: k for k, t in enumerate(ts.tolist())}
    x0s, stars = x0s.tolist(), stars.tolist()

    def pick(vals: list, errors: dict, t: float) -> float:
        k = at[t]
        if k in errors:
            raise errors[k]
        return vals[k]

    v_best, v_arg = math.inf, (math.nan, math.nan)
    c0_best, c0_arg = -math.inf, (math.nan, math.nan)
    evaluated = 0
    for lam in lam_grid:
        lam = float(lam)
        if not phi.domain.contains(lam):
            continue
        s_peak = phi.value(lam)  # S(lam, x0(lam)) by the touching identity
        if s_peak <= 0:
            continue
        for d in delta_grid:
            d = float(d)
            t = lam * (1.0 + d)
            if d == 0.0 or not phi.domain.contains(t):
                continue
            try:
                x_shift = pick(x0s, x0_errors, t)
            except (NonUniqueArgmaxError, OutOfDomainError, InputError):
                continue  # degenerate saddle at this cell; the report decides
            s_shift = lam * x_shift - pick(stars, star_errors, t)
            ratio = (s_peak - s_shift) / (s_peak * d * d)
            evaluated += 1
            if ratio < v_best:
                v_best, v_arg = ratio, (lam, d)
            # absorption: lam*x0(lam(1+|d|)) - (1-d^2) phi(lam)
            #             <= (1 + c0*|d|) * phi*(x0(lam(1-|d|)))
            ad = abs(d)
            t_up, t_dn = lam * (1.0 + ad), lam * (1.0 - ad)
            if not (phi.domain.contains(t_up) and phi.domain.contains(t_dn)):
                continue
            x_up = pick(x0s, x0_errors, t_up)
            star_dn = pick(stars, star_errors, t_dn)
            if star_dn <= 0:
                continue
            c0_here = (lam * x_up - (1.0 - d * d) * phi.value(lam) - star_dn) / (ad * star_dn)
            if c0_here > c0_best:
                c0_best, c0_arg = c0_here, (lam, ad)

    ok = bool(evaluated > 0 and v_best > 0 and math.isfinite(c0_best))
    return RegularityReport(
        v_value=v_best, v_argmin=v_arg, c0=max(c0_best, 0.0), c0_argmax=c0_arg,
        ok=ok, grid={"n_lam": len(lam_grid), "n_delta": len(delta_grid),
                     "evaluated": evaluated},
    )


# --------------------------------------------------------------------------
# Refined envelope under a (1 - delta^2) pinch
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PinchCertificate:
    delta: float
    c: float
    certified_from: float
    ladder_cap: float
    offsets_scale_grid: tuple
    machinery_points: int


def pinched_lower_envelope(
    phi: PhiFunction,
    delta: float,
    z_grid: Sequence[float],
) -> tuple[TailEnvelope, PinchCertificate]:
    """Envelope exp(-(1-c*delta) phi*(z/(1-c*delta))) with a machinery-backed c.

    Under the hypothesis exp((1-delta^2) phi) <= MGF <= exp(phi), the
    tangent-line closure with offsets proportional to delta certifies the
    claimed form from some threshold z on.  c is the smallest of 400 grid
    values whose envelope is dominated by the machinery bound over the
    whole upper part of a 40-point certification ladder; the threshold is
    the certificate's ``certified_from`` and the envelope's ``valid_from``.
    Points of ``z_grid`` from e up are all emitted; those below the
    threshold carry the form but not the certificate.
    """
    if not (0.0 < delta < 0.5):
        raise InputError("delta must be in (0, 1/2)")
    reg = verify_regularity(phi)
    if not reg.ok:
        raise NotCertifiedError("regularity report negative; refined envelope needs V > 0")

    phi1 = PhiFunction.from_callable(
        lambda l: (1.0 - delta * delta) * phi.value(l),
        phi.domain.lo, phi.domain.hi,
        deriv=(lambda l: (1.0 - delta * delta) * phi.deriv(l)) if phi.deriv else None,
        convex=phi.convex, label=f"pinched[{phi.label}]",
        slope_lim=phi.slope_lim, convex_hi=phi.convex_hi,
    )

    cap = max(64.0, 14.0 / delta)
    cert_ladder = np.geomspace(math.e, cap, 40)

    # machinery exponent along the ladder with symmetric offsets c2_scale*delta
    scale_hi = min(4.9, 0.49 / delta)
    scales = np.geomspace(0.3, scale_hi, 16)
    neg_log = np.full(cert_ladder.size, math.inf)
    ds = scales * delta
    ds = ds[~(ds >= 0.5)]
    mus, no_saddle = _x0_inverse(phi, cert_ladder)
    for i, mu in enumerate(mus.tolist()):
        if i in no_saddle:
            continue
        lam = mu / (1.0 - ds)
        inside = phi.domain.contains(lam) & phi.domain.contains(lam * (1.0 + ds))
        lv = _bracket_logs(phi1, phi, lam[inside], ds[inside], ds[inside])
        best = float(lv.max()) if lv.size else -math.inf
        if best > -math.inf:
            neg_log[i] = -best

    def envelope_exponents(c: float, zs: np.ndarray) -> np.ndarray:
        shrink = 1.0 - c * delta
        return shrink * _stars(phi, zs / shrink)

    c_grid = np.linspace(0.5 / 400, (1.0 / (2.0 * delta)) * (1 - 1e-9), 400)
    chosen = None
    machinery = np.isfinite(neg_log)
    for c in c_grid:
        exps = np.full(cert_ladder.size, math.nan)
        exps[machinery] = envelope_exponents(float(c), cert_ladder[machinery])
        ok_from = None
        for z, m, e in zip(cert_ladder, neg_log, exps.tolist()):
            if not math.isfinite(m) or e < m:
                ok_from = None
            elif ok_from is None:
                ok_from = float(z)
        if ok_from is not None and ok_from <= cap / 2.0:
            chosen = (float(c), ok_from)
            break
    if chosen is None:
        raise NotCertifiedError(
            f"no c in (0, {1/(2*delta):.3g}) dominated by the machinery on the ladder"
        )
    c, cert_from = chosen

    zs = np.asarray(z_grid, dtype=float)
    zs = zs[zs >= math.e]
    if zs.size == 0:
        raise InputError("z_grid needs points at or above e")
    log_vals = -envelope_exponents(c, zs)
    cert = PinchCertificate(delta=delta, c=c, certified_from=cert_from,
                            ladder_cap=cap, offsets_scale_grid=tuple(scales.tolist()),
                            machinery_points=int(np.isfinite(neg_log).sum()))
    env = TailEnvelope(
        x=zs, log_values=np.minimum(log_vals, 0.0), side=LOWER,
        provenance="pinched-exponent-envelope",
        valid_from=cert.certified_from, meta={"certificate": cert},
    )
    return env, cert


def pinch_rate_diagnostic(phi: PhiFunction, deltas: Sequence[float], z: float) -> dict:
    """Measure how fast the pinched envelope tightens as delta shrinks.

    Returns the fitted log-log slope of (exponent ratio - 1) against delta.
    Whether the true rate is linear or quadratic in delta is an open
    question; this reports the empirically realized rate of the machinery
    and asserts nothing.
    """
    ds, gaps = [], []
    for delta in sorted(deltas, reverse=True):
        try:
            env, cert = pinched_lower_envelope(phi, float(delta), np.array([z]))
        except (NotCertifiedError, InputError):
            continue
        star, _ = conjugate_value(phi, z)
        ratio = float(env.neg_log()[0]) / star
        if ratio > 1.0:
            ds.append(float(delta))
            gaps.append(ratio - 1.0)
    if len(ds) < 2:
        return {"rate": math.nan, "deltas": ds, "gaps": gaps}
    slope = float(np.polyfit(np.log(ds), np.log(gaps), 1)[0])
    return {"rate": slope, "deltas": ds, "gaps": gaps}


# --------------------------------------------------------------------------
# Exact-MGF two-sided sandwich
# --------------------------------------------------------------------------


def exact_mgf_sandwich(
    phi: PhiFunction,
    x_grid: Sequence[float],
) -> tuple[TailEnvelope, TailEnvelope, float]:
    """Two-sided envelopes when E exp(lam*X) = exp(phi(lam)) exactly.

    Upper: exp(-phi*(x)).  Lower: exp(-phi*(x) - c2*x) with c2 extracted
    from the tangent-line closure run at additive saddle offsets
    lam -> lam +- c1 (equivalently d = c1/lam), per point over a few c1.
    Returns (lower, upper, c2); c2 is the worst-case exponent excess per
    unit x over the requested grid.
    """
    if phi.convex is not True:
        raise NotCertifiedError("sandwich needs convexity-certified phi")
    xs = np.asarray(x_grid, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or (xs.size > 1 and not np.all(np.diff(xs) > 0)):
        raise InputError("x_grid must be nonempty strictly increasing")
    if xs[0] < 1.0:
        raise InputError("sandwich asserted for x >= 1")

    stars = _stars(phi, xs)

    b = phi.domain.hi
    mus, no_saddle = _x0_inverse(phi, xs)
    if no_saddle:
        raise no_saddle[min(no_saddle)]
    if not math.isfinite(b):
        # slope of the saddle path at each mu, by a central difference
        hs = np.array([max(1e-6, 1e-4 * max(mu, 1.0)) for mu in mus.tolist()])
        x0s, errors = _x0s(phi, np.concatenate([mus + hs, np.maximum(mus - hs, phi.domain.lo)]))
        _raise_unrefused(errors)
        slopes = (x0s[:mus.size] - x0s[mus.size:]) / (2 * hs)
    c2 = 0.0
    clamped = []
    for i, (x, star, mu) in enumerate(zip(xs.tolist(), stars.tolist(), mus.tolist())):
        pairs: list[tuple[float, float]] = []
        if math.isfinite(b):
            # bounded exponent domains want a lopsided geometry: the driving
            # parameter close to the top, a thin remaining slice on the plus
            # side
            gap = b - mu
            for f1 in (0.3, 0.6, 0.85, 0.95, 0.98, 0.995):
                for f2 in (0.3, 0.6, 0.9, 0.97):
                    pairs.append((f1 * gap, f2 * gap * (1.0 - f1)))
        else:
            # additive offsets scaled by the saddle-path curvature: the
            # bracket needs roughly c^2 * x0'(mu) to beat ln(mu)
            slope = 1.0 if math.isnan(slopes[i]) else float(slopes[i])
            scale = math.sqrt(2.0 * max(math.log(max(mu, math.e)), 1.0)
                              / max(slope, 1e-12))
            for s in (0.6, 0.85, 1.2, 1.8, 2.7, 4.0):
                pairs.append((s * scale, s * scale))
            pairs.extend([(1.0, 1.0), (2.5, 2.5)])
        c_minus, c_plus = np.array(pairs, dtype=float).reshape(-1, 2).T
        lam = mu + c_minus
        inside = phi.domain.contains(lam) & phi.domain.contains(lam + c_plus)
        lam, c_minus, c_plus = lam[inside], c_minus[inside], c_plus[inside]
        lv = _bracket_logs(phi, phi, lam, c_minus / lam, c_plus / lam)
        best = float(lv.max()) if lv.size else -math.inf
        if best == -math.inf:
            clamped.append(x)
            continue
        c2 = max(c2, (-best - star) / x)

    if clamped:
        raise NotCertifiedError(
            f"tangent closure clamped at x = {clamped}; no finite c2 certified there"
        )

    upper = TailEnvelope(
        x=xs, log_values=np.minimum(-stars, 0.0), side=UPPER,
        provenance="conjugate-upper", valid_from=float(xs[0]),
    )
    lower = TailEnvelope(
        x=xs, log_values=np.minimum(-(stars + c2 * xs), 0.0), side=LOWER,
        provenance="exact-mgf-sandwich", valid_from=float(xs[0]),
        meta={"c2": c2},
    )
    return lower, upper, float(c2)
