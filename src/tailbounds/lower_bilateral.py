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

from .envelope import LOWER, TailEnvelope, chernoff_envelope
from .errors import (
    GeometryInvalidError,
    InputError,
    NotCertifiedError,
    OutOfDomainError,
    UnboundedObjectiveError,
)
from .functions import (
    LAMBDA_CAP,
    PhiFunction,
    _bisect_rows,
    _checked_grid,
    _grow_rows,
    _raise_first,
    _slope_roots,
    _stars,
    conjugate_value,
    conjugate_values,
)

_LOG_EPS = math.log(2.0) * -1074  # smallest log float


# --------------------------------------------------------------------------
# S and the saddle geometry
# --------------------------------------------------------------------------


def _x0_inverse(phi2: PhiFunction, zs: np.ndarray) -> tuple[np.ndarray, dict]:
    """:func:`_saddle_inverse` on one :func:`conjugate_values` call."""
    return _saddle_inverse(phi2, zs, *conjugate_values(phi2, zs)[1:])


def _saddle_inverse(phi2: PhiFunction, zs: np.ndarray, mus: np.ndarray,
                    errors: dict) -> tuple[np.ndarray, dict]:
    """The t with x0(t) = z for each z, the maximizer of t*z - phi2(t)
    (Rockafellar, *Convex Analysis*, section 26), written over the argmax
    ``mus`` of ``conjugate_values(phi2, zs)`` for a phi2 with a saddle map
    (:func:`_require_saddle_map`); and by index the OutOfDomainError of
    each z without one (its t is NaN).  Its other ``errors`` raise, the
    smallest z's first.  A z below phi2'(lo) keeps its argmax lo, whose
    x0(lo) >= z bounds T(z) from below, for every kind; a z whose conjugate
    stops at ``LAMBDA_CAP``, or is refused there, goes on from the cap: its
    bracket doubles while phi2' <= z, at most 200 times (else it has no t),
    and the root of phi2'(t) = z bisects in it, NotConvergedError if left open.
    """
    # a z refused as unbounded stopped at the cap too
    mus[[i for i, e in errors.items() if isinstance(e, UnboundedObjectiveError)]] = LAMBDA_CAP
    errors = {i: e for i, e in errors.items() if mus[i] != LAMBDA_CAP}
    past = np.flatnonzero((mus == LAMBDA_CAP) & (not phi2.domain.bounded))
    b, grow = _grow_rows(np.full(past.size, LAMBDA_CAP),
                         lambda rows, t: ~(phi2.derivatives(t) > zs[past[rows]]), 200)
    # no bracket: the x0 range searched, from phi2'(LAMBDA_CAP) on
    errors.update((i, OutOfDomainError(float(zs[i]), phi2.derivative(LAMBDA_CAP),
                                       float(phi2.deriv(t))))
                  for i, t in zip(past[grow].tolist(), b[grow].tolist()))
    a, b, stuck = _slope_roots(phi2, np.full(past.size, LAMBDA_CAP),
                               np.where(grow, LAMBDA_CAP, b), zs[past])
    mus[past] = 0.5 * (a + b)
    errors.update((int(past[j]), exc) for j, exc in stuck.items())
    mus[list(errors)] = math.nan
    _raise_first(errors, (OutOfDomainError,))
    return mus, errors


def _require_saddle_map(phi2: PhiFunction, message: str) -> None:
    """The one check that ``phi2`` has a saddle map, before any search:
    NotCertifiedError with ``message`` unless it is convexity-certified,
    and unless it has a derivative (a grid has its right chord)."""
    if phi2.convex is not True:
        raise NotCertifiedError(message)
    if phi2.deriv is None:
        raise NotCertifiedError(
            f"{phi2.label}: the saddle map x0 = phi2'(lam) needs a derivative or a grid")


def _saddle_table(phi2: PhiFunction, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """The package's one saddle map, for a ``phi2`` that has one
    (:func:`_require_saddle_map`): x0 and phi2*(x0) at each t of the array
    ``ts``, in its shape, NaN where t has no saddle; and by index of the
    sorted distinct t's, the OutOfDomainError of each t without one: off
    the domain, and on a grid naming the knot span from the last knot on.
    x0 is phi2'(t), in one ``derivatives`` call, which raises its first
    error; on a grid the right chord of the knot piece holding t
    (Rockafellar, *Convex Analysis*, sections 23-24).  phi2*(x0) is the
    touching identity t*x0 - phi2(t).
    """
    # return_inverse skips np.unique's numpy.ma import; numpy 2.x releases differ on its shape
    distinct, inv = np.unique(ts, return_inverse=True)
    inv = inv.reshape(ts.shape)
    inside = phi2.domain.contains(distinct)
    ls = phi2.knots[0] if phi2.kind == "grid" else None
    fail = ~inside | (ls is not None and distinct >= ls[-1])
    x0s, stars = np.full(distinct.size, math.nan), np.full(distinct.size, math.nan)
    x0s[~fail] = phi2.derivatives(distinct[~fail])
    stars[~fail] = distinct[~fail] * x0s[~fail] - phi2.values(distinct[~fail])
    errors = {i: OutOfDomainError(float(distinct[i]), phi2.domain.lo, phi2.domain.hi)
              if not inside[i]
              else OutOfDomainError(float(distinct[i]), float(ls[0]), float(ls[-1]))  # a grid
              for i in np.flatnonzero(fail).tolist()}
    return x0s[inv], stars[inv], errors


def _saddle_rows(phi2: PhiFunction, mus: np.ndarray, lams: np.ndarray,
                 nus: np.ndarray) -> tuple[dict, dict]:
    """The saddle geometry of each row x_minus = x0(mu) < x0(lam) < x_plus =
    x0(nu), its mu, lam and nu inside phi2's domain: the SaddleGeometry
    fields x_minus, x0, x_plus, s_minus, s_x0, s_plus (S(lam, .) at each),
    ds_minus = lam - mu and ds_plus = lam - nu, as arrays over the rows; and
    the errors of :func:`_saddle_table`, whose t's without a saddle are NaN.
    """
    x0s, stars, errors = _saddle_table(phi2, np.stack([mus, lams, nus]))
    (xm, x0, xp), (sm, s0, sp) = x0s, lams * x0s - stars
    return dict(x_minus=xm, x0=x0, x_plus=xp, s_minus=sm, s_x0=s0, s_plus=sp,
                ds_minus=lams - mus, ds_plus=lams - nus), errors


def _geometry_ok(x_minus, x0, x_plus, s_minus, s_x0, s_plus, ds_minus, ds_plus):
    """x_minus < x0 < x_plus, tangent slopes straddling zero, and S at the
    saddle not below S at either side point (slack 1e-9 max(1, |S(x0)|)).
    Elementwise on arrays; np.where(b > a, b, a) is Python's max(a, b)."""
    tol = 1e-9 * np.where(np.abs(s_x0) > 1.0, np.abs(s_x0), 1.0)
    return ((x_minus < x0) & (x0 < x_plus) & (ds_minus > 0.0) & (ds_plus < 0.0)
            & ~(s_x0 < np.where(s_plus > s_minus, s_plus, s_minus) - tol))


@dataclass(frozen=True)
class SaddleGeometry:
    """One (lam, x_minus, x0, x_plus) configuration with S data attached."""

    lam: float
    x0: float
    x_minus: float
    x_plus: float
    rule: str                  # "symmetric" | "asymmetric"
    delta1: float
    delta2: float
    s_minus: float
    s_plus: float
    s_x0: float
    ds_minus: float            # > 0 required
    ds_plus: float             # < 0 required

    def validate(self) -> None:
        if not _geometry_ok(self.x_minus, self.x0, self.x_plus, self.s_minus,
                            self.s_x0, self.s_plus, self.ds_minus, self.ds_plus):
            raise GeometryInvalidError(
                "need x_minus < x0 < x_plus, slopes straddling zero and S at the "
                f"saddle not below the sides; got x = ({self.x_minus}, {self.x0}, "
                f"{self.x_plus}), slopes ({self.ds_minus}, {self.ds_plus}), "
                f"S = ({self.s_minus}, {self.s_x0}, {self.s_plus})"
            )


def make_geometry(phi2: PhiFunction, lam: float, delta1: float,
                  delta2: Optional[float] = None) -> SaddleGeometry:
    """The saddle geometry at lam with x_minus = x0(lam(1-delta1)) and x_plus
    = x0(lam(1+delta2)); delta2 defaults to delta1.  The one-row case of the
    batch behind :func:`_bracket_logs`, raising what the batch refuses:
    NotCertifiedError for a phi2 without a saddle map
    (:func:`_require_saddle_map`), InputError for the offsets, the
    OutOfDomainError of the smallest of mu, lam, nu without a saddle, and
    GeometryInvalidError.
    """
    _require_saddle_map(phi2, "saddle geometry needs a convexity-certified phi2")
    lam, d1 = float(lam), float(delta1)
    d2 = d1 if delta2 is None else float(delta2)
    if not (0.0 < d1 < 1.0 and 0.0 < d2):
        raise InputError("dilation offsets must be positive, delta1 < 1")
    ts = np.array([lam * (1.0 - d1), lam, lam * (1.0 + d2)])
    cols, errors = _saddle_rows(phi2, *ts[:, None])
    _raise_first(errors)
    geo = SaddleGeometry(lam=lam, rule="symmetric" if d2 == d1 else "asymmetric",
                         delta1=d1, delta2=d2, **{k: float(v[0]) for k, v in cols.items()})
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
    return float(_bracket_formula(g.lam, phi1.value(g.lam), g.s_minus, g.ds_minus,
                                  g.s_plus, g.ds_plus, g.x_plus))


def _bracket_formula(lam, t0, s_minus, ds_minus, s_plus, ds_plus, x_plus):
    """The bracket's log over arrays of rows; -inf where it clamps or a row is NaN."""
    with np.errstate(all="ignore"):
        tm = np.log(lam) + s_minus - np.log(ds_minus)
        tp = np.log(lam) + s_plus - np.log(-ds_plus)
        m = np.maximum(np.maximum(t0, tm), tp)
        bracket = np.exp(t0 - m) - np.exp(tm - m) - np.exp(tp - m)
        lv = -lam * x_plus + m + np.log(bracket)
        return np.where((bracket > 0.0) & ~np.isnan(lv), lv, -math.inf)


def _bracket_logs(phi1: PhiFunction, phi2: PhiFunction, mus, lams, nus) -> np.ndarray:
    """The tangent bracket's log at each row x_minus = x0(mu), x0(lam),
    x_plus = x0(nu) of the broadcast arrays, in their shape: what
    :func:`tangent_bracket_log` gives for that row's geometry.

    -inf where a row is not mu < lam < nu with mu and nu in phi2's domain
    and lam in phi1's, where one of its points has no saddle, where the
    geometry is invalid, and where the bracket clamps (or is NaN).
    """
    mus, lams, nus = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                           for a in (mus, lams, nus)))
    out = np.full(lams.shape, -math.inf)
    dom = phi2.domain
    rows = np.nonzero((mus < lams) & (lams < nus) & dom.contains(mus) & dom.contains(nus)
                      & phi1.domain.contains(lams))
    lam = lams[rows]
    cols, _ = _saddle_rows(phi2, mus[rows], lam, nus[rows])
    valid = _geometry_ok(**cols)
    lam = lam[valid]
    out[tuple(r[valid] for r in rows)] = _bracket_formula(
        lam, phi1.values(lam), *(cols[k][valid] for k in ("s_minus", "ds_minus", "s_plus",
                                                           "ds_plus", "x_plus")))
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

    For each z the saddle inverse mu, z = x0(mu), starts every row (mu,
    lam = mu/(1-d1), lam(1+d2)), and (d1, d2) sweeps a 16 x 16 log-spaced
    grid on [1e-3, 0.5]; the envelope records the best bound.
    Points where every geometry clamps carry value 0 and are flagged.  A
    phi2 without a saddle map is refused first (:func:`_require_saddle_map`).
    """
    _require_saddle_map(phi2, "closure needs a convexity-certified phi2")
    zs = _checked_grid(z_grid, "z_grid")
    dg = np.geomspace(1e-3, 0.5, 16)
    d1 = np.repeat(dg, dg.size)
    d2 = np.tile(dg, dg.size)

    # every (z, d1, d2) geometry in one batch; a z without a saddle has a
    # NaN mu, which no domain contains
    mus, no_saddle = _x0_inverse(phi2, zs)
    lams = mus[:, None] / (1.0 - d1)
    lv = _bracket_logs(phi1, phi2, mus[:, None], lams, lams * (1.0 + d2))
    best_j = np.argmax(lv, axis=1)  # the first strict maximum in pair order
    best = lv[np.arange(zs.size), best_j]
    log_vals = np.minimum(best, 0.0)
    per_z = {}
    for i, (z, mu, j, b) in enumerate(zip(zs.tolist(), mus.tolist(), best_j.tolist(),
                                         best.tolist())):
        if i in no_saddle:
            per_z[z] = {"status": "no-saddle"}
            continue
        per_z[z] = {
            "status": "ok" if b > -math.inf else "clamped",
            "best_offsets": (float(d1[j]), float(d2[j]), mu / (1.0 - float(d1[j])))
            if b > -math.inf else None,
            "log_value": b,
        }

    diag = ClosureDiagnostics(all_clamped=bool(np.all(np.isneginf(log_vals))), per_z=per_z)
    env = TailEnvelope(
        x=zs, log_values=log_vals, side=LOWER,
        provenance="tangent-closure",
        valid_from=max(1.0, float(zs[0])),
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
    (lam, d) grid; both are reports, not hard gates.  A phi without a
    saddle map is refused first (:func:`_require_saddle_map`).
    """
    _require_saddle_map(phi, "regularity check needs convexity-certified phi")
    hi = phi.domain.top()
    top = min(100.0, hi * 0.999) if math.isfinite(hi) else 100.0
    lam_grid = np.geomspace(math.e, top, 24)
    base = np.array([0.05, 0.1, 0.15, 0.25, 0.35, 0.5])
    delta_grid = np.concatenate([-base[::-1], base])

    # x0 and phi*(x0) at every shifted lam t = lam(1 + d) in one table, in
    # lam-major order: a cell without a saddle, off the domain among them,
    # is skipped
    lams = lam_grid[phi.domain.contains(lam_grid)]
    ts = lams[:, None] * (1.0 + delta_grid)
    x0s, stars, _ = _saddle_table(phi, ts)
    s_peak = phi.values(lams)[:, None]  # S(lam, x0(lam)), by the touching identity
    # t_up = lam(1 + |d|) and t_dn = lam(1 - |d|): the columns of +|d| and -|d|
    ad = np.abs(delta_grid)
    up, dn = np.searchsorted(delta_grid, ad), np.searchsorted(delta_grid, -ad)

    cell = (s_peak > 0) & ~np.isnan(x0s)
    with np.errstate(all="ignore"):
        ratio = (s_peak - (lams[:, None] * x0s - stars)) / (s_peak * delta_grid * delta_grid)
        # absorption: lam*x0(lam(1+|d|)) - (1-d^2) phi(lam)
        #             <= (1 + c0*|d|) * phi*(x0(lam(1-|d|)))
        star_dn = stars[:, dn]
        c0s = ((lams[:, None] * x0s[:, up] - (1.0 - delta_grid * delta_grid) * s_peak - star_dn)
               / (ad * star_dn))
    ratio = np.where(cell & ~np.isnan(ratio), ratio, math.inf)
    # an absorption cell needs both of its shifted saddles: without one, c0 is NaN
    c0s = np.where(cell & ~(star_dn <= 0) & ~np.isnan(c0s), c0s, -math.inf)
    # the first strict minimum and maximum in (lam, d) order
    i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
    v_best = float(ratio[i, j])
    v_arg = (float(lams[i]), float(delta_grid[j])) if v_best < math.inf else (math.nan, math.nan)
    i, j = np.unravel_index(np.argmax(c0s), c0s.shape)
    c0_best = float(c0s[i, j])
    c0_arg = (float(lams[i]), float(ad[j])) if c0_best > -math.inf else (math.nan, math.nan)
    evaluated = int(cell.sum())

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

    For a convex, regular phi (:func:`verify_regularity`) and a law with
    exp((1-delta^2) phi) <= MGF <= exp(phi), the form bounds the tail from
    below from ``certified_from`` on: there its exponent reaches that of the
    tangent-line closure (offsets proportional to delta) at every point of
    a 40-point certification ladder.  t*phi*(z/t) does not increase in
    t = 1 - c*delta, so each point of the ladder's upper half is dominated
    from a threshold in (0, 1/delta) on; c, the largest threshold, is the
    ladder's and not a closed-form constant of the law.  One
    :func:`_bisect_rows` call brackets them all (1e-13 relative) by Newton
    steps on 1/[t*phi*(z/t)], linear in c where phi* is quadratic, from
    d/dc [t*phi*(z/t)] = delta*phi(mu), mu the maximizer of phi*(z/t).
    ``certified_from`` (the ``valid_from``) starts the run of points
    dominated at c that reaches the top.  Points of ``z_grid`` from e up
    are all emitted, those below it uncertified.  A point whose
    phi*(z/(1-c*delta)) stopped at ``LAMBDA_CAP`` on an unbounded domain is
    refused with NotCertifiedError: too small to bound the tail from below.
    """
    if not (0.0 < delta < 0.5):
        raise InputError("delta must be in (0, 1/2)")
    zs = _checked_grid(z_grid, "z_grid")
    if not verify_regularity(phi).ok:
        raise NotCertifiedError("regularity report negative; refined envelope needs V > 0")

    phi1 = PhiFunction.from_callable(
        lambda l: (1.0 - delta * delta) * phi.values(l), phi.domain.lo, phi.domain.hi,
        convex=phi.convex, label=f"pinched[{phi.label}]", vectorized=True)

    cap = max(64.0, 14.0 / delta)
    cert_ladder = np.geomspace(math.e, cap, 40)

    # machinery exponent along the ladder with symmetric offsets c2_scale*delta
    scales = np.geomspace(0.3, min(4.9, 0.49 / delta), 16)
    ds = scales * delta
    mus, _ = _x0_inverse(phi, cert_ladder)  # NaN where no saddle, so neg_log is inf
    lams = mus[:, None] / (1.0 - ds)
    neg_log = -_bracket_logs(phi1, phi, mus[:, None], lams, lams * (1.0 + ds)).max(axis=1)

    def envelope_exponents(c, zs: np.ndarray, emitted: bool = False):
        """t*phi*(y) at each z, y = z/t, and its slope delta*phi(mu) in c,
        phi(mu) = mu*y - phi*(y) at the maximizer mu."""
        # a capped star only lowers the exponent, so on the ladder it can
        # only withhold domination; an emitted point refuses it
        shrink = 1.0 - c * delta
        ys = zs / shrink
        stars, mus = _stars(phi, ys, lower_at=zs if emitted else None)
        return shrink * stars, delta * (mus * ys - stars)

    # c certifies when every ladder point from ``half`` on (at or above cap/2)
    # is dominated, so one of them without a machinery bound refuses every c
    machinery = np.isfinite(neg_log)
    half = int(np.searchsorted(cert_ladder, cap / 2.0, side="right")) - 1
    refusal = f"no c in (0, {1/delta:.3g}) dominated by the machinery on the ladder"
    if not machinery[half:].all():
        z = cert_ladder[half:][~machinery[half:]][0]
        raise NotCertifiedError(f"{refusal}: no machinery bound at z = {z:.6g} "
                                f"(phi's domain ends at {phi.domain.top():.6g})")
    upper, neg_up, top = cert_ladder[half:], neg_log[half:], (1.0 - 1e-9) / delta
    if (envelope_exponents(top, upper)[0] < neg_up).any():
        raise NotCertifiedError(refusal)

    def below(rows, c):
        exps, slopes = envelope_exponents(c, upper[rows])
        with np.errstate(all="ignore"):
            return exps < neg_up[rows], (neg_up[rows] - exps) * exps / (neg_up[rows] * slopes)

    # every top end stays dominated, and c is the largest threshold
    c = float(_bisect_rows(np.zeros(upper.size), np.full(upper.size, top), below,
                           100, 1e-13)[1].max())
    undominated = ~machinery
    undominated[machinery] = envelope_exponents(c, cert_ladder[machinery])[0] < neg_log[machinery]
    gaps = np.flatnonzero(undominated)
    cert_from = float(cert_ladder[gaps[-1] + 1 if gaps.size else 0])

    zs = zs[zs >= math.e]
    if zs.size == 0:
        raise InputError("z_grid needs points at or above e")
    log_vals = np.minimum(-envelope_exponents(c, zs, emitted=True)[0], 0.0)
    cert = PinchCertificate(delta=delta, c=c, certified_from=cert_from,
                            ladder_cap=cap, offsets_scale_grid=tuple(scales.tolist()),
                            machinery_points=int(machinery.sum()))
    env = TailEnvelope(x=zs, log_values=log_vals, side=LOWER,
                       provenance="pinched-exponent-envelope", valid_from=cert_from)
    return env, cert


def pinch_rate_diagnostic(phi: PhiFunction, deltas: Sequence[float], z: float) -> dict:
    """Measure how fast the pinched envelope tightens as delta shrinks.

    Returns the fitted log-log slope of (exponent ratio - 1) against delta,
    a measurement that asserts nothing.  On the quadratic at z = 6 it is
    1.16 over delta = 0.02-0.2 and 1.36 over 0.02-0.45: linear in delta.
    """
    star, _ = conjugate_value(phi, z)
    ds, gaps = [], []
    for delta in sorted(deltas, reverse=True):
        try:
            env, cert = pinched_lower_envelope(phi, float(delta), np.array([z]))
        except (NotCertifiedError, InputError):
            continue
        ratio = -float(env.log_values[0]) / star
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
    from the tangent-line closure run at additive saddle offsets, rows
    (mu, lam = mu + c_minus, lam + c_plus), per point over a few offsets.
    Returns (lower, upper, c2); c2 is the worst-case exponent excess per
    unit x over the requested grid.  An x whose phi*(x) stopped at
    ``LAMBDA_CAP`` on an unbounded domain is refused with NotCertifiedError,
    since the lower envelope would rest on a supremum that is too small.
    One :func:`conjugate_values` call gives each phi*(x) and its maximizer,
    the driving parameter mu of the saddle at x.
    """
    _require_saddle_map(phi, "sandwich needs convexity-certified phi")
    xs = _checked_grid(x_grid, "x_grid")
    if xs[0] < 1.0:
        raise InputError("sandwich asserted for x >= 1")

    stars, mus = _stars(phi, xs, lower_at=xs)
    mus, no_saddle = _saddle_inverse(phi, xs, mus, {})
    _raise_first(no_saddle)
    b = phi.domain.hi
    if math.isfinite(b):
        # bounded exponent domains want a lopsided geometry: the driving
        # parameter close to the top, a thin remaining slice on the plus side
        f1 = np.repeat([0.3, 0.6, 0.85, 0.95, 0.98, 0.995], 4)
        f2 = np.tile([0.3, 0.6, 0.9, 0.97], 6)
        gap = (b - mus)[:, None]
        c_minus, c_plus = f1 * gap, f2 * gap * (1.0 - f1)
    else:
        # additive offsets scaled by the saddle-path curvature: the bracket
        # needs roughly c^2 * x0'(mu) to beat ln(mu); the slope of the
        # saddle path x0 = phi' at each mu by a central difference
        hs = np.array([max(1e-6, 1e-4 * max(mu, 1.0)) for mu in mus.tolist()])
        x0s = phi.derivatives(np.concatenate([mus + hs, np.maximum(mus - hs, phi.domain.lo)]))
        slopes = (x0s[:mus.size] - x0s[mus.size:]) / (2 * hs)
        scale = np.array([
            math.sqrt(2.0 * max(math.log(max(mu, math.e)), 1.0)
                      / max(1.0 if math.isnan(slope) else slope, 1e-12))
            for mu, slope in zip(mus.tolist(), slopes.tolist())])
        c_minus = c_plus = np.concatenate(
            [scale[:, None] * [0.6, 0.85, 1.2, 1.8, 2.7, 4.0],
             np.broadcast_to([1.0, 2.5], (xs.size, 2))], axis=1)
    lams = mus[:, None] + c_minus
    best = _bracket_logs(phi, phi, mus[:, None], lams, lams + c_plus).max(axis=1)
    clamped = xs[best == -math.inf].tolist()
    if clamped:
        raise NotCertifiedError(
            f"tangent closure clamped at x = {clamped}; no finite c2 certified there"
        )
    c2 = max([0.0, *((-best - stars) / xs).tolist()])

    lower = TailEnvelope(
        x=xs, log_values=np.minimum(-(stars + c2 * xs), 0.0), side=LOWER,
        provenance="exact-mgf-sandwich", valid_from=float(xs[0]),
    )
    return lower, chernoff_envelope(xs, stars), float(c2)
