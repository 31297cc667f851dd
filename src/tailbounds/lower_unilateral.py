"""Lower tail envelopes from a one-sided (lower) MGF-exponent envelope.

Given phi with E exp(lam*X) >= exp(phi(lam)) on [lo, b), the chain is:

1. the tail transform satisfies int_0^inf e^{lam x} T(x) dx >= (e^phi - 1)/lam,
   whose log, the tail-transform exponent, is phi - ln(lam) + ln(1 - e^{-phi})
   (:func:`_tail_transform_from_value`, which never overflows for large phi);
2. a dilation certificate: phi's tail-transform exponent dominates a dilated
   copy phi(c1*lam) on a verification range (:func:`certify_dilation_dominance`).
   The range starts where phi reaches 1; where the exponent is still too
   small there, the start walks up until a range certifies;
3. the compound integral estimate turns step 1 into a lower bound on the
   conjugate of the exponential tail function G, with a computable
   normalization surrogate M;
4. the normalization is absorbed into a further dilation c2 <= c1 above a
   threshold lam1, and biconjugation (Fenchel-Moreau, G convex assumed)
   yields G(x) <= max(mu1 * x, sup_{mu >= mu1} [mu x - phi(c2 (1-eps) mu)]),
   i.e. a certified lower envelope exp(-that) for x >= 1.  The supremum is
   phi*(a x), a = 1/(c2 (1-eps)), over phi restricted to [max(c2 lam1, lo),
   c2 b): one conjugate of phi itself, read at a dilated point.

The max with the linear branch mu1*x and the restriction of the supremum to
mu >= mu1 = lam1/(1-eps) keep the conclusion honest on the region where the
premises were actually verified; for quadratic-type inputs the linear branch
never binds and the envelope reduces to exp(-phi*(a x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .envelope import LOWER, TailEnvelope
from .errors import (
    AbsorptionFailedError,
    DivergentIntegral,
    InputError,
    NotCertifiedError,
)
from .functions import (
    LAMBDA_CAP,
    PhiFunction,
    _bisect,
    _checked_grid,
    _first_at_one,
    _inf_where_unbounded,
    _sorted_unique,
    conjugate_values,
)

# slack in the dilation and absorption inequalities, relative to max(1, |side|)
_ABS_TOL = 1e-9


def _tail_transform_from_value(p: float, lam: float) -> float:
    """ln[(e^p - 1)/lam] at p = phi(lam); -inf when p == 0 (empty floor)."""
    if p == 0.0:
        return -math.inf
    return p - math.log(lam) + math.log(-math.expm1(-p))


@dataclass(frozen=True)
class DilationCertificate:
    """Largest c1 with phi(c1*lam) <= the tail-transform exponent on a grid."""

    c1: float
    lam_range: tuple[float, float]
    margin: float


def _values_at(phi: PhiFunction, c, ts: np.ndarray) -> np.ndarray:
    """phi(c*t) at each t; c*t is mathematically inside the domain, and the
    clamp undoes float rounding."""
    return phi.values(np.minimum(np.maximum(c * ts, phi.domain.lo), phi.domain.top()))


def certify_dilation_dominance(phi: PhiFunction) -> DilationCertificate:
    """Find a dilation c1 dominated by the tail-transform exponent.

    The inequality only has to hold on *some* verification range, and the
    tail-transform exponent can be negative where phi is barely above 1, so
    the start of the range walks up.  The first range runs from the first
    lam with phi(lam) >= 1 to the end of a 129-point probe, the domain top
    (max(100, 64 * max(lo, 1)) on an unbounded domain), that lam searched
    between two probe points (:func:`_first_at_one`, by Newton steps where
    phi has phi'); a phi that never reaches 1 there has no such range.
    Then the start rises: to 2^k for k = 1..8 on an unbounded domain (each
    range ending at max(100, 64 * start)), to lo + q*(top - lo) for q in
    0.3, 0.45, 0.6, 0.75 on a bounded one.  The ranges are tried one after
    another, and an unusable one (:func:`_certify_on_range`) is passed
    over: the first certificate with c1 >= 0.3 wins, else the largest c1
    certified.
    Raises NotCertifiedError, naming the ranges tried, when none certifies.
    """
    lo, top = phi.domain.lo, float(phi.domain.top())
    end = top if math.isfinite(top) else max(100.0, 64.0 * max(lo, 1.0))
    probe = np.linspace(max(lo, 1e-12), end, 129)
    first = _first_at_one(phi, probe, phi.values(probe), 1e-12)
    ranges = [] if first is None else [(first, end)]
    if math.isfinite(top):
        ranges += [(lo + q * (top - lo), top) for q in (0.3, 0.45, 0.6, 0.75)]
    else:
        ranges += [(s, max(100.0, 64.0 * s)) for s in (2.0 ** k for k in range(1, 9)) if s > lo]
    certified = []
    for start, end in ranges:
        cert = _certify_on_range(phi, start, end)
        if cert is not None:
            if cert.c1 >= 0.3:
                return cert
            certified.append(cert)
    if certified:
        return max(certified, key=lambda c: c.c1)
    raise NotCertifiedError(
        f"{phi.label}: dilation dominance not certified on "
        + (", ".join(f"({a:.6g}, {b:.6g})" for a, b in ranges) or "any range")
    )


def _largest_dilation(phi: PhiFunction, lams: np.ndarray, ceiling: np.ndarray,
                      c_lo: np.ndarray, top: float) -> Optional[float]:
    """The least critical dilation over ``lams``, or None where it is <= 1e-10.

    None, before any search, unless phi(c_lo*lam) <= ceiling at every
    lambda (NaN fails): the floor of each lambda's bracket must hold.
    A lambda's is ``top`` where phi(top*lam) <= ceiling, else the lower end
    of a :func:`_bisect` search of phi(c*lam) <= ceiling on [c_lo, top]
    (envelope exponents are nondecreasing), 45 tests at most, to width
    2^-52 (rel = 0): Newton steps on the slope lam*phi'(c*lam) where phi
    has phi' and it is positive, else halvings.  While some lambda fails at the
    running c (NaN fails), the one failing most relative to
    max(1, |ceiling|) is searched, once, and c drops to its critical
    dilation: only the lambdas that bind are searched, each step of the
    walk one ``values`` call.  Where phi falls, a searched lambda can fail
    again below its critical dilation: then the walk ends in None, so every
    c returned holds at every lambda of the grid.
    """
    if not np.all(_values_at(phi, c_lo, lams) <= ceiling):
        return None
    lo, hi = phi.domain.lo, phi.domain.top()
    c, searched = top, np.zeros(lams.size, dtype=bool)
    while c > 1e-10:
        v = _values_at(phi, c, lams)
        failing = ~(v <= ceiling)
        fails = np.flatnonzero(failing & ~searched)
        if fails.size == 0:
            return None if failing.any() else c
        i = fails[np.argmax((v[fails] - ceiling[fails]) / np.maximum(1.0, np.abs(ceiling[fails])))]
        searched[i], t, ceil_t = True, float(lams[i]), float(ceiling[i])

        def below(m):
            u = min(max(m * t, lo), hi)
            v = phi.value(u)
            d = math.nan if phi.deriv is None else t * phi.derivative(u)
            return v <= ceil_t, (ceil_t - v) / d if d > 0.0 else math.nan

        c = min(c, _bisect(float(c_lo[i]), top, below, 45)[0])
    return None


def _certify_on_range(phi: PhiFunction, lo: float, hi: float) -> Optional[DilationCertificate]:
    """The largest c1 that the verification range [lo, hi] certifies.

    The range is sampled at 200 points, and c1 is the least critical
    dilation among them (:func:`_largest_dilation`).  A refusal, and a
    range outside [domain lo, hi), returns None.
    """
    lo, hi = float(lo), float(hi)
    if not (phi.domain.lo <= lo < hi):
        return None
    hi = min(hi, phi.domain.top())
    lams = np.geomspace(lo, hi, 200) if lo > 0 else np.linspace(lo, hi, 200)
    aux = np.array([_tail_transform_from_value(p, t)
                    for p, t in zip(phi.values(lams).tolist(), lams.tolist())])

    # the slack only where aux is finite: a -inf ceiling (phi = 0) fails as is
    ceiling = aux + np.where(np.isfinite(aux), _ABS_TOL * np.maximum(1.0, np.abs(aux)), 0.0)
    c_lo = phi.domain.lo / lams if phi.domain.lo > 0 else np.full(lams.size, 1e-12)
    c1 = None if np.any(c_lo >= 1.0) else _largest_dilation(phi, lams, ceiling, c_lo, 1.0)
    if c1 is None:
        return None
    margin = float(np.min(aux - _values_at(phi, c1, lams)))
    return DilationCertificate(c1=c1, lam_range=(lo, hi), margin=margin)


# --------------------------------------------------------------------------
# Normalization surrogate and absorption
# --------------------------------------------------------------------------


def m_surrogate_from_upper(nu: PhiFunction, eps: float) -> float:
    """K[nu*](eps): a computable stand-in for the unknown normalization.

    Valid because the exponential tail function dominates the conjugate of
    any upper MGF-exponent envelope nu, so damping nu* damps no less mass.
    Only the K route is monotone in the exponent; R is not used here.

    The conjugate is replaced by its tangent minorant on a fine lambda grid,
    the max of the sampled supporting lines lam_i*x - nu(lam_i), clipped at
    zero.  That only lowers the exponent, so the returned value is never
    below K[nu*]: still a valid, marginally looser surrogate.  Clipping is
    licensed by the exponential tail function being nonnegative.  The
    clipped minorant is convex and piecewise linear, so its K is computed
    exactly, as a sum of exponential integrals over the pieces of the
    lines' upper envelope (:func:`_clipped_minorant_k`), with no quadrature.
    """
    if not (0.0 < eps <= 1.0):
        raise InputError(f"eps must be in (0, 1], got {eps}")
    lams, vals = _tangent_lines(nu, eps)
    return _clipped_minorant_k(lams, vals, eps)


def _tangent_lines(nu: PhiFunction, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Slopes lam_i and intercepts nu(lam_i) of the sampled supporting lines."""
    lo = max(nu.domain.lo, 0.0)
    hi = nu.domain.top()
    if not math.isfinite(hi):
        # grow until the conjugate along the curve comfortably kills the
        # integrand: lam*x(lam) - nu(lam) >= ~60/eps
        hi = max(10.0, 4.0 * max(lo, 1.0))
        target = 80.0 / eps
        while hi < LAMBDA_CAP:
            # without nu', the chord ending at hi: no steeper for a convex
            # nu, so growth stops no earlier, and any hi gives a minorant
            slope = (nu.derivative(hi) if nu.deriv is not None
                     else (nu.value(hi) - nu.value(0.5 * hi)) / (0.5 * hi))
            v = hi * slope - nu.value(hi)
            if v > target:
                break
            hi *= 2.0
    lam_lo = max(lo, 1e-9)
    pieces = [
        np.geomspace(lam_lo, hi, 700),
        np.linspace(lam_lo, hi, 200),
        # approach a finite top dyadically: the large-x shape of the
        # conjugate is carried by slopes just under the domain top
        hi - np.geomspace((hi - lam_lo) * 1e-12, hi - lam_lo, 200)
        if nu.domain.bounded else np.empty(0),
        np.asarray([lo]) if lo > 0 else np.empty(0),
    ]
    lams = _sorted_unique(np.concatenate(pieces))
    lams = lams[(lams >= nu.domain.lo) & (lams < nu.domain.hi)]
    return lams, nu.values(lams)


def _clipped_minorant_k(slopes: np.ndarray, nus: np.ndarray, eps: float) -> float:
    """int_0^inf exp(-eps*max(0, max_i(slopes[i]*x - nus[i]))) dx, exactly.

    ``slopes`` increase strictly from above 0.  The exponent is the upper
    envelope of the lines y = s*x - nu and y = 0 on x >= 0.  One pass over
    the lines in slope order keeps the envelope's pieces on a stack: a line
    that the next one overtakes before the line itself starts is dropped.
    A piece of slope s starting at x0 with value h0 contributes
    e^{-eps*h0} (1 - e^{-eps*s*width}) / (eps*s), its whole e^{-eps*h0} /
    (eps*s) when it is the last; the zero line contributes its width.
    """
    env_s, env_b, env_x = [0.0], [0.0], [0.0]
    for s, b in zip(slopes.tolist(), (-nus).tolist()):
        while env_s:
            x = (env_b[-1] - b) / (s - env_s[-1])
            if x > env_x[-1]:
                break
            del env_s[-1], env_b[-1], env_x[-1]
        env_x.append(max(x, 0.0) if env_s else 0.0)
        env_s.append(s)
        env_b.append(b)
    if env_s[-1] <= 0.0:
        raise DivergentIntegral(f"K({eps}): the tangent minorant never grows")
    s, b, x0 = (np.array(v) for v in (env_s, env_b, env_x))
    width = np.append(np.diff(x0), math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = eps * s
        part = np.where(s > 0.0, -np.expm1(-rate * width) / rate, width)
    k = math.fsum((np.exp(-eps * (s * x0 + b)) * part).tolist())
    if not math.isfinite(k):
        raise DivergentIntegral(f"K({eps}) of the tangent minorant overflows")
    return k


def _lam1_candidates(phi: PhiFunction, w_lo: float) -> list[float]:
    b = phi.domain.hi
    if math.isfinite(b):
        # dyadic approach to the top of a bounded domain
        return [w_lo + (b - w_lo) * (1.0 - 2.0 ** -k) for k in range(1, 15)]
    cands = [2.0 * 2.0 ** k for k in range(14)]
    return [c for c in cands if c >= w_lo] or [w_lo]


def absorb_normalization(phi: PhiFunction, c1: float, m_bound: float,
                         w_lo: float) -> tuple[float, float]:
    """Find (lam1, c2 <= c1) with phi(c1*lam) - ln(M) >= phi(c2*lam) for lam >= lam1.

    lam1 runs over a geometric ladder (dyadic approach to the top for a
    bounded domain); at the first lam1 admitting a feasible c2 the largest
    one wins: the least critical dilation of the 128-point verification
    grid, each searched below c1 (:func:`_largest_dilation`).  Larger c2
    means a smaller final dilation, hence a tighter envelope.
    """
    lnM = math.log(m_bound)
    if lnM <= 0.0:
        return max(w_lo, phi.domain.lo), c1

    lo, top, b = phi.domain.lo, phi.domain.top(), phi.domain.hi
    for lam1 in _lam1_candidates(phi, w_lo):
        ver_hi = min(top, max(2.0 ** 20, 4.0 * lam1)) if not math.isfinite(b) else top
        if lam1 >= ver_hi:
            continue
        lams = np.geomspace(lam1, ver_hi, 128)
        if np.any(c1 * lams >= b):
            continue
        ceiling = _values_at(phi, c1, lams) - lnM + _ABS_TOL
        c_lo = np.maximum(lo / lams, 1e-12)
        c2 = _largest_dilation(phi, lams, ceiling, c_lo, c1)
        if c2 is None:
            continue
        # growth sanity at the top t of an unbounded verification window: the
        # slack phi(c1*t) - ln(M) - phi(c2*t) should not fall below its value at 0.8*t
        if not math.isfinite(b):
            v = _values_at(phi, np.array([c1, c1, c2, c2]), lams[-1] * np.array([1.0, 0.8] * 2))
            if v[0] - lnM - v[2] < v[1] - lnM - v[3] - _ABS_TOL:
                continue
        return float(lam1), float(c2)
    raise AbsorptionFailedError(
        f"no (lam1, c2) absorbs ln(M)={lnM:.4g} under c1={c1:.4g}"
    )


# --------------------------------------------------------------------------
# The envelope
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerEnvelopeCertificate:
    """Constants realized by the unilateral chain."""

    eps: float
    m_bound: float
    c1: float
    c2: float
    dilation: float           # a = 1/(c2*(1-eps)) >= 1: the chain reads phi* at a*x
    lam1: float
    mu1: float                # lam1/(1-eps): linear-branch slope
    x_valid_from: float
    annotations: tuple = ()
    diagnostics: dict = field(default_factory=dict)


def _exponents(phi: PhiFunction, cert: LowerEnvelopeCertificate,
               nonneg_offset: float, xs: np.ndarray) -> np.ndarray:
    """h(x) = max(mu1*x - offset, sup_{mu>=mu1} [mu*x - phi(c_tilde*mu)]) at each x.

    With lam = c_tilde*mu the supremum is phi_R*(a*x), a = 1/c_tilde, for
    phi restricted to R = [max(c2*lam1, lo), c2*b): one conjugate of phi
    itself, closed forms and slope limit included.  Where that conjugate
    diverges, or its maximizer stops at ``LAMBDA_CAP``, the chain certifies
    nothing: h is +inf and the envelope clamps to the trivial bound.
    """
    dom = phi.domain
    restricted = replace(
        phi, domain=replace(dom, lo=max(cert.c2 * cert.lam1, dom.lo), hi=cert.c2 * dom.hi),
        # a derivative-free search settles just below the cap, where the cap test
        # misses it; without the limit the scan refuses there instead
        slope_lim=phi.slope_lim if phi.deriv is not None else None)
    stars, arg, errors = conjugate_values(restricted, cert.dilation * xs)
    _inf_where_unbounded(stars, errors)
    stars[(arg == LAMBDA_CAP) & (not restricted.domain.bounded)] = math.inf
    return np.maximum(cert.mu1 * xs - nonneg_offset, stars)


def unilateral_lower_envelope(
    phi: PhiFunction,
    eps: float,
    m_surrogate: float,
    x_grid: Sequence[float],
    nonnegative: bool = True,
) -> tuple[TailEnvelope, LowerEnvelopeCertificate]:
    """Run the full unilateral chain and emit the lower envelope for x >= 1.

    ``m_surrogate`` is the finite normalization bound (from
    :func:`m_surrogate_from_upper` when an upper envelope is available, a
    caller-supplied constant otherwise).  ``nonnegative`` states whether the
    underlying variable is almost surely nonnegative; when it is not, the
    linear branch pays an additive ln(2) (the tail at 0 may be as large
    as 1/2, not 1).  A ``phi`` that stays bounded toward the top of a
    bounded domain certifies nothing: the certificate is annotated
    ``DegenerateBoundedTop`` and every log value is -inf.
    """
    if not (0.0 < eps < 1.0):
        raise InputError(f"eps must be in (0, 1), got {eps}")
    if not (m_surrogate > 0 and math.isfinite(m_surrogate)):
        raise InputError("m_surrogate must be finite and positive")
    xs = _checked_grid(x_grid, "x_grid")
    xs = xs[xs >= 1.0]
    if xs.size == 0:
        raise InputError("x_grid has no points at or above x_valid_from = 1")

    cert_w = certify_dilation_dominance(phi)

    annotations = []
    lam1, c2 = absorb_normalization(phi, cert_w.c1, m_surrogate,
                                    cert_w.lam_range[0])
    a = 1.0 / (c2 * (1.0 - eps))
    mu1 = lam1 / (1.0 - eps)

    # for a bounded domain the biconjugation step needs the conjugate lower
    # bound to blow up toward the top (phi(lam) -> inf as lam -> b); when phi
    # stays bounded there the chain is vacuous and the envelope clamps
    degenerate = False
    if phi.domain.bounded:
        span = phi.domain.hi - phi.domain.lo
        near = phi.value(phi.domain.lo + span * (1.0 - 1e-6))
        nearer = phi.value(phi.domain.lo + span * (1.0 - 1e-12))
        if nearer < near + 5.0:
            degenerate = True
            annotations.append("DegenerateBoundedTop")

    cert = LowerEnvelopeCertificate(
        eps=eps, m_bound=m_surrogate, c1=cert_w.c1, c2=c2, dilation=a,
        lam1=lam1, mu1=mu1, x_valid_from=1.0,
        annotations=tuple(annotations),
        diagnostics={"w_margin": cert_w.margin, "lam_range": cert_w.lam_range},
    )

    offset = 0.0 if nonnegative else math.log(2.0)
    if degenerate:
        log_vals = np.full(xs.size, -math.inf)
    else:
        log_vals = np.minimum(-_exponents(phi, cert, offset, xs), 0.0)

    env = TailEnvelope(
        x=xs, log_values=log_vals, side=LOWER,
        provenance="unilateral-mgf-floor-chain",
        valid_from=cert.x_valid_from,
    )
    return env, cert
