"""Ground truth for validation: reference laws, quadrature, seeded sampling,
and the battery that checks every envelope against a law.

Each reference distribution carries an exact log tail, an exact (closed-form,
series or Gauss-Hermite) log-MGF with its domain, and a deterministic
sampler.  Sampling is inverse-transform from Philox4x64-10 counter-based
raw output, so streams are reproducible bit-for-bit for a given seed.

The module needs numpy and the standard library only.  Its three special
functions are in-package kernels, checked against scipy.special and mpmath
in ``tests/test_special.py``:

* ``log_ndtr``: ln of the standard normal CDF, from ``math.erfc`` with its
  argument's rounding corrected, and an asymptotic series below x = -37;
* ``ndtri``: the standard normal quantile, a direct rational approximation
  in three regions, as laid out by Wichura (AS 241, 1988), whose
  coefficients ``scripts/fit_ndtri.py`` fits at 50 digits;
* ``expit``: the logistic function, split by sign so that exp never
  overflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.random import Philox

from .envelope import UPPER, TailEnvelope, chernoff_envelope
from .errors import InputError, NotConvergedError, TailboundsError
from .functions import PhiFunction, conjugate

# --------------------------------------------------------------------------
# Quadrature
# --------------------------------------------------------------------------

# Gauss-Kronrod 21-point rule on [-1, 1] (Piessens et al., QUADPACK, 1983):
# the positive Kronrod nodes, their weights followed by the centre's, and
# the weights of the embedded 10-point Gauss rule on _XK[1::2]
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_GK_NODES = np.array(_XK + (0.0,) + tuple(-x for x in reversed(_XK)))
_GK_KRONROD = np.array(_WK + tuple(reversed(_WK[:-1])))
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _WG
_GK_GAUSS[11:20:2] = _WG[::-1]
_GK_WEIGHTS = np.stack([_GK_KRONROD, _GK_GAUSS], axis=1)
_ROUNDOFF = 50.0 * np.finfo(float).eps
# the interpolant through a panel's 21 node values, at the panel's two ends
# (barycentric weights), and the share of the width outside the outer nodes
_GK_BARY = 1.0 / np.prod(_GK_NODES[:, None] - _GK_NODES[None, :]
                         + np.eye(21), axis=1)
_GK_ENDS = np.stack([w / w.sum() for w in (_GK_BARY / (-1.0 - _GK_NODES),
                                           _GK_BARY / (1.0 - _GK_NODES))], axis=1)
_GK_BLIND = 0.5 * (1.0 - _XK[0])


def _gk21(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """GK21 values, QUADPACK error estimates and interpolated end values
    (n x 2) on the panels [lo, hi].

    ``f`` is called once, on all 21 nodes of every panel.
    """
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = np.asarray(f((c[:, None] + h[:, None] * _GK_NODES).ravel()), dtype=float)
    fv = fv.reshape(lo.size, 21)
    k, g = (fv @ _GK_WEIGHTS).T
    err = np.abs(h * (k - g))
    # QUADPACK's scaling by the mean absolute deviation, and its round-off floor
    dev = h * (np.abs(fv - 0.5 * k[:, None]) @ _GK_KRONROD)
    ratio = np.divide(200.0 * err, dev, out=np.ones_like(dev), where=dev > 0.0)
    err = np.where(dev > 0.0, dev * np.minimum(1.0, ratio ** 1.5), err)
    return h * k, np.maximum(err, _ROUNDOFF * h * (np.abs(fv) @ _GK_KRONROD)), fv @ _GK_ENDS


def _edge_errors(lo: np.ndarray, hi: np.ndarray, ends: np.ndarray,
                 left_end: Optional[float]) -> np.ndarray:
    """Error bounds from the panels' disagreement at the edges they share.

    A kink closer to a panel's edge than its outermost node leaves no trace
    in the panel's own nodes.  The interpolants of the two panels that share
    that edge then disagree there, and the kink's error is at most that
    disagreement times the width beyond the outer node.  ``left_end`` is the
    previous window's interpolated value at ``lo.min()``, if any.
    """
    first = 0.0 if left_end is None else abs(left_end - ends[lo.argmin(), 0])
    if lo.size == 1:  # most windows
        return _GK_BLIND * (hi - lo) * first
    order = lo.argsort(kind="stable")
    gaps = np.empty(lo.size + 1)
    gaps[0], gaps[-1] = first, 0.0
    gaps[1:-1] = np.abs(ends[order[:-1], 1] - ends[order[1:], 0])
    out = np.empty_like(lo)
    out[order] = _GK_BLIND * (hi - lo)[order] * (gaps[:-1] + gaps[1:])
    return out


# quadrature's error target, absolute and relative
QUAD_TOL = 1e-10
# a semi-infinite integral stops once a window adds less than this share
QUAD_REL_TAIL = 1e-16
# windows of geometrically growing width before NotConvergedError
QUAD_MAX_WINDOWS = 160


def _adaptive_gk21(f, a: float, b: float, base: float, limit: int,
                   left_end: Optional[float] = None) -> tuple[float, float, bool, float]:
    """Integrate f over [a, b] by bisecting GK21 panels.

    Stops when the summed error estimate is within max(QUAD_TOL, QUAD_TOL *
    |base + value|), ``base`` being what earlier windows contributed, or when
    ``limit`` panels are in use.  Each step bisects the fewest worst panels
    whose removal would meet the target, all in one call of f.  Returns
    (value, error estimate, whether the panel limit stopped it, the last
    panel's interpolated value at b).  A panel's estimate is at least its
    ``_edge_errors`` bound, ``left_end`` being the interpolated value at a
    of the window before.

    The estimates of a bisected panel's halves are scaled up, where needed,
    to add up to how far their sum moved from the panel's value.  QUADPACK's
    estimate alone can fall tenfold short on a panel holding a kink, where
    the 10- and 21-point rules happen to agree, and a kink's error does not
    shrink steadily with the width: the move catches a half that is worse
    than its parent.  On a smooth integrand the move is the parent's own
    error, so the scaling costs at most one further bisection.
    """
    lo, hi = np.array([a]), np.array([b])
    val, own, ends = _gk21(f, lo, hi)
    while True:
        total, err_sum = float(val.sum()), float(own.sum())
        target = max(QUAD_TOL, QUAD_TOL * abs(base + total))
        room = limit - lo.size
        err = own
        # the edge bounds are only needed once the panels' own estimates pass
        if err_sum <= target or room <= 0:
            err = np.maximum(own, _edge_errors(lo, hi, ends, left_end))
            err_sum = float(err.sum())
            if err_sum <= target or room <= 0:
                return total, err_sum, err_sum > target, float(ends[hi.argmax(), 1])
        order = np.argsort(-err, kind="stable")
        rest = err_sum - np.cumsum(err[order])
        n = min(int(np.argmax(rest <= target)) + 1, room)
        split, keep = order[:n], order[n:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_own, new_ends = _gk21(f, new_lo, new_hi)
        pair = np.tile(new_own[:n] + new_own[n:], 2)
        moved = np.tile(np.abs(val[split] - new_val[:n] - new_val[n:]), 2)
        share = np.divide(new_own, pair, out=np.full(2 * n, 0.5), where=pair > 0.0)
        new_own = np.maximum(new_own, moved * share)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        own = np.concatenate([own[keep], new_own])
        ends = np.concatenate([ends[keep], new_ends])


def quadrature(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
               details: Optional[dict] = None) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod quadrature of f over [a, b], b may be inf.

    Each window is integrated by bisecting 21-point Gauss-Kronrod panels
    until the error estimate is within max(QUAD_TOL, QUAD_TOL*|value|),
    with at most 400 panels on a finite range and 200 per window.
    Semi-infinite ranges use geometric window growth until the last window
    contributes less than ``QUAD_REL_TAIL`` of the running total.  Returns
    (value, error_estimate); raises NotConvergedError when a finite range
    ends more than ten times over that target or the window cap
    (``QUAD_MAX_WINDOWS``) is reached.

    ``f`` maps a float array elementwise, and is called once per
    refinement step with every new node.  When ``details`` is a dict it
    receives the truncation point, the error estimate and
    ``capped_windows``, the number of windows that hit their panel limit.

    A kink closer to a panel's edge than the outermost node (0.22% of the
    panel's width) is invisible to the rule.  The interpolants of the
    panels on either side of that edge disagree, which bounds the error and
    gets the panel bisected (``_edge_errors``).  At the edge between two
    windows only the later window is refined, so a kink just before a
    window's right end can still be missed, as QUADPACK misses it.
    """
    if math.isfinite(b):
        val, err, capped, _ = _adaptive_gk21(f, a, b, 0.0, 400)
        if err > max(QUAD_TOL, QUAD_TOL * abs(val)) * 10:
            raise NotConvergedError("finite-range quadrature error too large",
                                    partial=val, diagnostic={"err": err})
        if details is not None:
            details.update(truncation=float(b), abs_error=float(err),
                           capped_windows=int(capped))
        return float(val), float(err)

    total, err_total, capped, end = 0.0, 0.0, 0, None
    left = a
    width = max(1.0, abs(a))
    for k in range(QUAD_MAX_WINDOWS):
        right = left + width
        val, err, hit, end = _adaptive_gk21(f, left, right, total, 200, end)
        total += val
        err_total += err
        capped += hit
        scale = max(abs(total), 1e-300)
        if k >= 2 and abs(val) < QUAD_REL_TAIL * scale:
            if details is not None:
                details.update(truncation=float(right), abs_error=float(err_total),
                               capped_windows=capped)
            return float(total), float(err_total)
        left = right
        width *= 2.0
    raise NotConvergedError(
        "semi-infinite quadrature: window cap reached with non-negligible tail",
        partial=total,
        diagnostic={"last_window": (left, width), "last_contribution": val,
                    "capped_windows": capped},
    )


# --------------------------------------------------------------------------
# Special functions: the normal tail, its log, its quantile, the logistic
# --------------------------------------------------------------------------

_SQRT1_2 = math.sqrt(0.5)
_SQRT1_2_LO = -4.833646656726457e-17  # 1/sqrt(2) - _SQRT1_2
_INV_SQRTPI = 1.0 / math.sqrt(math.pi)
_LOG_SQRT_2PI = 0.9189385332046728


def _split(a: float) -> tuple[float, float]:
    """Veltkamp's split of a into two 26-bit halves, a == hi + lo."""
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _product_error(a: float, b: float) -> float:
    """a*b - fl(a*b), exactly (Dekker's two-product)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _phi_q(x: float) -> float:
    """Upper normal tail Q(x) = erfc(x/sqrt(2))/2, to within a few ulp.

    erfc's condition number at z is about 2z^2, so the rounding of
    z = x/sqrt(2) alone would cost about x^2 ulp.  The rounding error dz is
    taken exactly, from a double-double 1/sqrt(2), and applied to first
    order: erfc(z + dz) = erfc(z) - dz * 2 exp(-z^2) / sqrt(pi).
    """
    z = x * _SQRT1_2
    q = 0.5 * math.erfc(z)
    if abs(x) < 40.0:
        dz = _product_error(x, _SQRT1_2) + x * _SQRT1_2_LO
        q -= dz * math.exp(-z * z) * _INV_SQRTPI
    return q


def _log_ndtr_one(x: float) -> float:
    if x > 0.0:
        return math.log1p(-_phi_q(x))
    if x >= -37.0:
        return math.log(_phi_q(-x))
    # 0.5 erfc underflows: Phi(x) = phi(x)/|x| * sum_k (-1)^k (2k-1)!! / x^(2k)
    t = 1.0 / (x * x)
    term = series = 1.0
    k = 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) * t
        series += term
        k += 1
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI + math.log(series)


def log_ndtr(x) -> np.ndarray:
    """ln Phi(x), the log of the standard normal CDF, elementwise.

    One scalar evaluation per element: the callers' arrays hold at most a
    few hundred points.
    """
    x = np.asarray(x, dtype=float)
    return np.array([_log_ndtr_one(t) for t in x.ravel().tolist()]).reshape(x.shape)


def expit(d) -> np.ndarray:
    """The logistic function 1 / (1 + e^-d), elementwise."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# Rational approximations of the normal quantile, (numerator, denominator)
# with the highest degree first, from ``scripts/fit_ndtri.py``: x / q in
# t = 0.180625 - q^2 for |q| <= 0.425, q = u - 1/2; then |x| in r - 1.6 for
# r = sqrt(-ln min(u, 1 - u)) <= 5, and in r - 5 above
_NDTRI_CENTRE = (
    (2532.968244607674, 33679.500840188644, 67644.0189977642, 46108.50759685578,
     13769.474982309319, 1974.8653346380079, 133.24219621964983, 3.3871328727963665),
    (5271.685505273081, 28923.96013883249, 39509.892919939615, 21292.853010078066,
     5407.8689600949165, 688.2429146405924, 42.34301017732299, 1.0),
)
_NDTRI_NEAR = (
    (0.0007707230371973786, 0.02260249064450112, 0.24060184248773492, 1.265535297714908,
     3.6380703855959893, 5.760532996716051, 4.627369448833493, 1.4234371107496837),
    (1.053127236131669e-09, 0.0005448913396947963, 0.015117157738236202,
     0.1473933181127769, 0.6872716243294084, 1.6725891361624319, 2.0511062536341798, 1.0),
)
_NDTRI_FAR = (
    (2.0213414007472266e-07, 2.7220380252810085e-05, 0.0012459804645258469,
     0.026579899909080267, 0.2969028166537738, 1.7860195517115895, 5.465390691729637,
     6.657904643501103),
    (2.070412270077239e-15, 1.4292947892261246e-07, 1.853341645345039e-05,
     0.0007888677684563938, 0.014899273100415113, 0.1370558113521009,
     0.6000733906297824, 1.0),
)
_NDTRI_CHUNK = 1 << 15  # a chunk's few work arrays stay in cache


def _rational(coeffs, t: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """P(t) / Q(t) by Horner's rule, in place in ``out`` when given."""
    p, q = coeffs
    num = np.multiply(t, p[0], out=out)
    num += p[1]
    den = t * q[0]
    den += q[1]
    for a, b in zip(p[2:], q[2:]):
        num *= t
        num += a
        den *= t
        den += b
    num /= den
    return num


def _ndtri_chunk(u: np.ndarray, x: np.ndarray) -> None:
    q = u - 0.5
    t = q * q
    np.subtract(0.180625, t, out=t)  # negative where |q| > 0.425
    _rational(_NDTRI_CENTRE, t, out=x)
    x *= q
    tail = np.flatnonzero(t < 0.0)
    if tail.size:
        qt = q[tail]
        # min(u, 1 - u), exactly: 1 - u == 0.5 - q for u > 0.5
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(-np.log(np.where(qt < 0.0, u[tail], 0.5 - qt)))
            xt = _rational(_NDTRI_NEAR, r - 1.6)
            far = np.flatnonzero(r > 5.0)
            if far.size:
                xt[far] = _rational(_NDTRI_FAR, r[far] - 5.0)
        xt[r == math.inf] = math.inf
        x[tail] = np.copysign(xt, qt)


def ndtri(u) -> np.ndarray:
    """The standard normal quantile Phi^-1(u), elementwise.

    A direct rational approximation, without refinement, within a few ulp
    for u down to the smallest subnormal; -inf and inf at 0 and 1, nan
    outside [0, 1].  Evaluated a cache-sized chunk at a time.
    """
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    x = np.empty_like(flat)
    for k in range(0, flat.size, _NDTRI_CHUNK):
        _ndtri_chunk(flat[k:k + _NDTRI_CHUNK], x[k:k + _NDTRI_CHUNK])
    return x.reshape(u.shape)


# --------------------------------------------------------------------------
# Seeded uniform stream
# --------------------------------------------------------------------------


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """n uniforms in (0, 1) from Philox4x64-10 keyed by ``seed``.

    Counter-based: the stream is a pure function of (seed, index) and
    identical across platforms.  Philox keys lie in [0, 2**128).
    """
    if not (0 <= int(seed) < 2 ** 128 and int(n) >= 0):
        raise InputError(f"need a seed in [0, 2**128) and a sample count >= 0, got seed {seed}, "
                         f"count {n}")
    # ((raw >> 11) + 0.5) * 2**-53, in place: the 53 high bits, centred in
    # their cell
    raw = Philox(key=int(seed)).random_raw(int(n))
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


# --------------------------------------------------------------------------
# Reference distributions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleDistribution:
    """A reference law with exact log tail, exact log-MGF, and seeded sampler.

    ``density`` and ``log_tail`` (ln T, the law's one statement of its tail)
    map float arrays elementwise, so quadrature and the exponential tail
    function evaluate them a panel at a time.
    """

    name: str
    inverse_cdf: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    density: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    log_tail: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    cramer: bool = True
    mgf_exponent: Optional[PhiFunction] = None
    nonnegative: bool = True

    def exact_tail(self, x) -> np.ndarray:
        out = np.exp(self.log_tail(np.asarray(x, dtype=float)))
        return out if np.ndim(x) else float(out)

    def sample(self, seed: int, n: int) -> np.ndarray:
        return self.inverse_cdf(uniform_stream(seed, n))

    def exponential_tail_fn(self) -> PhiFunction:
        """-ln(tail) on [0, inf); identically 0 below the support."""
        return PhiFunction.from_callable(lambda x: -self.log_tail(x), 0.0, math.inf,
                                         convex=None, label=f"neglog-tail[{self.name}]",
                                         vectorized=True)


def _normal_density(x, s: float):
    return np.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2 * math.pi))


def gaussian(scale: float = 1.0) -> OracleDistribution:
    """Centered normal with standard deviation ``scale``."""
    if not 0 < scale < math.inf:
        raise InputError(f"scale must be positive and finite, got {scale!r}")
    s = float(scale)
    return OracleDistribution(
        name=f"gaussian(scale={s})" if s != 1.0 else "gaussian",
        inverse_cdf=lambda u, s=s: s * ndtri(u),
        cramer=True,
        mgf_exponent=PhiFunction.quadratic(coeff=0.5 * s * s, lo=0.0),
        density=lambda x, s=s: _normal_density(x, s),
        nonnegative=False,
        log_tail=lambda x, s=s: np.where(x > 0, log_ndtr(-x / s), 0.0),
    )


def exponential_unit() -> OracleDistribution:
    """Exponential(1): tail exp(-x), log-MGF -ln(1-lam) on [0, 1)."""
    return OracleDistribution(
        name="exponential",
        inverse_cdf=lambda u: -np.log1p(-u),
        cramer=True,
        log_tail=lambda x: -np.maximum(x, 0.0),
        mgf_exponent=PhiFunction.from_callable(
            lambda l: -np.log1p(-l), 0.0, 1.0,
            deriv=lambda l: 1.0 / (1.0 - l), deriv2=lambda l: 1.0 / ((1.0 - l) * (1.0 - l)),
            convex=True, label="exp-mgf-exponent", vectorized=True,
        ),
        density=lambda x: np.where(x >= 0, np.exp(-np.maximum(x, 0.0)), 0.0),
        nonnegative=True,
    )


# the longest moment series a Weibull row takes while the Gauss-Hermite rule
# can take it instead
_SERIES_TERMS = 1024
# rows x terms of one series work array, about half a megabyte
_SERIES_CHUNK = 1 << 16
# the Gauss-Hermite rule takes a row only if its tilted peak lies this many
# widths above x = 0, where the density's x^(m-1) is not smooth; for m from
# 1.01 to 1.08 it misses 1e-14 against mpmath at 5 widths, not at 6.5
_GH_CLEAR = 8.0
# the least shape m > 1 a Weibull law takes: the rule's slope carries a
# rounding error of about 1e-16 / (m-1) relative; at m = 1.01 its two orders
# differ by more than _GH_AGREE, at m = 1.02 it is within 6e-15 of mpmath
_WEIBULL_M_MIN = 1.05


def _weibull_log_coefficients(m: float, n: int) -> np.ndarray:
    """ln(E X^k / k!) = lgamma(1 + k/m) - lgamma(k + 1) for k < n."""
    return np.array([math.lgamma(1.0 + k / m) - math.lgamma(k + 1.0)
                     for k in range(n)])


def _series_terms(m: float, lams: np.ndarray) -> np.ndarray:
    """The moment series' term count for each lam: a power of two, at least
    32, ten standard deviations past the index of the largest term."""
    with np.errstate(over="ignore"):
        top = (lams / m ** (1.0 / m)) ** (m / (m - 1.0))
        need = np.maximum(32.0, top + 10.0 * np.sqrt(top * m / (m - 1.0)) + 20.0)
    return np.exp2(np.ceil(np.log2(need)))


def _series_rows(log_c: np.ndarray, lams: np.ndarray, order: int) -> np.ndarray:
    """ln M(lam) (order 0), or its first or second lam-derivative (order 1
    or 2), from the terms exp(log_c[k] + k ln lam) of M's moment series, for
    each lam > 0; nan where the terms are not shown to have ended.

    Every term is positive and the terms are log-concave in k, so once the
    last term t falls by the ratio r < 1 the rest sum to at most t r/(1-r).
    A row is kept only if that bound is below e^-40 of its largest term.
    Under the normalized terms the index k has mean lam (ln M)', and
    variance less mean lam^2 (ln M)'': the mean of (k - mean)^2 - k, or of
    k(k - 1), less the mean squared, where the mean is below 1.
    """
    k = np.arange(log_c.size, dtype=float)
    t = np.log(lams)[:, None] * k
    t += log_c
    top = t.max(axis=1)
    log_r = t[:, -1] - t[:, -2]
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = t[:, -1] + log_r - np.log(-np.expm1(log_r))
    ended = (log_r < 0.0) & (tail < top - 40.0)
    e = np.exp(t - top[:, None])
    rest = e[:, 1:].sum(axis=1)
    if order == 1:
        out = (e * k).sum(axis=1) / (lams * (e[:, 0] + rest))
    elif order == 2:
        total = e[:, 0] + rest
        mean = (e * k).sum(axis=1) / total
        dev = k - mean[:, None]
        centred = (e * (dev * dev - k)).sum(axis=1) / total
        # below mean 1 each centred term cancels to O(lam); k(k-1) does not
        falling = (e * (k * (k - 1.0))).sum(axis=1) / total - mean * mean
        out = np.where(mean < 1.0, falling, centred) / (lams * lams)
    else:
        # the k = 0 term is 1: with it the largest, ln M = log1p(rest)
        out = np.where(t[:, 0] == top, np.log1p(rest), top + np.log(e[:, 0] + rest))
    return np.where(ended, out, math.nan)


# probabilists' Gauss-Hermite orders of the peak-centred rule, whose results
# must agree within _GH_AGREE relative
_GH_ORDERS = (24, 32)
_GH_AGREE = 1e-14
# Newton steps for the tilted peak, from (lam/m)^(1/(m-1)); a fixed count
# keeps each row's arithmetic its own, and the exponent carries whatever
# residual is left
_GH_NEWTON = 6


@functools.lru_cache(maxsize=None)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule for the weight e^{-u^2/2},
    built on first use; read-only, as every caller shares them."""
    u, w = hermegauss(n)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _hermite_rows(m: float, lams: np.ndarray, order: int) -> np.ndarray:
    """ln M(lam), or its first or second lam-derivative (order 0, 1 or 2),
    by a peak-centred Gauss-Hermite rule.

    With x = xh + s u around the tilted peak xh of the exponent
    g(x) = (m-1) ln x + lam x - x^m, and s = (-g''(xh))^(-1/2), the exponent
    relative to the peak is, for eps = s u / xh,

        (m-1)(log1p(eps) - eps) - xh^m ((1+eps)^m - 1 - m eps) + r s u

    (r = g'(xh), Newton's residual), so no two large terms cancel at a node.
    The slope is xh + s E[u] under the tilted law, and the second
    derivative, the tilted variance, s^2 E[(u - E[u])^2], or nan where the
    peak lies 1e12 widths or more above 0.  The orders of
    ``_GH_ORDERS`` must agree within ``_GH_AGREE`` relative, and the higher
    is kept; a row where they do not raises NotConvergedError naming m and
    lam.  The second derivative only steers root searches: it takes the
    higher order alone, with no agreement test.
    """
    xh = (lams / m) ** (1.0 / (m - 1.0))
    for _ in range(_GH_NEWTON):
        xp = xh ** (m - 1.0)
        xh = xh + ((m - 1.0) / xh + lams - m * xp) * xh / ((m - 1.0) * (1.0 / xh + m * xp))
    xp = xh ** (m - 1.0)
    xm = xh * xp
    r = (m - 1.0) / xh + lams - m * xp
    s = xh / np.sqrt((m - 1.0) * (1.0 + m * xm))
    # ln M at u = 0, less ln of the rule's sum
    base = math.log(m) + (m - 1.0) * np.log(xh) + xh * (lams - xp) + np.log(s)

    def rule(n: int) -> np.ndarray:
        u, w = _hermite_rule(n)
        eps = (s / xh)[:, None] * u
        # non-finite rows fail the agreement test below
        with np.errstate(all="ignore"):
            lp = np.log1p(eps)
            expo = (m - 1.0) * (lp - eps) - xm[:, None] * (np.expm1(m * lp) - m * eps)
            # x = xh (1 + eps) <= 0 lies outside the support
            expo = np.where(eps > -1.0, expo, -math.inf)
            expo += (r * s)[:, None] * u + 0.5 * u * u
            # r s is large where xh's rounding spans many widths (m near 1,
            # large lam); the shift by each row's largest exponent keeps exp
            # in range there
            top = expo.max(axis=1)
            e = w * np.exp(expo - top[:, None])
            total = e.sum(axis=1)
            if order == 2:
                dev = u - ((e * u).sum(axis=1) / total)[:, None]
                return s * s * ((e * (dev * dev)).sum(axis=1) / total)
            if order == 1:
                return xh + s * ((e * u).sum(axis=1) / total)
            return base + top + np.log(total)

    if order == 2:
        # the rule's exponent carries a rounding error of about 1e-16 xh/s at
        # its nodes, and its variance one of up to 1.5e-16 xh/s relative;
        # from 1e12 widths s above 0 it reads nan, and the root search halves
        return np.where(xh < 1e12 * s, rule(_GH_ORDERS[-1]), np.nan)
    low, out = (rule(n) for n in _GH_ORDERS)
    with np.errstate(invalid="ignore"):
        bad = np.flatnonzero(~(np.abs(out - low) <= _GH_AGREE * np.abs(out)))
    if bad.size:
        lam = float(lams[bad[0]])
        raise NotConvergedError(
            f"weibull({m}) log-MGF at lam = {lam!r}: Gauss-Hermite orders "
            f"{_GH_ORDERS[0]} and {_GH_ORDERS[1]} disagree", diagnostic={"m": m, "lam": lam})
    return out


def _weibull_rows(m: float, lams, order: int, table: list):
    """ln E exp(lam*X), or its first or second lam-derivative (order 0, 1
    or 2), for each lam.

    X has density m x^{m-1} e^{-x^m}, m > 1, so E exp(lam X) is the series
    sum_k Gamma(1 + k/m) lam^k / k! of positive terms.  A row sums it if it
    takes at most ``_SERIES_TERMS`` terms, or if the tilted peak lies fewer
    than ``_GH_CLEAR`` widths above 0 (at most 4,096 terms for m >= 1.05);
    a row whose series is not shown to have ended tries twice the terms.
    The other rows take the peak-centred Gauss-Hermite rule
    (``_hermite_rows``).  Each row's path and arithmetic are its own, so its
    result does not depend on the batch it is in.  ``table`` holds the
    coefficients' logs, computed on their first use and lengthened when a
    row needs more.

    At lam == 0 the log-MGF is 0, its slope E X = Gamma(1 + 1/m) and its
    second derivative Var X = Gamma(1 + 2/m) - Gamma(1 + 1/m)^2.
    Scalars in, floats out; arrays in, arrays of the same shape out.
    """
    lams = np.asarray(lams, dtype=float)
    flat = lams.ravel()
    out = np.zeros(flat.size)
    if order:
        mean = math.gamma(1.0 + 1.0 / m)
        out[flat == 0.0] = mean if order == 1 else math.gamma(1.0 + 2.0 / m) - mean * mean
    todo = np.flatnonzero(flat != 0.0)
    terms = _series_terms(m, flat)
    # the peak lies just above (lam/m)^(1/(m-1)), sqrt((m-1)(1 + m x^m))
    # widths above 0
    with np.errstate(over="ignore"):
        x = (flat / m) ** (1.0 / (m - 1.0))
        near = (m - 1.0) * (1.0 + m * x ** m) < _GH_CLEAR ** 2
    rule = []
    n = 32
    while todo.size:
        if n > _SERIES_TERMS:
            rule.append(todo[~near[todo]])
            todo = todo[near[todo]]
        rows = todo[terms[todo] == n]
        if rows.size:
            if not table or table[0].size < n:
                table[:] = [_weibull_log_coefficients(m, max(n, _SERIES_TERMS))]
            step = _SERIES_CHUNK // n
            for k in range(0, rows.size, step):
                sel = rows[k:k + step]
                out[sel] = _series_rows(table[0][:n], flat[sel], order)
            # a row whose series is not shown to have ended tries twice the terms
            terms[rows[np.isnan(out[rows])]] = 2 * n
            todo = todo[terms[todo] > n]
        n *= 2
    todo = np.concatenate([todo, *rule])
    # rows x nodes of the rule's work arrays, at its higher order, fit one chunk
    step = _SERIES_CHUNK // _GH_ORDERS[-1]
    for k in range(0, todo.size, step):
        sel = todo[k:k + step]
        out[sel] = _hermite_rows(m, flat[sel], order)
    return out.reshape(lams.shape) if lams.ndim else float(out[0])


def _weibull_log_mgf(m: float, lams, table: Optional[list] = None):
    """ln E exp(lam*X) for X with tail exp(-x^m), m > 1, batched over
    ``lams``; ``table`` is the exponent's coefficient holder (a fresh one
    when absent)."""
    return _weibull_rows(m, lams, 0, [] if table is None else table)


def _weibull_log_mgf_deriv(m: float, lams, table: Optional[list] = None):
    """d/dlam ln MGF = E[X e^{lam X}] / E[e^{lam X}], batched."""
    return _weibull_rows(m, lams, 1, [] if table is None else table)


def _weibull_log_mgf_deriv2(m: float, lams, table: Optional[list] = None):
    """d^2/dlam^2 ln MGF, the variance of X under the tilted law, batched;
    it steers the conjugate's root search only."""
    return _weibull_rows(m, lams, 2, [] if table is None else table)


def _weibull_density(x, m: float):
    xp = np.maximum(x, 1e-300)
    return np.where(x > 0, m * xp ** (m - 1.0) * np.exp(-xp ** m), 0.0)


def weibull(m: float) -> OracleDistribution:
    """Stretched/compressed exponential: tail exp(-x^m) on x >= 0, for
    0 < m <= 1 or m >= 1.05."""
    if m <= 0:
        raise InputError("weibull shape m must be positive")
    if 1.0 < m < _WEIBULL_M_MIN:
        raise InputError(f"weibull shape m in (1, {_WEIBULL_M_MIN}) is not supported: "
                         "its log-MGF is not computed to 1e-14 there")
    mm = float(m)
    if mm == 1.0:
        return exponential_unit()
    mgf = None
    if mm > 1.0:
        # the series coefficients, computed on the first series row
        table: list = []
        mgf = PhiFunction.from_callable(
            lambda l, mm=mm: _weibull_log_mgf(mm, l, table), 0.0, math.inf,
            deriv=lambda l, mm=mm: _weibull_log_mgf_deriv(mm, l, table),
            deriv2=lambda l, mm=mm: _weibull_log_mgf_deriv2(mm, l, table),
            convex=True, label=f"weibull({mm})-mgf-exponent",
            slope_lim=math.inf, vectorized=True,
        )
    return OracleDistribution(
        name=f"weibull({mm})",
        inverse_cdf=lambda u, mm=mm: (-np.log1p(-u)) ** (1.0 / mm),
        cramer=bool(mm >= 1.0),
        log_tail=lambda x, mm=mm: -(np.maximum(x, 0.0) ** mm),
        mgf_exponent=mgf,
        density=lambda x, mm=mm: _weibull_density(x, mm),
        nonnegative=True,
    )


def pareto(alpha: float) -> OracleDistribution:
    """Pareto with tail x^{-alpha} for x >= 1; no finite MGF (non-Cramer)."""
    if alpha <= 0:
        raise InputError("pareto alpha must be positive")
    a = float(alpha)
    return OracleDistribution(
        name=f"pareto({a})",
        inverse_cdf=lambda u, a=a: (1.0 - u) ** (-1.0 / a),
        cramer=False,
        log_tail=lambda x, a=a: -a * np.log(np.maximum(x, 1.0)),
        mgf_exponent=None,
        density=lambda x, a=a: np.where(x >= 1, a * np.maximum(x, 1.0) ** (-a - 1.0), 0.0),
        nonnegative=True,
    )


def gaussian_scale_mixture(weight: float, s1: float, s2: float) -> OracleDistribution:
    """Two-component centered normal scale mixture.

    MGF exponent ln(w e^{s1^2 l^2/2} + (1-w) e^{s2^2 l^2/2}); always pinched
    between the component exponents.
    """
    if not (0.0 < weight < 1.0):
        raise InputError("mixture weight must be in (0, 1)")
    w, a, b = float(weight), float(s1), float(s2)

    # ln(w e^{t1} + (1-w) e^{t2}) with t_i = (s_i l)^2 / 2; plain arithmetic
    # and one ufunc, so scalars and arrays agree bit for bit
    lw, l1w = math.log(w), math.log(1.0 - w)

    def exponent(l):
        return np.logaddexp(lw + 0.5 * (a * l) * (a * l), l1w + 0.5 * (b * l) * (b * l))

    def exponent_deriv(l):
        # the weight of the first component under the tilted law
        r1 = expit((lw + 0.5 * (a * l) * (a * l)) - (l1w + 0.5 * (b * l) * (b * l)))
        return l * (a * a * r1 + b * b * (1.0 - r1))

    def icdf(u: np.ndarray) -> np.ndarray:
        # one uniform per draw: split it into component choice + quantile,
        # keeping the stream counter-based
        pick = u < w
        z = np.empty_like(u)
        z[pick] = a * ndtri(np.clip(u[pick] / w, 1e-16, 1 - 1e-16))
        z[~pick] = b * ndtri(np.clip((u[~pick] - w) / (1 - w), 1e-16, 1 - 1e-16))
        return z

    return OracleDistribution(
        name=f"gauss-mixture(w={w},s1={a},s2={b})",
        inverse_cdf=icdf,
        cramer=True,
        log_tail=lambda x: np.where(
            x > 0, np.logaddexp(lw + log_ndtr(-x / a), l1w + log_ndtr(-x / b)), 0.0),
        mgf_exponent=PhiFunction.from_callable(
            exponent, 0.0, math.inf, deriv=exponent_deriv, convex=True,
            label="gauss-mixture-exponent", slope_lim=math.inf, vectorized=True,
        ),
        density=lambda x: w * _normal_density(x, a) + (1 - w) * _normal_density(x, b),
        nonnegative=False,
    )


def suite() -> dict[str, OracleDistribution]:
    """The validation suite used by the sandwich tests and the CLI."""
    return {
        "gaussian": gaussian(),
        "exponential": exponential_unit(),
        "weibull2": weibull(2.0),
        "weibull4": weibull(4.0),
        "pareto3": pareto(3.0),
    }


# --------------------------------------------------------------------------
# Empirical tails
# --------------------------------------------------------------------------


def empirical_tail(samples: np.ndarray, x_grid) -> dict:
    """Exceedance fractions with Wilson-interval halfwidths (z = 1.96)."""
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise InputError("need at least one sample")
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    n, z = s.size, 1.959963984540054
    frac = np.array([np.count_nonzero(s >= x) for x in xs.tolist()]) / n
    half = z * np.sqrt(frac * (1 - frac) / n + z * z / (4 * n * n)) / (1.0 + z * z / n)
    return {"x": xs, "fraction": frac, "wilson_halfwidth": half, "n": n}


# --------------------------------------------------------------------------
# Validation battery
# --------------------------------------------------------------------------


def battery(dist: OracleDistribution, seed: int, mc_samples: int) -> dict:
    """Full sandwich and consistency battery for one reference law.

    Returns ``{check: {"pass": bool, **info}}``.  Every envelope (the
    Chernoff upper, the unilateral chain, the closure, both sides of the
    exact-MGF sandwich) is compared with ln T in one place: it passes when it
    lies on its side to within 1e-12 max(1, |ln T|) nats, and its
    ``min_log_margin`` is its least gap in nats on that side (+inf where it
    and ln T are both -inf; the sandwich's is the least of its sides).  A
    package error in the unilateral chain, the closure, the exact-MGF
    sandwich or the Cramer check (a tail that reaches 0 has no finite
    -ln T) fails that check with its message; any other error
    propagates.  The sample is drawn first, so a bad seed or sample count
    is refused before any quadrature runs.
    """
    # these modules import this one
    from .integrals import cramer_check
    from .lower_bilateral import closure_lower_envelope, exact_mgf_sandwich
    from .lower_unilateral import m_surrogate_from_upper, unilateral_lower_envelope

    emp = empirical_tail(dist.sample(seed, mc_samples), [1.0, 2.0])
    checks: dict[str, dict] = {}

    def record(key: str, ok: bool, **info):
        checks[key] = {"pass": bool(ok), **info}

    def sound(env: TailEnvelope) -> tuple[bool, float]:
        log_t = dist.log_tail(env.x)
        with np.errstate(invalid="ignore"):  # -inf - -inf, set below
            gap = env.log_values - log_t if env.side == UPPER else log_t - env.log_values
        gap[np.isneginf(env.log_values) & np.isneginf(log_t)] = math.inf
        # NaN fails, and so does -inf, even against the infinite slack of ln T = -inf
        ok = (gap > -math.inf) & (gap >= -1e-12 * np.maximum(1.0, np.abs(log_t)))
        return bool(np.all(ok)), float(np.min(gap))

    xs = np.linspace(1.0, 8.0, 15)

    # density/tail consistency by quadrature
    xq = np.linspace(1.0, 6.0, 6)
    errs = [abs(quadrature(dist.density, float(x), math.inf)[0] - t)
            for x, t in zip(xq.tolist(), dist.exact_tail(xq).tolist())]
    record("tail_quadrature", max(errs) < 1e-9, max_abs_err=max(errs))

    phi = dist.mgf_exponent
    if phi is not None:
        # MGF consistency at interior points
        lam_probe = [0.5, 1.5] if phi.domain.top() > 2 else [0.3, 0.7]
        errs = []
        for lam in lam_probe:
            if dist.nonnegative:
                val, _ = quadrature(lambda x, l=lam: np.exp(l * x) * dist.density(x),
                                    0.0, math.inf)
            else:
                val, _ = quadrature(lambda x, l=lam: np.exp(l * x) * dist.density(x)
                                    + np.exp(-l * x) * dist.density(-x), 0.0, math.inf)
            errs.append(abs(val - math.exp(phi.value(lam))) / val)
        record("mgf_consistency", max(errs) < 1e-7, max_rel_err=max(errs))

        # Chernoff side
        ok, margin = sound(chernoff_envelope(xs, conjugate(phi, xs).values))
        record("chernoff_upper", ok, min_log_margin=margin)

        # unilateral chain
        try:
            m_bound = m_surrogate_from_upper(phi, 0.2)
            env_u, cert_u = unilateral_lower_envelope(
                phi, 0.2, m_bound, xs, nonnegative=dist.nonnegative)
            ok, margin = sound(env_u)
            record("unilateral_lower", ok, dilation=cert_u.dilation, c1=cert_u.c1,
                   c2=cert_u.c2, m_surrogate=m_bound, min_log_margin=margin)
        except TailboundsError as exc:
            record("unilateral_lower", False, error=str(exc))

        # bilateral closure with phi1 = phi2 = phi
        try:
            env_b, diag = closure_lower_envelope(phi, phi, xs)
            ok, margin = sound(env_b)
            record("closure_lower", ok, all_clamped=diag.all_clamped, min_log_margin=margin)
        except TailboundsError as exc:
            record("closure_lower", False, error=str(exc))

        # exact-MGF sandwich
        try:
            low_r, up_r, c2 = exact_mgf_sandwich(phi, np.linspace(2.0, 8.0, 13))
            (ok_l, m_l), (ok_u, m_u) = sound(low_r), sound(up_r)
            record("exact_mgf_sandwich", ok_l and ok_u, c2=c2, min_log_margin=min(m_l, m_u))
        except TailboundsError as exc:
            record("exact_mgf_sandwich", False, error=str(exc))

    # damped-integral finiteness of the exponential tail function
    try:
        cert = cramer_check(dist.exponential_tail_fn(), eps_grid=(0.05, 0.2, 0.5))
        finite_all = all(v is not None for v in cert.k_table.values())
        record("cramer", cert.certified == dist.cramer and (finite_all or not dist.cramer),
               certified=cert.certified, expected=dist.cramer)
    except TailboundsError as exc:
        record("cramer", False, error=str(exc))

    # empirical tail against the exact one
    ok_emp = bool(np.all(np.abs(emp["fraction"] - dist.exact_tail(emp["x"]))
                         <= 3.0 * emp["wilson_halfwidth"]))
    record("empirical_tail", ok_emp,
           fractions=emp["fraction"], halfwidths=emp["wilson_halfwidth"])

    return checks
