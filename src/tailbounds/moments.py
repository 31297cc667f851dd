"""Power-level interface: norm envelopes to tail envelopes.

A moment envelope constrains the Lebesgue-Riesz norms |X|_p on p in [1, b).
Setting theta = ln|X| turns a norm envelope into an MGF-exponent envelope
for theta via lam * ln(envelope(lam)), after which the exponential-level
machinery applies; results transfer back through T_X(x) = T_theta(ln x),
valid for x >= e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .envelope import LOWER, UPPER, TailEnvelope
from .errors import InputError, NotCertifiedError
from .functions import PhiFunction, _first_at_one, _read_csv_columns, _stars
from .integrals import CramerCertificate, cramer_check
from .lower_unilateral import LowerEnvelopeCertificate, unilateral_lower_envelope

X_VALID_FLOOR = math.e  # T_X(x) = T_theta(ln x) needs ln x >= 1
_CHAIN_EPS = 0.05  # eps of the unilateral chain behind both moment routes


@dataclass(frozen=True)
class MomentEnvelope:
    """Positive lower (and optional upper) envelopes of p -> |X|_p on [1, b)."""

    lower: PhiFunction
    upper: Optional[PhiFunction] = None

    def __post_init__(self):
        probe = _probe_grid(self.lower.domain)
        low = self.lower.values(probe)
        if np.any(low <= 0):
            raise InputError(f"lower moment envelope must be positive "
                             f"(p={probe[np.argmax(low <= 0)]})")
        if self.upper is not None:
            lo = max(self.lower.domain.lo, self.upper.domain.lo)
            hi = min(self.lower.domain.top(), self.upper.domain.top())
            if not math.isfinite(hi):
                hi = max(50.0, 10.0 * max(lo, 1.0))
            if hi > lo:
                ps = np.linspace(lo, hi, 64)
                lw, up = self.lower.values(ps), self.upper.values(ps)
                bad = (up <= 0) | (lw > up * (1 + 1e-9))
                if bad.any():
                    k = int(np.argmax(bad))
                    if up[k] <= 0:
                        raise InputError(f"upper moment envelope must be positive (p={ps[k]})")
                    raise InputError(
                        f"moment envelopes cross at p={ps[k]}: lower {lw[k]} > upper {up[k]}"
                    )

    @property
    def p_domain(self) -> tuple[float, float]:
        return (self.lower.domain.lo, self.lower.domain.hi)


def _probe_grid(domain) -> np.ndarray:
    hi = domain.top()
    if not math.isfinite(hi):
        hi = max(50.0, 10.0 * max(domain.lo, 1.0))
    return np.linspace(max(domain.lo, 1e-9), hi, 64)


def _require_finite(**params: float) -> None:
    """InputError naming the first of ``params`` that is not finite."""
    for name, v in params.items():
        if not math.isfinite(v):
            raise InputError(f"moment envelope parameter {name} must be finite, got {v!r}")


def moment_power_pole(c: float, b: float, beta: float) -> MomentEnvelope:
    """Lower envelope |X|_p >= c * (b - p)^(-beta) on [1, b)."""
    if not (b > 1 and beta > 0 and c > 0):
        raise InputError("need b > 1, beta > 0, c > 0")
    _require_finite(c=c, b=b, beta=beta)
    fn = lambda p: c * np.power(b - p, -beta)
    deriv = lambda p: c * beta * np.power(b - p, -beta - 1.0)
    return MomentEnvelope(lower=PhiFunction.from_callable(
        fn, 1.0, b, deriv=deriv, convex=None, label=f"pole-envelope(c={c},b={b},beta={beta})",
        vectorized=True,
    ))


def moment_power_growth(m: float, c_low: float, c_high: float) -> MomentEnvelope:
    """Two-sided envelope c_low * p^(1/m) <= |X|_p <= c_high * p^(1/m)."""
    if not (m > 0 and 0 < c_low <= c_high):
        raise InputError("need m > 0 and 0 < c_low <= c_high")
    _require_finite(m=m, c_low=c_low, c_high=c_high)
    def curve(c):
        return PhiFunction.from_callable(
            lambda p: c * np.power(p, 1.0 / m), 1.0, math.inf,
            deriv=lambda p: c / m * np.power(p, 1.0 / m - 1.0),
            label=f"{c}*p^(1/{m})", vectorized=True)

    return MomentEnvelope(lower=curve(c_low), upper=curve(c_high))


def moment_envelope_from_csv(path: str) -> MomentEnvelope:
    """CSV with header ``p,lower,upper``: a two-sided envelope."""
    ps, lower, upper = _read_csv_columns(path, ("p", "lower", "upper"))
    return MomentEnvelope(lower=PhiFunction.from_grid(ps, lower),
                          upper=PhiFunction.from_grid(ps, upper))


# --------------------------------------------------------------------------
# The bridge
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentPair:
    """Exponential-level exponents lam * ln(envelope(lam)), with flags."""

    phi1: PhiFunction
    phi2: Optional[PhiFunction]
    degenerate_lower: bool


def _exponent_from_curve(curve: PhiFunction, label: str) -> tuple[PhiFunction, bool]:
    """lam*ln(curve(lam)) on the subdomain where the curve is >= 1, with
    its derivative ln c(lam) + lam*c'(lam)/c(lam) where the curve has c'
    (on a grid, its right chord), numpy ufuncs only, so that arrays and
    scalars agree bit for bit.

    Truncation keeps the exponent nonnegative, matching the standing
    assumption of the exponential-level machinery; a curve never reaching 1
    yields the flagged zero exponent.
    """
    lo = curve.domain.lo
    probe = _probe_grid(curve.domain)
    vals = curve.values(probe)
    if np.any(vals <= 0):
        raise InputError(f"{label}: envelope must be positive")
    if float(vals.max()) <= 1.0 + 1e-12:  # never above 1 on the probe grid, to 1e-12
        zero = PhiFunction.from_callable(lambda l: 0.0, max(lo, 1.0), curve.domain.hi,
                                         deriv=lambda l: 0.0, convex=True,
                                         label=f"zero[{label}]", vectorized=True)
        return zero, True
    lam_star = max(_first_at_one(curve, probe, vals, 0.0), lo, 1.0)

    def fn(l, c=curve):
        return l * np.log(c.values(l))

    def deriv(l, c=curve):
        v = c.values(l)
        return np.log(v) + l * c.derivatives(l) / v

    return PhiFunction.from_callable(fn, lam_star, curve.domain.hi,
                                     deriv=None if curve.deriv is None else deriv,
                                     convex=None, label=f"exponent[{label}]",
                                     vectorized=True), False


def to_exponential(m: MomentEnvelope) -> ExponentPair:
    """Convert a moment envelope into exponential-level exponents for ln|X|."""
    phi1, degen = _exponent_from_curve(m.lower, m.lower.label)
    phi2 = None
    if m.upper is not None:
        phi2, _ = _exponent_from_curve(m.upper, m.upper.label)
    return ExponentPair(phi1=phi1, phi2=phi2, degenerate_lower=degen)


def _log_grid(x_grid: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The points x >= e of ``x_grid``, and theta = ln x at each."""
    xs = np.asarray(x_grid, dtype=float)
    xs = xs[xs >= X_VALID_FLOOR]
    if xs.size == 0:
        raise InputError(f"x_grid needs points at or above e (= {X_VALID_FLOOR:.4f})")
    return xs, np.log(xs)


def _chain_in_x(phi: PhiFunction, m_surrogate: float, ys: np.ndarray):
    """The unilateral chain (eps = ``_CHAIN_EPS``) for theta = ln|X| at
    ``ys``, re-expressed for |X|: (x = e^y at each point, its log values,
    the chain's certificate)."""
    env, cert = unilateral_lower_envelope(phi, _CHAIN_EPS, m_surrogate, ys, nonnegative=True)
    return np.exp(env.x), env.log_values, cert


# --------------------------------------------------------------------------
# Pole-type lower envelope (bounded p-domain)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerTailReport:
    gamma: float
    c_fit: float
    p_domain: tuple[float, float]
    chain: LowerEnvelopeCertificate
    fit_points: int


def power_tail_lower(
    m: MomentEnvelope,
    x_grid: Sequence[float],
    m_surrogate: float = 2.0,
) -> tuple[TailEnvelope, PowerTailReport]:
    """Power-form lower tail envelope from a pole-type moment lower envelope.

    Routes through the unilateral chain (eps = 0.05) for theta = ln|X|
    and reports the fitted (C, gamma) of the emitted envelope
    ~ C * x^(-gamma); the realized gamma always lands strictly inside
    (1, b) on desk-scale grids.
    """
    pair = to_exponential(m)
    if pair.degenerate_lower:
        raise NotCertifiedError("moment envelope never exceeds 1; no exponent to invert")
    if not math.isfinite(pair.phi1.domain.hi):
        raise InputError("pole-type route expects a finite moment-domain top")

    _, ys = _log_grid(x_grid)
    x_kept, log_vals, chain_cert = _chain_in_x(pair.phi1, m_surrogate, ys)
    neg_log = -log_vals
    fin = np.isfinite(neg_log)
    if fin.sum() < 2:
        raise NotCertifiedError("chain produced no finite envelope points to fit")
    slope, intercept = np.polyfit(np.log(x_kept[fin]), neg_log[fin], 1)
    gamma = float(slope)
    c_fit = float(math.exp(-intercept))

    env = TailEnvelope(
        x=x_kept, log_values=log_vals, side=LOWER,
        provenance="power-moment-pole-chain",
        valid_from=X_VALID_FLOOR,
    )
    report = PowerTailReport(gamma=gamma, c_fit=c_fit, p_domain=m.p_domain,
                             chain=chain_cert, fit_points=int(fin.sum()))
    return env, report


# --------------------------------------------------------------------------
# p^(1/m) growth: two-sided stretched-exponential recovery
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRecoveryReport:
    m_input: float
    recovered_m: float
    recovered_m_lower_raw: float
    c1_coeff: float            # upper envelope exp(-c1 * x^m)
    c2_coeff: float            # lower envelope exp(-c2 * x^m)
    cramer: CramerCertificate
    lower_produced: bool
    chain: Optional[LowerEnvelopeCertificate] = None
    notes: tuple = ()


def growth_tail_recovery(
    m_exponent: float,
    moment_env: MomentEnvelope,
    x_grid: Sequence[float],
    m_surrogate: float = 2.0,
) -> tuple[Optional[TailEnvelope], TailEnvelope, GrowthRecoveryReport]:
    """Bilateral exp(-c2 x^m) <= T <= exp(-c1 x^m) envelopes from p^(1/m) growth.

    The upper coefficient comes from the conjugate of the upper exponent
    evaluated along ln x (the minimal ratio keeps it valid pointwise); the
    lower coefficient absorbs the unilateral chain's exponent (eps = 0.05)
    the same way with the maximal ratio.  ``recovered_m`` is the log-log
    slope fit of the upper exponent, the diagnostic the acceptance contract
    checks; the raw lower-chain slope is reported alongside for transparency.
    """
    if moment_env.upper is None:
        raise InputError("growth recovery needs a two-sided moment envelope")
    me = float(m_exponent)
    pair = to_exponential(moment_env)
    xs, ys = _log_grid(x_grid)

    phi2 = pair.phi2
    stars_all, _ = _stars(phi2, ys)
    pos = stars_all > 0
    if not pos.any():
        raise NotCertifiedError("upper exponent conjugate nonpositive on the grid; "
                                "extend the x range")
    xs, ys, stars = xs[pos], ys[pos], stars_all[pos]
    c1_coeff = float(np.min(stars / xs ** me))
    upper = TailEnvelope(
        x=xs, log_values=np.minimum(-c1_coeff * xs ** me, 0.0), side=UPPER,
        provenance="growth-upper", valid_from=float(xs[0]),
    )
    fit_up = np.polyfit(np.log(xs), np.log(stars), 1)
    recovered_m = float(fit_up[0])

    notes = []
    lower_env = None
    c2_coeff = math.inf
    raw_slope = math.nan
    chain_cert = None
    if not pair.degenerate_lower:
        try:
            x_kept, log_vals, chain_cert = _chain_in_x(pair.phi1, m_surrogate, ys)
            neg = -log_vals
            fin = np.isfinite(neg) & (neg > 0)
            if fin.sum() < 2:
                raise NotCertifiedError("chain produced no positive exponent points")
            c2_coeff = float(np.max(neg[fin] / x_kept[fin] ** me))
            raw_slope = float(np.polyfit(np.log(x_kept[fin]), np.log(neg[fin]), 1)[0])
            lower_env = TailEnvelope(
                x=x_kept, log_values=np.minimum(-c2_coeff * x_kept ** me, 0.0),
                side=LOWER, provenance="growth-lower-chain",
                valid_from=float(x_kept[0]), valid_to=float(x_kept[-1]),
            )
        except NotCertifiedError as exc:
            notes.append(f"lower chain not certified: {exc}")
    else:
        notes.append("lower moment envelope degenerate; no lower tail bound")

    # exponential-level tail exponent of the produced upper envelope
    g = PhiFunction.from_callable(lambda x: c1_coeff * np.power(x, me), 0.0, math.inf,
                                  deriv=lambda x: c1_coeff * me * np.power(x, me - 1.0),
                                  label=f"{c1_coeff:.4g}*x^{me}", vectorized=True)
    cram = cramer_check(g)

    report = GrowthRecoveryReport(
        m_input=me, recovered_m=recovered_m, recovered_m_lower_raw=raw_slope,
        c1_coeff=c1_coeff, c2_coeff=c2_coeff, cramer=cram,
        lower_produced=lower_env is not None, chain=chain_cert,
        notes=tuple(notes),
    )
    return lower_env, upper, report
