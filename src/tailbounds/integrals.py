"""Auxiliary integrals and the compound upper estimate.

Given a nonnegative exponent ``zeta`` on [0, inf), this module computes

    K(eps) = int_0^inf exp(-eps * zeta(x)) dx
    R(eps) = int_0^inf exp(zeta((1-eps) x) - zeta(x)) dx
    M(eps) = min(K(eps), R(eps))

and the resulting upper bounds on I(lam) = int_0^inf exp(lam*x - zeta(x)) dx:
M(eps) * exp(zeta*(lam/(1-eps))) and its sharper K-variant with the (1-eps)
factor in the exponent.  Divergence is detected by a growth pre-test before
any quadrature is attempted, and carries diagnostics.  K, R and I(lam) all
go through the one adaptive kernel, ``oracles.quadrature``; I(lam) in log
space, folded about the argmax of lam*x - zeta(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DivergentIntegral,
    InputError,
    NotConvergedError,
    UnboundedObjectiveError,
)
from .functions import LAMBDA_CAP, PhiFunction, conjugate_value
from .oracles import quadrature

_PROBES = (1e5, 1e6, 1e8, 1e10)
# exp(-g) is declared divergent when g(x)/ln(x) is at most this at every probe
_DIVERGENCE_LOG_MARGIN = 1.000001


def _require_halfline(zeta: PhiFunction) -> None:
    if zeta.domain.lo > 0.0:
        raise InputError("integrand exponent must be defined from x = 0")
    if zeta.domain.bounded:
        raise InputError("integral over [0, inf) needs an exponent with unbounded domain")


def _pretest_decay(g, label: str) -> None:
    """Declare divergence when g(x) fails to outgrow ln(x) at the probes."""
    try:
        # a numpy overflow raises FloatingPointError here, as a float power
        # raises OverflowError
        with np.errstate(over="raise"):
            vals = g(np.array(_PROBES)).tolist()
    except (OverflowError, FloatingPointError):
        return  # super-fast growth: certainly integrable
    ratios = [v / math.log(x) for x, v in zip(_PROBES, vals)]
    if max(ratios) <= _DIVERGENCE_LOG_MARGIN:
        raise DivergentIntegral(
            f"{label}: exponent grows no faster than ln(x) at the probe points",
            diagnostic={"probes": list(_PROBES), "ratios": ratios},
        )


def _exp_neg(t: np.ndarray) -> np.ndarray:
    """exp(-t), exactly 0 where t >= 745 (below the smallest subnormal)."""
    with np.errstate(under="ignore"):
        return np.where(t < 745.0, np.exp(-t), 0.0)


def _integral(f, label: str, details: Optional[dict]) -> float:
    """int_0^inf f(x) dx by ``quadrature``, or DivergentIntegral, with the
    quadrature's diagnostic, where it reaches its window cap."""
    try:
        val, _ = quadrature(f, 0.0, math.inf, details=details)
    except NotConvergedError as exc:
        raise DivergentIntegral(
            f"{label}: tail contribution still above threshold at the window cap",
            diagnostic=exc.diagnostic,
        ) from exc
    return val


def _damped_integral(g, label: str, details: Optional[dict]) -> float:
    """int_0^inf exp(-g(x)) dx for an exponent g that maps float arrays, or
    DivergentIntegral from the growth pre-test or the quadrature's window cap."""
    _pretest_decay(g, label)
    return _integral(lambda xs: _exp_neg(g(xs)), label, details)


def k_integral(zeta: PhiFunction, eps: float,
               details: Optional[dict] = None) -> float:
    """K(eps) = int_0^inf exp(-eps*zeta(x)) dx, or DivergentIntegral."""
    if not (0.0 < eps <= 1.0):
        raise InputError(f"eps must be in (0, 1], got {eps}")
    _require_halfline(zeta)
    return _damped_integral(lambda xs: eps * zeta.values(xs), f"K({eps})", details)


def r_integral(zeta: PhiFunction, eps: float,
               details: Optional[dict] = None) -> float:
    """R(eps) = int_0^inf exp(zeta((1-eps)x) - zeta(x)) dx, or DivergentIntegral."""
    if not (0.0 < eps < 1.0):
        raise InputError(f"eps must be in (0, 1), got {eps}")
    _require_halfline(zeta)
    return _damped_integral(lambda xs: zeta.values(xs) - zeta.values((1.0 - eps) * xs),
                            f"R({eps})", details)


@dataclass(frozen=True)
class EpsilonReport:
    """K, R and their minimum at one eps; None marks a divergent entry.

    ``diagnostics`` carries, per entry, either the divergence reason or the
    quadrature truncation point and absolute error estimate.
    """

    eps: float
    k: Optional[float]
    r: Optional[float]
    diagnostics: dict = field(default_factory=dict)

    @property
    def m(self) -> Optional[float]:
        finite = [v for v in (self.k, self.r) if v is not None]
        return min(finite) if finite else None

    def log_compound_bound(self, zeta: PhiFunction, lam: float,
                           variant: str = "min") -> float:
        """:func:`log_compound_upper_bound` at this report's eps, from its K
        and R, so that a grid of lam needs the two integrals once."""
        try:
            star, arg = conjugate_value(zeta, lam / (1.0 - self.eps))
        except UnboundedObjectiveError:
            return math.inf
        if arg == LAMBDA_CAP:  # the supremum over [0, LAMBDA_CAP] only: too small
            return math.inf
        if variant == "min":
            if self.m is None:
                raise DivergentIntegral(f"both K and R divergent at eps={self.eps}",
                                        diagnostic=self.diagnostics)
            return math.log(self.m) + star
        if variant not in ("sharp", "plain"):
            raise InputError(f"unknown variant {variant!r}")
        if self.k is None:
            raise DivergentIntegral(f"K divergent at eps={self.eps}",
                                    diagnostic=self.diagnostics)
        return math.log(self.k) + ((1.0 - self.eps) * star if variant == "sharp" else star)


def epsilon_report(zeta: PhiFunction, eps: float) -> EpsilonReport:
    vals, diag = {}, {}
    for key, integral in (("k", k_integral), ("r", r_integral)):
        details: dict = {}
        try:
            vals[key] = integral(zeta, eps, details=details)
            diag[key] = details
        except DivergentIntegral as exc:
            vals[key], diag[key] = None, str(exc)
    return EpsilonReport(eps=eps, **vals, diagnostics=diag)


def log_i_integral(zeta: PhiFunction, lam: float) -> float:
    """ln of I(lam) = int_0^inf exp(lam*x - zeta(x)) dx, in log space.

    The Legendre search gives the peak value top = zeta*(lam) and its
    argmax.  The integrand, divided by exp(top), is folded about the argmax
    and integrated over u = |x - argmax| in [0, inf) by ``quadrature``, so
    the first window covers one unit on either side of the peak at any lam.
    Divergence is detected by the growth pre-test, or by the quadrature's
    window cap, both as DivergentIntegral.  A peak at the search's cap
    ``LAMBDA_CAP`` raises NotConvergedError before the pre-test, even where
    I diverges (zeta = x - ln(1 + x) at lam = 1): the true peak may lie past
    the cap and the probes, where the folded integrand would overflow.
    """
    _require_halfline(zeta)

    def log_f(xs: np.ndarray) -> np.ndarray:
        return lam * xs - zeta.values(xs)

    label = f"I({lam})"
    try:
        top, peak = conjugate_value(zeta, lam)
    except UnboundedObjectiveError:
        _pretest_decay(lambda xs: -log_f(xs), label)
        raise
    if peak == LAMBDA_CAP:
        raise NotConvergedError(f"{label}: the peak of lam*x - zeta(x) stops at the search "
                                f"cap x = {LAMBDA_CAP:g}", diagnostic={"peak": peak})
    _pretest_decay(lambda xs: -log_f(xs), label)

    def folded(us: np.ndarray) -> np.ndarray:
        out = _exp_neg(top - log_f(peak + us))
        left = us < peak
        out[left] += _exp_neg(top - log_f(peak - us[left]))
        return out

    return top + math.log(_integral(folded, label, None))


def i_integral(zeta: PhiFunction, lam: float) -> float:
    """Direct quadrature of I(lam); +inf when the value exceeds float range."""
    lv = log_i_integral(zeta, lam)
    return math.exp(lv) if lv < 709.0 else math.inf


def log_compound_upper_bound(zeta: PhiFunction, lam: float, eps: float,
                             variant: str = "min") -> float:
    """ln of the compound upper bound on I(lam).

    variant="min":   ln min(K, R) + zeta*(lam/(1-eps))
    variant="sharp": ln K + (1-eps) * zeta*(lam/(1-eps))
    variant="plain": ln K + zeta*(lam/(1-eps))

    Divergent K/R propagates; an unbounded conjugate, or one whose maximizer
    is at ``LAMBDA_CAP`` (too small there), yields +inf.  A derivative-free
    zeta's search may settle just below the cap, and is not caught.
    """
    if not (0.0 < eps < 1.0):
        raise InputError(f"eps must be in (0, 1), got {eps}")
    return epsilon_report(zeta, eps).log_compound_bound(zeta, lam, variant)


# --------------------------------------------------------------------------
# Cramer condition
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CramerCertificate:
    """Equivalence-based certificate of an exponential tail bound.

    ``certified`` asserts a linear-rate witness mu > 0 with G(x) >= mu*x for
    large x (estimated from the slope of G at the probe ladder).  ``k_table``
    reports finiteness of the damped-integral K(eps) across the tested eps
    grid; a certified exponent always has an all-finite table, the converse
    need not hold.
    """

    certified: bool
    mu: Optional[float]
    k_table: dict
    slope_fit: dict


def cramer_check(g: PhiFunction,
                 eps_grid=(1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5)) -> CramerCertificate:
    """Certify (or refuse to certify) an exponential tail for exponent g.

    Never raises on a negative outcome; the certificate is the result.
    """
    probe = np.geomspace(1.0, 1e8, 33)
    ratios = g.values(probe) / probe
    # trend of G(x)/x on the top decades decides the liminf
    top = probe >= 1e4
    with np.errstate(divide="ignore"):
        logr = np.log(np.maximum(ratios[top], 1e-300))
    slope = float(np.polyfit(np.log(probe[top]), logr, 1)[0])
    mu_hat = float(ratios.min())
    certified = bool(slope > -0.01 and mu_hat > 0.0)

    k_table = {}
    for eps in eps_grid:
        try:
            k_table[float(eps)] = k_integral(g, float(eps))
        except DivergentIntegral:
            k_table[float(eps)] = None
    return CramerCertificate(
        certified=certified,
        mu=mu_hat if certified else None,
        k_table=k_table,
        slope_fit={"log_slope": slope, "min_ratio": mu_hat},
    )
