"""Scalar functions of one real variable and their convex calculus.

The central object is :class:`PhiFunction`: a nonnegative function on a
half-open domain ``[lo, hi)``, either a named closed form or a strictly
increasing grid of knots interpolated piecewise-linearly.  On top of it sit
the Legendre transform (`conjugate`), the biconjugate, convexity
certification, and saddle-point location.

Everything is immutable and every operation is a pure function of its
inputs; instances are safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    EmptyDomainError,
    InputError,
    NegativeInputError,
    NonUniqueArgmaxError,
    OutOfDomainError,
    UnboundedObjectiveError,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Domain:
    """Half-open interval [lo, hi) with lo >= 0."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo >= 0.0):
            raise InputError(f"domain lower endpoint must be >= 0, got {self.lo}")
        if not (self.hi > self.lo):
            raise EmptyDomainError(f"empty domain [{self.lo}, {self.hi})")

    def contains(self, lam):
        """lo <= lam < hi; elementwise for an array."""
        return (self.lo <= lam) & (lam < self.hi)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.hi)

    def top(self) -> float:
        """Largest representable point strictly inside the domain."""
        if not self.bounded:
            return math.inf
        return np.nextafter(self.hi, -math.inf)


@dataclass(frozen=True)
class PhiFunction:
    """Nonnegative scalar function on a half-open domain.

    ``kind`` is one of ``quadratic``, ``power_log``, ``linear``, ``grid``,
    ``callable``.  Closed forms carry analytic derivatives; grids use exact
    piecewise-linear arithmetic (no extrapolation past the last knot).
    Equality compares kind, domain, params and label only: two grids (or
    two callables) that differ in their knots (or bodies) may compare equal.
    """

    kind: str
    domain: Domain
    params: tuple = ()
    # (lambdas, values) as read-only float arrays, grid kind only
    knots: Optional[tuple] = field(default=None, compare=False, repr=False)
    fn: Optional[Callable[[float], float]] = field(default=None, compare=False)
    deriv: Optional[Callable[[float], float]] = field(default=None, compare=False)
    convex: Optional[bool] = None
    label: str = ""
    slope_lim: Optional[float] = None  # declared lim of f' at an unbounded top
    # fn and deriv accept arrays (callable kind; see from_callable)
    vectorized: bool = field(default=False, compare=False)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def quadratic(coeff: float = 0.5, lo: float = 1.0, hi: float = math.inf) -> "PhiFunction":
        """coeff * lam^2; the default is the subgaussian exponent lam^2/2."""
        if coeff <= 0:
            raise InputError("quadratic coefficient must be positive")
        return PhiFunction(
            kind="quadratic", domain=Domain(lo, hi), params=(coeff,),
            fn=lambda l, c=coeff: c * l * l,
            deriv=lambda l, c=coeff: 2.0 * c * l,
            convex=True, label=f"quadratic(coeff={coeff})",
        )

    @staticmethod
    def power_log(p: float, r: float = 0.0, lo: float = 1.0, hi: float = math.inf) -> "PhiFunction":
        """lam^p * ln(e + lam)^r / p  (power family with slowly varying factor)."""
        if p <= 0:
            raise InputError("power exponent p must be positive")

        def _f(l, p=p, r=r):
            return (l ** p) * math.log(math.e + l) ** r / p

        def _d(l, p=p, r=r):
            big_l = math.log(math.e + l)
            out = (l ** (p - 1.0)) * big_l ** r
            if r != 0.0:
                out += (l ** p) * r * big_l ** (r - 1.0) / (p * (math.e + l))
            return out

        convex = bool(p >= 1.0 and r >= 0.0)
        return PhiFunction(
            kind="power_log", domain=Domain(lo, hi), params=(p, r),
            fn=_f, deriv=_d, convex=convex, label=f"power_log(p={p}, r={r})",
        )

    @staticmethod
    def linear(slope: float = 1.0, lo: float = 1.0, hi: float = math.inf) -> "PhiFunction":
        if slope < 0:
            raise InputError("linear slope must be nonnegative")
        return PhiFunction(
            kind="linear", domain=Domain(lo, hi), params=(slope,),
            fn=lambda l, s=slope: s * l,
            deriv=lambda l, s=slope: s,
            convex=True, label=f"linear(slope={slope})",
        )

    @staticmethod
    def from_callable(
        fn: Callable[[float], float],
        lo: float,
        hi: float,
        deriv: Optional[Callable[[float], float]] = None,
        convex: Optional[bool] = None,
        label: str = "callable",
        slope_lim: Optional[float] = None,
        vectorized: bool = False,
    ) -> "PhiFunction":
        """Wrap ``fn`` (and its derivative ``deriv``) on [lo, hi).

        ``vectorized=True`` promises that ``fn`` and ``deriv`` map a float
        array elementwise to exactly what they return for each scalar, so
        :meth:`values` and :meth:`derivatives` call them once per array.
        """
        f = PhiFunction(kind="callable", domain=Domain(lo, hi), fn=fn,
                        deriv=deriv, convex=convex, label=label,
                        slope_lim=slope_lim, vectorized=vectorized)
        if convex is None:
            object.__setattr__(f, "convex", certify_convex(f))
        return f

    @staticmethod
    def from_grid(lambdas: Sequence[float], values: Sequence[float]) -> "PhiFunction":
        lam = np.array(lambdas, dtype=float)
        val = np.array(values, dtype=float)
        if lam.ndim != 1 or lam.shape != val.shape or lam.size < 2:
            raise InputError("grid needs matching 1-d lambda/value arrays, >= 2 knots")
        if not np.all(np.diff(lam) > 0):
            raise InputError("grid lambda knots must be strictly increasing")
        if lam[0] < 0:
            raise InputError("grid lambda knots must be >= 0")
        if not np.all(np.isfinite(val)) or np.any(val < 0):
            raise NegativeInputError("grid values must be finite and nonnegative")
        # the last knot sits strictly inside the half-open domain
        hi = float(np.nextafter(lam[-1], math.inf))
        slopes = np.diff(val) / np.diff(lam)
        convex = bool(np.all(np.diff(slopes) >= -1e-12 * max(1.0, np.abs(slopes).max())))
        lam.setflags(write=False)
        val.setflags(write=False)
        return PhiFunction(
            kind="grid", domain=Domain(float(lam[0]), hi),
            knots=(lam, val),
            convex=convex, label=f"grid[{lam.size} knots]",
        )

    @staticmethod
    def from_csv(path: str) -> "PhiFunction":
        """Load a grid function from CSV with header ``lambda,value``."""
        lams, vals = _read_csv_columns(path, ("lambda", "value"))
        return PhiFunction.from_grid(lams, vals)

    # -- evaluation ----------------------------------------------------------

    def value(self, lam: float) -> float:
        lam = float(lam)
        if not self.domain.contains(lam):
            raise OutOfDomainError(lam, self.domain.lo, self.domain.hi)
        if self.kind == "grid":
            ls, vs = self.knots
            if lam > ls[-1]:
                raise OutOfDomainError(lam, float(ls[0]), float(ls[-1]))
            v = float(np.interp(lam, ls, vs))
        else:
            v = float(self.fn(lam))
        if not math.isfinite(v):
            raise NegativeInputError(f"{self.label}: non-finite value at lam={lam}")
        if v < 0:
            if v > -1e-12:
                return 0.0
            raise NegativeInputError(f"{self.label}: negative value {v} at lam={lam}")
        return v

    def _evaluates_arrays(self) -> bool:
        return self.kind in ("grid", "quadratic", "linear") or self.vectorized

    def values(self, lams) -> np.ndarray:
        """``[value(l) for l in lams]`` as an array of the same shape.

        Equal to the scalar calls bit for bit; the first failing point
        raises the error its scalar call raises.  Grid, quadratic and linear
        kinds and vectorized callables evaluate in one array call, the
        other kinds loop over :meth:`value`.
        """
        lams = np.asarray(lams, dtype=float)
        flat = lams.ravel()
        if not self._evaluates_arrays():
            return np.array([self.value(t) for t in flat.tolist()], dtype=float).reshape(lams.shape)
        inside = self.domain.contains(flat)
        n = flat.size if inside.all() else int(np.argmin(inside))
        head = flat[:n]
        if self.kind == "grid":
            ls, vs = self.knots
            v = np.where(head > ls[-1], math.nan, np.interp(head, ls, vs))
        else:
            v = np.broadcast_to(np.asarray(self.fn(head), dtype=float), head.shape)
        bad = ~np.isfinite(v) | (v <= -1e-12)
        if bad.any():
            self.value(head[int(np.argmax(bad))])  # raises that point's error
        if n < flat.size:
            self.value(flat[n])
        return np.where(v < 0.0, 0.0, v).reshape(lams.shape)

    def derivatives(self, lams) -> np.ndarray:
        """``[derivative(l) for l in lams]`` as an array, bit for bit."""
        lams = np.asarray(lams, dtype=float)
        if self.deriv is not None and self._evaluates_arrays():
            return np.broadcast_to(np.asarray(self.deriv(lams), dtype=float), lams.shape).copy()
        return np.array([self.derivative(t) for t in lams.ravel().tolist()],
                        dtype=float).reshape(lams.shape)

    def derivative(self, lam: float, h_rel: float = 1e-6) -> float:
        """Analytic derivative when the family has one, else central difference."""
        if self.deriv is not None:
            return float(self.deriv(float(lam)))
        h = h_rel * max(1.0, abs(lam))
        a = max(self.domain.lo, lam - h)
        b = min(self.domain.top(), lam + h)
        if b <= a:
            raise OutOfDomainError(lam, self.domain.lo, self.domain.hi)
        return (self.value(b) - self.value(a)) / (b - a)

    def dilate(self, c: float, lo: float, hi: float) -> "PhiFunction":
        """lam -> f(c*lam) on [lo, hi), staying in the family where it can.

        A quadratic stays a quadratic (coeff*c^2) and a linear function stays
        linear (slope*c), so their conjugates keep the closed form; any other
        kind becomes a vectorized callable wrapper.
        """
        if self.kind == "quadratic":
            return PhiFunction.quadratic(self.params[0] * c * c, lo, hi)
        if self.kind == "linear":
            return PhiFunction.linear(self.params[0] * c, lo, hi)
        return PhiFunction.from_callable(
            lambda mu: self.values(c * np.asarray(mu)), lo, hi,
            deriv=(lambda mu: c * self.derivatives(c * np.asarray(mu))) if self.deriv else None,
            convex=self.convex, label=f"dilated[{self.label}]x{c:.4g}",
            vectorized=True,
        )

    def slope_limit(self) -> Optional[float]:
        """lim of the derivative at the upper end of an unbounded domain.

        Used for the analytic unboundedness test of the conjugate; ``None``
        means unknown (heuristic scan decides).
        """
        if self.domain.bounded:
            return None
        if self.slope_lim is not None:
            return self.slope_lim
        if self.kind == "linear":
            return self.params[0]
        if self.kind == "quadratic":
            return math.inf
        if self.kind == "power_log":
            p, r = self.params
            if p > 1.0 or (p == 1.0 and r > 0.0):
                return math.inf
            if p == 1.0 and r == 0.0:
                return 1.0
            return 0.0  # sublinear power
        return None


def evaluate(f: PhiFunction, lam: float) -> float:
    """Evaluate ``f`` at ``lam``; OutOfDomainError outside [lo, hi)."""
    return f.value(lam)


def certify_convex(f: PhiFunction, n_probe: int = 257, tol: float = 1e-9) -> bool:
    """Numerically certify convexity by second differences on a probe grid.

    A positive certificate is a statement about the probe grid only, which
    is how it is used: it licenses concave-objective golden search instead
    of exhaustive scanning.
    """
    if f.kind == "grid":
        ls, vs = f.knots
        slopes = np.diff(vs) / np.diff(ls)
        return bool(np.all(np.diff(slopes) >= -tol * max(1.0, np.abs(slopes).max())))
    lo, hi = f.domain.lo, f.domain.top()
    if not math.isfinite(hi):
        hi = max(100.0, 10.0 * max(lo, 1.0))
    grid = np.linspace(lo, hi, n_probe)
    vals = f.values(grid)
    second = np.diff(vals, 2)
    scale = max(1.0, float(np.abs(vals).max()))
    return bool(np.all(second >= -tol * scale))


# --------------------------------------------------------------------------
# Legendre transform
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateResult:
    """Tabulated Legendre transform with its maximizer trace.

    ``values`` may contain +inf where the supremum diverges; ``argmax`` is
    NaN there.  ``argmax`` equals the derivative of the transform wherever
    the input is convex (envelope theorem), which downstream saddle-point
    code relies on.
    """

    x_grid: np.ndarray
    values: np.ndarray
    argmax: np.ndarray
    source_domain: Domain

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def validate(self, tol: float = 1e-7) -> None:
        v, a = self.values, self.argmax
        fin = np.isfinite(v)
        scale = max(1.0, float(np.abs(v[fin]).max())) if fin.any() else 1.0
        if np.any(np.diff(v) < -tol * scale):
            raise AssertionError("conjugate values not nondecreasing")
        af = a[fin]
        if af.size and np.any(np.diff(af) < -tol * max(1.0, float(np.abs(af).max()))):
            raise AssertionError("argmax trace not nondecreasing")
        vf = v[fin]
        if vf.size >= 3:
            xf = self.x_grid[fin]
            chords = np.diff(vf) / np.diff(xf)
            if np.any(np.diff(chords) < -1e-6 * max(1.0, float(np.abs(chords).max()))):
                raise AssertionError("conjugate values not convex along the grid")


def _golden_max(g: Callable[[float], float], a: float, b: float,
                rel_width: float) -> tuple[float, float]:
    """Golden-section maximization of g on [a, b]."""
    fa, fb = g(a), g(b)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    while (b - a) > rel_width * max(1.0, abs(a), abs(b)):
        if fc >= fd:
            b, fb = d, fd
            d, fd = c, fc
            c = b - _GOLDEN * (b - a)
            fc = g(c)
        else:
            a, fa = c, fc
            c, fc = d, fd
            d = a + _GOLDEN * (b - a)
            fd = g(d)
    best = max((fa, a), (fc, c), (fd, d), (fb, b))
    return best[1], best[0]


def _scan_grid(lo: float, hi: float, n: int) -> np.ndarray:
    pts = [np.linspace(lo, hi, n)]
    if lo > 0 and hi > 100.0 * lo:
        pts.append(np.geomspace(lo, hi, n))
    elif lo == 0.0 and hi > 100.0:
        pts.append(np.geomspace(min(1e-6, hi * 1e-9), hi, n))
    return np.unique(np.concatenate(pts))


def _conjugate_grid_form(f: PhiFunction, x: float) -> tuple[float, float]:
    ls, vs = f.knots
    obj = ls * x - vs
    i = int(np.argmax(obj))
    return float(obj[i]), float(ls[i])


def _stationary_point(f: PhiFunction, x: float, top: float) -> Optional[float]:
    """The maximizer of ``lam*x - f(lam)`` over [lo, top] where it is known.

    None for kinds without a closed form.  Every kind here is convex, so
    the unconstrained stationary point clipped to [lo, top] is the
    constrained maximizer.
    """
    if f.kind == "quadratic":
        lam = x / (2.0 * f.params[0])
    elif f.kind == "power_log" and f.params[1] == 0.0 and f.params[0] > 1.0:
        e = 1.0 / (f.params[0] - 1.0)
        # compare in logs first: for p near 1, x**e overflows a float
        if x <= 0.0:
            lam = 0.0
        elif top <= 0.0 or math.log(x) * e >= math.log(top):
            lam = top
        else:
            lam = x ** e
    elif f.kind == "linear":
        lam = f.domain.lo if x <= f.params[0] else top
    else:
        return None
    return float(min(max(lam, f.domain.lo), top))


def conjugate_value(f: PhiFunction, x: float,
                    tols: Tolerances = DEFAULT) -> tuple[float, float]:
    """sup over the domain of ``lam*x - f(lam)``; returns (value, argmax).

    Raises UnboundedObjectiveError with the witness sequence when the
    supremum diverges.  Exact kinds: grid functions (the supremum of the
    piecewise linear interpolant is attained at a knot) and the closed
    forms ``quadratic``, ``linear`` and ``power_log`` with r = 0 and p > 1
    (stationary point clipped to the domain).  Callables and the other
    ``power_log`` cases are searched: a scan followed by golden-section
    refinement.  On an unbounded domain both the closed forms and the
    search stop at ``tols.lambda_cap``.
    """
    x = float(x)
    if f.kind == "grid":
        return _conjugate_grid_form(f, x)

    lo = f.domain.lo
    hi = f.domain.top()

    # analytic unboundedness test for closed forms on [lo, inf)
    slope_lim = f.slope_limit()
    if slope_lim is not None and not f.domain.bounded:
        if x > slope_lim:
            witness = np.geomspace(max(lo, 1.0), tols.lambda_cap, 8)
            raise UnboundedObjectiveError(x, witness)

    lam_hat = _stationary_point(f, x, hi if math.isfinite(hi) else tols.lambda_cap)
    if lam_hat is not None:
        return lam_hat * x - f.value(lam_hat), lam_hat

    def g(l: float) -> float:
        return l * x - f.value(l)

    if not math.isfinite(hi):
        # grow the truncation point until the objective stops rising at the top
        hi_eff = max(10.0, 4.0 * abs(x), 4.0 * max(lo, 1.0))
        while True:
            grid = _scan_grid(lo, hi_eff, tols.scan_points)
            vals = grid * x - f.values(grid)
            i = int(np.argmax(vals))
            if i < grid.size - 1:
                break
            if hi_eff >= tols.lambda_cap:
                if slope_lim is None:
                    raise UnboundedObjectiveError(x, grid[-6:])
                break  # analytic test said bounded; accept the cap
            hi_eff = min(hi_eff * tols.unbounded_growth_factor, tols.lambda_cap)
    else:
        grid = _scan_grid(lo, hi_eff := hi, tols.scan_points)
        vals = grid * x - f.values(grid)
        i = int(np.argmax(vals))

    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, grid.size - 1)]
    if a == b:
        return float(vals[i]), float(grid[i])
    lam_hat, v_hat = _golden_max(g, float(a), float(b), tols.golden_rel_width)
    if vals[i] > v_hat:
        lam_hat, v_hat = float(grid[i]), float(vals[i])
    return v_hat, lam_hat


def conjugate(f: PhiFunction, x_grid: Sequence[float],
              tols: Tolerances = DEFAULT) -> ConjugateResult:
    """Legendre transform of ``f`` on a strictly increasing grid of x >= 0.

    Divergent points are flagged with +inf values (NaN argmax) rather than
    raised, since envelopes legitimately hit them; callers that need a hard
    error use :func:`conjugate_value`.
    """
    xs = np.asarray(x_grid, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise InputError("x_grid must be a nonempty 1-d array")
    if np.any(xs < 0):
        raise InputError("x_grid entries must be >= 0")
    if xs.size > 1 and not np.all(np.diff(xs) > 0):
        raise InputError("x_grid must be strictly increasing")

    vals = np.empty_like(xs)
    arg = np.empty_like(xs)
    for k, x in enumerate(xs):
        try:
            vals[k], arg[k] = conjugate_value(f, float(x), tols)
        except UnboundedObjectiveError:
            vals[k], arg[k] = math.inf, math.nan
    return ConjugateResult(x_grid=xs, values=vals, argmax=arg, source_domain=f.domain)


def biconjugate(f: PhiFunction, lam_grid: Sequence[float],
                tols: Tolerances = DEFAULT) -> ConjugateResult:
    """(f*)* on ``lam_grid``: the closed convex envelope of ``f``.

    The outer supremum runs over the region where f* is finite; f*(x) is
    recomputed on demand (grid forms exactly, closed forms by refined
    search), so no interpolation error enters.
    """
    lams = np.asarray(lam_grid, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise InputError("lam_grid must be a nonempty 1-d array")
    if lams.size > 1 and not np.all(np.diff(lams) > 0):
        raise InputError("lam_grid must be strictly increasing")

    def fstar(x: float) -> tuple[float, float]:
        return conjugate_value(f, x, tols)

    vals = np.empty_like(lams)
    args = np.empty_like(lams)
    lam_top = float(lams[-1])

    # locate the finite window of f* and the bracket for the largest lam
    x_hi = max(1.0, f.domain.lo)
    trace_hi = None
    for _ in range(200):
        try:
            _, trace_hi = fstar(x_hi)
        except UnboundedObjectiveError:
            break
        if trace_hi > lam_top * 1.0001 + 1e-9:
            break
        x_hi *= 2.0
        if x_hi > 1e12:
            break

    for k, lam in enumerate(lams):
        def outer(x: float, lam=lam) -> float:
            try:
                v, _ = fstar(x)
            except UnboundedObjectiveError:
                return -math.inf
            return lam * x - v

        grid = _scan_grid(0.0, x_hi, tols.scan_points)
        ovals = np.array([outer(t) for t in grid])
        i = int(np.argmax(ovals))
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, grid.size - 1)]
        x_hat, v_hat = _golden_max(outer, float(a), float(b), tols.golden_rel_width)
        if ovals[i] > v_hat:
            x_hat, v_hat = float(grid[i]), float(ovals[i])
        vals[k], args[k] = v_hat, x_hat
    return ConjugateResult(x_grid=lams, values=vals, argmax=args, source_domain=f.domain)


# --------------------------------------------------------------------------
# Saddle point
# --------------------------------------------------------------------------


def conjugate_slope(f: PhiFunction, x: float, tols: Tolerances = DEFAULT) -> float:
    """Derivative of f* at x, via the maximizer (envelope theorem)."""
    _, lam_hat = conjugate_value(f, x, tols)
    return lam_hat


def saddle_point(phi2: PhiFunction, lam: float,
                 flat_tol: Optional[float] = None,
                 tols: Tolerances = DEFAULT) -> float:
    """argmax over x of lam*x - phi2*(x); the inverse of (phi2*)'.

    For a differentiable convex ``phi2`` this equals phi2'(lam).  Located
    numerically on the conjugate trace; a flat maximizing set wider than
    ``flat_tol`` raises NonUniqueArgmaxError instead of silently picking a
    point.
    """
    lam = float(lam)
    if not phi2.domain.contains(lam):
        raise OutOfDomainError(lam, phi2.domain.lo, phi2.domain.hi)

    if phi2.kind == "grid":
        ls, vs = phi2.knots
        chords = np.diff(vs) / np.diff(ls)  # breakpoints of phi2* in x
        if not np.all(np.diff(chords) >= -1e-12 * max(1.0, float(np.abs(chords).max()))):
            raise InputError("saddle point needs a convex grid function")
        if flat_tol is None:
            flat_tol = 2.0 * float(np.diff(ls).max())
        # phi2* is the upper envelope of the knot lines lam_j * x - v_j; on the
        # piece where line j is active, dS/dx = lam - lam_j.  The maximum sits
        # at the breakpoint where the active knot value crosses lam; if lam
        # hits a knot exactly the maximizing set is the whole flat piece.
        atol = 1e-12 * max(1.0, abs(lam))
        hit = np.where(np.abs(ls - lam) <= atol)[0]
        if hit.size:
            j = int(hit[0])
            if j == 0 or j == ls.size - 1:
                edge = float(chords[0]) if j == 0 else float(chords[-1])
                raise NonUniqueArgmaxError(edge, edge, flat_tol)
            left, right = float(chords[j - 1]), float(chords[j])
            if right - left > flat_tol:
                raise NonUniqueArgmaxError(left, right, flat_tol)
            return 0.5 * (left + right)
        j = int(np.searchsorted(ls, lam)) - 1  # ls[j] < lam < ls[j+1]
        if j < 0 or j >= chords.size:
            raise OutOfDomainError(lam, float(ls[0]), float(ls[-1]))
        return float(chords[j])

    if flat_tol is None:
        flat_tol = tols.flat_tol

    def trace(x: float) -> float:
        # a diverging transform along the way means the maximizing set of
        # S(lam, .) is unbounded or degenerate: report, never pick a point
        try:
            return conjugate_slope(phi2, x, tols)
        except UnboundedObjectiveError:
            raise NonUniqueArgmaxError(x, math.inf, flat_tol) from None

    # expanding bracket on the monotone trace
    x_lo = max(phi2.domain.lo, 1e-12)
    x_hi = max(1.0, 2.0 * x_lo)
    t_lo = trace(x_lo)
    grow = 0
    while t_lo > lam and x_lo > 1e-14:
        x_lo *= 0.25
        t_lo = trace(x_lo)
        grow += 1
        if grow > 60:
            break
    t_hi = trace(x_hi)
    grow = 0
    while t_hi <= lam:
        x_hi *= 2.0
        t_hi = trace(x_hi)
        grow += 1
        if grow > 80:
            raise NonUniqueArgmaxError(x_lo, x_hi, flat_tol)

    a, b = x_lo, x_hi
    for _ in range(200):
        if (b - a) <= 1e-12 * max(1.0, abs(b)):
            break
        m = 0.5 * (a + b)
        if trace(m) <= lam:
            a = m
        else:
            b = m
    x0 = 0.5 * (a + b)

    # flat-top detection: width of the set where the trace sits within a
    # slope tolerance of lam
    eps_slope = 1e-7 * max(1.0, abs(lam))
    lo_edge = _bisect_trace(trace, max(x_lo * 0.5, 1e-14), x0, lam - eps_slope)
    hi_edge = _bisect_trace(trace, x0, x_hi * 2.0, lam + eps_slope)
    width = hi_edge - lo_edge
    if width > max(flat_tol * max(1.0, abs(x0)), 100.0 * eps_slope * max(1.0, abs(x0))):
        raise NonUniqueArgmaxError(lo_edge, hi_edge, flat_tol)
    return float(x0)


def _bisect_trace(trace, a, b, target):
    fa = trace(a)
    fb = trace(b)
    if fa >= target:
        return a
    if fb <= target:
        return b
    for _ in range(60):
        m = 0.5 * (a + b)
        if trace(m) < target:
            a = m
        else:
            b = m
        if (b - a) <= 1e-10 * max(1.0, abs(b)):
            break
    return 0.5 * (a + b)


# --------------------------------------------------------------------------
# CSV loading
# --------------------------------------------------------------------------


def _read_csv_columns(path: str, *headers: tuple[str, ...]) -> tuple[list, ...]:
    """Numeric columns under the first of ``headers`` the file's header starts with.

    The first column must strictly increase; errors carry the line number.
    """
    cols: tuple[list, ...] = ()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                got = tuple(c.strip().lower() for c in row)
                header = next((h for h in headers if got[:len(h)] == h), None)
                if header is None:
                    want = " or ".join(repr(",".join(h)) for h in headers)
                    raise InputError(f"{path}:1: expected header {want}, got {','.join(got)!r}")
                n = len(header)
                cols = tuple([] for _ in header)
                continue
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < n:
                raise InputError(f"{path}:{lineno}: expected {n} columns, got {len(row)}")
            try:
                nums = [float(c) for c in row[:n]]
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: non-numeric entry: {exc}") from None
            if cols[0] and nums[0] <= cols[0][-1]:
                raise InputError(
                    f"{path}:{lineno}: first column must be strictly increasing "
                    f"({nums[0]} after {cols[0][-1]})"
                )
            for col, v in zip(cols, nums):
                col.append(v)
    if not cols or len(cols[0]) < 2:
        raise InputError(f"{path}: need at least 2 data rows")
    return cols
