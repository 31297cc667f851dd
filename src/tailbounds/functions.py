"""Scalar functions of one real variable and their convex calculus.

The central object is :class:`PhiFunction`: a nonnegative function on a
half-open domain ``[lo, hi)``, either a named closed form or a strictly
increasing grid of knots interpolated piecewise-linearly.  On top of it sit
the Legendre transform (`conjugate`), the biconjugate and convexity
certification.

Everything is immutable and every operation is a pure function of its
inputs; instances are safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    EmptyDomainError,
    InputError,
    NegativeInputError,
    NotCertifiedError,
    NotConvergedError,
    OutOfDomainError,
    TailboundsError,
    UnboundedObjectiveError,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the conjugate search on an unbounded domain stops here
LAMBDA_CAP = 1e8
# points per scan grid, and per geometric part where one is added
_SCAN_POINTS = 128
# ratio of successive truncation points of the scan ladder on an unbounded domain
_GROWTH_FACTOR = 4.0
# golden-section brackets stop below this width, relative to max(1, |end|)
_GOLDEN_REL_WIDTH = 1e-10


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
    ``callable``.  Closed forms carry analytic derivatives built from numpy
    ufuncs, so they evaluate whole arrays, as grids (exact piecewise-linear
    arithmetic, no extrapolation past the last knot, the right chord as
    derivative) and callables declared ``vectorized`` do; other callables
    are called once per point.
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
    # f'', where a root search of f'(lam) = x reaches it; it only steers
    # that search's steps and enters no value
    deriv2: Optional[Callable[[float], float]] = field(default=None, compare=False)
    convex: Optional[bool] = None
    label: str = ""
    # lim of f' at an unbounded top: set by each closed form, declared by a callable
    slope_lim: Optional[float] = None
    # fn, deriv and deriv2 map float arrays elementwise: every closed form and grid,
    # and the callables that declare it (see from_callable)
    vectorized: bool = field(default=False, compare=False)

    def __post_init__(self):
        ls = self.knots[0] if self.knots else None  # a grid answers on its knot span only
        if ls is not None and not ls[0] <= self.domain.lo <= self.domain.top() <= ls[-1]:
            raise InputError(f"{self.label}: domain [{self.domain.lo}, {self.domain.hi}) "
                             f"passes the knots [{ls[0]}, {ls[-1]}]")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def quadratic(coeff: float = 0.5, lo: float = 1.0, hi: float = math.inf) -> "PhiFunction":
        """coeff * lam^2; the default is the subgaussian exponent lam^2/2."""
        if not 0 < coeff < math.inf:
            raise InputError(f"quadratic coefficient must be positive and finite, got {coeff!r}")
        return PhiFunction(
            kind="quadratic", domain=Domain(lo, hi), params=(coeff,),
            fn=lambda l, c=coeff: c * l * l,
            deriv=lambda l, c=coeff: 2.0 * c * l,
            convex=True, label=f"quadratic(coeff={coeff})", slope_lim=math.inf,
            vectorized=True,
        )

    @staticmethod
    def power_log(p: float, r: float = 0.0, lo: float = 1.0, hi: float = math.inf) -> "PhiFunction":
        """lam^p * ln(e + lam)^r / p  (power family with slowly varying factor).

        numpy ufuncs only, never ``math.log`` or ``**``: a ufunc gives a
        float the bits it gives the same float inside an array, while numpy's
        SIMD ``log`` and ``pow`` may differ from libm's by an ulp.
        """
        if not 0 < p < math.inf:
            raise InputError(f"power exponent p must be positive and finite, got {p!r}")
        if not math.isfinite(r):
            raise InputError(f"log exponent r must be finite, got {r!r}")

        def _f(l, p=p, r=r):
            if r == 0.0:
                return np.power(l, p) / p
            return np.power(l, p) * np.power(np.log(np.e + l), r) / p

        def _d(l, p=p, r=r):
            if r == 0.0:
                return np.power(l, p - 1.0)
            big_l = np.log(np.e + l)
            return (np.power(l, p - 1.0) * np.power(big_l, r)
                    + np.power(l, p) * r * np.power(big_l, r - 1.0) / (p * (np.e + l)))

        def _d2(l, p=p, r=r):
            if r == 0.0:
                return (p - 1.0) * np.power(l, p - 2.0)
            big_l, el = np.log(np.e + l), np.e + l
            return ((p - 1.0) * np.power(l, p - 2.0) * np.power(big_l, r)
                    + 2.0 * r * np.power(l, p - 1.0) * np.power(big_l, r - 1.0) / el
                    + r * np.power(l, p) * np.power(big_l, r - 2.0) * (r - 1.0 - big_l)
                    / (p * el * el))

        convex = bool(p >= 1.0 and r >= 0.0)
        # f' grows without bound above p = 1 (and at p = 1 with r > 0), tends
        # to 1 at p = 1 with r = 0, and to 0 below
        slope_lim = (math.inf if p > 1.0 or (p == 1.0 and r > 0.0)
                     else 1.0 if p == 1.0 and r == 0.0 else 0.0)
        return PhiFunction(
            kind="power_log", domain=Domain(lo, hi), params=(p, r),
            fn=_f, deriv=_d, deriv2=_d2, convex=convex, label=f"power_log(p={p}, r={r})",
            slope_lim=slope_lim, vectorized=True,
        )

    @staticmethod
    def linear(slope: float = 1.0, lo: float = 1.0, hi: float = math.inf) -> "PhiFunction":
        if not 0 <= slope < math.inf:
            raise InputError(f"linear slope must be nonnegative and finite, got {slope!r}")
        return PhiFunction(
            kind="linear", domain=Domain(lo, hi), params=(slope,),
            fn=lambda l, s=slope: s * l,
            deriv=lambda l, s=slope: s,
            convex=True, label=f"linear(slope={slope})", slope_lim=slope, vectorized=True,
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
        deriv2: Optional[Callable[[float], float]] = None,
    ) -> "PhiFunction":
        """Wrap ``fn`` (and its derivatives ``deriv`` and ``deriv2``) on [lo, hi).

        ``vectorized=True`` promises that ``fn``, ``deriv`` and ``deriv2``
        map a float array elementwise to exactly what they return for each
        scalar, so :meth:`values`, :meth:`derivatives` and
        :meth:`second_derivatives` call them once per array; build such
        bodies from numpy ufuncs, not ``math`` functions or ``**``, so that
        a scalar and an array give the same bits.  Otherwise
        ``values`` calls ``fn`` once per point.  ``convex=None`` asks
        :func:`certify_convex`.  The verdict licenses the saddle map and the
        certificates that need a convex ``fn``; no Legendre value reads it.
        ``deriv2`` only steers the root searches of f'(lam) = x (see
        :func:`_slope_roots`), which take Newton steps where ``deriv`` and
        ``deriv2`` are both given: no value, certificate or report reads it.
        A NaN gives a midpoint; an inaccurate one costs steps, and one many
        times too large can run a search into its step cap, so return NaN
        where it has no digits left.
        """
        f = PhiFunction(kind="callable", domain=Domain(lo, hi), fn=fn,
                        deriv=deriv, deriv2=deriv2, convex=convex, label=label,
                        slope_lim=slope_lim, vectorized=vectorized)
        if convex is None:
            object.__setattr__(f, "convex", certify_convex(f))
        return f

    @staticmethod
    def from_grid(lambdas: Sequence[float], values: Sequence[float]) -> "PhiFunction":
        """The piecewise-linear function through the knots, on [first knot,
        last knot]: its derivative at lam is the chord of the piece to the
        right of lam, the last chord at the last knot, and it is convex where
        its chords never fall, to 1e-12 of the largest."""
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
        slopes = _chords(lam, val)
        convex = bool(np.all(np.diff(slopes) >= -1e-12 * max(1.0, np.abs(slopes).max())))
        lam.setflags(write=False)
        val.setflags(write=False)
        last = slopes.size - 1
        return PhiFunction(
            kind="grid", domain=Domain(float(lam[0]), hi),
            knots=(lam, val),
            fn=lambda l: np.interp(l, lam, val),
            deriv=lambda l: slopes[np.minimum(np.searchsorted(lam, l, side="right") - 1, last)],
            convex=convex, label=f"grid[{lam.size} knots]", vectorized=True,
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
        v = float(self.fn(lam))
        if not math.isfinite(v):
            raise NegativeInputError(f"{self.label}: non-finite value at lam={lam}")
        if v < 0:
            if v > -1e-12:
                return 0.0
            raise NegativeInputError(f"{self.label}: negative value {v} at lam={lam}")
        return v

    def values(self, lams) -> np.ndarray:
        """``[value(l) for l in lams]`` as an array of the same shape.

        Equal to the scalar calls bit for bit; the first failing point
        raises the error its scalar call raises.  Grids, the closed forms
        and vectorized callables evaluate the points in the domain in one
        array call; other callables call ``fn`` once per point, in a plain
        loop.  Both then take the same array checks.
        """
        lams = np.asarray(lams, dtype=float)
        flat = lams.ravel()
        inside = self.domain.contains(flat)
        n = flat.size if inside.all() else int(np.argmin(inside))
        head = flat[:n]
        if self.vectorized:
            v = np.asarray(self.fn(head), dtype=float)
            if v.shape != head.shape:  # a scalar answer
                v = np.broadcast_to(v, head.shape)
        else:
            points = head.tolist()
            try:
                v = np.fromiter(map(self.fn, points), dtype=float, count=n)
            except Exception:
                for t in points:
                    self.value(t)  # an earlier failing point raises first
                raise
        bad = ~np.isfinite(v) | (v <= -1e-12)
        if bad.any():
            self.value(head[int(np.argmax(bad))])  # raises that point's error
        if n < flat.size:
            self.value(flat[n])
        return np.where(v < 0.0, 0.0, v).reshape(lams.shape)

    def derivatives(self, lams) -> np.ndarray:
        """``[derivative(l) for l in lams]`` as an array, bit for bit."""
        return self._elementwise(self.deriv, lams, "derivative")

    def second_derivatives(self, lams) -> np.ndarray:
        """``deriv2`` at each lam, as :meth:`derivatives` gives ``deriv``."""
        return self._elementwise(self.deriv2, lams, "second derivative")

    def _elementwise(self, fn, lams, name: str) -> np.ndarray:
        """``fn`` at each lam of the array ``lams``, in its shape, raising
        what the first failing lam's scalar call raises: InputError naming
        ``name`` where ``fn`` is None, else OutOfDomainError outside
        [lo, hi) or ``fn``'s own error.  One call where ``fn`` is
        vectorized, after the domain check of every lam; else one per lam,
        each after its own check."""
        lams = np.asarray(lams, dtype=float)
        if fn is None and lams.size:
            raise InputError(f"{self.label}: no {name}")
        if fn is not None and self.vectorized:
            inside = self.domain.contains(lams)
            if not inside.all():
                raise OutOfDomainError(float(lams.ravel()[int(np.argmin(inside.ravel()))]),
                                       self.domain.lo, self.domain.hi)
            d = np.asarray(fn(lams), dtype=float)
            return np.array(d if d.shape == lams.shape else np.broadcast_to(d, lams.shape))
        out = []
        for t in lams.ravel().tolist():
            if not self.domain.contains(t):
                raise OutOfDomainError(t, self.domain.lo, self.domain.hi)
            out.append(float(fn(t)))
        return np.array(out, dtype=float).reshape(lams.shape)

    def derivative(self, lam: float) -> float:
        """The analytic derivative ``deriv`` at lam; InputError for a
        function without one, OutOfDomainError outside [lo, hi)."""
        if self.deriv is None:
            raise InputError(f"{self.label}: no derivative")
        lam = float(lam)
        if not self.domain.contains(lam):
            raise OutOfDomainError(lam, self.domain.lo, self.domain.hi)
        return float(self.deriv(lam))

    def slope_limit(self) -> Optional[float]:
        """lim of the derivative at the upper end of an unbounded domain:
        ``slope_lim``, which each closed form's constructor sets and a
        callable may declare.  The conjugate diverges at every x above it
        (Rockafellar, *Convex Analysis*, section 26).  ``None`` on a bounded
        domain, or where unknown: then the scan of the conjugate decides.
        """
        return None if self.domain.bounded else self.slope_lim


def certify_convex(f: PhiFunction) -> bool:
    """Numerically certify convexity by second differences on a probe grid.

    A positive certificate is a statement about the probe grid only, [lo,
    top] on a bounded domain and [lo, max(100, 10 max(lo, 1))] on an
    unbounded one; it licenses the saddle map (``lower_bilateral._saddle_table``)
    and the certificates built on it.  The Legendre search does not read it.
    A grid returns the verdict of :meth:`PhiFunction.from_grid` on its
    chords, the one the saddle map reads.
    """
    if f.kind == "grid":
        return f.convex
    top = f.domain.top()
    if not math.isfinite(top):
        top = max(100.0, 10.0 * max(f.domain.lo, 1.0))
    grid = np.linspace(f.domain.lo, top, 257)
    vals = f.values(grid)
    second = np.diff(vals, 2)
    scale = max(1.0, float(np.abs(vals).max()))
    return bool(np.all(second >= -1e-9 * scale))


# --------------------------------------------------------------------------
# Legendre transform
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateResult:
    """Tabulated Legendre transform with its maximizer trace.

    ``values`` may contain +inf where the supremum diverges; ``argmax`` is
    NaN there.  ``argmax`` equals the derivative of the transform wherever
    the input is convex (envelope theorem), which downstream saddle-point
    code relies on.  ``capped`` is True where the maximizer stopped at
    ``LAMBDA_CAP`` on an unbounded domain, so that the value is the
    supremum over [lo, LAMBDA_CAP] only; a biconjugate, whose outer search
    has no such cap, is False throughout.
    """

    x_grid: np.ndarray
    values: np.ndarray
    argmax: np.ndarray
    capped: np.ndarray


def _chords(ls: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The slopes of the pieces of the piecewise-linear function through
    the knots (ls, vs), ls increasing: one fewer than the knots."""
    return np.diff(vs) / np.diff(ls)


def _checked_grid(grid, name: str) -> np.ndarray:
    """``grid`` as a float array; InputError unless it is 1-d, nonempty,
    finite and strictly increasing, as every entry point asks of a grid."""
    xs = np.asarray(grid, dtype=float)
    if not (xs.ndim == 1 and xs.size and np.isfinite(xs).all() and (np.diff(xs) > 0).all()):
        raise InputError(f"{name} must be a nonempty 1-d grid of finite, strictly increasing points")
    return xs


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of a float array without NaNs or negative zeros.

    np.unique without return_index or return_inverse imports numpy.ma (about
    10 ms) on its first call, through its np.ma.is_masked check; the
    return_inverse call in lower_bilateral skips that check.
    """
    s = np.sort(a)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _scan_grid(lo: float, hi: float) -> np.ndarray:
    pts = [np.linspace(lo, hi, _SCAN_POINTS)]
    if lo > 0 and hi > 100.0 * lo:
        pts.append(np.geomspace(lo, hi, _SCAN_POINTS))
    elif lo == 0.0 and hi > 100.0:
        pts.append(np.geomspace(min(1e-6, hi * 1e-9), hi, _SCAN_POINTS))
    return _sorted_unique(np.concatenate(pts))


def _stationary_points(f: PhiFunction, xs: np.ndarray, top: float) -> Optional[np.ndarray]:
    """The maximizer of ``lam*x - f(lam)`` over [lo, top] at each x, where
    it is known; None for a kind without a closed form.

    Every kind here is convex, so the unconstrained stationary point
    clipped to [lo, top] is the constrained maximizer.
    """
    if f.kind == "quadratic":
        lam = xs / (2.0 * f.params[0])
    elif f.kind == "power_log" and f.params[1] == 0.0 and f.params[0] > 1.0:
        e = 1.0 / (f.params[0] - 1.0)
        # x**e as a Python float, point by point: np.power may differ by an
        # ulp; compare in logs first, since for p near 1 x**e overflows
        lam = np.array([0.0 if x <= 0.0
                        else top if top <= 0.0 or math.log(x) * e >= math.log(top)
                        else x ** e for x in xs.tolist()])
    elif f.kind == "linear":
        lam = np.where(xs <= f.params[0], f.domain.lo, top)
    else:
        return None
    # a point inside [lo, top] keeps its bits, a -0.0 included
    lam = np.where(f.domain.lo > lam, f.domain.lo, lam)
    return np.where(top < lam, top, lam)


def _scan_ladder(f: PhiFunction, xs: np.ndarray) -> tuple[np.ndarray, dict]:
    """The scan of ``lam*x - f(lam)`` for every x at once, on one ladder.

    The ladder of truncation points is the top of a bounded domain, or on
    an unbounded one base * 4**k, base = max(10, 4 max(lo, 1)), up to
    ``LAMBDA_CAP``, which is the last.  Each x starts at the first one at
    or above 4|x| and climbs while its argmax is the top point of the grid;
    at the last it stops there if ``f`` is bounded or has a slope limit,
    and is refused with UnboundedObjectiveError otherwise.  Each
    level's grid is evaluated once, in one ``values`` call, for all the
    x on it, and where that call raises, each of them takes its error.
    Returns the rows of :func:`_best_rows` per x, and the errors by index.
    """
    unbounded = not f.domain.bounded
    levels = [max(10.0, 4.0 * max(f.domain.lo, 1.0)) if unbounded else f.domain.top()]
    while unbounded and levels[-1] < LAMBDA_CAP:
        levels.append(min(levels[-1] * _GROWTH_FACTOR, LAMBDA_CAP))
    level = np.minimum(np.count_nonzero(np.array(levels) < 4.0 * np.abs(xs)[:, None], axis=1),
                       len(levels) - 1)
    out, errors = np.full((4, xs.size), math.nan), {}
    for k, top in enumerate(levels):
        rows = np.flatnonzero(level == k)
        if rows.size == 0:
            continue
        grid = _scan_grid(f.domain.lo, top)
        try:
            phi = f.values(grid)
        except TailboundsError as exc:
            errors.update(dict.fromkeys(rows.tolist(), exc))
            continue
        best = _best_rows(xs[rows], grid, phi)
        rising = best[2] == grid[-1]
        if k < len(levels) - 1:
            level[rows[rising]] += 1
            rows, best = rows[~rising], best[:, ~rising]
        elif unbounded and f.slope_limit() is None:
            for j in rows[rising].tolist():
                errors[j] = UnboundedObjectiveError(float(xs[j]), grid[-6:])
        out[:, rows] = best
    return out, errors


def _best_rows(xs: np.ndarray, grid: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The argmax lam of ``x*grid - phi`` over an increasing grid for each
    x, and its grid neighbours a <= lam <= b: rows (a, b, lam, value), one
    column per x.  Forms at most 2**16 objective values at a time, so a
    long table's memory stays bounded."""
    n = grid.size
    out = np.empty((4, xs.size))
    for r in np.array_split(np.arange(xs.size), max(1, -(-xs.size * n // (1 << 16)))):
        vals = xs[r, None] * grid - phi
        i = np.argmax(vals, axis=1)
        out[:, r] = [grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, n - 1)], grid[i],
                     vals[np.arange(r.size), i]]
    return out


def _brent_section(objective, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Brent's narrowing of every bracket [a_r, b_r] at once toward a
    maximizer of an objective (R. P. Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 5), in lockstep.

    ``objective(rows, pts)`` evaluates bracket ``rows[i]`` at ``pts[i]``
    for every i in one call, NaN where that fails; such a bracket stops,
    its best value NaN.  One call evaluates the golden inner points c < d
    of every bracket; the best point x is d where f(d) >= f(c), else c.  A
    bracket born no wider than ``_GOLDEN_REL_WIDTH`` relative to max(1,
    |a|, |b|) stops there.  The others keep [c, b] or [a, d] around x and
    step, one call per step, until they are that narrow.  Each step
    evaluates one new point per bracket: the vertex of the parabola through
    x and the two points last best, where Brent's safeguards accept it,
    else a golden step into the larger side of x; never nearer x than a
    quarter of the stop width.  Returns x and the objective there.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    every = np.arange(a.size)
    fc, fd = np.split(objective(np.concatenate([every, every]), np.concatenate([c, d])), 2)
    right = fd >= fc
    x, fx = np.where(right, d, c), np.where(right, fd, fc)
    fx[np.isnan(fc) | np.isnan(fd)] = math.nan
    rows = np.flatnonzero(((b - a) > _GOLDEN_REL_WIDTH * np.maximum(
        1.0, np.maximum(np.abs(a), np.abs(b)))) & ~np.isnan(fx))
    if rows.size == 0:
        return x, fx
    # per row: bracket, best point, the two last best, the step before last, the last step
    a, b, c, d, fc, fd, right = (v[rows] for v in (a, b, c, d, fc, fd, right))
    s = np.array([np.where(right, c, a), np.where(right, b, d), x[rows], fx[rows],
                  np.where(right, c, d), np.where(right, fc, fd), c, fc, *np.zeros((2, c.size))])
    while True:
        width = _GOLDEN_REL_WIDTH * np.maximum(1.0, np.maximum(np.abs(s[0]), np.abs(s[1])))
        go = ((s[1] - s[0]) > width) & ~np.isnan(s[3])
        x[rows[~go]], fx[rows[~go]] = s[2, ~go], s[3, ~go]
        rows, s, tol = rows[go], s[:, go], 0.25 * width[go]
        if rows.size == 0:
            return x, fx
        lo, hi, bx, fbx, w, fw, v, fv, e, step = s
        m = 0.5 * (lo + hi)
        with np.errstate(all="ignore"):  # an overflowed parabola fails its tests: a golden step
            r = (bx - w) * (fbx - fv)
            q = (bx - v) * (fbx - fw)
            p = (bx - v) * q - (bx - w) * r
            q = 2.0 * (q - r)
            p, q = np.where(q > 0.0, -p, p), np.abs(q)
            para = ((np.abs(e) > tol) & (np.abs(p) < np.abs(0.5 * q * e))
                    & (p > q * (lo - bx)) & (p < q * (hi - bx)))
            gold = np.where(bx >= m, lo - bx, hi - bx)
            e, step = (np.where(para, step, gold),
                       np.where(para, p / np.where(para, q, 1.0), (1.0 - _GOLDEN) * gold))
        u = bx + step
        near = para & (((u - lo) < 2.0 * tol) | ((hi - u) < 2.0 * tol))
        step = np.where(near, np.where(bx < m, tol, -tol), step)
        u = bx + np.where(np.abs(step) >= tol, step, np.where(step < 0.0, -tol, tol))
        fu = objective(rows, u)
        up, left = fu >= fbx, u < bx
        to_w = up | (fu >= fw) | (w == bx)
        to_v = ~to_w & ((fu >= fv) | (v == bx) | (v == w))
        s = np.array([
            np.where(left, np.where(up, lo, u), np.where(up, bx, lo)),
            np.where(left, np.where(up, bx, hi), np.where(up, hi, u)),
            np.where(up, u, bx), np.where(up | np.isnan(fu), fu, fbx),
            np.where(up, bx, np.where(to_w, u, w)), np.where(up, fbx, np.where(to_w, fu, fw)),
            np.where(to_w, w, np.where(to_v, u, v)), np.where(to_w, fw, np.where(to_v, fu, fv)),
            e, step])


def _values_or_errors(f: PhiFunction, lams: np.ndarray) -> tuple[np.ndarray, dict]:
    """``f.values(lams)`` in one call, and no errors.  Where that raises,
    point by point instead: each point takes its own value, or its own
    error by index and NaN."""
    try:
        return f.values(lams), {}
    except TailboundsError:
        pass
    vals, errors = np.full(lams.size, math.nan), {}
    for j, t in enumerate(lams.tolist()):
        try:
            vals[j] = f.value(t)
        except TailboundsError as exc:
            errors[j] = exc
    return vals, errors


def conjugate_values(f: PhiFunction, xs: Sequence[float]) -> tuple[np.ndarray, np.ndarray, dict]:
    """:func:`conjugate_value` at each x of a 1-d sequence, in one search.

    Returns (values, argmax, errors): ``errors`` maps the index of each x
    whose :func:`conjugate_value` call raises a package error to that
    error, and values and argmax are NaN there.  No x's result depends on
    the other x's, so the batch equals its one-point calls bit for bit.
    The path is chosen once for the table, by the kind of ``f``.  A grid
    solves each x at the knots inside its domain and, where the domain is
    narrower than the knot span, at the domain's ends, interpolated
    there.  Where the chords of those knots never fall, as on a convex
    grid, one sorted search of the chords gives every x its argmax, the
    first knot whose chord reaches x (Y. Lucet, *Numer. Algorithms* 16,
    1997); otherwise each x takes the first argmax over the knots, by
    the scan's :func:`_best_rows`.
    For the other kinds, the x above
    :meth:`PhiFunction.slope_limit` diverge, all of them with one witness;
    a closed form takes the stationary points of the others and evaluates
    ``f`` at all of them in one ``values`` call.  Searched points share the
    scan of :func:`_scan_ladder`, one ``values`` call per level of its
    ladder.  Each scan bracket is then narrowed: where ``f`` has a
    derivative, to the root of f'(lam) = x at 1e-13 relative width, by
    Newton steps where ``f`` also has ``deriv2``, else by halvings
    (:func:`_slope_roots`; where no end of a closed bracket moves, it
    shrinks to the scan's point, and an open one is NotConvergedError),
    otherwise by Brent's parabolic and golden steps (:func:`_brent_section`),
    one ``values`` call per step for all of them.  One ``values`` call
    gives a root's bracket its two inner points, too close for a step; the
    better, the larger on a tie, is its best point.  One array pick then
    ends every search: the best point, unless the scan's point is strictly
    better.
    """
    x_arr = np.asarray(xs, dtype=float).ravel()
    if f.kind == "grid":
        ls, vs = f.knots
        lo, top = f.domain.lo, f.domain.top()
        if lo > ls[0] or top < ls[-1]:
            ls = _sorted_unique(np.concatenate(([lo, top], ls[(ls > lo) & (ls < top)])))
            vs = np.interp(ls, *f.knots)
        chords = _chords(ls, vs)
        if np.all(chords[1:] >= chords[:-1]):
            # lam*x - v rises while the chord ahead is below x, and never
            # again: the first knot whose chord reaches x is the argmax
            i = np.searchsorted(chords, x_arr)
            return ls[i] * x_arr - vs[i], ls[i], {}
        _, _, arg, vals = _best_rows(x_arr, ls, vs)
        return vals, arg, {}
    vals = np.full(x_arr.size, math.nan)
    arg = np.full(x_arr.size, math.nan)
    lim = f.slope_limit()
    diverges = x_arr > (math.inf if lim is None else lim)
    witness = np.geomspace(max(f.domain.lo, 1.0), LAMBDA_CAP, 8) if diverges.any() else None
    errors: dict = {k: UnboundedObjectiveError(float(x_arr[k]), witness)
                    for k in np.flatnonzero(diverges).tolist()}
    ks = np.flatnonzero(~diverges)
    if ks.size == 0:
        return vals, arg, errors
    top = f.domain.top()
    lam = _stationary_points(f, x_arr[ks], top if math.isfinite(top) else LAMBDA_CAP)
    if lam is not None:
        phi, failed = _values_or_errors(f, lam)
        errors.update((int(ks[j]), exc) for j, exc in failed.items())
        vals[ks] = lam * x_arr[ks] - phi
        arg[ks] = np.where(np.isnan(vals[ks]), math.nan, lam)
        return vals, arg, errors
    (a, b, lam, flam), failed = _scan_ladder(f, x_arr[ks])
    errors.update((int(ks[j]), exc) for j, exc in failed.items())
    go = ~np.isin(np.arange(ks.size), list(failed))
    if not go.any():
        return vals, arg, errors
    ks, bx = ks[go], x_arr[ks[go]]
    a, b, lam, flam = (row[go] for row in (a, b, lam, flam))
    if f.deriv is not None:
        # the root of f'(lam) = x; where no end of a closed bracket moved,
        # the scan's point stands (an open one is an error, NaN below)
        a2, b2, stuck = _slope_roots(f, a, b, bx)
        errors.update((int(ks[j]), exc) for j, exc in stuck.items())
        settled = (a2 == a) | (b2 == b)
        a, b = np.where(settled, lam, a2), np.where(settled, lam, b2)

    def objective(rows, pts):
        phi, failed = _values_or_errors(f, pts)
        for j, exc in reversed(failed.items()):  # so a row keeps its first point's error
            errors[int(ks[rows[j]])] = exc
        return pts * bx[rows] - phi

    # the search's best point; the scan's point only where strictly better
    at, best = _brent_section(objective, a, b)
    scan = flam > best
    vals[ks] = np.where(scan, flam, best)
    arg[ks] = np.where(np.isnan(best), math.nan, np.where(scan, lam, at))
    vals[list(errors)] = arg[list(errors)] = math.nan
    return vals, arg, errors


def _stars(f: PhiFunction, xs, lower_at=None) -> tuple[np.ndarray, np.ndarray]:
    """f*(x) and its maximizer at each x; raises the first x's error.

    ``lower_at`` (one point per x) says the stars are the exponents of a
    lower bound at those points.  A star whose maximizer stopped at
    ``LAMBDA_CAP`` on an unbounded domain is the supremum over [lo,
    LAMBDA_CAP] only: too small for that, though safe in an upper bound.
    So the first such point is refused too, with NotCertifiedError.
    """
    stars, arg, errors = conjugate_values(f, xs)
    if lower_at is not None and not f.domain.bounded:
        # a point with an error has a NaN argmax, never the cap
        for k in np.flatnonzero(arg == LAMBDA_CAP)[:1].tolist():
            errors[k] = NotCertifiedError(
                f"the conjugate behind the lower bound at {float(lower_at[k])!r} stops at "
                f"the search cap lambda = {LAMBDA_CAP:g}, so it is too small there")
    _raise_first(errors)
    return stars, arg


def _raise_first(errors: dict, skip=()) -> None:
    """Raise the error of the smallest index in ``errors`` that is not an
    instance of a ``skip`` type; return if there is none."""
    for k in sorted(errors):
        if not isinstance(errors[k], skip):
            raise errors[k]


def _inf_where_unbounded(vals: np.ndarray, errors: dict) -> None:
    """Set +inf in ``vals`` where the supremum diverges; raise any other
    error of :func:`conjugate_values`, the one of the smallest index."""
    _raise_first(errors, (UnboundedObjectiveError,))
    vals[list(errors)] = math.inf


def conjugate_value(f: PhiFunction, x: float) -> tuple[float, float]:
    """sup over the domain of ``lam*x - f(lam)``; returns (value, argmax).

    The one-point case of :func:`conjugate_values`, which says how each
    kind is solved.  Raises InputError for a non-finite x, and
    UnboundedObjectiveError with the witness sequence when the supremum
    diverges.  On an unbounded domain both the closed forms and the search
    stop at ``LAMBDA_CAP``.
    """
    vals, arg, errors = conjugate_values(f, _checked_grid([x], "x"))
    _raise_first(errors)
    return float(vals[0]), float(arg[0])


def conjugate(f: PhiFunction, x_grid: Sequence[float]) -> ConjugateResult:
    """Legendre transform of ``f`` on a strictly increasing grid of x >= 0.

    Divergent points are flagged with +inf values (NaN argmax) rather than
    raised, since envelopes legitimately hit them; callers that need a hard
    error use :func:`conjugate_value`.  Any other error is raised, the one
    of the smallest x first.  The points are solved together by
    :func:`conjugate_values`, whose searched points share one scan ladder.
    """
    xs = _checked_grid(x_grid, "x_grid")
    if xs[0] < 0:
        raise InputError("x_grid entries must be >= 0")

    vals, arg, errors = conjugate_values(f, xs)
    _inf_where_unbounded(vals, errors)
    capped = (arg == LAMBDA_CAP) & (not f.domain.bounded)
    return ConjugateResult(x_grid=xs, values=vals, argmax=arg, capped=capped)


def biconjugate(f: PhiFunction, lam_grid: Sequence[float]) -> ConjugateResult:
    """(f*)* on ``lam_grid``, the closed convex envelope of ``f``: the
    supremum over x >= 0 of lam*x - f*(x), which is concave in x and peaks
    where f*'s maximizer, a subgradient of f* (Rockafellar, *Convex
    Analysis*, section 23), crosses lam.  One :func:`conjugate_values` call
    on the ladder max(1, lo)*2**k gives the window and each lam's bracket;
    the ladder stops at its first divergent point (not raised), maximizer
    past 1.0001 max(lam) + 1e-9 or point past 1e12, and errors before the
    stop raise.  The brackets bisect "maximizer(x) < lam" in lockstep (100
    halvings, 1e-13 relative), so that a flat top is read at its smallest
    x, where rounding is least; one last call keeps the better end.
    """
    lams = _checked_grid(lam_grid, "lam_grid")
    ladder = max(1.0, f.domain.lo) * 2.0 ** np.arange(41)  # 2**40 passes 1e12
    ladder = ladder[:int(np.argmax(ladder > 1e12)) + 1]
    _, arg, errors = conjugate_values(f, ladder)
    stop = arg > float(lams[-1]) * 1.0001 + 1e-9
    stop[[k for k, e in errors.items() if isinstance(e, UnboundedObjectiveError)]] = True
    n = int(np.argmax(stop)) + 1 if stop.any() else ladder.size
    _raise_first({k: e for k, e in errors.items() if k < n}, (UnboundedObjectiveError,))
    # each bracket ends past the window's points whose maximizer is below lam
    pts = np.concatenate(([0.0], ladder[:n]))
    j = np.minimum(np.count_nonzero(arg[:n] < lams[:, None], axis=1) + 1, n)

    def fstar(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v, arg, errors = conjugate_values(f, xs)
        _inf_where_unbounded(v, errors)  # so that lam*x - f*(x) reads -inf there
        return v, arg

    a, b = _bisect_rows(pts[j - 1], pts[j], lambda rows, m: (fstar(m)[1] < lams[rows], np.nan),
                        100, 1e-13)
    ends = np.stack([a, b])
    obj = lams * ends - fstar(ends.ravel())[0].reshape(ends.shape)
    keep_b = obj[1] > obj[0]
    return ConjugateResult(x_grid=lams, values=np.where(keep_b, obj[1], obj[0]),
                           argmax=np.where(keep_b, b, a), capped=np.zeros(lams.size, dtype=bool))


# --------------------------------------------------------------------------
# Bisection
# --------------------------------------------------------------------------


# the least relative stop width of a search, the spacing of doubles at 1: a
# search of rel = 0 stops within a spacing or two of doubles at max(1, |b|)
_REL_MIN = 2.0 ** -52


def _bisect(a, b, below, steps, rel=0.0):
    """Bisection on [a, b], by Newton steps where ``below`` gives them.

    ``below(t)`` answers t with a pair: whether the answer holds at t, and
    the Newton step from t toward the root (NaN where there is none).  The
    search keeps [t, b] where the answer holds, else [a, t].  The first t
    is the midpoint; each next t is t + step where that lies strictly inside
    the new bracket, else the midpoint (W. H. Press et al., *Numerical
    Recipes*, 3rd ed., 2007, section 9.4), so a NaN step halves.  With w a
    quarter of the stop width rel*max(1, |b|), and at least the spacing of
    doubles at t, two probes close brackets that Newton's steps alone would
    leave open: a step shorter than w goes w into the new bracket, to the
    far side of the root, so that the next step closes it; and a step past
    an end that has not moved yet goes w inside that end, once.  Stops after
    ``steps`` tests, or before a test once b - a <= rel * max(1, |b|), rel
    at least ``_REL_MIN``; returns (a, b).

    The scalar loop of :func:`_bisect_rows`, for the searches that test one
    point at a time: numpy's per-call overhead makes a one-row array search
    about forty times slower than this loop.
    """
    rel = max(rel, _REL_MIN)
    a0, b0, t, probed = a, b, 0.5 * (a + b), False
    for _ in range(steps):
        if b - a <= rel * max(1.0, abs(b)):
            break
        ok, step = below(t)
        if ok:
            a = t
        else:
            b = t
        mid = 0.5 * (a + b)
        w = max(0.25 * rel * max(1.0, abs(b)), math.ulp(t))
        nxt = t + ((w if ok else -w) if abs(step) < w else step)
        if not probed and nxt <= a and a == a0:
            probed, nxt = True, a + w
        elif not probed and nxt >= b and b == b0:
            probed, nxt = True, b - w
        t = nxt if a < nxt < b else mid
    return a, b


def _bisect_rows(a, b, below, steps, rel=0.0):
    """:func:`_bisect` on each row of the arrays ``a`` and ``b`` at once.

    ``below(rows, t)`` answers the points t of the rows still running
    (``rows`` is their mask) in one call, with a pair: its answer, and the
    Newton step from t toward the root (NaN where there is none).  Each row
    has ``_bisect``'s stop, step and probe rules, bit for bit, and its
    arithmetic is its own.  Returns the final (a, b) arrays.
    """
    rel = max(rel, _REL_MIN)
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    rows = np.ones(a.size, dtype=bool)
    a0, b0, t, probed = a.copy(), b.copy(), 0.5 * (a + b), np.zeros(a.size, dtype=bool)
    for _ in range(steps):
        rows &= ~(b - a <= rel * np.maximum(1.0, np.abs(b)))
        if not rows.any():
            break
        m = t[rows]
        ok, step = below(rows, m)
        lo, hi = np.where(ok, m, a[rows]), np.where(ok, b[rows], m)
        a[rows], b[rows], mid = lo, hi, 0.5 * (lo + hi)
        if np.isnan(step).all():
            # no Newton step: the midpoints, which the checks below also
            # give, but at a tenth of their numpy calls (the biconjugate's
            # halvings took 35% longer through them)
            t[rows] = mid
            continue
        w = np.maximum(0.25 * rel * np.maximum(1.0, np.abs(hi)), np.spacing(np.abs(m)))
        nxt = m + np.where(np.abs(step) < w, np.where(ok, w, -w), step)
        under = (nxt <= lo) & (lo == a0[rows]) & ~probed[rows]
        over = (nxt >= hi) & (hi == b0[rows]) & ~probed[rows]
        probed[rows] |= under | over
        nxt = np.where(under, lo + w, np.where(over, hi - w, nxt))
        t[rows] = np.where((lo < nxt) & (nxt < hi), nxt, mid)
    return a, b


def _slope_roots(f: PhiFunction, a, b, xs) -> tuple[np.ndarray, np.ndarray, dict]:
    """The bracket [a, b] of the root of f'(lam) = x for each row of ``xs``:
    :func:`_bisect_rows` of f'(lam) <= x, 100 steps at most and down to
    1e-13 relative width, by Newton steps on f'' where ``f`` has
    ``deriv2``, else by halvings.  f'' only steers, and the bracket
    decides the root: a NaN or non-positive f'' gives a midpoint, and an
    inaccurate one costs steps (one many times too large, up to the cap).
    Returns (a, b) and, by row, the NotConvergedError of each left open."""

    def below(rows, t):
        d = f.derivatives(t)
        if f.deriv2 is None:
            return d <= xs[rows], np.nan
        with np.errstate(all="ignore"):
            return d <= xs[rows], (xs[rows] - d) / f.second_derivatives(t)

    a, b = _bisect_rows(a, b, below, 100, 1e-13)
    wide = np.flatnonzero(b - a > 1e-13 * np.maximum(1.0, np.abs(b)))
    return a, b, {j: NotConvergedError(
        f"the root of phi'(lam) = {float(xs[j])!r} is still in [{float(a[j])!r}, "
        f"{float(b[j])!r}] after 100 steps") for j in wide.tolist()}


def _grow_rows(b, below, limit):
    """The bracket growth that comes before :func:`_bisect_rows`: doubles
    each row of ``b`` while ``below(rows, b[rows])`` holds there, at most
    ``limit`` times, so a row tests b, 2b, ..., 2**limit b.

    ``below`` answers the rows still growing (``rows`` is their mask) in
    one call.  Returns the final ``b`` and the mask of the rows below at
    their last test, those that ran out of doublings.
    """
    b = np.array(b, dtype=float)
    rows = np.ones(b.size, dtype=bool)
    for k in range(limit + 1):
        if not rows.any():
            break
        if k:
            b[rows] *= 2.0
        rows[rows] = below(rows, b[rows])
    return b, rows


def _first_at_one(f: PhiFunction, probe: np.ndarray, vals: np.ndarray, rel: float):
    """The first lam where an increasing ``f`` reaches 1, or None where no
    point of the increasing ``probe`` does (``vals`` is f there): the first
    probe point at or above 1, and where a probe point lies before it, the
    top of that bracket after a :func:`_bisect` search of f < 1, 60 tests
    at most, to relative width ``rel``: Newton steps (1 - f)/f' where ``f``
    has a derivative and it is positive, else halvings.  f >= 1 at the
    returned lam."""
    i = int(np.argmax(vals >= 1.0))
    if not vals[i] >= 1.0:
        return None
    if i == 0:
        return float(probe[0])

    def below(t):
        v = f.value(t)
        d = math.nan if f.deriv is None else f.derivative(t)
        return not v >= 1.0, (1.0 - v) / d if d > 0.0 else math.nan

    return _bisect(float(probe[i - 1]), float(probe[i]), below, 60, rel)[1]


# --------------------------------------------------------------------------
# CSV loading
# --------------------------------------------------------------------------


def _read_csv_columns(path: str, header: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """Numeric columns under ``header``, which the file's header must start with.

    Every entry must be finite and nonnegative, and the first column must
    strictly increase; errors carry the line number.  ``np.loadtxt`` parses
    the data rows in C as one array for the checks.  Where it raises, a
    check fails or no row has data (where it would warn), :func:`_csv_walk`
    words the first failing row's error, or returns the table of what only
    ``float`` and ``csv`` accept (``1_000``, whitespace-only rows).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        head = next(rows, None)
        if head is None:
            raise InputError(f"{path}: need at least 2 data rows")
        got = tuple(c.strip().lower() for c in head)
        if got[:len(header)] != header:
            raise InputError(f"{path}:1: expected header {','.join(header)!r}, "
                             f"got {','.join(got)!r}")
        n = len(header)
        try:
            rest = fh.read()
            table = np.loadtxt(io.StringIO(rest), delimiter=",", quotechar='"', comments=None,
                               usecols=range(n), ndmin=2) if rest.strip() else None
        except ValueError:  # a bad byte or cell: the walk meets it in its row
            table = None
        if table is None or not (table.shape[0] >= 2 and np.isfinite(table).all()
                                 and (table >= 0.0).all() and (table[1:, 0] > table[:-1, 0]).all()):
            fh.seek(0)
            rows = csv.reader(fh)
            next(rows)
            table = _csv_walk(path, rows, n)
    return tuple(table.T)


def _csv_walk(path: str, rows, n: int) -> np.ndarray:
    """The data rows after the header, one by one, blank rows skipped:
    raises the InputError of the first row that is short, not numeric, not
    finite and nonnegative, or not above the row before, numbered by its
    line, else returns their table."""
    data: list = []
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < n:
            raise InputError(f"{path}:{lineno}: expected {n} columns, got {len(row)}")
        try:
            nums = [float(c) for c in row[:n]]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: non-numeric entry: {exc}") from None
        bad = [c.strip() for c, v in zip(row, nums) if not (math.isfinite(v) and v >= 0.0)]
        if bad:
            raise InputError(f"{path}:{lineno}: entries must be finite and nonnegative, "
                             f"got {bad[0]!r}")
        if data and nums[0] <= data[-1][0]:
            raise InputError(
                f"{path}:{lineno}: first column must be strictly increasing "
                f"({nums[0]} after {data[-1][0]})"
            )
        data.append(nums)
    if len(data) < 2:
        raise InputError(f"{path}: need at least 2 data rows")
    return np.array(data)
