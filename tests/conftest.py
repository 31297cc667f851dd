import math

import hypothesis
import numpy as np
import pytest

from tailbounds.functions import PhiFunction

hypothesis.settings.register_profile(
    "ci", max_examples=60, derandomize=True, deadline=None
)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def x_grid():
    return np.linspace(1.0, 8.0, 15)


def weibull_log_mgf_closed_m2(lam: float) -> float:
    """Closed form of ln E e^{lam X} for tail exp(-x^2), a cross-check."""
    # E e^{lam X} = 1 + lam * (sqrt(pi)/2) e^{lam^2/4} (1 + erf(lam/2))
    if lam == 0.0:
        return 0.0
    t = lam * lam / 4.0 + math.log(lam * math.sqrt(math.pi) / 2.0 * (1.0 + math.erf(lam / 2.0)))
    return t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t))


def dilated(f: PhiFunction, c: float, lo: float, hi: float) -> PhiFunction:
    """mu -> f(c*mu) on [lo, hi) as a vectorized callable wrapper, with a
    derivative where ``f`` has one."""
    return PhiFunction.from_callable(
        lambda mu: f.values(c * np.asarray(mu)), lo, hi,
        deriv=(lambda mu: c * f.derivatives(c * np.asarray(mu))) if f.deriv else None,
        convex=f.convex, label=f"dilated[{f.label}]x{c:.4g}", vectorized=True,
    )


def validate_conjugate(res, tol: float = 1e-7) -> None:
    """A conjugate table's invariants: values and argmax trace nondecreasing,
    values convex along the grid where finite."""
    v, a = res.values, res.argmax
    fin = np.isfinite(v)
    scale = max(1.0, float(np.abs(v[fin]).max())) if fin.any() else 1.0
    if np.any(np.diff(v) < -tol * scale):
        raise AssertionError("conjugate values not nondecreasing")
    af = a[fin]
    if af.size and np.any(np.diff(af) < -tol * max(1.0, float(np.abs(af).max()))):
        raise AssertionError("argmax trace not nondecreasing")
    vf = v[fin]
    if vf.size >= 3:
        chords = np.diff(vf) / np.diff(res.x_grid[fin])
        if np.any(np.diff(chords) < -1e-6 * max(1.0, float(np.abs(chords).max()))):
            raise AssertionError("conjugate values not convex along the grid")


def validate_monotone(env) -> None:
    """An envelope's log values are nonincreasing in x, to 1e-9 relative."""
    lv = env.log_values
    finite = np.isfinite(lv)
    scale = max(1.0, float(np.abs(lv[finite]).max())) if finite.any() else 1.0
    if np.any(np.diff(lv) > 1e-9 * scale):
        raise AssertionError("envelope values must be nonincreasing in x")
