"""The in-package special functions against scipy.special and mpmath.

mpmath at 30 digits is the reference; scipy.special is the implementation
the kernels replaced.  Relative errors are taken against max(|value|, tiny),
the smallest normal double, so that a result in the subnormal range is held
to 1e-14 * tiny absolute.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbounds import oracles

TINY = np.finfo(float).tiny
REL = 1e-14
EDGE_U = (2.0 ** -54, 0.5, 1.0 - 2.0 ** -53, 1e-300, 5e-324, 0.075, 0.925, 1.2e-11)
EDGE_X = (-37.5, 37.5, -37.0, 37.0, -40.0, 40.0, 0.0, -1e-300, 1e-300, 6.0, -6.0)
# every x at which validate evaluates a Gaussian tail
VALIDATE_X = sorted(set(np.concatenate([
    np.linspace(1.0, 8.0, 15), np.linspace(1.0, 6.0, 6), np.linspace(2.0, 8.0, 13),
    [1.0, 2.0]]).tolist()))


def rel_err(got: float, want) -> float:
    return float(abs(mp.mpf(got) - want) / max(abs(want), TINY))


def mp_log_ndtr(x: float):
    with mp.workdps(30):
        x = mp.mpf(x)
        return +(mp.log1p(-mp.ncdf(-x)) if x > 0 else mp.log(mp.ncdf(x)))


def mp_ndtri(u: float):
    """Phi^-1(u): Newton on ln Phi(x) = ln p for p = min(u, 1 - u) <= 1/2.

    ln Phi is concave and the start -sqrt(-2 ln p) lies left of the root,
    so the iterates rise monotonically to it.
    """
    with mp.workdps(30):
        p = min(mp.mpf(u), 1 - mp.mpf(u))
        target = mp.log(p)
        x = -mp.sqrt(-2 * target)
        for _ in range(100):
            cdf = mp.ncdf(x)
            step = (mp.log(cdf) - target) * cdf / mp.npdf(x)
            x -= step
            if abs(step) <= mp.mpf(10) ** -26 * (1 + abs(x)):
                return +(x if u <= 0.5 else -x)
        raise AssertionError(f"reference quantile did not converge at u={u}")


def mp_expit(d: float):
    with mp.workdps(30):
        return +(1 / (1 + mp.exp(-mp.mpf(d))))


class TestLogNdtr:
    def test_edges_against_mpmath(self):
        got = oracles.log_ndtr(np.array(EDGE_X))
        for x, g in zip(EDGE_X, got.tolist()):
            assert rel_err(g, mp_log_ndtr(x)) <= REL, x

    @given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=20))
    @settings(max_examples=15)
    def test_against_mpmath(self, xs):
        got = oracles.log_ndtr(np.array(xs))
        for x, g in zip(xs, got.tolist()):
            assert rel_err(g, mp_log_ndtr(x)) <= REL, x

    def test_against_scipy(self):
        # scipy rounds x/sqrt(2) before its erfc, whose condition number is
        # about x^2 for x > 0, and flushes subnormal results to 0: it is held
        # to x^2 ulp plus 1e-14, and to tiny absolute
        xs = np.concatenate([np.linspace(-40.0, 40.0, 4001), EDGE_X])
        got, want = oracles.log_ndtr(xs), sc.log_ndtr(xs)
        rtol = REL + np.where(xs > 0, xs * xs, 0.0) * np.finfo(float).eps
        assert np.all(np.abs(got - want) <= rtol * np.abs(want) + TINY)

    def test_shape_and_scalar(self):
        assert oracles.log_ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert float(oracles.log_ndtr(0.0)) == math.log(0.5)


class TestNdtri:
    def test_edges_against_mpmath(self):
        got = oracles.ndtri(np.array(EDGE_U))
        for u, g in zip(EDGE_U, got.tolist()):
            want = mp_ndtri(u)
            assert float(abs(g - want)) <= REL * max(abs(want), 1e-3), u

    @given(st.lists(st.one_of(st.floats(1e-300, 1.0, exclude_max=True),
                              st.floats(-690.0, -0.7).map(math.exp)),
                    min_size=1, max_size=20))
    @settings(max_examples=15)
    def test_against_mpmath(self, us):
        # near u = 1/2 the quantile passes through 0: relative to max(|x|, 1e-3)
        got = oracles.ndtri(np.array(us))
        for u, g in zip(us, got.tolist()):
            want = mp_ndtri(u)
            assert float(abs(g - want)) <= REL * max(abs(want), 1e-3), u

    def test_region_boundaries_against_mpmath(self):
        # either side of |u - 1/2| = 0.425 and of r = sqrt(-ln u) = 5
        r5 = math.exp(-25.0)
        us = [0.075, math.nextafter(0.075, 0.0), math.nextafter(0.075, 1.0),
              0.925, math.nextafter(0.925, 0.0), math.nextafter(0.925, 1.0),
              r5, math.nextafter(r5, 0.0), math.nextafter(r5, 1.0), 1.0 - r5]
        got = oracles.ndtri(np.array(us))
        for u, g in zip(us, got.tolist()):
            assert rel_err(g, mp_ndtri(u)) <= REL, u

    def test_against_scipy_on_the_sampler_stream(self):
        # the chunked kernel on more than one chunk, as the samplers call it
        u = oracles.uniform_stream(7, 3 * oracles._NDTRI_CHUNK + 11)
        got, want = oracles.ndtri(u), sc.ndtri(u)
        assert np.all(np.abs(got - want) <= REL * np.maximum(np.abs(want), 1e-3))

    def test_limits_and_shape(self):
        with np.errstate(invalid="ignore"):
            out = oracles.ndtri(np.array([0.0, 1.0, -0.1, 1.1, math.nan]))
        assert out[0] == -math.inf and out[1] == math.inf
        assert np.all(np.isnan(out[2:]))
        assert oracles.ndtri(np.full((2, 3), 0.5)).shape == (2, 3)


class TestExpit:
    def test_against_mpmath(self):
        ds = np.concatenate([np.linspace(-800.0, 800.0, 801), [-745.2, -708.5, -1e-300, 0.0]])
        got = oracles.expit(ds)
        for d, g in zip(ds.tolist(), got.tolist()):
            assert rel_err(g, mp_expit(d)) <= REL, d

    def test_against_scipy(self):
        ds = np.linspace(-800.0, 800.0, 16001)
        np.testing.assert_allclose(oracles.expit(ds), sc.expit(ds), rtol=REL, atol=TINY)


class TestPhiQ:
    @pytest.mark.parametrize("x", VALIDATE_X)
    def test_validate_points(self, x):
        with mp.workdps(30):
            want = mp.ncdf(-mp.mpf(x))
        got = oracles._phi_q(x)
        assert rel_err(got, want) <= REL
        # scipy's own error grows like x^2 ulp, as in TestLogNdtr.test_against_scipy
        scipy_q = 0.5 * sc.erfc(x / math.sqrt(2.0))
        assert got == pytest.approx(scipy_q, rel=REL + x * x * np.finfo(float).eps)
