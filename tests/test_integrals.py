"""Auxiliary integrals, compound upper bounds, Cramer certification."""

import math
import warnings

import numpy as np
import pytest

from tailbounds.errors import DivergentIntegral, InputError, NotConvergedError
from tailbounds.functions import LAMBDA_CAP, PhiFunction, conjugate_value
from tailbounds.integrals import (
    cramer_check,
    epsilon_report,
    i_integral,
    k_integral,
    log_compound_upper_bound,
    log_i_integral,
    r_integral,
)

LINEAR = PhiFunction.linear(1.0, lo=0.0)
HALF_SQUARE = PhiFunction.from_callable(
    lambda x: 0.5 * x * x, 0.0, math.inf,
    deriv=lambda x: x, convex=True, label="x^2/2", slope_lim=math.inf)
SQUARE = PhiFunction.from_callable(
    lambda x: x * x, 0.0, math.inf,
    deriv=lambda x: 2 * x, convex=True, label="x^2", slope_lim=math.inf)
POWER_3_2 = PhiFunction.from_callable(
    lambda x: x ** 1.5, 0.0, math.inf,
    deriv=lambda x: 1.5 * x ** 0.5, convex=True, label="x^1.5", slope_lim=math.inf)
LOG_TAIL = PhiFunction.from_callable(
    lambda x: 2.0 * math.log1p(x), 0.0, math.inf, label="2ln(1+x)")


class TestKIntegral:
    def test_linear_closed_form(self):
        assert k_integral(LINEAR, 0.5) == pytest.approx(2.0, rel=1e-9)

    def test_gaussian_closed_form(self):
        assert k_integral(SQUARE, 1.0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-9)

    def test_log_growth_divergent(self):
        with pytest.raises(DivergentIntegral):
            k_integral(LOG_TAIL, 0.4)

    @pytest.mark.parametrize("zeta", [
        PhiFunction.power_log(40.0, 0.0, lo=0.0),
        PhiFunction.from_callable(lambda x: x ** 40.0 / 40.0, 0.0, math.inf, convex=True),
    ], ids=["numpy_power", "float_power"])
    def test_overflowing_growth_probe_is_integrable(self, zeta):
        # x^40/40 overflows at the 1e10 probe: numpy's power overflows to
        # inf, a float power raises OverflowError; either passes the growth
        # test, silently, and K(eps) = (p/eps)^(1/p) Gamma(1 + 1/p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = k_integral(zeta, 0.5)
        assert got == pytest.approx(80.0 ** (1 / 40) * math.gamma(1.025), rel=1e-9)

    def test_eps_domain(self):
        with pytest.raises(InputError):
            k_integral(LINEAR, 0.0)

    def test_bounded_domain_rejected(self):
        with pytest.raises(InputError):
            k_integral(PhiFunction.linear(1.0, lo=0.0, hi=1.0), 0.5)


class TestRIntegral:
    def test_linear(self):
        assert r_integral(LINEAR, 0.5) == pytest.approx(2.0, rel=1e-9)

    def test_square(self):
        # exponent (1-eps)^2 x^2 - x^2 = -0.75 x^2 at eps = 0.5
        assert r_integral(SQUARE, 0.5) == pytest.approx(
            math.sqrt(math.pi / 0.75) / 2, rel=1e-9)

    def test_linear_small_eps(self):
        assert r_integral(LINEAR, 0.1) == pytest.approx(10.0, rel=1e-9)

    def test_power_tail_divergent(self):
        # exponent difference tends to a constant: integrand does not decay
        pareto_like = PhiFunction.from_callable(
            lambda x: 3.0 * math.log1p(x), 0.0, math.inf, label="3ln(1+x)")
        with pytest.raises(DivergentIntegral):
            r_integral(pareto_like, 0.3)


class TestEpsilonReport:
    def test_min_of_finite(self):
        rep = epsilon_report(HALF_SQUARE, 0.2)
        assert rep.k == pytest.approx(0.5 * math.sqrt(math.pi / 0.1), rel=1e-8)
        assert rep.r == pytest.approx(0.5 * math.sqrt(math.pi / 0.18), rel=1e-8)
        assert rep.m == min(rep.k, rep.r)

    def test_single_finite_entry(self):
        pareto_like = PhiFunction.from_callable(
            lambda x: 3.0 * math.log1p(x), 0.0, math.inf, label="3ln(1+x)")
        rep = epsilon_report(pareto_like, 0.5)
        assert rep.k is not None and rep.r is None
        assert rep.m == rep.k

    def test_both_divergent(self):
        rep = epsilon_report(LOG_TAIL, 0.3)
        assert rep.m is None

    def test_diagnostics_carry_capped_windows(self):
        rep = epsilon_report(HALF_SQUARE, 0.2)
        for key in ("k", "r"):
            assert set(rep.diagnostics[key]) == {"truncation", "abs_error", "capped_windows"}
            assert rep.diagnostics[key]["capped_windows"] == 0

    def test_capped_windows_counted_for_a_rough_exponent(self):
        # a sawtooth exponent: more kinks per window than 200 panels resolve
        saw = PhiFunction.from_callable(
            lambda x: x + 0.5 * abs(math.sin(40.0 * x)), 0.0, math.inf, convex=False,
            label="saw")
        rep = epsilon_report(saw, 0.5)
        assert rep.diagnostics["k"]["capped_windows"] > 0
        assert rep.k == pytest.approx(k_integral(saw, 0.5), rel=0.0)

    def test_monotone_in_eps(self):
        eps_grid = [0.05, 0.1, 0.2, 0.35, 0.5]
        ks = [k_integral(HALF_SQUARE, e) for e in eps_grid]
        rs = [r_integral(HALF_SQUARE, e) for e in eps_grid]
        assert all(a >= b - 1e-9 for a, b in zip(ks, ks[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(rs, rs[1:]))


I3_CLOSED = math.exp(4.5) * math.sqrt(2 * math.pi) * (1 - 0.5 * math.erfc(3 / math.sqrt(2)))


class TestCompoundBound:
    def test_direct_integral_spot(self):
        assert i_integral(HALF_SQUARE, 3.0) == pytest.approx(I3_CLOSED, rel=1e-6)

    def test_gaussian_spot_bound(self):
        k = 0.5 * math.sqrt(math.pi / 0.1)
        r = 0.5 * math.sqrt(math.pi / 0.18)
        expected = min(k, r) * math.exp(3.75 ** 2 / 2)
        bound = math.exp(log_compound_upper_bound(HALF_SQUARE, 3.0, 0.2))
        assert bound == pytest.approx(expected, rel=1e-7)
        assert bound >= I3_CLOSED

    def test_sharp_variant_tighter_here(self):
        k = 0.5 * math.sqrt(math.pi / 0.1)
        expected = k * math.exp(0.8 * 3.75 ** 2 / 2)
        sharp = math.exp(log_compound_upper_bound(HALF_SQUARE, 3.0, 0.2, "sharp"))
        assert sharp == pytest.approx(expected, rel=1e-7)
        assert I3_CLOSED <= sharp <= math.exp(log_compound_upper_bound(HALF_SQUARE, 3.0, 0.2,
                                                                       "plain"))

    @pytest.mark.parametrize("zeta", [LINEAR, HALF_SQUARE, POWER_3_2],
                             ids=["x", "x^2/2", "x^1.5"])
    @pytest.mark.parametrize("lam", [1.0, 3.0, 10.0, 30.0])
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
    def test_dominance_matrix(self, zeta, lam, eps):
        """The compound bound never undercuts the direct integral."""
        log_bound = log_compound_upper_bound(zeta, lam, eps)
        if math.isinf(log_bound):
            # vacuous bound; the integral must genuinely diverge too
            with pytest.raises(DivergentIntegral):
                log_i_integral(zeta, lam)
            return
        log_truth = log_i_integral(zeta, lam)
        assert log_bound - log_truth >= math.log1p(-1e-9)

    def test_variant_orderings(self):
        # fixed eps: sharp <= plain, min-variant <= plain
        for lam in (3.0, 10.0):
            plain = log_compound_upper_bound(HALF_SQUARE, lam, 0.2, "plain")
            sharp = log_compound_upper_bound(HALF_SQUARE, lam, 0.2, "sharp")
            minv = log_compound_upper_bound(HALF_SQUARE, lam, 0.2, "min")
            assert sharp <= plain + 1e-12
            assert minv <= plain + 1e-12
            assert sharp >= log_i_integral(HALF_SQUARE, lam) - 1e-9

    def test_a_conjugate_stopped_at_the_cap_bounds_nothing(self):
        # zeta = x^1.3/1.3, zeta*(y) = (0.3/1.3) y^(1.3/0.3) at the maximizer
        # y^(1/0.3), which passes the cap 1e8 from y = 251: at lam = 1000,
        # y = 1250, the capped supremum is 1.06e11 where zeta*(1250) = 6.1e12
        zeta = PhiFunction.power_log(1.3, lo=0.0)
        rep = epsilon_report(zeta, 0.2)
        star, arg = conjugate_value(zeta, 125.0)
        assert arg < LAMBDA_CAP
        bound = rep.log_compound_bound(zeta, 100.0)
        assert bound == pytest.approx(math.log(rep.m) + star, rel=1e-15)
        assert bound >= log_i_integral(zeta, 100.0)
        for lam in (300.0, 1000.0):
            assert conjugate_value(zeta, lam / 0.8)[1] == LAMBDA_CAP
            assert rep.log_compound_bound(zeta, lam) == math.inf
            # the peak lies past the growth pre-test's probes as well, where
            # zeta(x) - lam*x is still negative: the cap is named, and no
            # false divergence
            with pytest.raises(NotConvergedError, match="search cap"):
                log_i_integral(zeta, lam)

    def test_a_peak_at_the_cap_is_refused_even_where_i_diverges(self):
        # lam*x - zeta(x) = ln(1 + x) at lam = 1: I diverges, but the search
        # climbs to the cap instead of diverging, and the cap is named first
        zeta = PhiFunction.from_callable(
            lambda x: x - np.log1p(x), 0.0, math.inf, deriv=lambda x: x / (1.0 + x),
            convex=True, slope_lim=1.0, vectorized=True)
        assert conjugate_value(zeta, 1.0)[1] == LAMBDA_CAP
        with pytest.raises(NotConvergedError, match="search cap"):
            log_i_integral(zeta, 1.0)


class TestCramer:
    def test_linear_certified_with_witness(self):
        cert = cramer_check(LINEAR)
        assert cert.certified
        assert cert.mu == pytest.approx(1.0, rel=1e-9)

    def test_superlinear_certified(self):
        cert = cramer_check(SQUARE)
        assert cert.certified
        assert all(v is not None for v in cert.k_table.values())

    def test_power_tail_not_certified(self):
        g = PhiFunction.from_callable(
            lambda x: 3.0 * math.log1p(x), 0.0, math.inf, label="3ln(1+x)")
        cert = cramer_check(g, eps_grid=(0.05, 0.1, 0.3, 0.5))
        assert not cert.certified
        assert cert.mu is None
        # damped integral diverges below the critical damping, not above
        assert cert.k_table[0.05] is None
        assert cert.k_table[0.3] is None
        assert cert.k_table[0.5] is not None

    def test_sublinear_growth_not_certified_but_integrable(self):
        g = PhiFunction.from_callable(
            lambda x: x ** 0.5, 0.0, math.inf, label="sqrt")
        cert = cramer_check(g, eps_grid=(0.05, 0.2, 0.5))
        assert not cert.certified
        assert all(v is not None for v in cert.k_table.values())
