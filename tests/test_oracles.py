"""Reference laws, quadrature, and the seeded sampling machinery."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

# the independent reference for the in-package Gauss-Kronrod kernel
from scipy.integrate import quad

from conftest import weibull_log_mgf_closed_m2
from make_weibull_refs import (MOMENT_SERIES_ROWS, NEAR_ONE, NEAR_ZERO_PEAK_ROWS, SHAPES,
                               _above_switch, _clear, _mp_weibull, _rule_from, _switch)
from tailbounds import lower_unilateral, oracles
from tailbounds.errors import (DivergentIntegral, InputError, NotCertifiedError,
                               NotConvergedError)
from tailbounds.functions import PhiFunction, certify_convex, conjugate
from tailbounds.integrals import log_i_integral
from weibull_refs import WEIBULL_REFS


class TestQuadrature:
    def test_unit_exponential(self):
        val, err = oracles.quadrature(lambda x: np.exp(-x), 0.0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_half_gaussian(self):
        val, _ = oracles.quadrature(lambda x: np.exp(-x * x), 0.0, math.inf)
        assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)

    def test_tilted_gaussian_spot(self):
        val, _ = oracles.quadrature(lambda x: np.exp(3 * x - x * x / 2), 0.0, math.inf)
        closed = math.exp(4.5) * math.sqrt(2 * math.pi) * (
            1.0 - 0.5 * math.erfc(3.0 / math.sqrt(2.0)))
        assert val == pytest.approx(closed, rel=1e-9)

    def test_finite_range(self):
        val, _ = oracles.quadrature(lambda x: x * x, 0.0, 2.0)
        assert val == pytest.approx(8.0 / 3.0, rel=1e-10)

    def test_nonintegrable_flags(self):
        with pytest.raises(NotConvergedError):
            oracles.quadrature(lambda x: 1.0 / (1.0 + x), 0.0, math.inf)

    def test_details_count_no_capped_window_on_smooth_integrand(self):
        d = {}
        oracles.quadrature(lambda x: np.exp(-x), 0.0, math.inf, details=d)
        assert set(d) == {"truncation", "abs_error", "capped_windows"}
        assert d["capped_windows"] == 0

    def test_window_at_its_panel_limit_is_counted(self):
        # a square wave under exp(-x): each early window holds dozens of jumps,
        # more than 200 bisected panels resolve to the target
        def f(x):
            return np.exp(-x) * (np.sin(300.0 * x) > 0.0)

        d1, d2 = {}, {}
        v1, _ = oracles.quadrature(f, 0.0, math.inf, details=d1)
        v2, _ = oracles.quadrature(f, 0.0, math.inf, details=d2)
        assert d1["capped_windows"] > 0
        assert (v1, d1) == (v2, d2)
        assert v1 == pytest.approx(0.5, rel=1e-2)

    def test_finite_range_at_its_panel_limit_raises(self):
        with pytest.raises(NotConvergedError):
            oracles.quadrature(lambda x: np.sign(np.sin(1.0 / x)), 1e-6, 1.0)

    def test_vectorized_evaluates_whole_panels(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-x * x)

        val, _ = oracles.quadrature(f, 0.0, math.inf)
        assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
        assert sizes and all(n % 21 == 0 for n in sizes)


# integrand families: (numpy form, reference by scipy quad); each is scaled
# so that its integral is of order one and the kernel's relative target binds

def _gaussian_tail(a):
    # int_a^inf exp(-(t^2 - a^2)/2) dt
    f = lambda t: np.exp(-0.5 * (t - a) * (t + a))
    return f, a, lambda g: quad(g, a, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _tilted_gaussian(lam):
    # int_0^inf exp(lam t - t^2/2 - lam^2/2) dt
    f = lambda t: np.exp(-0.5 * (t - lam) ** 2)
    return f, 0.0, lambda g: (quad(g, 0.0, lam, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                              + quad(g, lam, math.inf, epsabs=0.0, epsrel=1e-13,
                                     limit=200)[0])


def _exponential_moment(k, rate):
    # int_0^inf t^k e^{-rate t} dt * rate^(k+1) / k! = 1
    c = rate ** (k + 1) / math.factorial(k)
    f = lambda t: c * t ** k * np.exp(-rate * t)
    return f, 0.0, lambda g: quad(g, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _pareto_damped(eps):
    # exp(-eps * 3 ln t) above t = 1, 1 below: finite for eps > 1/3
    f = lambda t: np.minimum(1.0, np.maximum(t, 1e-300) ** (-3.0 * eps))
    return f, 0.0, lambda g: (quad(g, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
                              + quad(g, 1.0, math.inf, epsabs=0.0, epsrel=1e-13,
                                     limit=200)[0])


def _grid_zeta(widths, slopes):
    # exp(-zeta) for zeta piecewise linear through knots, extended linearly
    knots = np.concatenate([[0.0], np.cumsum(widths)])
    vals = np.concatenate([[0.0], np.cumsum(np.asarray(widths) * slopes[:-1])])
    last = slopes[-1]

    def f(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-np.where(t <= knots[-1], np.interp(t, knots, vals),
                                vals[-1] + last * (t - knots[-1])))

    def ref(g):
        edges = knots.tolist()
        inner = sum(quad(g, u, v, epsabs=0.0, epsrel=1e-13)[0]
                    for u, v in zip(edges[:-1], edges[1:]))
        return inner + quad(g, edges[-1], math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    return f, 0.0, ref


_finite = dict(allow_nan=False, allow_infinity=False)
_integrands = st.one_of(
    st.floats(0.0, 8.0, **_finite).map(_gaussian_tail),
    st.floats(0.0, 20.0, **_finite).map(_tilted_gaussian),
    st.builds(_exponential_moment, st.integers(0, 12), st.floats(0.2, 5.0, **_finite)),
    st.floats(0.5, 1.0, **_finite).map(_pareto_damped),
    st.integers(1, 6).flatmap(lambda n: st.builds(
        _grid_zeta,
        st.lists(st.floats(0.2, 3.0, **_finite), min_size=n, max_size=n),
        st.lists(st.floats(0.2, 3.0, **_finite), min_size=n + 1, max_size=n + 1)
        .map(np.array))),
)


class TestGaussKronrodAgainstQuadpack:
    @given(_integrands)
    def test_vectorized_matches_quad(self, case):
        f, a, ref = case
        want = ref(lambda t: float(f(t)))
        got, _ = oracles.quadrature(f, a, math.inf)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @given(st.floats(-3.0, 3.0, **_finite), st.floats(0.1, 6.0, **_finite))
    def test_finite_range_matches_quad(self, a, width):
        f = lambda t: np.cos(3.0 * t) * np.exp(-0.25 * t * t) + 2.0
        want = quad(lambda t: float(f(t)), a, a + width, epsabs=0.0, epsrel=1e-13)[0]
        got, _ = oracles.quadrature(f, a, a + width)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("knot", [1.00390625, 1.001])
    def test_kink_beside_a_window_edge(self, knot):
        # no node of the window [1, 3] lies between its edge and the knot
        f, a, ref = _grid_zeta([knot], np.array([1.0, 2.0]))
        got, _ = oracles.quadrature(f, a, math.inf)
        assert got == pytest.approx(ref(lambda t: float(f(t))), rel=1e-10, abs=0.0)


def _kinked(x):
    return max(0.5 * x, 2.0 * x - 1.5, 6.0 * x - 13.5, 0.5 * x * x)


# the exponents of TestLogIIntegral; the kinked one has kinks at 1, 3 and 9
_LN_I_ZETAS = {
    "quadratic": PhiFunction.quadratic(lo=0.0),
    "kinked": PhiFunction.from_callable(
        lambda x: np.maximum(np.maximum(0.5 * x, 2.0 * x - 1.5),
                             np.maximum(6.0 * x - 13.5, 0.5 * x * x)),
        0.0, math.inf, convex=True, vectorized=True, label="kinked"),
    "power-log-1.5": PhiFunction.power_log(1.5, lo=0.0),
    "power-log-4": PhiFunction.power_log(4.0, lo=0.0),
    "x^1.5": PhiFunction.from_callable(lambda x: x ** 1.5, 0.0, math.inf, convex=True),
}
_LN_I_CASES = ([("quadratic", lam) for lam in (0.1, 1.0, 3.0, 30.0, 1e3, 1e5, 1e7)]
               + [("kinked", lam) for lam in (1.0, 2.0, 3.0, 5.0)]
               + [("power-log-1.5", 0.5), ("power-log-1.5", 1.0), ("power-log-4", 2.0),
                  ("x^1.5", 3.0)])


def _ln_i_reference(family, lam):
    """ln I(lam) = ln int_0^inf exp(lam x - zeta(x)) dx, without the package."""
    if family == "quadratic":
        # e^(lam^2/2) sqrt(2 pi) Phi(lam)
        return (0.5 * lam * lam + 0.5 * math.log(2.0 * math.pi)
                + math.log1p(-0.5 * math.erfc(lam / math.sqrt(2.0))))
    if family == "kinked":
        val = quad(lambda x: math.exp(lam * x - _kinked(x)), 0.0, 80.0, points=(1.0, 3.0, 9.0),
                   epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return math.log(val)
    zeta, peak = {
        "power-log-1.5": (lambda x: x ** 1.5 / 1.5, lam ** 2),
        "power-log-4": (lambda x: x ** 4 / 4, lam ** (1.0 / 3.0)),
        "x^1.5": (lambda x: x ** 1.5, (lam / 1.5) ** 2),
    }[family]
    with mp.workdps(30):
        val = mp.quad(lambda x: mp.exp(lam * x - zeta(x)), [0, peak, 2 * peak + 4, mp.inf])
        return float(mp.log(val))


@pytest.fixture(scope="module")
def ln_i_refs():
    return {case: _ln_i_reference(*case) for case in _LN_I_CASES}


class TestLogIIntegral:
    @pytest.mark.parametrize("case", _LN_I_CASES, ids=lambda c: f"{c[0]}-{c[1]:g}")
    def test_matches_reference(self, case, ln_i_refs):
        # relative once ln I passes 1: at lam = 1e7 the peak value is
        # e^(5e13), representable only in log space
        want = ln_i_refs[case]
        got = log_i_integral(_LN_I_ZETAS[case[0]], case[1])
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_window_cap_raises_divergent_with_the_quadrature_diagnostic(self):
        # 1.01 ln(1 + x) outgrows ln x at the probes, so the growth test
        # passes, but each doubling window adds 2^-0.01 of the one before
        slow = PhiFunction.from_callable(lambda x: 1.01 * np.log1p(x), 0.0, math.inf,
                                         vectorized=True)
        with pytest.raises(DivergentIntegral, match="window cap") as info:
            log_i_integral(slow, 0.0)
        diag = info.value.diagnostic
        assert set(diag) == {"last_window", "last_contribution", "capped_windows"}
        assert diag["last_window"][0] > 1e40

    def test_peak_at_the_search_cap_raises(self):
        # the quadratic's peak lam lies past the cap: folding about the cap
        # would overflow to an infinite I
        with pytest.raises(NotConvergedError, match="search cap"):
            log_i_integral(_LN_I_ZETAS["quadratic"], 1e9)

    @pytest.mark.parametrize("family, lam, want", [
        pytest.param("power-log-4", 2.0, 2.0597063545396432, id="i-quartic"),
        pytest.param("quadratic", 30.0, 450.91893853320465, id="i-quadratic"),
        pytest.param("x^1.5", 3.0, 5.399651590728651, id="i-callable"),
    ])
    def test_pinned_bit_for_bit(self, family, lam, want):
        # any change to the fold, the kernel's panels or their arithmetic
        # moves these values
        assert log_i_integral(_LN_I_ZETAS[family], lam) == want


class TestBatchedWeibullLogMgf:
    @pytest.mark.parametrize("m", [2.0, 4.0])
    def test_batch_equals_scalar_calls(self, m):
        phi = oracles.weibull(m).mgf_exponent
        # lam = 0, series rows, and more rule rows than one rule chunk
        chunk = oracles._SERIES_CHUNK // oracles._GH_ORDERS[-1]
        lams = np.concatenate([[0.0], np.geomspace(1e-3, 80.0, 40),
                               np.geomspace(_switch(m)[1], 1e6, chunk + 9)])
        vals = np.array([phi.value(l) for l in lams.tolist()])
        slopes = np.array([phi.derivative(l) for l in lams.tolist()])
        curvs = np.concatenate([phi.second_derivatives([l]) for l in lams.tolist()])
        assert phi.values(lams).tobytes() == vals.tobytes()
        assert phi.derivatives(lams).tobytes() == slopes.tobytes()
        assert phi.second_derivatives(lams).tobytes() == curvs.tobytes()

    def test_m2_against_closed_form(self):
        lams = np.geomspace(0.1, 200.0, 40)
        got = oracles._weibull_log_mgf(2.0, lams)
        want = np.array([weibull_log_mgf_closed_m2(l) for l in lams.tolist()])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("lam", [0.5, 3.0, 30.0])
    def test_m4_against_scipy_quad(self, lam):
        # ln int 4 x^3 exp(lam x - x^4) dx, shifted by the exponent's maximum
        def expo(x):
            return math.log(4.0) + 3.0 * math.log(x) + lam * x - x ** 4 if x > 0 else -math.inf

        peak = (lam / 4.0) ** (1.0 / 3.0)
        shift = expo(peak)
        val, _ = quad(lambda x: math.exp(expo(x) - shift), 0.0, math.inf,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        want = shift + math.log(val)
        assert oracles._weibull_log_mgf(4.0, np.array([lam]))[0] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("lam", [0.5, 3.0, 10.0, 30.0])
    def test_m2_slope_against_closed_form_difference(self, lam):
        h = 1e-5 * lam
        diff = (weibull_log_mgf_closed_m2(lam + h)
                - weibull_log_mgf_closed_m2(lam - h)) / (2.0 * h)
        got = oracles._weibull_log_mgf_deriv(2.0, np.array([lam]))[0]
        assert got == pytest.approx(diff, rel=1e-8)


def _count_rule_rows(monkeypatch):
    """Count the rows that take the Gauss-Hermite rule from here on."""
    rows = []
    real = oracles._hermite_rows

    def counted(m, lams, order):
        rows.append(lams.size)
        return real(m, lams, order)

    monkeypatch.setattr(oracles, "_hermite_rows", counted)
    return rows


class TestStoredWeibullReferences:
    # the rows the classes below check, against the literals that
    # make_weibull_refs.py stored: every row has one, and one row of each
    # evaluation path is computed live, so the table cannot drift from
    # _mp_weibull
    def test_every_row_has_a_reference(self):
        assert set(WEIBULL_REFS) == set(MOMENT_SERIES_ROWS + NEAR_ZERO_PEAK_ROWS)

    @pytest.mark.parametrize("m,lam", [(2.0, 3.0), (2.0, _above_switch(2.0)[0]),
                                       (1.1, _clear(1.1)[1])],
                             ids=["series", "gauss-hermite", "near-zero-peak"])
    def test_live_row_equals_its_literal(self, m, lam):
        assert _mp_weibull(m, lam) == WEIBULL_REFS[m, lam]


class TestWeibullMomentSeries:
    @pytest.mark.parametrize("m,lam", MOMENT_SERIES_ROWS)
    def test_against_mpmath(self, m, lam, monkeypatch):
        # series rows and Gauss-Hermite rule rows, each within 1e-14; the
        # rule takes every row from the first above the switch whose peak
        # is not near 0, and no other
        rows = _count_rule_rows(monkeypatch)
        phi = oracles.weibull(m).mgf_exponent
        got = (phi.value(lam), phi.derivative(lam))
        assert rows == ([1, 1] if lam >= _rule_from(m) else [])
        want = WEIBULL_REFS[m, lam]
        assert got[0] == pytest.approx(want[0], rel=1e-14, abs=0.0)
        assert got[1] == pytest.approx(want[1], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m", [1.1, 2.0, 4.0])
    def test_batch_across_term_counts_and_switch_equals_scalar_calls(self, m):
        phi = oracles.weibull(m).mgf_exponent
        top = _switch(m)[1]
        lams = np.concatenate([[0.0], np.geomspace(1e-6, 3.0 * top, 150), [top]])
        lams = np.random.default_rng(3).permutation(lams)
        terms = oracles._series_terms(m, lams)
        assert np.unique(terms[terms <= oracles._SERIES_TERMS]).size >= 4
        assert np.any(terms > oracles._SERIES_TERMS)
        vals = np.array([phi.value(l) for l in lams.tolist()])
        slopes = np.array([phi.derivative(l) for l in lams.tolist()])
        curvs = np.concatenate([phi.second_derivatives([l]) for l in lams.tolist()])
        assert phi.values(lams).tobytes() == vals.tobytes()
        assert phi.derivatives(lams).tobytes() == slopes.tobytes()
        assert phi.second_derivatives(lams).tobytes() == curvs.tobytes()

    @pytest.mark.parametrize("m", SHAPES)
    def test_slope_at_zero_is_the_mean(self, m):
        phi = oracles.weibull(m).mgf_exponent
        assert phi.derivative(0.0) == math.gamma(1.0 + 1.0 / m)
        assert phi.value(0.0) == 0.0
        # and its second derivative the variance
        mean = math.gamma(1.0 + 1.0 / m)
        assert phi.second_derivatives([0.0])[0] == math.gamma(1.0 + 2.0 / m) - mean * mean

    def test_below_the_switch_takes_no_rule_row(self, monkeypatch):
        rows = _count_rule_rows(monkeypatch)
        phi = oracles.weibull(4.0).mgf_exponent
        lams = np.geomspace(1e-3, _switch(4.0)[0], 200)
        phi.values(lams)
        phi.derivatives(lams)
        assert not rows

    def test_series_cut_short_is_refused(self):
        # at lam = 20 the m = 2 terms still rise at k = 31: the row must try
        # more terms, not report a truncated sum
        log_c = oracles._weibull_log_coefficients(2.0, oracles._SERIES_TERMS)
        lams = np.array([20.0, 1.0])
        for slope in (False, True):
            got = oracles._series_rows(log_c[:32], lams, slope)
            assert math.isnan(got[0]) and math.isfinite(got[1])

    def test_coefficient_table_is_built_lazily_and_kept(self, monkeypatch, tmp_path):
        from tailbounds.cli import main

        built = []
        real = oracles._weibull_log_coefficients

        def counted(m, n):
            built.append((m, n))
            return real(m, n)

        monkeypatch.setattr(oracles, "_weibull_log_coefficients", counted)
        laws = oracles.suite()
        assert main(["validate", "--dist", "gaussian", "--seed", "42",
                     "--out", str(tmp_path / "r.json"), "--normalize"]) == 0
        assert built == []
        phi = laws["weibull2"].mgf_exponent
        phi.value(1.0)
        phi.values(np.geomspace(1e-3, 50.0, 40))
        phi.derivative(3.0)
        assert built == [(2.0, oracles._SERIES_TERMS)]

    @pytest.mark.parametrize("m", SHAPES)
    def test_convex_across_the_switch(self, m):
        phi = oracles.weibull(m).mgf_exponent
        assert certify_convex(phi)
        top = _switch(m)[1]
        vals = phi.values(np.linspace(0.95 * top, 1.05 * top, 801))
        assert np.all(np.diff(vals, 2) >= -1e-12 * np.abs(vals[1:-1]))


class TestWeibullHermiteRule:
    @staticmethod
    def _perturb(monkeypatch, orders):
        # the rules of ``orders`` get their weights tilted, each by its own
        # factor, so that no two of them agree; returns the orders asked for
        asked = []
        real = oracles._hermite_rule

        def rule(n):
            asked.append(n)
            u, w = real(n)
            return (u, w * (1.0 + 1e-6 * n * (1.0 + u))) if n in orders else (u, w)

        monkeypatch.setattr(oracles, "_hermite_rule", rule)
        return asked

    @pytest.mark.parametrize("slope", [False, True])
    def test_no_agreeing_pair_raises(self, monkeypatch, slope):
        asked = self._perturb(monkeypatch, oracles._GH_ORDERS)
        with pytest.raises(NotConvergedError) as info:
            oracles._weibull_rows(4.0, np.array([500.0, 1e4]), slope, [])
        assert "weibull(4.0)" in str(info.value) and "500.0" in str(info.value)
        assert info.value.diagnostic == {"m": 4.0, "lam": 500.0}
        assert asked == list(oracles._GH_ORDERS)

    @pytest.mark.parametrize("m", SHAPES)
    def test_rule_takes_every_row_above_the_switch(self, monkeypatch, m):
        rows = _count_rule_rows(monkeypatch)
        lams = np.geomspace(_rule_from(m), 1e6, 50)
        vals = oracles._weibull_log_mgf(m, lams)
        slopes = oracles._weibull_log_mgf_deriv(m, lams)
        assert sum(rows) == 2 * lams.size
        assert np.all(np.diff(vals) > 0) and np.all(np.diff(slopes) > 0)


def _peak_widths(m, lam):
    """How many widths s the tilted peak (lam/m)^(1/(m-1)) lies above 0."""
    with mp.workdps(30):
        xh = (mp.mpf(lam) / m) ** (1 / mp.mpf(m - 1))
        return float(xh / ((m - 1) / xh ** 2 + m * (m - 1) * xh ** (m - 2)) ** -0.5)


# rows whose peak lies 1e12 widths or more above 0, where the rule's phi''
# reads nan: m = 1.05, 1.1 and 1.2 at lam = 1e6, 1.2 at 7.3e5, 1.05 at 8.7e7
FAR_PEAK_ROWS = [row for row in NEAR_ZERO_PEAK_ROWS if _peak_widths(*row) >= 1e12]


class TestWeibullSecondDerivative:
    """phi'' only steers the conjugate's root search; it is still checked
    against mpmath, on every row the value and slope are checked on."""

    @pytest.mark.parametrize("m,lam", [row for row in MOMENT_SERIES_ROWS + NEAR_ZERO_PEAK_ROWS
                                       if row not in FAR_PEAK_ROWS])
    def test_against_mpmath(self, m, lam):
        # series rows measured within 6.0e-14 relative; rule rows within
        # 1.5e-16 relative per width s the peak xh lies above 0 (7.1e-8 at
        # m = 1.5, lam = 1e6, 4.7e8 widths), as the rule's exponent carries
        # a rounding error of about 1e-16 xh/s at its nodes
        got = oracles.weibull(m).mgf_exponent.second_derivatives([lam])[0]
        tol = 1e-12 + 3e-16 * _peak_widths(m, lam)
        assert got == pytest.approx(WEIBULL_REFS[m, lam][2], rel=tol, abs=0.0)

    @pytest.mark.parametrize("m,lam", FAR_PEAK_ROWS)
    def test_far_above_zero_it_is_nan(self, m, lam):
        # there the rule's variance has no digit left (37 times too large
        # at m = 1.2, lam = 1e6)
        assert math.isnan(oracles.weibull(m).mgf_exponent.second_derivatives([lam])[0])

    def test_far_above_zero_the_root_search_halves(self):
        # with the rule's phi'' the steps there are 37 times too short: the
        # search ran into its 100-step cap, its argmax 1.9e-9 relative off
        phi = oracles.weibull(1.2).mgf_exponent
        arg = conjugate(phi, [phi.derivative(1e6)]).argmax[0]
        assert abs(arg - 1e6) <= 1e-13 * 1e6

    def test_exponential_against_mpmath(self):
        phi = oracles.exponential_unit().mgf_exponent
        lams = np.append(np.linspace(0.0, 0.999, 40), [1.0 - 1e-9, phi.domain.top()])
        got = phi.second_derivatives(lams)
        with mp.workdps(30):
            want = [float(1 / (1 - mp.mpf(t)) ** 2) for t in lams.tolist()]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


class TestWeibullNearZeroPeak:
    # rows whose tilted peak lies fewer than _GH_CLEAR widths above 0, where
    # the Gauss-Hermite rule misses 1e-14, and shapes near the least one
    # taken

    @pytest.mark.parametrize("m,lam", NEAR_ZERO_PEAK_ROWS)
    def test_against_mpmath(self, m, lam):
        phi = oracles.weibull(m).mgf_exponent
        want = WEIBULL_REFS[m, lam]
        assert phi.value(lam) == pytest.approx(want[0], rel=1e-14, abs=0.0)
        assert phi.derivative(lam) == pytest.approx(want[1], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m", [1.05, 1.1])
    def test_series_takes_long_rows_near_zero(self, monkeypatch, m):
        rows = _count_rule_rows(monkeypatch)
        lams = np.array([_switch(m)[1], _clear(m)[0]])
        assert np.all(oracles._series_terms(m, lams) > oracles._SERIES_TERMS)
        oracles._weibull_log_mgf(m, lams)
        assert not rows
        oracles._weibull_log_mgf(m, _clear(m)[1])
        assert rows == [1]

    def test_series_that_has_not_ended_takes_more_terms(self, monkeypatch):
        rows = _count_rule_rows(monkeypatch)
        assert oracles._series_terms(1.5, np.array([1.0]))[0] == 32
        log_c = oracles._weibull_log_coefficients(1.5, 32)
        assert math.isnan(oracles._series_rows(log_c, np.array([1.0]), False)[0])
        assert math.isfinite(oracles._weibull_log_mgf(1.5, 1.0))
        assert not rows

    @pytest.mark.parametrize("m", NEAR_ONE + SHAPES)
    def test_every_row_up_to_1e8(self, m):
        lams = np.geomspace(1e-3, 1e8, 300)
        vals = oracles._weibull_log_mgf(m, lams)
        slopes = oracles._weibull_log_mgf_deriv(m, lams)
        assert np.all(np.diff(vals) > 0) and np.all(np.diff(slopes) > 0)

    @pytest.mark.parametrize("m", [1.0001, 1.01, 1.0499])
    def test_shapes_below_the_least_are_refused(self, m):
        with pytest.raises(InputError):
            oracles.weibull(m)


def _point_mass(quantile):
    # every draw is 5.0, whatever the uniform: a constant is a quantile
    return dataclasses.replace(oracles.gaussian(), inverse_cdf=lambda u: np.full_like(u, 5.0),
                               quantile=quantile)


# the suite laws, two more gaussian scales and the mixture, whose sampler
# picks its component by u and so is not a quantile
_TAIL_LAWS = [*oracles.suite().values(), oracles.gaussian(1.7), oracles.gaussian(2.0),
              oracles.gaussian_scale_mixture(0.3, 0.8, 1.0)]
_TAIL_LADDERS = [[1.0, 2.0], (2.0 * 2.0 ** (np.arange(7) / 3.0)).tolist(), [-1.0, 0.0, 3.0],
                 [1e-300, 40.0]]


def _counting(dist):
    # dist, and the list of the sizes of the arrays its inverse_cdf takes
    sizes = []

    def icdf(u):
        sizes.append(u.size)
        return dist.inverse_cdf(u)

    return dataclasses.replace(dist, inverse_cdf=icdf), sizes


class TestEmpiricalTail:
    @pytest.mark.parametrize("quantile", [True, False])
    def test_constant_sample_above(self, quantile):
        res = oracles.empirical_tail(_point_mass(quantile), 3, 10, [4.0])
        assert res["fraction"][0] == 1.0

    @pytest.mark.parametrize("quantile", [True, False])
    def test_constant_sample_below(self, quantile):
        res = oracles.empirical_tail(_point_mass(quantile), 3, 10, [6.0])
        assert res["fraction"][0] == 0.0

    def test_gaussian_million_within_wilson(self):
        res = oracles.empirical_tail(oracles.gaussian(), 7, 1_000_000, [2.0])
        q2 = 0.5 * math.erfc(2.0 / math.sqrt(2.0))
        assert abs(res["fraction"][0] - q2) <= 3.0 * res["wilson_halfwidth"][0]

    @pytest.mark.parametrize("n", [77_777, 200_000])
    @pytest.mark.parametrize("law", _TAIL_LAWS, ids=lambda law: law.name)
    def test_streamed_counts_are_the_full_sample_counts(self, law, n):
        # n is no multiple of the chunk; each ladder's least x sets its cut
        for seed in (1, 42):
            sample = law.sample(seed, n)
            for ladder in _TAIL_LADDERS:
                want = np.array([np.count_nonzero(sample >= x) for x in ladder]) / n
                got = oracles.empirical_tail(law, seed, n, ladder)
                assert got["fraction"].tobytes() == want.tobytes(), (seed, ladder)
                assert got["n"] == n and got["x"].tolist() == ladder

    def test_a_quantile_law_transforms_only_its_tail(self):
        # P(X >= 2) is 2.3% for N(0, 1), and the lattice cell is 1/4096
        law, sizes = _counting(oracles.gaussian())
        oracles.empirical_tail(law, 7, 200_000, [2.0, 3.0])
        lattice, *chunks = sizes
        assert lattice == 4095 and len(chunks) == 4 and 0 < sum(chunks) < 0.024 * 200_000

    @pytest.mark.parametrize("law, ladder", [
        (oracles.gaussian_scale_mixture(0.3, 0.8, 1.0), [3.0]),
        (oracles.pareto(3.0), [1.0, 2.0])], ids=["mixture", "pareto3-at-1"])
    def test_no_cut_transforms_every_draw(self, law, ladder):
        # the mixture is not a quantile; every Pareto draw reaches x = 1
        law, sizes = _counting(law)
        oracles.empirical_tail(law, 7, 77_777, ladder)
        assert sum(sizes[-2:]) == 77_777 and sizes[-1] == 77_777 % (1 << 16)

    def test_memory_does_not_grow_with_the_sample(self):
        import tracemalloc

        ladder = 2.0 * 2.0 ** (np.arange(7) / 3.0)
        tracemalloc.start()
        try:
            oracles.empirical_tail(oracles.gaussian(), 7, 2_000_000, ladder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("seed, n", [(-1, 1_000), (2 ** 128, 1_000), (42, -5)])
    def test_a_bad_seed_or_count_is_refused(self, seed, n):
        with pytest.raises(InputError, match="need a seed in"):
            oracles.empirical_tail(oracles.gaussian(), seed, n, [1.0])

    def test_no_samples_is_refused(self):
        with pytest.raises(InputError, match="need at least one sample"):
            oracles.empirical_tail(oracles.gaussian(), 42, 0, [1.0])


class TestSuiteExactness:
    @pytest.mark.parametrize("name", ["gaussian", "exponential", "weibull2",
                                      "weibull4", "pareto3"])
    def test_tail_matches_density_quadrature(self, name):
        dist = oracles.suite()[name]
        for x in (1.0, 2.0, 4.0):
            val, _ = oracles.quadrature(dist.density, x, math.inf)
            assert val == pytest.approx(dist.exact_tail(x), abs=1e-9)

    @pytest.mark.parametrize("name,lams", [
        ("gaussian", (0.5, 1.5)),
        ("exponential", (0.3, 0.7)),
        ("weibull2", (0.5, 1.5)),
        ("weibull4", (0.5, 2.0)),
    ])
    def test_mgf_consistency(self, name, lams):
        dist = oracles.suite()[name]
        phi = dist.mgf_exponent
        for lam in lams:
            if dist.nonnegative:
                val, _ = oracles.quadrature(
                    lambda x: np.exp(lam * x) * dist.density(x), 0.0, math.inf)
            else:
                val, _ = oracles.quadrature(
                    lambda x: np.exp(lam * x) * dist.density(x)
                    + np.exp(-lam * x) * dist.density(-x), 0.0, math.inf)
            assert val == pytest.approx(math.exp(phi.value(lam)), rel=1e-7)

    @pytest.mark.parametrize("name", ["gaussian", "exponential", "weibull2",
                                      "weibull4"])
    def test_chernoff_ground_truth(self, name):
        dist = oracles.suite()[name]
        xs = np.linspace(1.0, 8.0, 15)
        res = conjugate(dist.mgf_exponent, xs)
        bound = np.exp(-np.minimum(res.values, 700.0))
        tails = dist.exact_tail(xs)
        assert np.all(bound >= tails - 1e-12)

    def test_weibull_m2_closed_form_cross_check(self):
        phi = oracles.weibull(2.0).mgf_exponent
        for lam in (0.5, 3.0, 10.0, 30.0):
            assert phi.value(lam) == pytest.approx(
                weibull_log_mgf_closed_m2(lam), rel=1e-10)

    def test_mixture_pinched_between_components(self):
        mix = oracles.gaussian_scale_mixture(0.3, 0.8, 1.0)
        for lam in (0.5, 2.0, 5.0):
            lo = 0.5 * (0.8 * lam) ** 2
            hi = 0.5 * lam ** 2
            assert lo - 1e-12 <= mix.mgf_exponent.value(lam) <= hi + 1e-12

    def test_exponential_tail_fn_values(self):
        g = oracles.gaussian().exponential_tail_fn()
        assert g.value(40.0) == pytest.approx(804.608, rel=1e-4)
        e = oracles.exponential_unit().exponential_tail_fn()
        assert e.value(5.0) == pytest.approx(5.0, rel=1e-12)


class TestBattery:
    CHECKS = {"tail_quadrature", "mgf_consistency", "chernoff_upper", "unilateral_lower",
              "closure_lower", "exact_mgf_sandwich", "cramer", "empirical_tail"}

    @pytest.mark.parametrize("params", [(0.3, 1.0, 2.0), (0.5, 0.8, 1.5)])
    def test_mixture_passes_every_check(self, params):
        # no law of suite() is a mixture; the battery is a library call
        checks = oracles.battery(oracles.gaussian_scale_mixture(*params), 42, 200_000)
        assert set(checks) == self.CHECKS
        assert all(c["pass"] for c in checks.values()), checks

    @pytest.mark.parametrize("stated,fails,passes", [
        # a tail of 1e-300 lies below every lower envelope that is not trivial
        # (a tail of 0 would leave the exponential tail function no finite value)
        (1e-300, ("unilateral_lower", "closure_lower", "exact_mgf_sandwich"),
         ("chernoff_upper",)),
        # a tail of 1 lies above every upper envelope below 1
        (1.0, ("chernoff_upper", "exact_mgf_sandwich"), ("unilateral_lower", "closure_lower")),
    ])
    def test_a_wrong_exact_tail_fails_the_envelopes_on_its_side(self, stated, fails, passes):
        # the Gaussian's envelopes against a tail stated wrong: the one
        # comparison of envelope and exact tail fails each envelope on the
        # side the wrong tail crosses, and only there
        law = dataclasses.replace(oracles.gaussian(),
                                  log_tail=lambda x: np.full(np.shape(x), math.log(stated)))
        checks = oracles.battery(law, 42, 2_000)
        assert [checks[k]["pass"] for k in fails] == [False] * len(fails), checks
        assert [checks[k]["pass"] for k in passes] == [True] * len(passes), checks
        assert all("error" not in checks[k] for k in fails + passes)

    def test_a_tail_wrong_only_where_it_underflows_fails(self):
        # weibull4's tail with 20 nats too many from x = 4, where every
        # probability is below 1e-12: an absolute comparison of probabilities
        # passes it, the comparison in nats fails the upper envelopes only
        w4 = oracles.weibull(4.0)
        law = dataclasses.replace(
            w4, log_tail=lambda x: w4.log_tail(x) + np.where(np.asarray(x) >= 4.0, 20.0, 0.0))
        checks = oracles.battery(law, 42, 2_000)
        failed = sorted(k for k, c in checks.items() if not c["pass"])
        assert failed == ["chernoff_upper", "exact_mgf_sandwich"], checks
        assert checks["chernoff_upper"]["min_log_margin"] < 0.0

    def test_margins_are_gaps_in_nats(self):
        # the least gap of each envelope to ln T on its side; a lower bound of
        # -inf on the exponential's tail reads +inf, and no margin is NaN
        checks = oracles.battery(oracles.exponential_unit(), 42, 2_000)
        margins = {k: checks[k]["min_log_margin"] for k in
                   ("chernoff_upper", "unilateral_lower", "closure_lower",
                    "exact_mgf_sandwich")}
        assert all(c["pass"] for c in checks.values()), checks
        assert margins["chernoff_upper"] == pytest.approx(1.0, rel=1e-9)
        assert margins["closure_lower"] == math.inf
        assert all(m > 0.1 for m in margins.values()), margins

    def test_a_zero_tail_passes_only_a_zero_lower_bound(self):
        # the exponential's tail stated 0 from x = 4: the closure's lower
        # bounds, all -inf, pass with a gap of +inf (never NaN), the chain's
        # finite ones fail with -inf, and the Chernoff bound lies above it;
        # the Cramer check, which needs -ln T finite, fails with its message
        law = dataclasses.replace(oracles.exponential_unit(), log_tail=lambda x: np.where(
            np.asarray(x) >= 4.0, -math.inf, -np.maximum(x, 0.0)))
        checks = oracles.battery(law, 42, 2_000)
        assert set(checks) == self.CHECKS
        assert checks["closure_lower"]["pass"] and checks["chernoff_upper"]["pass"], checks
        assert checks["closure_lower"]["min_log_margin"] == math.inf
        assert not checks["unilateral_lower"]["pass"]
        assert checks["unilateral_lower"]["min_log_margin"] == -math.inf
        assert checks["cramer"] == {
            "pass": False,
            "error": "neglog-tail[exponential]: non-finite value at lam=4.296875"}

    def test_an_error_fails_its_check_with_the_message(self):
        # the closure and the sandwich refuse a phi not certified convex; the
        # battery records each refusal as a failed check and goes on
        g = oracles.gaussian()
        law = dataclasses.replace(
            g, mgf_exponent=dataclasses.replace(g.mgf_exponent, convex=False))
        checks = oracles.battery(law, 42, 2_000)
        assert set(checks) == self.CHECKS
        assert checks["closure_lower"] == {
            "pass": False, "error": "closure needs a convexity-certified phi2"}
        assert checks["exact_mgf_sandwich"] == {
            "pass": False, "error": "sandwich needs convexity-certified phi"}
        assert checks["unilateral_lower"]["pass"] and checks["cramer"]["pass"]

    def test_a_chain_refusal_fails_its_check_with_the_message(self, monkeypatch):
        # the battery records a refusal of the unilateral chain as a failed
        # check, and the checks after it still run
        def refuse(*args, **kwargs):
            raise NotCertifiedError("chain refused")

        monkeypatch.setattr(lower_unilateral, "unilateral_lower_envelope", refuse)
        checks = oracles.battery(oracles.gaussian(), 42, 2_000)
        assert set(checks) == self.CHECKS
        assert checks["unilateral_lower"] == {"pass": False, "error": "chain refused"}
        assert checks["closure_lower"]["pass"] and checks["exact_mgf_sandwich"]["pass"]

    def test_a_bad_seed_or_count_is_refused_before_any_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(oracles, "quadrature", no_quadrature)
        for seed, count in ((-1, 1_000), (42, -5)):
            with pytest.raises(InputError, match="need a seed in"):
                oracles.battery(oracles.weibull(4.0), seed, count)


    @pytest.mark.parametrize("m,want", [
        (2.0, (142, 14_069, 1_382_560, 4_855)),
        (4.0, (147, 17_430, 692_384, 10_998)),
    ])
    def test_weibull_work(self, monkeypatch, m, want):
        # _weibull_rows calls and rows, moment-series cells (rows x terms)
        # and Gauss-Hermite rule rows of one battery.  With the series
        # switch at 1,024 terms, halvings in the scalar searches, a 4,097-
        # point dominance probe and phi1 read per closure row, weibull2 took
        # (297, 21,792, 5,408,928, 3,778) and weibull4 (273, 25,124,
        # 4,844,448, 10,619)
        work = [0, 0, 0, 0]
        rows, series, rule = oracles._weibull_rows, oracles._series_rows, oracles._hermite_rows

        def counted_rows(mm, lams, order, table):
            work[0] += 1
            work[1] += np.size(lams)
            return rows(mm, lams, order, table)

        def counted_series(log_c, lams, order):
            work[2] += lams.size * log_c.size
            return series(log_c, lams, order)

        def counted_rule(mm, lams, order):
            work[3] += lams.size
            return rule(mm, lams, order)

        monkeypatch.setattr(oracles, "_weibull_rows", counted_rows)
        monkeypatch.setattr(oracles, "_series_rows", counted_series)
        monkeypatch.setattr(oracles, "_hermite_rows", counted_rule)
        checks = oracles.battery(oracles.weibull(m), 42, 200_000)
        assert all(c["pass"] for c in checks.values())
        assert tuple(work) == want


class TestSampling:
    def test_same_seed_identical_stream(self):
        g = oracles.gaussian()
        a = g.sample(123, 4096)
        b = g.sample(123, 4096)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        g = oracles.gaussian()
        assert not np.array_equal(g.sample(1, 1024), g.sample(2, 1024))

    @pytest.mark.parametrize("seed", [1, 42, 2 ** 100 + 7])
    def test_in_place_stream_equals_the_expression(self, seed):
        # the shift, conversion and scaling run in place; the expression
        # they replaced builds three temporaries
        from numpy.random import Philox

        raw = Philox(key=seed).random_raw(200_000)
        want = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        assert oracles.uniform_stream(seed, 200_000).tobytes() == want.tobytes()

    def test_uniforms_open_interval(self):
        u = oracles.uniform_stream(99, 100_000)
        assert u.min() > 0.0 and u.max() < 1.0

    @pytest.mark.parametrize("name", ["exponential", "weibull2", "pareto3"])
    def test_sampler_matches_tail(self, name):
        dist = oracles.suite()[name]
        s = dist.sample(2026, 400_000)
        for x in (1.5, 3.0):
            frac = float((s >= x).mean())
            assert frac == pytest.approx(dist.exact_tail(x), abs=4e-3 if frac > 1e-3 else 1e-3)


class TestExponentialExponent:
    def test_weibull_one_is_the_exponential_law(self):
        law = oracles.weibull(1.0)
        assert law.name == "exponential" and law.mgf_exponent.label == "exp-mgf-exponent"

    def test_every_oracle_exponent_evaluates_arrays(self):
        # -log1p(-lam) in one ufunc call per array, equal to the scalar
        # calls bit for bit, as every other law's exponent is
        laws = [law for law in oracles.suite().values() if law.mgf_exponent is not None]
        assert len(laws) == 4 and all(law.mgf_exponent.vectorized for law in laws)
        phi = oracles.exponential_unit().mgf_exponent
        lams = np.append(np.linspace(0.0, 0.999, 50), phi.domain.top())
        want = np.array([phi.value(t) for t in lams.tolist()])
        assert phi.values(lams).tobytes() == want.tobytes()
        assert phi.derivatives(lams).tolist() == [phi.derivative(t) for t in lams.tolist()]
        np.testing.assert_allclose(want, [-math.log1p(-t) for t in lams.tolist()],
                                   rtol=1e-15)
