"""The one-sided inversion chain: auxiliary exponent, dilation certificate,
normalization absorption, and the emitted lower envelope."""

import dataclasses
import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import dilated, validate_monotone, weibull_log_mgf_closed_m2
from tailbounds import functions, lower_unilateral, oracles
from tailbounds.errors import (
    AbsorptionFailedError,
    DivergentIntegral,
    InputError,
    NotCertifiedError,
)
from tailbounds.functions import (
    LAMBDA_CAP,
    PhiFunction,
    _bisect,
    _inf_where_unbounded,
    conjugate,
    conjugate_values,
)
from tailbounds.lower_unilateral import (
    _certify_on_range,
    _clipped_minorant_k,
    _exponents,
    _lam1_candidates,
    _largest_dilation,
    _tail_transform_from_value,
    _tangent_lines,
    _values_at,
    absorb_normalization,
    certify_dilation_dominance,
    m_surrogate_from_upper,
    unilateral_lower_envelope,
)
from tailbounds.moments import moment_power_growth, moment_power_pole, to_exponential

QUAD0 = PhiFunction.quadratic(lo=0.0)
M_GAUSS = 2.802495608198964  # damped-conjugate normalization at eps = 0.2


class TestTailTransformExponent:
    def test_quadratic_at_two(self):
        # ln[(e^2 - 1)/2]
        assert _tail_transform_from_value(QUAD0.value(2.0), 2.0) == pytest.approx(
            1.1614393615711955, abs=1e-12)

    def test_linear_at_one(self):
        lin = PhiFunction.linear(1.0, lo=0.0)
        assert _tail_transform_from_value(lin.value(1.0), 1.0) == pytest.approx(
            math.log(math.e - 1.0), abs=1e-12)

    def test_large_lambda_identity(self):
        # the exponent approaches phi(lam) - ln(lam) from below
        for lam in (10.0, 30.0, 80.0):
            aux = _tail_transform_from_value(QUAD0.value(lam), lam)
            gap = (QUAD0.value(lam) - math.log(lam)) - aux
            cap = 2.0 * math.exp(-min(QUAD0.value(lam), 700.0)) + 1e-15
            assert 0.0 <= gap <= cap

    def test_an_empty_floor_is_minus_infinity(self):
        # phi(lam) = 0: (e^0 - 1)/lam = 0, whose log is -inf
        assert _tail_transform_from_value(0.0, 2.0) == -math.inf


class TestDilationCertificate:
    def test_gaussian_binding_at_range_floor(self):
        cert = certify_dilation_dominance(QUAD0)
        assert cert.lam_range[0] == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert cert.c1 == pytest.approx(0.441306, abs=2e-3)
        assert cert.margin >= -1e-8

    def test_gaussian_analytic_cross_check(self):
        # c(lam) = sqrt(2 * aux(lam)) / lam, minimized at the range floor
        cert = certify_dilation_dominance(QUAD0)
        lam0 = cert.lam_range[0]
        c_analytic = math.sqrt(2.0 * _tail_transform_from_value(QUAD0.value(lam0), lam0)) / lam0
        assert cert.c1 == pytest.approx(c_analytic, rel=1e-4)

    def test_regular_varying_family_certified(self):
        cert = certify_dilation_dominance(PhiFunction.power_log(2.0, 1.0, lo=0.0))
        assert 0.0 < cert.c1 <= 1.0

    def test_range_from_one_fails_and_the_start_walks_up(self):
        # the auxiliary exponent is negative at lam = 1 for the quadratic
        assert _certify_on_range(QUAD0, 1.0, 100.0) is None
        # on [1, inf) the default range, from sqrt(2), is refused too, so the
        # start rises to 2.  0.5*lam^2 is the log-MGF of N(0, 1): the chain
        # from there must stay below its exact tail
        phi = PhiFunction.quadratic(lo=1.0)
        xs = np.linspace(1.0, 12.0, 45)
        env, cert = unilateral_lower_envelope(phi, 0.2, m_surrogate_from_upper(phi, 0.2),
                                              xs, nonnegative=False)
        assert cert.diagnostics["lam_range"] == (2.0, 128.0)
        assert cert.c1 == pytest.approx(0.762, abs=1e-3)
        assert np.all(env.log_values <= np.log(oracles.gaussian().exact_tail(env.x)))

    def test_margin_check_is_relative_like_the_bisection(self):
        # phi = lam on [1, inf): c1 = 1 - ln(16)/16 holds on (16, 1024), where
        # the binding side is about 10 and the bisected c1 leaves an absolute
        # margin of about -1.3e-8, inside the bisection's relative slack
        cert = _certify_on_range(PhiFunction.linear(lo=1.0), 16.0, 1024.0)
        assert cert is not None
        assert cert.c1 == pytest.approx(1.0 - math.log(16.0) / 16.0, abs=1e-6)
        assert -1e-7 < cert.margin < 0.0

    def test_exponential_exact_self_dominance(self):
        phi = oracles.exponential_unit().mgf_exponent
        cert = certify_dilation_dominance(phi)
        assert cert.c1 == pytest.approx(1.0, abs=1e-6)
        # a bounded domain tries its default range, from phi = 1, first
        assert cert.lam_range[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)

    def test_a_small_c1_walks_up(self, monkeypatch):
        # the default range of 0.36*lam^2, from phi = 1 at 1/0.6 to 100,
        # certifies c1 = 0.17 only, below the 0.3 that ends the walk; the
        # range from 2 certifies 0.58
        phi = PhiFunction.quadratic(coeff=0.36, lo=0.0)
        tried, helper = [], lower_unilateral._certify_on_range
        monkeypatch.setattr(lower_unilateral, "_certify_on_range",
                            lambda *a: tried.append(helper(*a)) or tried[-1])
        cert = certify_dilation_dominance(phi)
        assert tried[0].lam_range == pytest.approx((1.0 / 0.6, 100.0), rel=1e-9)
        assert tried[0].c1 < 0.3
        assert cert is tried[1] and cert.lam_range == (2.0, 128.0)
        assert cert.c1 == pytest.approx(0.575, abs=1e-3)

    def test_a_small_c1_stands_when_no_raised_start_certifies(self):
        # on [0, 1.9) every raised start has phi < 1 at its floor and is
        # refused, so the default range's c1 = 0.17 is the certificate
        phi = PhiFunction.quadratic(coeff=0.36, lo=0.0, hi=1.9)
        cert = certify_dilation_dominance(phi)
        assert cert.lam_range == pytest.approx((1.0 / 0.6, 1.9), rel=1e-9)
        assert 0.0 < cert.c1 < 0.3

    def test_an_empty_default_range_is_skipped(self):
        # phi reaches 1 only at the top of [0, 1): the default range [top,
        # top] is empty, so it is passed over, and the raised starts are
        # tried; none certifies a phi below 1, and the refusal names every
        # range, the empty one first
        top = float(np.nextafter(1.0, 0.0))
        phi = PhiFunction.from_callable(lambda l: np.where(l >= top, 1.0, 0.5), 0.0, 1.0,
                                        convex=False, vectorized=True, label="step")
        assert _certify_on_range(phi, top, top) is None
        with pytest.raises(NotCertifiedError, match=re.escape(
                "step: dilation dominance not certified on (1, 1), (0.3, 1), (0.45, 1)")):
            certify_dilation_dominance(phi)

    def test_a_zero_phi_inside_a_range_raises_no_warning(self):
        # phi = max(lam - 15, 0)^2 is 0 below 15, where the tail-transform
        # exponent is -inf: its relative slack once read -inf + inf, numpy's
        # invalid-value warning.  The -inf ceiling still fails the floor
        # test, so the range from 1 refuses, and the chain certifies from 18
        lams = np.arange(401) / 10.0
        phi = PhiFunction.from_grid(lams, np.maximum(lams - 15.0, 0.0) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _certify_on_range(phi, 1.0, 40.0) is None
            cert = certify_dilation_dominance(phi)
        assert cert.lam_range == (18.0, 40.0) and 0.9 < cert.c1 < 1.0

    def test_an_error_of_phi_itself_is_raised(self):
        # 0.36*lam^2 refusing lam > 100: the default range, to 100, certifies
        # c1 = 0.17 only, and the next range, from 2 to 128, asks phi past
        # 100.  That InputError is phi's, not an unusable range: it is
        # raised, where c1 = 0.17 on (1.667, 100) was certified before
        def fn(lams):
            if np.any(lams > 100.0):
                raise InputError("lam past 100")
            return 0.36 * lams * lams

        phi = PhiFunction.from_callable(fn, 0.0, math.inf, convex=True, vectorized=True)
        with pytest.raises(InputError, match="lam past 100"):
            certify_dilation_dominance(phi)


class TestAbsorption:
    def test_gaussian_first_feasible_threshold(self):
        cert = certify_dilation_dominance(QUAD0)
        lam1, c2 = absorb_normalization(QUAD0, cert.c1, M_GAUSS, cert.lam_range[0])
        assert lam1 == 4.0  # 2.0 is infeasible for this normalization
        assert c2 == pytest.approx(0.25678, abs=1e-3)

    def test_trivial_when_m_at_most_one(self):
        cert = certify_dilation_dominance(QUAD0)
        lam1, c2 = absorb_normalization(QUAD0, cert.c1, 0.9, cert.lam_range[0])
        assert c2 == cert.c1

    def test_a_threshold_at_the_domain_top_is_skipped(self, monkeypatch):
        # from w_lo = top of [0, 1) every lam1 of the dyadic ladder rounds
        # to top or above it, where no verification grid fits: each is
        # skipped before any dilation search
        phi = PhiFunction.quadratic(lo=0.0, hi=1.0)
        monkeypatch.setattr(lower_unilateral, "_largest_dilation",
                            lambda *a: pytest.fail("searched"))
        with pytest.raises(AbsorptionFailedError, match="no \\(lam1, c2\\) absorbs"):
            absorb_normalization(phi, 0.9, 3.0, phi.domain.top())


def _dilation_search(phi, t, ceiling, c_lo, top):
    """One lambda's critical dilation, searched on its own: the lower end of
    a _bisect search of phi(c*t) <= ceiling on [c_lo, top], 45 tests at
    most, by Newton steps (ceiling - phi)/(t*phi') where phi has a positive
    phi', else by halvings."""
    lo, hi = phi.domain.lo, phi.domain.top()

    def below(c):
        u = min(max(c * t, lo), hi)
        v = phi.value(u)
        d = t * phi.derivative(u) if phi.deriv is not None else math.nan
        return v <= ceiling, (ceiling - v) / d if d > 0.0 else math.nan

    return _bisect(c_lo, top, below, 45)[0]


def _absorb_one_at_a_time(phi, c1, m_bound, w_lo, moves=None):
    """The absorption the batched one replaced: every test of every lambda a
    scalar call, in grid order.  Where phi falls, a lambda can fail again
    below its critical dilation once c2 has dropped: then lam1 is refused,
    as the dilation search refuses it.  Appends each lambda where c2 moves
    to ``moves``."""
    lnM = math.log(m_bound)
    tol = 1e-9
    if lnM <= 0.0:
        return max(w_lo, phi.domain.lo), c1
    b = phi.domain.hi
    for lam1 in _lam1_candidates(phi, w_lo):
        ver_hi = min(phi.domain.top(), max(2.0 ** 20, 4.0 * lam1)) if not math.isfinite(b) \
            else phi.domain.top()
        if lam1 >= ver_hi:
            continue
        lams = np.geomspace(lam1, ver_hi, 128)

        def val_at(c, t):
            return phi.value(min(max(c * t, phi.domain.lo), phi.domain.top()))

        c2, ok, moved = c1, True, []
        for t in lams.tolist():
            if c1 * t >= phi.domain.hi:
                ok = False
                break
            budget = val_at(c1, t) - lnM
            c_lo = max(phi.domain.lo / t, 1e-12)
            if val_at(c_lo, t) > budget + tol:
                ok = False
                break
            if val_at(min(c2, c1), t) <= budget + tol:
                crit = c2
            else:
                moved.append(t)
                crit = _dilation_search(phi, t, budget + tol, c_lo, c1)
            c2 = min(c2, crit)
            if c2 <= 1e-10:
                ok = False
                break
        if ok and any(val_at(c2, t) > val_at(c1, t) - lnM + tol for t in lams.tolist()):
            ok = False
        if not ok:
            continue
        if not math.isfinite(b):
            top = float(lams[-1])
            slack_top = val_at(c1, top) - lnM - val_at(c2, top)
            slack_mid = val_at(c1, top * 0.8) - lnM - val_at(c2, top * 0.8)
            if slack_top < slack_mid - tol:
                continue
        if moves is not None:
            moves.extend(moved)
        return float(lam1), float(c2)
    raise AbsorptionFailedError(f"no (lam1, c2) absorbs ln(M)={lnM:.4g} under c1={c1:.4g}")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AbsorptionFailedError as exc:
        return str(exc)


def _wavy(a, w):
    """l^2/2 + a*l*(1 + sin(w*l)): nonnegative, not convex, so that the gap
    phi(c1*l) - phi(c2*l) shrinks in places and c2 moves more than once."""
    return PhiFunction.from_callable(
        lambda t: 0.5 * t * t + a * t * (1.0 + np.sin(w * t)), 0.0, math.inf,
        convex=False, vectorized=True, label="wavy")


ABSORB_FAMILIES = st.one_of(
    st.floats(0.05, 5.0).map(lambda c: PhiFunction.quadratic(c, lo=0.0)),
    st.tuples(st.floats(1.0, 4.0), st.floats(-1.0, 2.0)).map(
        lambda p_r: PhiFunction.power_log(*p_r, lo=0.0)),
    st.floats(0.5, 4.0).map(lambda m: to_exponential(moment_power_growth(m, 1.0, 1.0)).phi1),
    st.tuples(st.floats(0.5, 3.0), st.floats(1.5, 6.0), st.floats(0.2, 2.0)).map(
        lambda cbb: to_exponential(moment_power_pole(*cbb)).phi1),
    st.tuples(st.floats(0.0, 4.0), st.floats(0.3, 3.0)).map(lambda aw: _wavy(*aw)),
)


class TestBatchedAbsorption:
    """The batched absorption equals the sequential loop it replaced."""

    @settings(max_examples=40)
    @given(phi=ABSORB_FAMILIES, c1=st.floats(0.05, 1.5), m_bound=st.floats(1.01, 1e3),
           start=st.floats(0.0, 1.0))
    # from w_lo = 1, lam1 = 2 walks c2 down to 0.3148, where a lambda that held
    # at a larger c2 fails: lam1 = 4 absorbs instead
    @example(phi=_wavy(3.614, 2.173), c1=1.39, m_bound=896.7, start=0.5)
    def test_equals_one_at_a_time(self, phi, c1, m_bound, start):
        lo, top = phi.domain.lo, phi.domain.top()
        w_lo = lo + start * 0.5 * (min(top, lo + 4.0) - lo)
        assert (_outcome(absorb_normalization, phi, c1, m_bound, w_lo)
                == _outcome(_absorb_one_at_a_time, phi, c1, m_bound, w_lo))

    def test_c2_moving_more_than_once(self):
        phi, moves = _wavy(2.0, 1.0), []
        want = _absorb_one_at_a_time(phi, 0.9, 3.0, 1.0, moves)
        assert len(moves) >= 2
        assert absorb_normalization(phi, 0.9, 3.0, 1.0) == want

    def test_dilation_past_a_bounded_top_is_refused(self):
        # c1 > 1 carries c1*lam past the top of the pole's domain
        phi = to_exponential(moment_power_pole(1.5, 4.0, 2.0)).phi1
        args = (phi, 1.2, 3.0, phi.domain.lo + 0.3 * (phi.domain.top() - phi.domain.lo))
        want = _outcome(_absorb_one_at_a_time, *args)
        assert want.startswith("no (lam1, c2) absorbs")
        assert _outcome(absorb_normalization, *args) == want

    def test_weibull(self):
        args = (oracles.weibull(4.0).mgf_exponent, 0.5, 2.8, 1.5)
        assert absorb_normalization(*args) == _absorb_one_at_a_time(*args)


def _critical_dilations(phi, lams, ceiling, c_lo, top):
    """Each lambda's critical dilation, each searched on its own: top where
    phi(top*lam) <= ceiling, else :func:`_dilation_search` on [c_lo, top]."""
    lo, hi = phi.domain.lo, phi.domain.top()
    return np.array([
        top if phi.value(min(max(top * t, lo), hi)) <= ceil
        else _dilation_search(phi, t, ceil, a, top)
        for t, ceil, a in zip(lams.tolist(), ceiling.tolist(), c_lo.tolist())])


def _dilation_problem(phi, start, c1, lnM):
    """The grid, ceiling and bracket of the dominance search on [start, 64*start]
    when c1 is None, else of the absorption's search below c1 from lam1 = start."""
    top = phi.domain.top()
    if c1 is None:
        lams = np.geomspace(start, min(64.0 * start, top), 200)
        aux = np.array([_tail_transform_from_value(p, t)
                        for p, t in zip(phi.values(lams).tolist(), lams.tolist())])
        ceiling, c_top = aux + 1e-9 * np.maximum(1.0, np.abs(aux)), 1.0
    else:
        lams = np.geomspace(start, min(2.0 ** 20, top), 128)
        ceiling, c_top = _values_at(phi, c1, lams) - lnM + 1e-9, c1
    c_lo = np.maximum(phi.domain.lo / lams, 1e-12)
    # the callers refuse a grid whose bracket is empty or fails at its floor
    assume(np.all(c_lo < c_top) and np.all(_values_at(phi, c_lo, lams) <= ceiling))
    return lams, ceiling, c_lo, c_top


DILATION_FAMILIES = st.one_of(
    ABSORB_FAMILIES,
    st.tuples(st.floats(0.3, 0.999), st.sampled_from([0.0, 1.0])).map(
        lambda p_r: PhiFunction.power_log(*p_r, lo=0.0)),
    st.tuples(st.floats(0.1, 0.9), st.floats(0.5, 1.5), st.floats(1.5, 3.0)).map(
        lambda wab: oracles.gaussian_scale_mixture(*wab).mgf_exponent),
)


class TestLargestDilation:
    """One search serves both certificates: it bisects only the lambdas that
    bind, and returns the least critical dilation of the whole grid."""

    @settings(max_examples=60, deadline=None)
    @given(phi=DILATION_FAMILIES, at=st.floats(0.05, 0.9),
           c1=st.one_of(st.none(), st.floats(0.05, 1.5)), m_bound=st.floats(1.01, 1e3))
    # the absorption's lam1 = 2 from TestBatchedAbsorption's example: its least
    # critical dilation 0.3148 fails at a lambda whose own lies above it
    @example(phi=_wavy(3.614, 2.173), at=0.2, c1=1.39, m_bound=896.7)
    def test_equals_each_lambda_bisected(self, phi, at, c1, m_bound):
        lo, top = phi.domain.lo, phi.domain.top()
        start = max(lo, 0.5) + at * (min(top, 8.0) - max(lo, 0.5))
        lams, ceiling, c_lo, c_top = _dilation_problem(phi, start, c1, math.log(m_bound))
        got = _largest_dilation(phi, lams, ceiling, c_lo, c_top)
        crits = _critical_dilations(phi, lams, ceiling, c_lo, c_top)
        # refused where the least critical dilation is too small, or a
        # lambda fails there, below its own
        least = crits.min()
        refused = least <= 1e-10 or not np.all(_values_at(phi, least, lams) <= ceiling)
        if phi.label != "wavy":  # the other families are nondecreasing
            assert got == (None if refused else least)
        elif got is None:
            assert refused
        else:
            # a falling phi can fail below a lambda's critical dilation: c is
            # still one of them, and every lambda failing at c was bisected
            assert got in crits or got == c_top
            assert np.all(crits[~(_values_at(phi, got, lams) <= ceiling)] >= got)

    def test_none_below_1e_10(self):
        # phi(c*1) = c^2/2 stays below 5e-21 only for c below 1e-10
        lams, c_lo = np.array([1.0, 2.0]), np.full(2, 1e-12)
        assert _largest_dilation(QUAD0, lams, np.array([5e-21, 10.0]), c_lo, 1.0) is None
        assert _largest_dilation(QUAD0, lams, np.array([5e-19, 10.0]), c_lo, 1.0) > 1e-10

    def test_a_nan_ceiling_fails_the_floor_before_any_search(self, monkeypatch):
        # phi = 0 below 3 makes the tail-transform exponent -inf there and
        # its relative slack turns the ceiling NaN.  The floor test refuses
        # it first; a walk past the floor would bisect such a lambda down to
        # c_lo = 1e-12, below 1e-10, and refuse too, so the range gives None
        # either way, and the certificate comes from the range from 8
        phi = PhiFunction.from_callable(lambda t: np.maximum(t - 3.0, 0.0) ** 2, 0.0,
                                        math.inf, convex=True, vectorized=True)
        lams = np.geomspace(1.0, 100.0, 200)
        with np.errstate(invalid="ignore"):  # -inf + inf in the ceiling's slack
            aux = np.array([_tail_transform_from_value(p, t)
                            for p, t in zip(phi.values(lams).tolist(), lams.tolist())])
            ceiling = aux + 1e-9 * np.maximum(1.0, np.abs(aux))
        c_lo = np.full(lams.size, 1e-12)
        assert np.isnan(ceiling).any()
        assert _critical_dilations(phi, lams, ceiling, c_lo, 1.0).min() <= 1e-10
        with np.errstate(invalid="ignore"):
            cert = certify_dilation_dominance(phi)
            monkeypatch.setattr(lower_unilateral, "_bisect", lambda *a: pytest.fail("searched"))
            assert _certify_on_range(phi, 1.0, 100.0) is None
        assert _largest_dilation(phi, lams, ceiling, c_lo, 1.0) is None
        assert cert.lam_range == (8.0, 512.0)
        assert cert.c1 == pytest.approx(0.9734427510373376, rel=1e-12)

    def test_absorption_refuses_a_lam1_whose_dilation_falls_to_1e_10(self, monkeypatch):
        # phi jumps to 5 by lam = 1e-11: at lam1 = 2 and M = 10 the budget
        # phi(0.9*2) - ln(10) is below 5, so no c >= 1e-10 holds there, and
        # lam1 = 4 absorbs instead
        phi = PhiFunction.from_callable(
            lambda t: 5.0 * np.minimum(1.0, t * 1e11) + 0.5 * t * t, 0.0, math.inf,
            convex=False, vectorized=True, label="step")
        found = []
        helper = lower_unilateral._largest_dilation
        monkeypatch.setattr(lower_unilateral, "_largest_dilation",
                            lambda *a: found.append(helper(*a)) or found[-1])
        lam1, c2 = absorb_normalization(phi, 0.9, 10.0, 1.0)
        assert found[0] is None and (lam1, c2) == (4.0, found[1])
        assert (lam1, c2) == _absorb_one_at_a_time(phi, 0.9, 10.0, 1.0)

    def test_growth_sanity_skips_a_shrinking_slack(self, monkeypatch):
        # min(lam^2/2, 100): at the window's top phi(c1*lam) is capped while
        # phi(c2*lam) still grows, so the slack shrinks toward the top and
        # every lam1 of the ladder is skipped after its c2 was found
        phi = PhiFunction.from_callable(lambda t: np.minimum(0.5 * t * t, 100.0), 0.0,
                                        math.inf, convex=False, vectorized=True, label="capped")
        found = []
        helper = lower_unilateral._largest_dilation
        monkeypatch.setattr(lower_unilateral, "_largest_dilation",
                            lambda *a: found.append(helper(*a)) or found[-1])
        want = _outcome(_absorb_one_at_a_time, phi, 0.9, 3.0, 1.0)
        assert want.startswith("no (lam1, c2) absorbs")
        assert _outcome(absorb_normalization, phi, 0.9, 3.0, 1.0) == want
        assert len(found) == len(_lam1_candidates(phi, 1.0))
        assert all(c is not None and c > 1e-10 for c in found)

    def test_dominance_post_check_refuses_a_dilation_that_fails_below_the_binding_lambda(
            self, monkeypatch):
        # a bump of phi at 0.4 passes at c = 1 on the range [0.5, 50], but the
        # c1 that the binding lambdas give carries lam = 0.5 onto it: the
        # search's last values call shows lam = 0.5 failing, so it refuses
        phi = PhiFunction.from_callable(
            lambda t: 10.0 + 0.5 * t * t + 5.0 * np.exp(-((t - 0.4) / 0.03) ** 2), 0.0,
            math.inf, convex=False, vectorized=True, label="bump")
        found = []
        helper = lower_unilateral._largest_dilation
        monkeypatch.setattr(lower_unilateral, "_largest_dilation",
                            lambda *a: found.append(helper(*a)) or found[-1])
        assert _certify_on_range(phi, 0.5, 50.0) is None
        assert found == [None]

    def test_absorption_never_returns_a_c2_its_grid_refuses(self):
        # on this falling phi a lambda bisected on [c_lo, c1] fails again
        # below its critical dilation; the search refuses lam1 = 2 rather
        # than return a c2 that breaks the inequality there by 0.06, and
        # lam1 = 4 absorbs with a c2 that holds at every lambda of its grid
        phi, c1, m_bound = _wavy(3.614, 2.173), 1.39, 896.7
        lam1, c2 = absorb_normalization(phi, c1, m_bound, 1.0)
        assert lam1 == 4.0 and c2 == pytest.approx(0.7625, abs=1e-4)
        for start in (2.0, lam1):
            lams = np.geomspace(start, 2.0 ** 20, 128)
            ceiling = _values_at(phi, c1, lams) - math.log(m_bound) + 1e-9
            c_lo = np.maximum(phi.domain.lo / lams, 1e-12)
            got = _largest_dilation(phi, lams, ceiling, c_lo, c1)
            assert got == (None if start == 2.0 else c2)
        assert np.all(_values_at(phi, c2, lams) <= ceiling)

    def test_dominance_bisects_at_most_two_lambdas_per_range(self, monkeypatch):
        counts = []
        helper, bisect = lower_unilateral._largest_dilation, lower_unilateral._bisect
        monkeypatch.setattr(lower_unilateral, "_largest_dilation",
                            lambda *a: counts.append(0) or helper(*a))

        def counted(*a):
            counts[-1] += 1
            return bisect(*a)

        monkeypatch.setattr(lower_unilateral, "_bisect", counted)
        for name, law in oracles.suite().items():
            if law.mgf_exponent is not None:
                counts.clear()
                certify_dilation_dominance(law.mgf_exponent)
                assert counts and max(counts) <= 2, (name, counts)


def _wavy_with_slope(a, w):
    """:func:`_wavy` with its derivative, so that its searches take Newton
    steps where it rises and halve where it falls."""
    return dataclasses.replace(
        _wavy(a, w), deriv=lambda t: t + a * (1.0 + np.sin(w * t)) + a * w * t * np.cos(w * t))


# the phis whose scalar searches take Newton steps; the wavy one falls in
# places, where its steps are NaN and the search halves
NEWTON_FAMILIES = {
    "quadratic": QUAD0,
    "power-log-0.5": PhiFunction.power_log(0.5, lo=0.0),
    "weibull4": oracles.weibull(4.0).mgf_exponent,
    "wavy": _wavy_with_slope(3.614, 2.173),
}


def _record_searches(monkeypatch):
    """Every scalar search from here on, as (a0, b0, below(a), below(b),
    rel, (a, b), tests made), each answer taken as the search returns."""
    searches = []

    def spy(a, b, below, steps, rel=0.0):
        made = []
        got = _bisect(a, b, lambda t: made.append(t) or below(t), steps, rel)
        searches.append((a, b, below(got[0])[0], below(got[1])[0], rel, got, len(made)))
        return got

    monkeypatch.setattr(lower_unilateral, "_bisect", spy)
    monkeypatch.setattr(functions, "_bisect", spy)
    return searches


class TestScalarNewtonSearch:
    """The dilation search and the first lam at 1 take Newton steps where
    phi has phi': each ends with below(a) holding and below(b) failing,
    within its stop width, in at most 12 tests."""

    @pytest.mark.parametrize("name", sorted(NEWTON_FAMILIES))
    def test_searches_of_the_chain(self, name, monkeypatch):
        phi = NEWTON_FAMILIES[name]
        searches = _record_searches(monkeypatch)
        cert = certify_dilation_dominance(phi)
        absorb_normalization(phi, cert.c1, 30.0, cert.lam_range[0])
        kinds = {rel for *_, rel, _, _ in searches}
        assert kinds == {0.0, 1e-12}, kinds  # dilations and the first lam at 1
        for a0, b0, at_a, at_b, rel, (a, b), made in searches:
            assert at_a
            # an end never tested is the caller's; the dilation search's top
            # holds there on a falling phi
            assert not at_b or (b == b0 and name == "wavy")
            # rel = 0 stops within the spacing of doubles at 1
            assert 0.0 < b - a <= max(rel, 2.0 ** -52) * max(1.0, abs(b))
            assert made <= 12, (a0, b0, made)

    def test_moments_first_lam_at_one_ends_within_the_spacing_of_doubles(self, monkeypatch):
        # rel = 0: 0.5 sqrt(p) reaches 1 at p = 4, and the search ends on it,
        # two doubles below it (the spacing halves below 4)
        searches = _record_searches(monkeypatch)
        to_exponential(moment_power_growth(2.0, 0.5, 1.0))
        (_, _, at_a, at_b, rel, (a, b), made), = searches
        assert rel == 0.0 and at_a and not at_b and made <= 12
        assert b == 4.0 and 0.0 < b - a <= 2.0 ** -52 * b

    def test_without_a_derivative_the_search_halves(self, monkeypatch):
        # the same search on phi without phi': 45 halvings, as before Newton
        searches = _record_searches(monkeypatch)
        phi = dataclasses.replace(QUAD0, deriv=None)
        certify_dilation_dominance(phi)
        halvings = [made for *_, rel, _, made in searches if rel == 0.0]
        assert halvings and all(made == 45 for made in halvings)


@pytest.fixture(scope="module")
def chain():
    xs = np.linspace(1.0, 8.0, 15)
    return unilateral_lower_envelope(QUAD0, 0.2, M_GAUSS, xs, nonnegative=False)


class TestGaussianChain:
    def test_realized_constants(self, chain):
        _, cert = chain
        assert cert.c1 == pytest.approx(0.4413, abs=2e-3)
        assert cert.lam1 == 4.0
        assert cert.c2 == pytest.approx(0.2568, abs=2e-3)
        assert cert.dilation == pytest.approx(4.868, rel=0.02)
        assert cert.dilation >= 1.0
        assert cert.x_valid_from == 1.0

    def test_envelope_shape_matches_dilated_conjugate(self, chain):
        env, cert = chain
        # on x >= 1 the conjugate branch dominates the linear one
        expect = -0.5 * (cert.dilation * env.x) ** 2
        assert np.allclose(env.log_values, expect, rtol=1e-7)

    def test_validity_against_normal_tail(self, chain):
        env, _ = chain
        g = oracles.gaussian()
        tails = g.exact_tail(env.x)
        assert np.all(env.values <= tails + 1e-12)

    def test_monotone(self, chain):
        env, _ = chain
        validate_monotone(env)

    def test_a_grid_below_1_is_refused_before_any_search(self, monkeypatch):
        monkeypatch.setattr(lower_unilateral, "certify_dilation_dominance",
                            lambda phi: pytest.fail("searched"))
        with pytest.raises(InputError, match="x_grid has no points at or above x_valid_from = 1"):
            unilateral_lower_envelope(QUAD0, 0.2, M_GAUSS, [0.2, 0.5])


class TestChainAcrossOracles:
    @pytest.mark.parametrize("name", ["gaussian", "exponential", "weibull2"])
    def test_sandwich(self, name):
        dist = oracles.suite()[name]
        phi = dist.mgf_exponent
        xs = np.linspace(1.0, 8.0, 15)
        m_bound = m_surrogate_from_upper(phi, 0.2)
        env, cert = unilateral_lower_envelope(
            phi, 0.2, m_bound, xs, nonnegative=dist.nonnegative)
        tails = dist.exact_tail(env.x)
        chernoff = np.array(
            [math.exp(-min(_conj(phi, float(x)), 700.0)) for x in env.x])
        assert np.all(env.values <= tails + 1e-12)
        assert np.all(tails <= chernoff + 1e-12)
        assert cert.dilation >= 1.0

    def test_exponential_small_x_needs_linear_branch(self):
        # on a bounded exponent domain the restricted-conjugate branch alone
        # would exceed the true tail near 1; the linear branch carries it
        dist = oracles.exponential_unit()
        phi = dist.mgf_exponent
        m_bound = m_surrogate_from_upper(phi, 0.2)
        env, cert = unilateral_lower_envelope(phi, 0.2, m_bound, np.array([1.0]))
        c_tilde = cert.c2 * (1.0 - cert.eps)
        mus = np.linspace(cert.mu1, 1.0 / (1.0 - cert.eps) * (1 - 1e-12), 20000)
        branch1 = float(np.max(mus - np.array([phi.value(c_tilde * m) for m in mus])))
        assert math.exp(-branch1) > dist.exact_tail(1.0)   # restricted branch invalid alone
        assert env.log_values[0] == pytest.approx(-cert.mu1, rel=1e-12)
        assert env.values[0] <= dist.exact_tail(1.0)       # emitted envelope is valid

    def test_non_cramer_annotation(self):
        env, _ = unilateral_lower_envelope(QUAD0, 0.2, M_GAUSS, np.linspace(1, 8, 8))
        par = oracles.pareto(3.0)
        assert np.all(env.values <= par.exact_tail(env.x) + 1e-12)

    def test_degenerate_bounded_top_clamps_to_the_trivial_bound(self):
        # lam^2/2 on [0, 5) stays bounded toward the top, so the biconjugation
        # step certifies nothing: every lower value is -inf in log
        phi = PhiFunction.quadratic(lo=0.0, hi=5.0)
        xs = np.linspace(1.0, 8.0, 15)
        env, cert = unilateral_lower_envelope(phi, 0.2, m_surrogate_from_upper(phi, 0.2), xs)
        assert cert.annotations == ("DegenerateBoundedTop",)
        assert env.x.tolist() == xs.tolist()
        assert np.all(env.log_values == -math.inf)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_non_finite_grid_is_an_input_error(self, bad):
        # refused before the chain runs: the inf point used to read -inf
        with pytest.raises(InputError, match="x_grid must be a nonempty 1-d grid of finite"):
            unilateral_lower_envelope(QUAD0, 0.2, 2.0, [2.0, bad])

    def test_eps_factor_ordering(self):
        # the (1-eps) factor of the dilation shrinks with eps
        env1, c1 = unilateral_lower_envelope(QUAD0, 0.1, M_GAUSS, np.array([2.0]))
        env3, c3 = unilateral_lower_envelope(QUAD0, 0.3, M_GAUSS, np.array([2.0]))
        assert 1.0 / (1.0 - c1.eps) < 1.0 / (1.0 - c3.eps)
        assert c1.c2 * c1.dilation * (1 - c1.eps) == pytest.approx(1.0, rel=1e-12)

    def test_uncertified_input_raises(self):
        # phi stays below 1 on [0, 10): no range certifies, and the refusal
        # names the raised starts it tried
        slow = PhiFunction.from_callable(
            lambda l: 0.05 * l, 0.0, 10.0, deriv=lambda l: 0.05,
            convex=True, label="slow-linear")
        with pytest.raises(NotCertifiedError, match=r"not certified on \(3, 10\), \(4\.5, 10\)"):
            unilateral_lower_envelope(slow, 0.2, 2.0, np.array([2.0]))


def _dilated_exponents(phi, cert, offset, xs):
    """h(x) from the conjugate of the dilated copy mu -> phi(c_tilde*mu) on
    [max(mu1, lo/c_tilde), b/(1-eps)): the chain's own formula before it
    read phi* at a*x, kept as the reference for :func:`_exponents`."""
    c_tilde = cert.c2 * (1.0 - cert.eps)
    copy = dilated(phi, c_tilde, max(cert.mu1, phi.domain.lo / c_tilde),
                   phi.domain.hi / (1.0 - cert.eps))
    stars, _, errors = conjugate_values(copy, xs)
    _inf_where_unbounded(stars, errors)
    return np.maximum(cert.mu1 * xs - offset, stars)


# phi and eps as the CLI runs them: the moment exponents at eps = 0.05, on ln x
CHAIN_INPUTS = {
    "quadratic": lambda: (QUAD0, 0.2),
    "quartic": lambda: (PhiFunction.power_log(4.0, 0.0, lo=0.0), 0.2),
    "power_log(2, 1)": lambda: (PhiFunction.power_log(2.0, 1.0, lo=0.0), 0.2),
    "power_log(1, 0)": lambda: (PhiFunction.power_log(1.0, 0.0, lo=0.0), 0.2),
    "weibull2": lambda: (oracles.weibull(2.0).mgf_exponent, 0.2),
    "weibull4": lambda: (oracles.weibull(4.0).mgf_exponent, 0.2),
    "exponential": lambda: (oracles.exponential_unit().mgf_exponent, 0.2),
    "growth": lambda: (to_exponential(moment_power_growth(2.0, 1.0, 1.0)).phi1, 0.05),
    "pole": lambda: (to_exponential(moment_power_pole(1.0, 3.0, 1.0)).phi1, 0.05),
}


class TestChainConjugatesPhi:
    """The chain reads phi* at a*x, phi restricted to [max(c2*lam1, lo), c2*b)."""

    @pytest.mark.parametrize("name", list(CHAIN_INPUTS))
    def test_equals_the_dilated_copy(self, name):
        phi, eps = CHAIN_INPUTS[name]()
        xs = np.linspace(1.0, 8.0, 15) if eps == 0.2 else np.log(np.arange(3.0, 10.5, 0.5))
        _, cert = unilateral_lower_envelope(phi, eps, 2.0, xs)
        np.testing.assert_allclose(_exponents(phi, cert, 0.0, xs),
                                   _dilated_exponents(phi, cert, 0.0, xs), rtol=1e-14, atol=0)

    def test_the_cap_applies_to_lambda(self):
        # lower-uni --family power-log --p 1.3 --lambda-min 0 --epsilon 0.2
        # --x 3:400:50: at x = 3 the maximizer lam* ~ 4.5e6 lies below the cap
        # lambda = 1e8 (the dilated copy capped mu instead, and read -inf);
        # from x = 53 on it lies above, and the bound is trivial
        phi = PhiFunction.power_log(1.3, 0.0, lo=0.0)
        env, cert = unilateral_lower_envelope(phi, 0.2, m_surrogate_from_upper(phi, 0.2),
                                              np.arange(3.0, 400.0, 50.0))
        y = cert.dilation * 3.0
        lam = y ** (1.0 / (1.3 - 1.0))
        assert lam < LAMBDA_CAP
        assert env.log_values[0] == -(lam * y - phi.value(lam))
        assert np.all(env.log_values[1:] == -math.inf)

    def test_a_derivative_free_phi_is_refused_at_the_cap(self):
        # power_log(1.1, 2) without its derivative, declaring its slope limit:
        # at each a*x just above phi'(1e8) a Brent search would settle just
        # below the cap, finite and too small; the scan refuses them all there
        pl = PhiFunction.power_log(1.1, 2.0, lo=0.0)
        phi = PhiFunction.from_callable(pl.fn, 0.0, math.inf, convex=True,
                                        slope_lim=math.inf, vectorized=True)
        _, cert = unilateral_lower_envelope(phi, 0.2, 2.0, [1.0])
        ys = pl.derivative(LAMBDA_CAP) * (1.0 + 1e-7 * np.arange(1, 46))
        env, _ = unilateral_lower_envelope(phi, 0.2, 2.0, ys / cert.dilation)
        assert env.log_values.size == 45
        assert np.all(env.log_values == -math.inf)

    def test_a_steep_grid_reads_only_its_restriction(self):
        # lam^2/2 on the knots 0, 0.1, ..., 40, the last value raised to 1e8:
        # the last chord rises past 5e6, so the top is not degenerate; c2*b
        # lies below the last knot, whose chord would otherwise win at large a*x
        lams = [i / 10 for i in range(401)]
        phi = PhiFunction.from_grid(lams, [0.5 * t * t for t in lams[:-1]] + [1e8])
        xs = np.arange(1.0, 12.5, 0.5)
        _, cert = unilateral_lower_envelope(phi, 0.2, m_surrogate_from_upper(phi, 0.2), xs)
        assert cert.annotations == () and cert.c2 < 1.0
        np.testing.assert_allclose(_exponents(phi, cert, 0.0, xs),
                                   _dilated_exponents(phi, cert, 0.0, xs), rtol=1e-15, atol=0)

    def test_work_of_the_power_log_one_chain(self, monkeypatch):
        # phi' tends to 1, so every a*x > 1 diverges without a search; the
        # dilated copy had no slope limit, and its chain took 80 values calls
        # over 20,256 points, each x climbing the scan ladder to the cap;
        # the dominance probe of 4,097 points took 5,813 points in all
        sizes = []
        values = PhiFunction.values
        monkeypatch.setattr(PhiFunction, "values",
                            lambda f, lams: sizes.append(np.size(lams)) or values(f, lams))
        env, _ = unilateral_lower_envelope(PhiFunction.power_log(1.0, 0.0, lo=0.0), 0.2, 2.0,
                                           np.linspace(1.0, 8.0, 15))
        assert (len(sizes), sum(sizes)) == (12, 1845)
        assert np.all(env.log_values == -math.inf)


def _conj(phi, x):
    from tailbounds.functions import conjugate_value
    v, _ = conjugate_value(phi, x)
    return v


class TestSurrogate:
    def test_gaussian_value(self):
        m = m_surrogate_from_upper(QUAD0, 0.2)
        # tangent minorant only enlarges the damped integral
        assert m >= M_GAUSS - 1e-9
        assert m == pytest.approx(M_GAUSS, rel=1e-3)

    def test_growth_without_a_derivative_takes_the_chord(self):
        # the chord ending at hi is no steeper than nu'(hi) for a convex nu,
        # so the tangent lines reach no less far and the minorant holds;
        # they stop one doubling later, a little sparser
        m = m_surrogate_from_upper(dataclasses.replace(QUAD0, deriv=None), 0.2)
        assert M_GAUSS <= m == pytest.approx(m_surrogate_from_upper(QUAD0, 0.2), abs=1e-4)

    def test_exponential_value_by_quadrature(self):
        phi = oracles.exponential_unit().mgf_exponent
        m = m_surrogate_from_upper(phi, 0.2)
        # the conjugate over [0, 1) is x - 1 - ln(x) for x >= 1 (interior
        # maximizer) and exactly 0 below (boundary at lam = 0)
        star = lambda x: x - 1 - math.log(x) if x >= 1.0 else 0.0
        val, _ = quad(lambda x: math.exp(-0.2 * star(x)), 0, 400, limit=400)
        assert m == pytest.approx(val, rel=2e-4)
        assert m >= val - 1e-7


def _minorant_k_reference(lams, vals, eps, n_uniform=500, n_nodes=10):
    """Composite Gauss-Legendre K of exp(-eps*max(0, max_i(lams*x - vals))).

    The integrand is evaluated as a brute-force max over every line.  Panels
    break at every crossing of consecutive lines and of each line with zero,
    which holds every kink of the envelope of tangent lines to a convex nu,
    and at a uniform grid; the range ends where the exponent passes 250/eps.
    """
    lams, vals = lams[np.isfinite(vals)], vals[np.isfinite(vals)]

    def zeta(x):
        out = np.zeros(x.size)
        for k in range(0, x.size, 2048):
            xs = x[k:k + 2048]
            out[k:k + 2048] = np.maximum(0.0, np.max(lams[:, None] * xs - vals[:, None], axis=0))
        return out

    end = 1.0
    while zeta(np.array([end]))[0] * eps < 250.0:
        end *= 2.0
    kinks = np.concatenate([np.diff(vals) / np.diff(lams), vals / lams])
    edges = np.unique(np.concatenate([np.linspace(0.0, end, n_uniform),
                                      kinks[(kinks > 0.0) & (kinks < end)]]))
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * np.diff(edges)[:, None]
    xs = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes).ravel()
    return math.fsum((np.exp(-eps * zeta(xs)) * (half * weights).ravel()).tolist())


class TestClosedFormSurrogate:
    @pytest.mark.parametrize("name", ["gaussian", "exponential", "weibull2", "weibull4"])
    def test_matches_composite_gauss_legendre(self, name):
        phi = oracles.suite()[name].mgf_exponent
        lams, vals = _tangent_lines(phi, 0.2)
        ref = _minorant_k_reference(lams, vals, 0.2)
        assert m_surrogate_from_upper(phi, 0.2) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_quadratic_coefficient_one_against_reference(self):
        phi = PhiFunction.quadratic(coeff=1.0, lo=0.0)
        lams, vals = _tangent_lines(phi, 0.5)
        ref = _minorant_k_reference(lams, vals, 0.5)
        assert m_surrogate_from_upper(phi, 0.5) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_never_below_k_of_the_conjugate(self):
        # nu = lam^2/2: nu* = x^2/2 and K = int exp(-0.2 x^2/2) = sqrt(pi/0.4)
        m = m_surrogate_from_upper(QUAD0, 0.2)
        assert m >= math.sqrt(math.pi / 0.4)
        assert m == pytest.approx(math.sqrt(math.pi / 0.4), rel=1e-3)

    def test_minorant_without_lines_is_divergent(self):
        with pytest.raises(DivergentIntegral):
            _clipped_minorant_k(np.empty(0), np.empty(0), 0.2)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_eps_outside_unit_interval_is_input_error(self, eps):
        with pytest.raises(InputError):
            m_surrogate_from_upper(QUAD0, eps)

    def test_lines_off_the_envelope_are_dropped(self):
        # the middle line 1*x - 10 lies below max(0.5x, 2x - 3) everywhere
        lams, vals = np.array([0.5, 1.0, 2.0]), np.array([0.0, 10.0, 3.0])
        k = _clipped_minorant_k(lams, vals, 1.0)
        # exp(-0.5x) on [0, 2], exp(-(2x - 3)) beyond
        want = 2.0 * (1.0 - math.exp(-1.0)) + math.exp(-1.0) / 2.0
        assert k == pytest.approx(want, rel=1e-14)


class TestTailTransformIdentity:
    """Integration by parts: 1 + lam*int e^{lam x} T(x) dx equals the MGF."""

    @pytest.mark.parametrize("lam", [0.3, 0.6])
    def test_exponential(self, lam):
        val, _ = quad(lambda x: math.exp((lam - 1.0) * x), 0, np.inf)
        assert 1 + lam * val == pytest.approx(1.0 / (1.0 - lam), rel=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 1.5])
    def test_weibull_two(self, lam):
        val, _ = quad(lambda x: math.exp(lam * x - x * x), 0, np.inf)
        closed = math.exp(weibull_log_mgf_closed_m2(lam))
        assert 1 + lam * val == pytest.approx(closed, rel=1e-7)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_weibull_four_against_oracle_exponent(self, lam):
        val, _ = quad(lambda x: math.exp(lam * x - x ** 4), 0, np.inf)
        phi = oracles.weibull(4.0).mgf_exponent
        assert 1 + lam * val == pytest.approx(math.exp(phi.value(lam)), rel=1e-7)


def test_weibull_results_identical_across_threads():
    # one shared quadrature-backed exponent, no cache behind it
    phi = oracles.weibull(2.0).mgf_exponent
    xs = np.array([1.5, 3.0, 5.0])

    def work():
        res = conjugate(phi, xs)
        env, cert = unilateral_lower_envelope(phi, 0.2, 2.0, xs)
        return res.values, res.argmax, env.log_values, np.array([cert.c1, cert.c2, cert.lam1])

    serial = work()
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(work) for _ in range(2)]
        for run in runs:
            for got, want in zip(run.result(), serial):
                np.testing.assert_array_equal(got, want)
