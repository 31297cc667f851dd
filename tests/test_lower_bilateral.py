"""Saddle geometry, tangent-line bounds, closure, regularity, sandwiches."""

import contextlib
import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbounds import oracles
from tailbounds.errors import (
    GeometryInvalidError,
    InputError,
    NotCertifiedError,
    NotConvergedError,
    OutOfDomainError,
    TailboundsError,
)
from tailbounds import lower_bilateral
from tailbounds.functions import (
    LAMBDA_CAP,
    PhiFunction,
    _stars,
    conjugate,
    conjugate_values,
)
from tailbounds.lower_bilateral import (
    RegularityReport,
    SaddleGeometry,
    _bracket_logs,
    _saddle_table,
    _x0_inverse,
    closure_lower_envelope,
    exact_mgf_sandwich,
    make_geometry,
    pinched_lower_envelope,
    tangent_bracket_log,
    tangent_bracket_lower,
    verify_regularity,
)
from tailbounds.tauberian import tauberian_check

QUAD0 = PhiFunction.quadratic(lo=0.0)


def q_tail(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class TestGeometry:
    def test_symmetric_offsets(self):
        geo = make_geometry(QUAD0, 10.0, 0.3)
        assert (geo.x_minus, geo.x0, geo.x_plus) == (7.0, 10.0, 13.0)
        assert geo.ds_minus > 0 > geo.ds_plus
        assert geo.rule == "symmetric"
        assert make_geometry(QUAD0, 10.0, 0.3, 0.2).rule == "asymmetric"

    def test_side_values(self):
        # S(10, x) = 10 x - x^2/2 and its slope 10 - x at x = 7 and 13
        geo = make_geometry(QUAD0, 10.0, 0.3)
        assert geo.s_minus == pytest.approx(45.5, abs=1e-9)
        assert geo.s_plus == pytest.approx(45.5, abs=1e-9)
        assert geo.ds_minus == pytest.approx(3.0, abs=1e-12)
        assert geo.ds_plus == pytest.approx(-3.0, abs=1e-12)

    def test_saddle_touching_identity(self):
        # S(lam, x0(lam)) recovers phi(lam) for convex phi
        for lam in (2.0, 5.0, 20.0):
            geo = make_geometry(QUAD0, lam, 0.2)
            assert geo.s_x0 == pytest.approx(QUAD0.value(lam), rel=1e-10)

    def test_invalid_ordering_rejected(self):
        geo = dataclasses.replace(make_geometry(QUAD0, 10.0, 0.3), x_minus=13.0, x_plus=7.0)
        with pytest.raises(GeometryInvalidError):
            geo.validate()
        with pytest.raises(GeometryInvalidError):
            tangent_bracket_log(QUAD0, geo)

    def test_flat_saddle_piece_rejected(self):
        # mu, lam and nu all inside the knot piece (3.0, 3.1): one saddle
        with pytest.raises(GeometryInvalidError):
            make_geometry(_SADDLE_PATH_PHIS["half-square-knots"], 3.05, 0.01)


LOG_SPOT = math.log(1.0 - (20.0 / 3.0) * math.exp(-4.5)) - 80.0


class TestTangentBracket:
    def test_gaussian_spot_value(self):
        geo = make_geometry(QUAD0, 10.0, 0.3)
        assert tangent_bracket_log(QUAD0, geo) == pytest.approx(LOG_SPOT, abs=1e-6)
        lin = tangent_bracket_lower(QUAD0, geo)
        assert lin == pytest.approx(
            (1.0 - (20.0 / 3.0) * math.exp(-4.5)) * math.exp(-80.0), rel=1e-6)

    def test_clamp_case(self):
        # e^8 - 8 e^7.5 < 0: the bracket degenerates to the trivial bound
        geo = make_geometry(QUAD0, 4.0, 0.25)
        assert tangent_bracket_lower(QUAD0, geo) == 0.0
        assert tangent_bracket_log(QUAD0, geo) == -math.inf

    def test_below_true_tail_at_x_minus(self):
        geo = make_geometry(QUAD0, 10.0, 0.3)
        assert tangent_bracket_lower(QUAD0, geo) <= q_tail(7.0)

    def test_never_negative(self):
        for lam in np.linspace(1.0, 30.0, 14):
            for d in (0.05, 0.2, 0.4):
                geo = make_geometry(QUAD0, float(lam), d)
                assert tangent_bracket_lower(QUAD0, geo) >= 0.0


@pytest.fixture(scope="module")
def gaussian_closure():
    zs = np.array([1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0])
    return zs, *closure_lower_envelope(QUAD0, QUAD0, zs)


class TestClosure:
    def test_positive_from_two(self, gaussian_closure):
        zs, env, diag = gaussian_closure
        assert not diag.all_clamped
        assert np.isneginf(env.log_values[0])       # z = 1.5 clamps
        assert np.all(np.isfinite(env.log_values[1:]))

    def test_valid_against_normal_tail(self, gaussian_closure):
        zs, env, _ = gaussian_closure
        tails = np.array([q_tail(z) for z in zs])
        assert np.all(env.values <= tails + 1e-12)

    def test_dominates_any_single_geometry(self, gaussian_closure):
        zs, env, _ = gaussian_closure
        # closure at z = 3 with offsets (0.5, 0.5) by hand
        lam = 3.0 / (1.0 - 0.5)
        geo = make_geometry(QUAD0, lam, 0.5, 0.5)
        single = tangent_bracket_log(QUAD0, geo)
        assert env.log_values[3] >= single - 1e-12

    def test_exponent_excess_is_linear_scale(self, gaussian_closure):
        zs, env, _ = gaussian_closure
        mask = np.isfinite(env.log_values) & (zs >= 3.0)
        excess = -env.log_values[mask] - zs[mask] ** 2 / 2.0
        slope, intercept = np.polyfit(zs[mask], excess, 1)
        assert 0.0 < slope < 8.0
        assert np.all(excess / zs[mask] < 10.0)

    def test_weak_floor_still_valid_for_mixture(self):
        # phi1 far below phi2: every bracket clamps, the bound is trivial
        # but stays a valid lower bound for a law matching the pair
        phi1 = PhiFunction.quadratic(coeff=0.1, lo=0.0)
        mix = oracles.gaussian_scale_mixture(0.5, 0.5, 1.0)
        lams = np.linspace(1.4, 40.0, 40)
        for lam in lams:
            ln_mgf = mix.mgf_exponent.value(float(lam))
            assert phi1.value(float(lam)) - 1e-12 <= ln_mgf <= QUAD0.value(float(lam)) + 1e-12
        zs = np.linspace(2.0, 8.0, 7)
        env, diag = closure_lower_envelope(phi1, QUAD0, zs)
        tails = mix.exact_tail(zs)
        assert np.all(env.values <= tails + 1e-12)

    def test_exponential_clamps_everywhere(self):
        phi = oracles.exponential_unit().mgf_exponent
        zs = np.linspace(2.0, 8.0, 7)
        env, diag = closure_lower_envelope(phi, phi, zs)
        assert diag.all_clamped
        assert np.all(env.values == 0.0)


QUARTIC_V = 2.75  # [1 - 4(1+d)^3 + 3(1+d)^4] / d^2 at d = -1/2


class TestBoundsLandAtTheirPoints:
    def test_every_closure_and_sandwich_row_has_its_saddle_at_or_above_z(self, monkeypatch):
        # a row's tangent bound is a bound on T(x0(mu)), mu the row's first
        # point, and the envelope reports it at z: a sound report needs
        # x0(mu) >= z.  On a grid the envelopes put mu on the first knot
        # whose right chord reaches z.  Each chord rises from the last by
        # at most twice its knot spacing
        batches = []
        helper = lower_bilateral._bracket_logs

        def spy(phi1, phi2, mus, lams, nus):
            batches.append(np.broadcast_arrays(mus, lams)[0])
            return helper(phi1, phi2, mus, lams, nus)

        monkeypatch.setattr(lower_bilateral, "_bracket_logs", spy)
        rng = np.random.default_rng(37)
        rows = {"closure": 0, "sandwich": 0}
        for _ in range(20):
            n = int(rng.integers(30, 200))
            ls = np.cumsum(rng.uniform(0.05, 0.5, n))
            steps = np.diff(ls)
            slopes = rng.uniform(1.0, 3.0) + np.cumsum(rng.uniform(0.0, 2.0, n - 1) * steps)
            phi = PhiFunction.from_grid(ls, np.concatenate(([0.0], np.cumsum(slopes * steps))))
            zs = np.sort(rng.uniform(slopes[0], slopes[-1], 40))
            batches.clear()
            closure_lower_envelope(phi, phi, zs)
            with contextlib.suppress(NotCertifiedError):  # a clamped x refuses after its batch
                exact_mgf_sandwich(phi, zs)
            assert len(batches) == 2
            for name, mus in zip(rows, batches):
                x0s = _saddle_table(phi, mus)[0]
                has = ~np.isnan(x0s)
                assert (x0s >= zs[:, None])[has].all(), name
                rows[name] += int(has.sum())
        assert rows["closure"] > 50_000 and rows["sandwich"] > 10_000, rows

    def test_every_row_arrives_with_the_mu_of_its_saddle_inverse(self, monkeypatch):
        # the closure, the pinch and the sandwich each bracket rows that
        # start at mu, the saddle inverse of their point, and pass it on as
        # the row's first point, bit for bit: a mu rebuilt from lam and an
        # offset rounds, and on the lam^2/2 grid from lam = 1 that moves it
        # onto the piece to the left of its knot, or below the grid
        inverses, batches = [], []
        inverse, helper = lower_bilateral._saddle_inverse, lower_bilateral._bracket_logs

        def inverse_spy(*args):
            mus, errors = inverse(*args)
            inverses.append(mus.copy())
            return mus, errors

        def spy(phi1, phi2, mus, lams, nus):
            batches.append((inverses[-1], np.broadcast_arrays(mus, lams)[0]))
            return helper(phi1, phi2, mus, lams, nus)

        monkeypatch.setattr(lower_bilateral, "_saddle_inverse", inverse_spy)
        monkeypatch.setattr(lower_bilateral, "_bracket_logs", spy)
        ls = np.arange(10.0, 301.0) / 10.0
        grid = PhiFunction.from_grid(ls, 0.5 * ls * ls)
        xs = np.arange(1.0, 8.5, 0.5)
        for phi in (grid, QUAD0, PhiFunction.power_log(2.0, 1.0, lo=0.0)):
            closure_lower_envelope(phi, phi, xs)
            with contextlib.suppress(NotCertifiedError):  # the grid's pinch refuses
                pinched_lower_envelope(phi, 0.1, np.arange(3.0, 30.0))
            exact_mgf_sandwich(phi, xs)
        assert len(batches) == 9
        for want, got in batches:
            assert got.tobytes() == np.broadcast_to(want[:, None], got.shape).tobytes()
        # the grid's sandwich: 24 rows at each of 15 points; at x = 1, below
        # the first chord, every row starts at the first knot, mu = 1
        got = batches[2][1]
        assert got.shape == (15, 24) and (got[0] == 1.0).all()


class TestRegularity:
    def test_quadratic_curvature_is_one(self):
        rep = verify_regularity(QUAD0)
        assert abs(rep.v_value - 1.0) <= 1e-6
        assert rep.ok

    def test_quadratic_absorption_constant(self):
        # analytic: 4/(1-d)^2, maximized at the grid top d = 1/2
        rep = verify_regularity(QUAD0)
        assert rep.c0 == pytest.approx(16.0, rel=1e-9)

    def test_quartic_grid_infimum(self):
        rep = verify_regularity(PhiFunction.power_log(4.0))
        assert rep.v_value == pytest.approx(QUARTIC_V, abs=1e-9)
        assert rep.ok

    def test_power_log_positive(self):
        rep = verify_regularity(PhiFunction.power_log(2.0, 1.0))
        assert rep.v_value > 0.0
        assert math.isfinite(rep.c0)

    def test_nonconvex_rejected(self):
        bumpy = PhiFunction.from_callable(
            lambda l: l + 0.4 * math.sin(2 * l) + 0.4, 1.0, 60.0,
            convex=False, label="wiggle")
        with pytest.raises(NotCertifiedError):
            verify_regularity(bumpy)


class TestSaddleMapGate:
    @staticmethod
    def _counted():
        # convex, but with neither a derivative nor a grid: no saddle map
        calls = []

        def fn(l):
            calls.append(l)
            return 0.5 * l * l

        return PhiFunction.from_callable(fn, 0.0, math.inf, convex=True, label="counted"), calls

    @pytest.mark.parametrize("run", [
        lambda phi: closure_lower_envelope(QUAD0, phi, [2.0, 3.0]),
        lambda phi: exact_mgf_sandwich(phi, [2.0, 3.0]),
        lambda phi: verify_regularity(phi),
        lambda phi: pinched_lower_envelope(phi, 0.1, [3.0, 4.0]),
    ], ids=["closure", "sandwich", "regularity", "pinch"])
    def test_refused_before_any_search(self, run):
        phi, calls = self._counted()
        with pytest.raises(NotCertifiedError, match="needs a derivative or a grid"):
            run(phi)
        assert calls == []

    def test_geometry_refuses_before_any_search(self):
        phi, calls = self._counted()
        with pytest.raises(NotCertifiedError, match="needs a derivative or a grid"):
            make_geometry(phi, 3.0, 0.2)
        assert calls == []

    @pytest.mark.parametrize("phi2", [
        PhiFunction.power_log(0.5),
        PhiFunction.from_callable(lambda l: 0.5 * l * l, 0.0, math.inf, convex=True),
    ], ids=["non-convex", "derivative-free"])
    @pytest.mark.parametrize("run", [
        lambda phi: closure_lower_envelope(QUAD0, phi, [2.0, 3.0]),
        lambda phi: pinched_lower_envelope(phi, 0.1, [3.0, 4.0]),
        lambda phi: exact_mgf_sandwich(phi, [2.0, 3.0]),
        lambda phi: verify_regularity(phi),
        lambda phi: make_geometry(phi, 3.0, 0.2),
        lambda phi: tauberian_check(phi, oracles.gaussian()),
    ], ids=["closure", "pinch", "sandwich", "regularity", "geometry", "tauberian"])
    def test_the_gate_guards_every_entry(self, monkeypatch, phi2, run):
        # each public entry refuses a phi2 without a saddle map before the
        # saddle map runs
        tables = []
        table = lower_bilateral._saddle_table

        def spy(*args):
            tables.append(args)
            return table(*args)

        monkeypatch.setattr(lower_bilateral, "_saddle_table", spy)
        with pytest.raises(NotCertifiedError):
            run(phi2)
        assert tables == []

    @pytest.mark.parametrize("phi", [
        PhiFunction.quadratic(2.0),
        PhiFunction.from_grid(np.arange(10, 301) / 10, 2.0 * (np.arange(10, 301) / 10) ** 2),
    ], ids=["closed-form", "grid"])
    def test_below_the_slope_at_lo_every_kind_takes_lo(self, phi):
        # 2 lam^2 on [1, inf), the exponent of N(0, 4): z = 2..3.5 lie below
        # phi'(1) = 4 (the grid's first chord 4.2), so each takes mu = lo,
        # whose x0(1) >= z bounds T(z) from below; the closure's and the
        # sandwich's lower log-values lie below ln T(z) = ln Phi(-z/2)
        zs = np.arange(2.0, 4.0, 0.5)
        mus, errors = _x0_inverse(phi, zs)
        assert errors == {} and mus.tolist() == [1.0] * zs.size
        log_t = oracles.log_ndtr(-zs / 2.0)
        env, diag = closure_lower_envelope(phi, phi, zs)
        assert [row["status"] for row in diag.per_z.values()] == ["ok"] * zs.size
        lower, _, _ = exact_mgf_sandwich(phi, zs)
        for got in (env.log_values, lower.log_values):
            assert np.isfinite(got).all() and (got <= log_t).all()


@pytest.fixture(scope="module")
def pinch():
    zs = np.linspace(math.e, 8.0, 12)
    return pinched_lower_envelope(QUAD0, 0.1, zs)


class TestPinchedEnvelope:
    def test_constant_in_range(self, pinch):
        _, cert = pinch
        assert 0.0 < cert.c < 1.0 / 0.1
        assert cert.certified_from <= cert.ladder_cap / 2.0

    def test_subgaussian_form(self, pinch):
        env, cert = pinch
        # -ln(env) = 0.5 z^2 (1 + c') for a single constant c' > 0
        ratio = -env.log_values / (0.5 * env.x ** 2)
        assert np.allclose(ratio, ratio[0], rtol=1e-9)
        assert ratio[0] > 1.0

    def test_valid_from_is_the_certified_threshold(self, pinch):
        env, cert = pinch
        assert env.valid_from == cert.certified_from
        # points below the threshold are still emitted, but not claimed
        assert env.x[0] == pytest.approx(math.e)
        assert env.x[-1] < env.valid_from

    def test_validity_on_certified_range(self, pinch):
        _, cert = pinch
        delta = cert.delta
        mix = oracles.gaussian_scale_mixture(0.5, math.sqrt(1 - delta ** 2), 1.0)
        zs = np.geomspace(cert.certified_from, cert.ladder_cap, 9)
        env, _ = pinched_lower_envelope(QUAD0, delta, zs)
        tails = mix.exact_tail(zs)
        assert np.all(env.values <= tails + 1e-12)
        # the bracket (0, 1/delta) certifies wide pinches too: N(0, 2a(1 - delta^2))
        # has exp((1 - delta^2) a lam^2) <= MGF <= exp(a lam^2), and every point
        # from certified_from on, out past the ladder, lies below its ln T
        for delta in (0.2, 0.3, 0.4, 0.45):
            for a in (0.3, 0.5, 3.0):
                zs = np.geomspace(math.e, 1000.0, 80)
                env, cert = pinched_lower_envelope(PhiFunction.quadratic(a, lo=0.0), delta, zs)
                assert cert.certified_from <= cert.ladder_cap / 2.0
                on = env.x >= cert.certified_from
                log_tail = oracles.log_ndtr(-env.x[on] / math.sqrt(2 * a * (1 - delta ** 2)))
                assert np.all(env.log_values[on] < log_tail), (delta, a)

    def test_delta_to_zero_continuity(self):
        z = 6.0
        ratios = []
        for delta in (0.1, 0.05, 0.02):
            env, cert = pinched_lower_envelope(QUAD0, delta, np.array([3.0, z]))
            ratios.append(-env.log_values[-1] / (z * z / 2.0))
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[2] < 1.2

    def test_rate_diagnostic_reports_without_asserting(self):
        # the realized tightening rate in delta is measured and reported
        # only; whether the true rate is quadratic is unresolved
        from tailbounds.lower_bilateral import pinch_rate_diagnostic
        diag = pinch_rate_diagnostic(QUAD0, (0.1, 0.05, 0.02), 6.0)
        assert set(diag) == {"rate", "deltas", "gaps"}
        assert len(diag["deltas"]) >= 2
        assert math.isfinite(diag["rate"])

    def test_rate_diagnostic_without_two_certified_deltas_is_nan(self):
        # on lam^2/2 over the knots 0, 0.1, ..., 30 the pinch refuses
        # delta = 0.1 (no machinery bound past the last knot), and 0.6 lies
        # outside (0, 1/2): both are passed over, and no rate is fitted
        from tailbounds.lower_bilateral import pinch_rate_diagnostic
        lams = np.arange(301) / 10
        diag = pinch_rate_diagnostic(PhiFunction.from_grid(lams, 0.5 * lams * lams),
                                     (0.1, 0.6), 6.0)
        assert math.isnan(diag["rate"]) and diag["deltas"] == [] and diag["gaps"] == []


# The pinch's c from scratch: the machinery exponent of each upper-half
# ladder point, and that point's threshold (the least c in (0, 1/delta) whose
# envelope it dominates) by 60 plain halvings of its own bracket.  Returns
# the largest threshold (None where an upper point has no machinery bound or
# is not dominated even at the bracket top) and a check of every ladder point
# at a given c.
def _threshold_pinch(phi, delta):
    phi1 = PhiFunction.from_callable(
        lambda l: (1.0 - delta * delta) * phi.value(l), phi.domain.lo, phi.domain.hi,
        deriv=(lambda l: (1.0 - delta * delta) * phi.deriv(l)) if phi.deriv else None,
        convex=phi.convex)
    cap = max(64.0, 14.0 / delta)
    ladder = np.geomspace(math.e, cap, 40)
    ds = np.geomspace(0.3, min(4.9, 0.49 / delta), 16) * delta
    mus, _ = _x0_inverse(phi, ladder)
    lams = mus[:, None] / (1.0 - ds)
    neg_log = -_bracket_logs(phi1, phi, mus[:, None], lams, lams * (1.0 + ds)).max(axis=1)
    half = int(np.sum(ladder <= cap / 2.0)) - 1
    upper, neg_up, top = ladder[half:], neg_log[half:], (1.0 - 1e-9) / delta

    def exponents(cs, zs):
        t = 1.0 - cs * delta
        return t * conjugate_values(phi, zs / t)[0]

    def dominated(c):
        """Each ladder point's verdict at c: a finite machinery exponent
        that the envelope's reaches."""
        return [bool(math.isfinite(m) and not exponents(c, np.array([z]))[0] < m)
                for z, m in zip(ladder.tolist(), neg_log.tolist())]

    if not np.isfinite(neg_up).all() or (exponents(top, upper) < neg_up).any():
        return None, dominated
    # domination only grows with c: each upper point's verdicts run False...True
    verdicts = np.array([exponents(c, upper) >= neg_up for c in np.linspace(0.0, top, 41)])
    assert (np.diff(verdicts.astype(int), axis=0) >= 0).all()
    a, b = np.zeros(upper.size), np.full(upper.size, top)
    for _ in range(60):
        m = 0.5 * (a + b)
        up = exponents(m, upper) < neg_up
        a, b = np.where(up, m, a), np.where(up, b, m)
    return float(b.max()), dominated


def _check_pinch(phi, delta):
    want, dominated = _threshold_pinch(phi, delta)
    if want is None:
        with pytest.raises(NotCertifiedError, match="no c in"):
            pinched_lower_envelope(phi, delta, [math.e])
        return
    _, cert = pinched_lower_envelope(phi, delta, [math.e])
    assert math.isclose(cert.c, want, rel_tol=1e-13, abs_tol=0.0), (cert.c, want)
    verdicts = dominated(cert.c)
    ladder = np.geomspace(math.e, cert.ladder_cap, 40)
    # every upper-half point is dominated at c, and the run reaching the top
    # starts at certified_from
    assert all(verdicts[int(np.sum(ladder <= cert.ladder_cap / 2.0)) - 1:])
    start = len(verdicts) - verdicts[::-1].index(False) if False in verdicts else 0
    assert cert.certified_from == ladder[start]
    assert cert.certified_from <= cert.ladder_cap / 2.0


class TestPinchBisection:
    @settings(max_examples=8)
    @given(coeff=st.floats(0.3, 3.0), delta=st.floats(0.02, 0.45))
    def test_c_is_the_largest_row_threshold(self, coeff, delta):
        _check_pinch(PhiFunction.quadratic(coeff=coeff, lo=0.0), delta)

    @pytest.mark.parametrize("phi, delta", [
        (QUAD0, 0.05), (QUAD0, 0.1), (QUAD0, 0.3),
        (PhiFunction.power_log(2.0, 1.0, lo=0.0), 0.1),
        (PhiFunction.power_log(2.0, 1.0, lo=0.0), 0.3),
        (oracles.gaussian_scale_mixture(0.5, 1.0, 2.0).mgf_exponent, 0.1),
        (oracles.gaussian_scale_mixture(0.5, 1.0, 2.0).mgf_exponent, 0.3),
    ], ids=["quadratic-0.05", "quadratic-0.1", "quadratic-0.3", "power-log-2-1-0.1",
            "power-log-2-1-0.3", "mixture-0.1", "mixture-0.3"])
    def test_spots_match_the_row_thresholds(self, phi, delta):
        _check_pinch(phi, delta)

    @pytest.mark.parametrize("phi", [
        QUAD0, PhiFunction.power_log(2.0, 1.0, lo=0.0),
        oracles.gaussian_scale_mixture(0.5, 1.0, 2.0).mgf_exponent,
    ], ids=["quadratic", "power-log-2-1", "mixture"])
    def test_newton_slope_is_the_derivative_in_c(self, phi):
        # d/dc [t*phi*(z/t)] = delta*phi(mu), t = 1 - c*delta, mu the
        # maximizer of phi*(z/t): the envelope theorem
        delta, h = 0.2, 1e-6
        for c, z in [(0.5, 3.0), (2.0, 20.0), (4.0, 60.0)]:
            f = [(1.0 - k * delta) * conjugate_values(phi, [z / (1.0 - k * delta)])[0][0]
                 for k in (c - h, c + h)]
            _, mu = _stars(phi, [z / (1.0 - c * delta)])
            assert delta * phi.value(mu[0]) == pytest.approx((f[1] - f[0]) / (2 * h), rel=1e-6)

    def test_no_machinery_bound_refuses_before_the_search(self, monkeypatch):
        # lam^2/2 on the knots 0, 0.1, ..., 30: the upper ladder's saddles
        # pass the last knot, so no c is dominated there and no c is tried
        lams = np.arange(301) / 10
        phi = PhiFunction.from_grid(lams, 0.5 * lams * lams)
        tried = []
        monkeypatch.setattr(lower_bilateral, "_stars",
                            lambda *a, **k: tried.append(a) or _stars(*a, **k))
        with pytest.raises(NotCertifiedError) as exc:
            pinched_lower_envelope(phi, 0.1, [3.0])
        assert str(exc.value).startswith(
            "no c in (0, 10) dominated by the machinery on the ladder: "
            "no machinery bound at z = ")
        assert str(exc.value).endswith("(phi's domain ends at 30)")
        assert tried == []


class TestCappedConjugateUnderALowerBound:
    # power_log(1.3): phi*(x) = x^q/q with q = 1.3/0.3, its maximizer x^(1/0.3)
    # passes LAMBDA_CAP = 1e8 from x = 1e8^0.3 = 251.2
    P, DELTA = 1.3, 0.1
    Q = P / (P - 1.0)

    def test_pinch_below_the_cap_carries_the_exact_conjugate(self):
        phi = PhiFunction.power_log(self.P, 0.0, lo=0.0)
        zs = np.arange(3.0, 201.0)
        env, cert = pinched_lower_envelope(phi, self.DELTA, zs)
        t = 1.0 - cert.c * self.DELTA
        exact = t * (env.x / t) ** self.Q / self.Q
        np.testing.assert_allclose(-env.log_values, exact, rtol=1e-12)
        assert cert.certified_from < zs[-1]

    def test_pinch_refuses_the_first_capped_point(self):
        phi = PhiFunction.power_log(self.P, 0.0, lo=0.0)
        zs = np.arange(3.0, 301.0)
        _, cert = pinched_lower_envelope(phi, self.DELTA, zs[zs <= 200.0])
        t = 1.0 - cert.c * self.DELTA
        # the first z whose exact maximizer (z/t)^(1/(p-1)) passes the cap
        first = float(zs[(zs / t) ** (1.0 / (self.P - 1.0)) >= LAMBDA_CAP][0])
        with pytest.raises(NotCertifiedError, match=rf"at {first!r} stops at the search "
                                                    r"cap lambda = 1e\+08"):
            pinched_lower_envelope(phi, self.DELTA, zs)

    def test_pinch_ladder_reaches_saddles_past_the_cap(self):
        # the delta = 0.05 ladder runs to z = 280, whose saddle lies past
        # LAMBDA_CAP: its machinery point needs the saddle inverse to go on
        # from the cap (the certificate is the one the search from lo gave)
        phi = PhiFunction.power_log(self.P, 0.0, lo=0.0)
        _, cert = pinched_lower_envelope(phi, 0.05, np.arange(3.0, 201.0))
        assert cert.ladder_cap == 280.0
        assert (cert.c, cert.certified_from, cert.machinery_points) == (
            4.0328396233015384, 3.447610967936748, 38)

    def test_sandwich_refuses_and_the_chernoff_bound_keeps_its_values(self):
        phi = PhiFunction.power_log(self.P, 0.0, lo=0.0)
        xs = np.array([100.0, 240.0, 260.0, 300.0])
        with pytest.raises(NotCertifiedError, match=r"at 260\.0 stops"):
            exact_mgf_sandwich(phi, xs)
        # an upper envelope may rest on the capped supremum, which is too small
        res = conjugate(phi, xs)
        assert res.capped.tolist() == [False, False, True, True]
        assert np.all(res.values[2:] < xs[2:] ** self.Q / self.Q)
        np.testing.assert_allclose(res.values[:2], xs[:2] ** self.Q / self.Q, rtol=1e-12)


def test_pinch_exponent_calls_phi_once_per_array(monkeypatch):
    calls = []
    phi = dataclasses.replace(QUAD0, fn=lambda l: calls.append(np.shape(l)) or QUAD0.fn(l))
    seen = []
    real = lower_bilateral._bracket_logs

    def recording(phi1, *args):
        seen.append(phi1)
        return real(phi1, *args)

    monkeypatch.setattr(lower_bilateral, "_bracket_logs", recording)
    pinched_lower_envelope(phi, 0.1, np.linspace(3.0, 8.0, 6))
    phi1 = seen[0]
    calls.clear()
    lams = np.linspace(1.0, 5.0, 50)
    got = phi1.values(lams)
    assert calls == [(50,)]
    assert got.tobytes() == np.array([phi1.value(t) for t in lams.tolist()]).tobytes()
    assert got.tobytes() == ((1.0 - 0.01) * QUAD0.values(lams)).tobytes()
    # the bracket reads phi1's domain and values only
    assert phi1.deriv is None


R_MIN_C2 = (-math.log(0.5 * math.erfc(2.0 / math.sqrt(2.0))) - 2.0) / 2.0


@pytest.fixture(scope="module")
def gaussian_sandwich():
    xs = np.linspace(2.0, 8.0, 13)
    return xs, *exact_mgf_sandwich(QUAD0, xs)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("entry", ["closure", "sandwich", "pinch"])
def test_a_non_finite_grid_is_an_input_error(entry, bad):
    grid = [3.0, bad, 5.0] if entry == "pinch" else [2.0, bad]
    call = {"closure": lambda: closure_lower_envelope(QUAD0, QUAD0, grid),
            "sandwich": lambda: exact_mgf_sandwich(QUAD0, grid),
            "pinch": lambda: pinched_lower_envelope(QUAD0, 0.1, grid)}[entry]
    name = "z_grid" if entry != "sandwich" else "x_grid"
    with pytest.raises(InputError, match=f"{name} must be a nonempty 1-d grid of finite"):
        call()


class TestExactMgfSandwich:
    def test_upper_is_conjugate(self, gaussian_sandwich):
        xs, _, upper, _ = gaussian_sandwich
        assert np.allclose(-upper.log_values, xs ** 2 / 2.0, rtol=1e-9)
        tails = np.array([q_tail(x) for x in xs])
        assert np.all(upper.values >= tails - 1e-12)

    def test_c2_dominates_independent_minimum(self, gaussian_sandwich):
        # the smallest constant making the shifted form valid on [2, 8]
        # is about 0.892 (binding at x = 2); ours must sit above it and
        # the envelope must hold
        xs, lower, _, c2 = gaussian_sandwich
        assert R_MIN_C2 == pytest.approx(0.8916, abs=2e-4)
        assert c2 >= R_MIN_C2
        tails = np.array([q_tail(x) for x in xs])
        assert np.all(lower.values <= tails + 1e-12)

    def test_ordering_and_positivity(self, gaussian_sandwich):
        _, lower, upper, _ = gaussian_sandwich
        assert np.all(lower.log_values <= upper.log_values + 1e-12)
        assert np.all(np.isfinite(lower.log_values))

    def test_exponential_sandwich(self):
        dist = oracles.exponential_unit()
        xs = np.linspace(2.0, 8.0, 7)
        lower, upper, c2 = exact_mgf_sandwich(dist.mgf_exponent, xs)
        tails = dist.exact_tail(xs)
        assert math.isfinite(c2) and c2 > 0
        assert np.all(lower.values <= tails + 1e-12)
        assert np.all(upper.values >= tails - 1e-12)
        assert np.all(np.isfinite(lower.log_values))

    def test_a_grid_from_one_certifies_x_one(self):
        # x = 1 lies below the first chord 1.05 of a lam^2/2 grid from
        # lam = 1: the saddle inverse reads it at the first knot, the
        # conjugate's argmax, where phi' of a closed form would refuse it
        ls = np.arange(10, 301) / 10
        grid = PhiFunction.from_grid(ls, 0.5 * ls ** 2)
        lower, upper, c2 = exact_mgf_sandwich(grid, [1.0, 1.5, 2.0])
        mus, errors = _x0_inverse(grid, np.array([1.0]))
        assert errors == {} and mus.tolist() == [1.0]
        assert np.isfinite(lower.log_values).all() and math.isfinite(c2)
        assert np.all(lower.log_values <= upper.log_values)

    def test_weibull_sandwich(self):
        dist = oracles.weibull(2.0)
        xs = np.linspace(2.0, 6.0, 5)
        lower, upper, c2 = exact_mgf_sandwich(dist.mgf_exponent, xs)
        tails = dist.exact_tail(xs)
        assert np.all(lower.values <= tails + 1e-12)
        assert np.all(upper.values >= tails - 1e-12)


def _softplus():
    """ln(1 + e^lam): convex, slope tends to 1 from below."""
    return PhiFunction.from_callable(
        lambda l: max(l, 0.0) + math.log1p(math.exp(-abs(l))), 0.0, math.inf,
        deriv=lambda l: 0.5 * (1.0 + math.tanh(0.5 * l)), convex=True,
        label="softplus", slope_lim=1.0)


class TestSaddleInverse:
    @pytest.mark.parametrize("phi", [PhiFunction.linear(1.0, lo=0.0), _softplus()],
                             ids=["linear", "softplus"])
    def test_no_bracket_is_an_error(self, phi):
        # phi' never exceeds 1, so no t has x0(t) = 3
        mus, errors = _x0_inverse(phi, np.array([3.0]))
        assert math.isnan(mus[0])
        assert isinstance(errors[0], OutOfDomainError)

    @pytest.mark.parametrize("phi", [PhiFunction.linear(1.0, lo=0.0), _softplus()],
                             ids=["linear", "softplus"])
    def test_closure_records_no_saddle(self, phi):
        _, diag = closure_lower_envelope(phi, phi, [3.0, 4.0])
        assert [diag.per_z[z]["status"] for z in (3.0, 4.0)] == ["no-saddle", "no-saddle"]

    def test_batch_matches_each_point(self):
        phi = _softplus()
        zs = np.array([0.6, 0.7, 0.9, 0.99, 3.0])
        mus, errors = _x0_inverse(phi, zs)
        assert list(errors) == [4]
        for z, mu in zip(zs[:4], mus[:4]):
            single, _ = _x0_inverse(phi, np.array([z]))
            assert single[0] == mu
            assert mu == pytest.approx(math.log(z / (1.0 - z)), rel=1e-10)

    def test_below_the_slope_at_lo(self):
        # z = 1 lies below phi'(2) = 2: it keeps its conjugate's argmax, lo
        mus, errors = _x0_inverse(PhiFunction.quadratic(lo=2.0), np.array([1.0, 6.0]))
        assert errors == {} and mus[0] == 2.0
        assert mus[1] == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("phi", [QUAD0, PhiFunction.power_log(1.3, 0.0, lo=0.0),
                                     PhiFunction.power_log(2.0, 1.0, lo=0.0),
                                     PhiFunction.power_log(1.5, 0.5, lo=0.0), _softplus()],
                             ids=["quadratic", "p1.3", "p2r1", "p1.5r0.5", "softplus"])
    def test_equals_the_conjugate_argmax(self, phi):
        # below the cap the saddle inverse is the conjugate's argmax, bit for bit
        zs = np.linspace(0.55, 0.99, 12) if phi.label == "softplus" else np.linspace(0.5, 240.0, 50)
        mus, errors = _x0_inverse(phi, zs)
        _, arg, _ = conjugate_values(phi, zs)
        assert not errors and np.isfinite(mus).all()
        assert mus.tobytes() == arg.tobytes()

    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_past_the_cap(self, r):
        # z = 300..400 (z = 2,000..3,000 for r = 0.5) have their saddles past
        # LAMBDA_CAP: the conjugate stops there, and the root continues
        phi = PhiFunction.power_log(1.3, r, lo=0.0)
        zs = np.linspace(300.0, 400.0, 11) * (1.0 if r == 0.0 else 6.5)
        assert (conjugate_values(phi, zs)[1] == LAMBDA_CAP).all()
        mus, errors = _x0_inverse(phi, zs)
        assert not errors and (mus > LAMBDA_CAP).all()
        if r == 0.0:
            np.testing.assert_allclose(mus, zs ** (1.0 / 0.3), rtol=1e-12)
        np.testing.assert_allclose(phi.derivatives(mus), zs, rtol=1e-12)

    def test_past_the_cap_a_bracket_left_open_raises(self):
        # lam^1.5 with phi'' 37 times too large: the root of phi' = 3e4, at
        # 4e8 past the cap, is still bracketed by [1e8, 4.03e8] after 100 steps
        phi = PhiFunction.from_callable(lambda t: t ** 1.5, 0.0, math.inf,
                                        deriv=lambda t: 1.5 * t ** 0.5,
                                        deriv2=lambda t: 37.0 * 0.75 * t ** -0.5,
                                        convex=True, vectorized=True)
        with pytest.raises(NotConvergedError, match="30000.0 is still in"):
            _x0_inverse(phi, np.array([3e4]))


# Scalar versions of the saddle path, one t at a time, as the geometry and
# the regularity report were once written: the reference for the batched
# _saddle_table path and its touching identity, compared bit for bit.
def _scalar_x0(phi2, t):
    # a grid has no saddle from its last knot on
    ls = phi2.knots[0] if phi2.kind == "grid" else None
    if ls is not None and t >= ls[-1]:
        raise OutOfDomainError(float(t), float(ls[0]), float(ls[-1]))
    return float(phi2.deriv(float(t)))


def _scalar_star_at_saddle(phi2, t, x):
    # x is a subgradient of phi2 at t, a derivative or a grid's chord
    return float(t) * float(x) - phi2.value(float(t))


def _scalar_make_geometry(phi2, lam, delta1, delta2=None):
    lam = float(lam)
    d1 = float(delta1)
    d2 = d1 if delta2 is None else float(delta2)
    rule = "symmetric" if d2 == d1 else "asymmetric"
    if not (0.0 < d1 < 1.0 and 0.0 < d2):
        raise InputError("dilation offsets must be positive, delta1 < 1")
    mu = lam * (1.0 - d1)
    nu = lam * (1.0 + d2)
    # the smallest t without a saddle refuses the row
    for t in sorted((mu, lam, nu)):
        if not phi2.domain.contains(t):
            raise OutOfDomainError(t, phi2.domain.lo, phi2.domain.hi)
        _scalar_x0(phi2, t)
    xm = _scalar_x0(phi2, mu)
    xp = _scalar_x0(phi2, nu)
    x0v = _scalar_x0(phi2, lam)
    sm = lam * xm - _scalar_star_at_saddle(phi2, mu, xm)
    sp = lam * xp - _scalar_star_at_saddle(phi2, nu, xp)
    s0 = lam * x0v - _scalar_star_at_saddle(phi2, lam, x0v)
    geo = SaddleGeometry(lam=lam, x0=x0v, x_minus=xm, x_plus=xp, rule=rule,
                         delta1=d1, delta2=d2, s_minus=sm, s_plus=sp, s_x0=s0,
                         ds_minus=lam - mu, ds_plus=lam - nu)
    geo.validate()
    return geo


def _scalar_verify_regularity(phi, skipped):
    """The regularity report cell by cell; appends each skipped error."""
    if phi.convex is not True:
        raise NotCertifiedError("regularity check needs convexity-certified phi")
    hi = phi.domain.top()
    top = min(100.0, hi * 0.999) if math.isfinite(hi) else 100.0
    lam_grid = np.geomspace(math.e, top, 24)
    base = np.array([0.05, 0.1, 0.15, 0.25, 0.35, 0.5])
    delta_grid = np.concatenate([-base[::-1], base])
    v_best, v_arg = math.inf, (math.nan, math.nan)
    c0_best, c0_arg = -math.inf, (math.nan, math.nan)
    evaluated = 0
    for lam in lam_grid:
        lam = float(lam)
        if not phi.domain.contains(lam):
            continue
        s_peak = phi.value(lam)
        if s_peak <= 0:
            continue
        for d in delta_grid:
            d = float(d)
            t = lam * (1.0 + d)
            if d == 0.0 or not phi.domain.contains(t):
                continue
            try:
                x_shift = _scalar_x0(phi, t)
            except OutOfDomainError as exc:
                skipped.append(exc)
                continue
            s_shift = lam * x_shift - _scalar_star_at_saddle(phi, t, x_shift)
            ratio = (s_peak - s_shift) / (s_peak * d * d)
            evaluated += 1
            if ratio < v_best:
                v_best, v_arg = ratio, (lam, d)
            ad = abs(d)
            t_up, t_dn = lam * (1.0 + ad), lam * (1.0 - ad)
            if not (phi.domain.contains(t_up) and phi.domain.contains(t_dn)):
                continue
            try:
                x_up = _scalar_x0(phi, t_up)
                x_dn = _scalar_x0(phi, t_dn)
            except OutOfDomainError as exc:
                skipped.append(exc)
                continue
            star_dn = _scalar_star_at_saddle(phi, t_dn, x_dn)
            if star_dn <= 0:
                continue
            c0_here = (lam * x_up - (1.0 - d * d) * phi.value(lam) - star_dn) / (ad * star_dn)
            if c0_here > c0_best:
                c0_best, c0_arg = c0_here, (lam, ad)
    ok = bool(evaluated > 0 and v_best > 0 and math.isfinite(c0_best))
    return RegularityReport(
        v_value=v_best, v_argmin=v_arg, c0=max(c0_best, 0.0), c0_argmax=c0_arg,
        ok=ok, grid={"n_lam": len(lam_grid), "n_delta": len(delta_grid),
                     "evaluated": evaluated},
    )


def _outcome(fn, *args, **kwargs):
    """repr of the result, or the type and message of the package error."""
    try:
        return repr(fn(*args, **kwargs))
    except TailboundsError as exc:
        return type(exc).__name__, str(exc)


_KNOTS = np.linspace(0.0, 30.0, 301)
_SADDLE_PATH_PHIS = {
    "half-square-knots": PhiFunction.from_grid(_KNOTS, 0.5 * _KNOTS * _KNOTS),
    "quadratic": QUAD0,
    "power-log-2-1": PhiFunction.power_log(2.0, 1.0),
    # a derivative on a bounded domain: the regularity walk's cells past
    # hi = 40 reach the saddle table and come back as OutOfDomainError
    "quadratic-to-40": PhiFunction.quadratic(lo=0.0, hi=40.0),
}


_GEOMETRY_CASES = [
    (3.0, 0.2, None),           # symmetric rule
    (3.05, 0.1, 0.3),           # asymmetric rule
    (3.05, 0.01, None),         # GeometryInvalidError on one knot piece
    (3.0, 1.5, None),           # InputError
    (29.0, 0.2, None),          # OutOfDomainError past the knots
    (0.0, 0.2, None),           # mu = lam = nu: GeometryInvalidError on the grid
    (1.2, 0.5, None),           # OutOfDomainError below lo = 1
]
_BRACKET_CASES = [
    (10.0, 0.3, None),          # the spot value
    (4.0, 0.25, None),          # clamps
    (20.0, 0.4, 0.2),
    (3.0, 0.2, -0.1),           # InputError on delta2
    (math.nan, 0.2, None),      # OutOfDomainError
]


class TestBatchedSaddlePath:
    @pytest.mark.parametrize("name", sorted(_SADDLE_PATH_PHIS))
    def test_regularity_matches_the_scalar_walk(self, name):
        phi = _SADDLE_PATH_PHIS[name]
        skipped = []
        want = _scalar_verify_regularity(phi, skipped)
        assert repr(verify_regularity(phi)) == repr(want)
        if name == "half-square-knots":
            assert want.grid["evaluated"] == 274  # 14 shifted lams pass the last knot

    @staticmethod
    def _kinked_knots(kinks, top=120.0):
        # lam^2/2 on unit knots up to top plus a slope jump of 3 at each
        # kink: a shifted lam that lands on a kink takes its right chord
        ls = np.union1d(np.linspace(0.0, top, int(top) + 1), kinks)
        return PhiFunction.from_grid(
            ls, 0.5 * ls * ls + 3.0 * np.maximum(ls[:, None] - kinks, 0.0).sum(axis=1))

    def test_kinks_skip_cells_as_the_scalar_walk_does(self):
        lams = np.geomspace(math.e, 100.0, 24)
        # lam(1 - 1/2) on a kink for the two top lams, whose lam(1 + 1/2)
        # leaves the domain: a kink has an x0, its right chord, so those
        # cells are evaluated, not skipped, as in the scalar walk
        kinks = 0.5 * lams[lams > 80.0]
        phi = self._kinked_knots(kinks)
        skipped = []
        want = _scalar_verify_regularity(phi, skipped)
        assert repr(verify_regularity(phi)) == repr(want)
        assert skipped == []
        x0s, _, errors = _saddle_table(phi, kinks)
        ls, vs = phi.knots
        at = np.searchsorted(ls, kinks)
        assert errors == {}
        assert x0s.tolist() == ((vs[at + 1] - vs[at]) / (ls[at + 1] - ls[at])).tolist()

    def test_kinks_at_the_last_knot_skip_as_the_scalar_walk_does(self):
        # lam(1 - 0.05) on a kink for every lam has an x0; on knots that end
        # at 150 = 100 (1 + 1/2), the cell (100, +-1/2) needs x0 at that last
        # knot, where the grid has none: it is skipped, and so is the
        # absorption test of (100, -1/2), which needs it too
        phi = self._kinked_knots(0.95 * np.geomspace(math.e, 100.0, 24), top=150.0)
        skipped = []
        want = _scalar_verify_regularity(phi, skipped)
        assert [str(e) for e in skipped] == [str(OutOfDomainError(150.0, 0.0, 150.0))] * 2
        assert repr(verify_regularity(phi)) == repr(want)

    @pytest.mark.parametrize("name", sorted(_SADDLE_PATH_PHIS))
    @pytest.mark.parametrize("lam, d1, d2", _GEOMETRY_CASES)
    def test_geometry_matches_the_scalar_one(self, name, lam, d1, d2):
        phi = _SADDLE_PATH_PHIS[name]
        want = _outcome(_scalar_make_geometry, phi, lam, d1, d2)
        assert _outcome(make_geometry, phi, lam, d1, d2) == want

    def test_touching_identity_is_the_grid_conjugate(self):
        # on a convex grid x0(t) is the chord of the piece [ls[k], ls[k+1])
        # holding t: a subgradient at t, so the touching identity there,
        # which the saddle path takes for phi2*(x0), is the knot conjugate
        # to rounding.  t is drawn uniformly, on knots and within 1e-12 of
        # them, where a t just below a knot keeps the chord to its left
        rng = np.random.default_rng(2028)
        checked = 0
        for _ in range(50):
            n = int(rng.integers(20, 401))
            ls = np.cumsum(rng.uniform(0.5, 1.5, n)) * rng.uniform(0.01, 1.0)
            # each chord rises from the last by at most twice its knot spacing
            slopes = rng.uniform(0.0, 3.0) + np.cumsum(rng.uniform(0.0, 2.0, n - 1) * np.diff(ls))
            vs = rng.uniform(0.0, 1.0) + np.concatenate(([0.0], np.cumsum(slopes * np.diff(ls))))
            phi2 = PhiFunction.from_grid(ls, vs)
            assert phi2.convex
            k = rng.integers(0, n, 60)
            ts = np.concatenate([rng.uniform(ls[0], ls[-1], 100), ls[k],
                                 ls[k] + rng.uniform(-1e-12, 1e-12, 60)])
            x0s, stars, _ = _saddle_table(phi2, ts)
            at = ~np.isnan(x0s)
            assert (stars[at] == ts[at] * x0s[at] - phi2.values(ts[at])).all()
            want = conjugate_values(phi2, x0s[at])[0]
            assert (np.abs(stars[at] - want) <= 4e-15 * np.maximum(1.0, np.abs(want))).all()
            checked += int(at.sum())
        assert checked > 10_000

    def test_geometry_cases_reach_every_error(self):
        outcomes = {_outcome(_scalar_make_geometry, phi, *case)[0]
                    for phi in _SADDLE_PATH_PHIS.values() for case in _GEOMETRY_CASES}
        assert {"GeometryInvalidError", "InputError", "OutOfDomainError"} <= outcomes
        # a grid has no saddle from its last knot on: nu = 25 (1 + 0.2) = 30
        assert _outcome(_scalar_make_geometry, _SADDLE_PATH_PHIS["half-square-knots"],
                        25.0, 0.2) == ("OutOfDomainError",
                                       str(OutOfDomainError(30.0, 0.0, 30.0)))

    @pytest.mark.parametrize("name", sorted(_SADDLE_PATH_PHIS))
    def test_bracket_batch_matches_make_geometry(self, name):
        # one 2-D batch against the one-row path: -inf wherever make_geometry
        # refuses the row, the scalar bracket elsewhere, bit for bit
        phi = _SADDLE_PATH_PHIS[name]
        rows = np.array([(lam, d1, d1 if d2 is None else d2)
                         for lam, d1, d2 in _GEOMETRY_CASES + _BRACKET_CASES
                         if _outcome(make_geometry, phi, lam, d1, d2)[0]
                         != "NonUniqueArgmaxError"])
        # the rows forwards and backwards: a 2 x n batch
        lams, d1s, d2s = np.stack([rows, rows[::-1]]).transpose(2, 0, 1)
        got = _bracket_logs(phi, phi, lams * (1.0 - d1s), lams, lams * (1.0 + d2s))
        assert got.shape == lams.shape
        want, refused = [], set()
        for lam, d1, d2 in zip(lams.ravel(), d1s.ravel(), d2s.ravel()):
            try:
                want.append(tangent_bracket_log(phi, make_geometry(phi, lam, d1, d2)))
            except TailboundsError as exc:
                want.append(-math.inf)
                refused.add(type(exc).__name__)
        assert got.ravel().tolist() == want
        assert np.isfinite(got).any()
        expect = {"InputError", "OutOfDomainError"}
        if name == "half-square-knots":
            expect.add("GeometryInvalidError")
        assert expect <= refused

    def test_batch_raises_the_error_at_the_smallest_t(self):
        # t = 6 and t = 8 sit on kinks, whose x0 is the right chord, and the
        # knots end at 10; the rows (10, 0.2) and (8, 0.25) ask for x0 at 8,
        # 10, 12 and at 6, 8, 10.  make_geometry refuses both at t = 10, the
        # last knot, where the grid has no saddle: the smallest t without
        # one (12 lies off the domain), OutOfDomainError naming the knots.
        # The batch raises neither and refuses both rows, as it does every
        # OutOfDomainError, while the rows (7.5, 0.2), through the kink 6,
        # and (7, 0.2) take make_geometry's brackets (the first clamps)
        phi = self._kinked_knots(np.array([6.0, 8.0]), top=10.0)
        for lam, d in [(10.0, 0.2), (8.0, 0.25)]:
            with pytest.raises(OutOfDomainError) as smallest:
                make_geometry(phi, lam, d)
            assert str(smallest.value) == str(OutOfDomainError(10.0, 0.0, 10.0))
        lams, ds = np.array([10.0, 8.0, 7.5, 7.0]), np.array([0.2, 0.25, 0.2, 0.2])
        want = [tangent_bracket_log(phi, make_geometry(phi, lam, 0.2)) for lam in (7.5, 7.0)]
        got = _bracket_logs(phi, phi, lams * (1.0 - ds), lams, lams * (1.0 + ds))
        assert got.tolist() == [-math.inf, -math.inf, *want]
        assert math.isfinite(want[1])


def _mp_bracket(row):
    """The bracket formula at 30 digits on one row of doubles: (its log, or
    None where it clamps, and the sum of its three terms over the bracket)."""
    with mp.workdps(30):
        lam, t0, s_minus, ds_minus, s_plus, ds_plus, x_plus = map(mp.mpf, row)
        tm = mp.log(lam) + s_minus - mp.log(ds_minus)
        tp = mp.log(lam) + s_plus - mp.log(-ds_plus)
        m = max(t0, tm, tp)
        terms = [mp.exp(t0 - m), mp.exp(tm - m), mp.exp(tp - m)]
        bracket = terms[0] - terms[1] - terms[2]
        if bracket <= 0:
            return None, math.inf
        return float(-lam * x_plus + m + mp.log(bracket)), float(mp.fsum(terms) / bracket)


class TestBracketAgainstMpmath:
    @staticmethod
    def _batch_rows(monkeypatch):
        """Every row the closure, the pinch and the sandwich of the quadratic,
        power_log(2, 1) and the half-square grid bracket, with the values
        _bracket_logs stores for them."""
        rows, got = [], []
        real = lower_bilateral._bracket_formula

        def recording(*cols):
            out = real(*cols)
            rows.append(np.column_stack(cols))
            got.append(out)
            return out

        monkeypatch.setattr(lower_bilateral, "_bracket_formula", recording)
        for phi in _SADDLE_PATH_PHIS.values():
            closure_lower_envelope(phi, phi, np.arange(2.0, 8.5, 0.5))
            with contextlib.suppress(NotCertifiedError):  # the grid's pinch refuses
                pinched_lower_envelope(phi, 0.1, np.arange(3.0, 30.0))
            exact_mgf_sandwich(phi, np.arange(2.0, 9.0))
        return np.concatenate(rows), np.concatenate(got)

    def test_batches_match_30_digits(self, monkeypatch):
        rows, got = self._batch_rows(monkeypatch)
        finite = np.isfinite(got)
        # every finite row and one clamped row in 40
        pick = np.flatnonzero(finite | (np.cumsum(~finite) % 40 == 0))
        assert np.count_nonzero(~finite[pick]) >= 100
        # a row near cancellation, and one just past it, from the first
        # finite row: t0 lowered onto the sum of the two side terms
        row = rows[np.flatnonzero(finite)[0]].copy()
        lam, _, s_minus, ds_minus, s_plus, ds_plus, _ = row
        sides = np.logaddexp(math.log(lam) + s_minus - math.log(ds_minus),
                             math.log(lam) + s_plus - math.log(-ds_plus))
        near = np.array([row, row, row])
        near[:, 1] = sides + np.array([1e-6, 1e-3, -1e-9])
        # NaN in each column in turn
        nan_rows = np.repeat(row[None, :], 7, axis=0)
        nan_rows[np.arange(7), np.arange(7)] = math.nan
        table = np.concatenate([rows[pick], near, nan_rows])
        lv = lower_bilateral._bracket_formula(*table.T)
        assert lv[:pick.size].tolist() == got[pick].tolist()
        for r, v in zip(table.tolist(), lv.tolist()):
            if any(math.isnan(c) for c in r):
                assert v == -math.inf
                continue
            want, kappa = _mp_bracket(r)
            if want is None:
                assert v == -math.inf
                continue
            # 4 ulp, plus the cancellation of the three terms amplifying the
            # rounding of their exponents (kappa, the terms' sum over the
            # bracket, is near 1 unless they cancel)
            tol = 4 * math.ulp(want) + 4 * 2.0 ** -52 * (kappa - 1.0) * (1.0 + abs(r[1]))
            assert abs(v - want) <= tol, (r, v, want)
        assert _mp_bracket(near[0])[1] > 1e5 and _mp_bracket(near[2])[0] is None
