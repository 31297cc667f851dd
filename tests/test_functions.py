"""Function representation, Legendre transform, biconjugate, saddle points."""

import csv
import dataclasses
import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dilated, validate_conjugate
from tailbounds import functions, oracles
from tailbounds.errors import (
    EmptyDomainError,
    InputError,
    NegativeInputError,
    NotCertifiedError,
    NotConvergedError,
    OutOfDomainError,
    TailboundsError,
    UnboundedObjectiveError,
)
from tailbounds.functions import (
    LAMBDA_CAP,
    _GOLDEN_REL_WIDTH,
    _GROWTH_FACTOR,
    Domain,
    _bisect,
    _bisect_rows,
    _chords,
    _grow_rows,
    _read_csv_columns,
    PhiFunction,
    biconjugate,
    certify_convex,
    _scan_grid,
    _sorted_unique,
    conjugate,
    conjugate_value,
    conjugate_values,
)
from tailbounds.lower_bilateral import (_require_saddle_map, _saddle_table,
                                        pinched_lower_envelope)
from tailbounds.moments import (
    MomentEnvelope,
    moment_envelope_from_csv,
    moment_power_growth,
    moment_power_pole,
    to_exponential,
)


class TestEvaluate:
    def test_quadratic_value(self):
        assert PhiFunction.quadratic().value(2.0) == pytest.approx(2.0)

    def test_grid_midpoint_interpolation(self):
        g = PhiFunction.from_grid([1.0, 3.0], [1.0, 5.0])
        assert g.value(2.0) == pytest.approx(3.0)

    def test_half_open_upper_boundary(self):
        f = PhiFunction.quadratic(hi=10.0)
        with pytest.raises(OutOfDomainError):
            f.value(10.0)
        assert f.value(np.nextafter(10.0, 0.0)) > 0

    def test_below_domain(self):
        with pytest.raises(OutOfDomainError):
            PhiFunction.quadratic().value(0.5)

    def test_grid_no_extrapolation(self):
        g = PhiFunction.from_grid([1.0, 3.0], [1.0, 5.0])
        with pytest.raises(OutOfDomainError):
            g.value(3.5)

    def test_empty_domain_rejected(self):
        with pytest.raises(EmptyDomainError):
            Domain(2.0, 2.0)

    def test_grid_knots_must_increase(self):
        with pytest.raises(InputError):
            PhiFunction.from_grid([1.0, 1.0, 2.0], [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, says", [
        (lambda v: PhiFunction.quadratic(coeff=v), "quadratic coefficient"),
        (lambda v: PhiFunction.power_log(v), "power exponent p"),
        (lambda v: PhiFunction.power_log(2.0, v), "log exponent r"),
        (lambda v: PhiFunction.linear(slope=v), "linear slope"),
        (lambda v: oracles.gaussian(v), "scale"),
    ], ids=["quadratic-coeff", "power-log-p", "power-log-r", "linear-slope", "gaussian-scale"])
    def test_non_finite_family_parameter_is_refused(self, make, says, bad):
        # each check was a comparison that NaN fails, and none refused inf
        with pytest.raises(InputError, match=f"{says} must be .*finite, got {bad!r}"):
            make(bad)


class TestConjugate:
    def test_quadratic_interior(self):
        v, a = conjugate_value(PhiFunction.quadratic(), 3.0)
        assert v == pytest.approx(4.5, abs=1e-9)
        assert a == pytest.approx(3.0, abs=1e-6)

    def test_quadratic_boundary_supremum(self):
        # objective decreasing on [1, inf) at x=0.5: sup at lam = 1
        v, a = conjugate_value(PhiFunction.quadratic(), 0.5)
        assert v == pytest.approx(0.0, abs=1e-9)
        assert a == pytest.approx(1.0, abs=1e-6)

    def test_quartic_analytic(self):
        v, a = conjugate_value(PhiFunction.power_log(4.0), 8.0)
        assert v == pytest.approx(12.0, abs=1e-8)  # (3/4) * 8^(4/3)
        assert a == pytest.approx(2.0, abs=1e-6)

    def test_quartic_against_brute_force(self):
        quart = PhiFunction.power_log(4.0)
        lam = np.arange(1.0, 8.0, 1e-4)
        fv = lam ** 4 / 4.0
        brute = float(np.max(lam * 8.0 - fv))
        v, _ = conjugate_value(quart, 8.0)
        assert v == pytest.approx(brute, abs=1e-6)

    def test_linear_unbounded_with_witness(self):
        with pytest.raises(UnboundedObjectiveError) as exc:
            conjugate_value(PhiFunction.linear(1.0), 2.0)
        assert len(exc.value.witness) > 0
        # numpy 2 prints its scalars as np.float64(...): the message and the
        # witness carry Python floats
        assert "lam=100000000.0" in str(exc.value) and "np.float64" not in str(exc.value)
        assert all(type(w) is float for w in exc.value.witness)

    def test_grid_form_exact_vertex(self):
        g = PhiFunction.from_grid([1.0, 2.0, 3.0], [0.5, 2.0, 4.5])
        v, a = conjugate_value(g, 2.4)
        # max over knots of k*x - v
        expect = max(1 * 2.4 - 0.5, 2 * 2.4 - 2.0, 3 * 2.4 - 4.5)
        assert v == expect
        assert a == 2.0

    def test_grid_requires_increasing_x(self):
        with pytest.raises(InputError):
            conjugate(PhiFunction.quadratic(), [1.0, 1.0, 2.0])
        with pytest.raises(InputError):
            conjugate(PhiFunction.quadratic(), [-1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_refuses_a_non_finite_grid(self, bad):
        f = PhiFunction.quadratic(lo=0.0)
        for grid in ([1.0, bad], [bad], [[1.0, 2.0]], [], [2.0, 1.0]):
            with pytest.raises(InputError, match="x_grid must be a nonempty 1-d grid of finite"):
                conjugate(f, grid)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_refuses_a_non_finite_point(self, bad):
        with pytest.raises(InputError, match="x must be a nonempty 1-d grid of finite"):
            conjugate_value(PhiFunction.quadratic(lo=0.0), bad)

    def test_result_invariants_on_families(self):
        xs = np.linspace(0.0, 12.0, 40)
        for f in (PhiFunction.quadratic(), PhiFunction.power_log(4.0),
                  PhiFunction.power_log(2.0, 1.0)):
            validate_conjugate(conjugate(f, xs))

    def test_infinite_flag_in_grid_output(self):
        res = conjugate(PhiFunction.linear(1.0), np.array([0.5, 2.0]))
        assert math.isfinite(res.values[0])
        assert math.isinf(res.values[1])
        assert math.isnan(res.argmax[1])


class TestBiconjugate:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_refuses_a_non_finite_grid(self, bad):
        with pytest.raises(InputError, match="lam_grid must be a nonempty 1-d grid of finite"):
            biconjugate(PhiFunction.quadratic(lo=0.0), [1.0, bad])

    def test_fenchel_moreau_quadratic(self):
        f = PhiFunction.quadratic()
        lams = np.linspace(1.0, 10.0, 19)
        bc = biconjugate(f, lams)
        orig = np.array([f.value(t) for t in lams])
        assert np.abs(bc.values - orig).max() < 1e-6

    def test_dented_grid_matches_convex_hull(self):
        # two affine pieces with a bump at the middle knot
        ls = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        vs = np.array([0.0, 2.0, 5.5, 8.0, 12.0])
        f = PhiFunction.from_grid(ls, vs)
        assert f.convex is False
        bc = biconjugate(f, ls)
        hull = _lower_convex_hull(ls, vs)
        assert np.all(bc.values <= vs + 1e-9)
        assert np.abs(bc.values - hull).max() < 1e-8
        # equality off the bump
        for i in (0, 1, 3, 4):
            assert bc.values[i] == pytest.approx(vs[i], abs=1e-8)
        # exact at the bump: the hull's chord from 2 to 4 passes through 5
        assert bc.values[2] == 5.0 < vs[2]

    def test_random_dented_grids_match_the_convex_hull(self):
        # nondecreasing values keep the hull nondecreasing, so that the
        # supremum over x >= 0 reaches it; at the last knot lam*x - f*(x)
        # is flat from the last chord on, and is read there, not at 1e12
        rng = np.random.default_rng(28)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            ls = np.cumsum(rng.uniform(0.1, 2.0, n)) + rng.uniform(0.0, 3.0)
            vs = np.cumsum(rng.uniform(0.0, 5.0, n))
            f = PhiFunction.from_grid(ls, vs)
            assert f.convex is False
            hull = _lower_convex_hull(ls, vs)
            err = np.abs(biconjugate(f, ls).values - hull)
            assert (err <= 1e-12 * np.maximum(1.0, np.abs(hull))).all()

    def test_window_errors_raise_only_before_the_ladder_stops(self):
        # f turns negative past lam = 1000, which the conjugate's scan first
        # reaches at the ladder point x = 256; the ladder of lams up to 2
        # stops at x = 4, whose maximizer passes 2, and that of lams up to
        # 300 stops at x = 512, after the error
        f = PhiFunction.from_callable(
            lambda l: np.where(l < 1000.0, 0.5 * l * l, -1.0), 0.0, math.inf,
            deriv=lambda l: l, convex=True, slope_lim=math.inf, vectorized=True)
        lams = np.array([1.0, 1.5, 2.0])
        np.testing.assert_allclose(biconjugate(f, lams).values, 0.5 * lams ** 2,
                                   rtol=1e-13)
        with pytest.raises(NegativeInputError):
            biconjugate(f, [1.0, 300.0])

    def test_exponential_law_exponent_on_its_bounded_domain(self):
        # -ln(1 - lam) on [0, 1): f* is finite everywhere, its maximizer
        # 1 - 1/x passes 0.95 at x = 20
        f = oracles.exponential_unit().mgf_exponent
        lams = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(biconjugate(f, lams).values, f.values(lams),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("slope", [0.5, 1.0, 2.0, 3.0, 3.5])
    def test_slope_limit_stops_the_ladder_without_raising(self, slope):
        # f* is 0 up to the slope and diverges past it: the ladder 1, 2, 4
        # stops at its first divergent point, which is not raised, and the
        # brackets bisect to the slope limit, on a ladder point or between two
        f = PhiFunction.linear(slope, lo=0.0)
        lams = np.array([0.5, 1.0, 2.0, 7.0])
        np.testing.assert_allclose(biconjugate(f, lams).values, slope * lams,
                                   rtol=1e-15, atol=0.0)

    def test_smooth_slope_limited_function(self):
        # sqrt(1 + lam^2): slope limit 1, f* finite on [0, 1] only
        f = PhiFunction.from_callable(
            lambda l: np.sqrt(1.0 + l * l), 0.0, math.inf,
            deriv=lambda l: l / np.sqrt(1.0 + l * l), convex=True, slope_lim=1.0,
            vectorized=True)
        lams = np.array([0.5, 1.0, 2.0, 5.0])
        np.testing.assert_allclose(biconjugate(f, lams).values, f.values(lams),
                                   rtol=1e-14, atol=0.0)

    def test_convex_grid_self_consistency(self):
        ls = np.arange(1.0, 6.01, 0.25)
        vs = 0.5 * ls ** 2
        f = PhiFunction.from_grid(ls, vs)
        bc = biconjugate(f, ls)
        # piecewise-linear convex functions are their own closed envelope;
        # allow twice the chord-vs-curve resolution error
        resolution = (0.25 ** 2) / 8.0
        assert np.abs(bc.values - vs).max() <= 2.0 * resolution


def _lower_convex_hull(ls, vs):
    """Monotone-chain lower hull evaluated back at the knots."""
    pts = list(zip(ls, vs))
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    return np.interp(ls, hx, hy)


def _per_lam(phi2, lams):
    """The x0 of _saddle_table at each lam, or its error."""
    lams = np.asarray(lams, dtype=float)
    x0s, _, errors = _saddle_table(phi2, lams)
    inv = np.unique(lams, return_inverse=True)[1]  # errors go by sorted distinct lam
    return [errors.get(i, x0) for i, x0 in zip(inv.tolist(), x0s.tolist())]


class TestSaddlePoint:
    def test_quartic_cubic_map(self):
        # conjugate of l^4/4 is (3/4) x^(4/3); slope inverse at 2 is 8
        assert _per_lam(PhiFunction.power_log(4.0), [2.0]) == \
            [pytest.approx(8.0, rel=1e-5)]

    def test_grid_within_resolution(self):
        ls = np.arange(0.0, 10.01, 0.1)
        g = PhiFunction.from_grid(ls, 0.5 * ls ** 2)
        assert _per_lam(g, [5.0]) == [pytest.approx(5.0, abs=0.1)]

    def test_out_of_domain(self):
        got, = _per_lam(PhiFunction.quadratic(hi=5.0), [6.0])
        assert isinstance(got, OutOfDomainError)

    @pytest.mark.parametrize("f, lams", [
        (PhiFunction.linear(2.0, lo=0.0), [1.0, 2.0, 3.0]),
        (PhiFunction.power_log(2.0, 1.0, lo=0.0), [0.7, 2.0, -1.0, 5.0]),
    ])
    def test_lockstep_equals_one_at_a_time(self, f, lams):
        # the batch of several lams gives each lam what a batch of that lam
        # alone gives, x0 or error
        for lam, got in zip(lams, _per_lam(f, lams)):
            want, = _per_lam(f, [lam])
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
            else:
                assert got == want

    @settings(max_examples=60, deadline=None)
    @given(
        convex=st.booleans(),
        picks=st.lists(st.tuples(st.integers(0, 9), st.sampled_from(
            [0.0, 0.3, 0.5, -1e-12, 1e-12, -3e-13, 2e-13, -1.0, 1.0])), min_size=1, max_size=12),
        narrowed=st.booleans(),
    )
    def test_grid_batch_equals_the_per_lam_scan(self, convex, picks, narrowed):
        # lams on, beside (within 1e-12 and beyond) and between the knots,
        # below and above the grid, and NaN: the batch's sorted search gives
        # what a scan of the knots per lam gives, errors included; also on a
        # domain narrowed inside the knots (the knot 1.0 lies below it, and
        # 8.0 above it).  The map reads no convexity verdict: the gate
        # refuses a dented grid before any search, and its map is the scan's
        ls = np.array([0.5, 1.0, 1.0 + 4e-13, 2.0, 3.5, 3.5 + 1e-12, 5.0, 6.0, 8.0, 9.0])
        vs = 0.5 * ls ** 2 if convex else 4.0 * np.sqrt(ls)
        g = PhiFunction.from_grid(ls, vs)
        if narrowed:
            g = dataclasses.replace(g, domain=dataclasses.replace(g.domain, lo=1.0 + 2e-13,
                                                                   hi=8.0))
        lams = [float(ls[i]) + off * (1.0 if abs(off) < 1e-9 else 0.5) for i, off in picks]
        lams.append(math.nan)
        if not convex:
            with pytest.raises(NotCertifiedError):
                _require_saddle_map(g, "dented")
        batch = _per_lam(g, lams)
        for lam, got in zip(lams, batch):
            want = _raised(_reference_grid_saddle_point, g, lam) or \
                _reference_grid_saddle_point(g, lam)
            alone = _per_lam(g, [lam])[0]
            for x0 in (got, alone):
                if isinstance(want, Exception):
                    assert type(x0) is type(want) and str(x0) == str(want)
                else:
                    assert x0 == want and type(x0) is float

    def test_a_lam_just_below_a_knot_keeps_its_left_chord(self):
        # lam = 5 - 1e-13 lies on the piece [4, 5): its x0 is that piece's
        # chord 4.5, and phi2*(x0) the touching identity at lam itself,
        # the knot conjugate 4.5 * 4 - 8 to rounding; lam = 5 and
        # 5 + 1e-13 take the chord 5.5 of [5, 6)
        ls = np.arange(11.0)
        g = PhiFunction.from_grid(ls, 0.5 * ls ** 2)
        lams = np.array([5.0 - 1e-13, 5.0, 5.0 + 1e-13])
        x0s, stars, errors = _saddle_table(g, lams)
        assert errors == {} and x0s.tolist() == [4.5, 5.5, 5.5]
        assert stars.tolist() == (lams * x0s - g.values(lams)).tolist()
        np.testing.assert_allclose(stars, [10.0, 15.0, 15.0], rtol=1e-14)

    @pytest.mark.parametrize("convex", [True, False], ids=["convex", "dented"])
    def test_a_grid_derivative_is_its_right_chord(self, convex):
        # at each lam, knots and their neighbouring floats included, the
        # chord of the piece [ls[k], ls[k+1]) holding lam, found by a scan
        # of the knots, and the last chord at the last knot; away from the
        # knots a convex grid's saddle map reads the same x0, and a dented
        # grid has none: the gate refuses it
        ls = np.array([0.5, 1.0, 2.0, 3.5, 5.0, 6.0, 9.0])
        vs = 0.5 * ls ** 2 + (0.0 if convex else np.where(ls == 3.5, 3.0, 0.0))  # a bump at 3.5
        g = PhiFunction.from_grid(ls, vs)
        assert g.convex is convex
        near = [np.nextafter(t, d) for t in ls.tolist() for d in (-math.inf, math.inf)]
        lams = np.array(sorted({*ls.tolist(), *near, *(0.5 * (ls[1:] + ls[:-1])).tolist()}))
        lams = lams[g.domain.contains(lams)]
        pieces = [max(k for k in range(ls.size - 1) if ls[k] <= lam) for lam in lams.tolist()]
        want = [float((vs[k + 1] - vs[k]) / (ls[k + 1] - ls[k])) for k in pieces]
        assert g.derivatives(lams).tolist() == want
        assert [g.derivative(t) for t in lams.tolist()] == want
        mids = 0.5 * (ls[1:] + ls[:-1])
        if convex:
            x0s, _, errors = _saddle_table(g, mids)
            assert errors == {} and x0s.tolist() == g.derivatives(mids).tolist()
        else:
            with pytest.raises(NotCertifiedError, match="dented"):
                _require_saddle_map(g, "dented")

    def test_a_grid_domain_past_its_knots_is_refused(self):
        # a grid answers on its knot span only: a domain widened past it
        # by dataclasses.replace (below, above, both) is refused when the
        # copy is made, before np.interp could clamp a value or a chord
        # index could wrap
        ls = np.arange(1.0, 6.0)
        g = PhiFunction.from_grid(ls, 0.5 * ls ** 2)
        for lo, hi in [(0.0, g.domain.hi), (1.0, 7.0), (0.5, 4.0)]:
            with pytest.raises(InputError, match=r"passes the knots \[1\.0, 5\.0\]"):
                dataclasses.replace(g, domain=dataclasses.replace(g.domain, lo=lo, hi=hi))
        # a narrowed domain is a grid still
        part = dataclasses.replace(g, domain=dataclasses.replace(g.domain, lo=1.5, hi=4.5))
        assert part.value(2.0) == 2.0 and part.derivative(2.0) == 2.5

    def test_a_grid_refuses_a_lam_from_its_last_knot_on(self):
        # no chord is a subgradient at the last knot, which the domain holds
        ls = np.arange(1.0, 6.0)
        g = PhiFunction.from_grid(ls, 0.5 * ls ** 2)
        got = _per_lam(g, [1.0, 2.5, 5.0, 6.0])
        assert got[:2] == [1.5, 2.5]
        assert type(got[2]) is OutOfDomainError
        assert str(got[2]) == str(OutOfDomainError(5.0, 1.0, 5.0))
        assert type(got[3]) is OutOfDomainError  # off the domain [1, 5]

    @pytest.mark.parametrize("f, lams", [
        (PhiFunction.quadratic(), [1.0, 2.5, 10.0, 300.0]),
        (PhiFunction.power_log(2.0, 1.0), [1.0, 3.0, 7.5, 40.0]),
        # x0(0) is the slope 2, which the geometry has always used
        (PhiFunction.linear(2.0, lo=0.0), [0.0, 1.0, 5.0]),
        (oracles.weibull(4.0).mgf_exponent, [0.5, 2.0, 6.0]),
        (oracles.gaussian_scale_mixture(0.3, 1.0, 2.0).mgf_exponent, [0.1, 1.5, 4.0]),
    ], ids=["quadratic", "power-log-2-1", "linear-2", "weibull-4", "mixture"])
    def test_equals_the_envelopes_saddle_map(self, f, lams):
        # the batch the envelopes read is x0 = phi2'(lam) and phi2*(x0) the
        # touching identity at lam, bit for bit
        lams = np.array(lams)
        x0s, stars, errors = _saddle_table(f, lams)
        assert errors == {} and x0s.tolist() == f.derivatives(lams).tolist()
        assert stars.tolist() == (lams * x0s - f.values(lams)).tolist()

    @pytest.mark.parametrize("f", [
        PhiFunction.from_callable(lambda l: 0.5 * l * l + 0.1 * l, 0.0, 50.0, convex=True),
        PhiFunction.power_log(0.5),
    ], ids=["derivative-free", "non-convex"])
    def test_no_saddle_map_is_refused(self, f):
        # neither phi2' of a convex phi2 nor a convex grid: the gate refuses
        # it with NotCertifiedError, naming the derivative where it lacks one
        with pytest.raises(NotCertifiedError) as refused:
            _require_saddle_map(f, "needs a convexity-certified phi2")
        assert str(refused.value) == (
            "needs a convexity-certified phi2" if f.convex is not True
            else f"{f.label}: the saddle map x0 = phi2'(lam) needs a derivative or a grid")


# Hand-rolled bisection loops as the searches once wrote them, each the
# reference that its ``_bisect`` call is compared with bit for bit.  Each
# takes the bracket and the function and returns what its caller kept.  The
# two without a stop width stop at ``_bisect``'s least one, 2^-52 relative to
# max(1, |b|): halving on, they could only collapse the bracket onto an
# untested end.
def _loop_saddle(a, b, fn):
    for _ in range(200):
        if (b - a) <= 1e-12 * max(1.0, abs(b)):
            break
        m = 0.5 * (a + b)
        if fn(m) <= 0.0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _loop_trace(a, b, fn):
    # the only loop that tested the width after each halving
    for _ in range(60):
        m = 0.5 * (a + b)
        if fn(m) < 0.0:
            a = m
        else:
            b = m
        if (b - a) <= 1e-10 * max(1.0, abs(b)):
            break
    return 0.5 * (a + b)


def _loop_lam_range(a, b, fn):
    for _ in range(60):
        if b - a <= 1e-12 * max(1.0, b):
            break
        m = 0.5 * (a + b)
        if fn(m) >= 1.0:
            b = m
        else:
            a = m
    return b


def _loop_absorb(fa, fb, fn):
    for _ in range(45):
        if fb - fa <= 2.0 ** -52 * max(1.0, abs(fb)):
            break
        m = 0.5 * (fa + fb)
        if fn(m) <= 1.0:
            fa = m
        else:
            fb = m
    return fa


def _loop_moments(a, bnd, fn):
    for _ in range(60):
        if bnd - a <= 2.0 ** -52 * max(1.0, abs(bnd)):
            break
        m = 0.5 * (a + bnd)
        if fn(m) >= 1.0:
            bnd = m
        else:
            a = m
    return bnd


def _loop_invert(a, b, fn):
    for _ in range(200):
        if (b - a) <= 1e-10 * max(1.0, abs(b)):
            break
        m = 0.5 * (a + b)
        if fn(m) < 1.0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _search(below, steps, rel, keep):
    """One ``_bisect`` search, ``below`` a test of fn at the midpoint, whose
    caller keeps ``keep(a, b)`` of its bracket."""
    def run(a, b, fn):
        return keep(*_bisect(a, b, lambda m: (below(fn(m)), math.nan), steps, rel))
    return run


def _mid(a, b):
    return 0.5 * (a + b)


# each reference loop and the same search through _bisect
_BISECTIONS = {
    "saddle": (_loop_saddle, _search(lambda t: t <= 0.0, 200, 1e-12, _mid)),
    "trace": (_loop_trace, _search(lambda t: t < 0.0, 60, 1e-10, _mid)),
    "lam_range": (_loop_lam_range, _search(lambda v: not v >= 1.0, 60, 1e-12, lambda a, b: b)),
    "absorb": (_loop_absorb, _search(lambda v: v <= 1.0, 45, 0.0, lambda a, b: a)),
    "moments": (_loop_moments, _search(lambda v: not v >= 1.0, 60, 0.0, lambda a, b: b)),
    "invert": (_loop_invert, _search(lambda v: v < 1.0, 200, 1e-10, _mid)),
}


class TestBisect:
    @pytest.mark.parametrize("name", sorted(_BISECTIONS))
    @given(
        a=st.floats(min_value=0.0, max_value=100.0),
        # down to widths far below every stopping width, and none at all
        width=st.one_of(st.just(0.0), st.integers(-17, 2).map(lambda e: 10.0 ** e),
                        st.floats(min_value=0.0, max_value=50.0)),
        root=st.floats(min_value=-1.0, max_value=160.0),
        slope=st.sampled_from([0.25, 1.0, 3.0]),
        level=st.sampled_from([0.0, 1.0]),
        nan_from=st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=160.0)),
    )
    def test_matches_the_hand_rolled_loop(self, name, a, width, root, slope, level, nan_from):
        def fn(x):  # increasing, NaN from nan_from up
            return math.nan if x >= nan_from else level + slope * (x - root)

        loop, search = _BISECTIONS[name]
        b = a + width
        got = search(a, b, fn)
        if name == "trace" and b - a <= 1e-10 * max(1.0, abs(b)):
            # narrower than its width already: the loop halved once before
            # its first test, _bisect halves not at all
            assert got == 0.5 * (a + b)
        else:
            assert got == loop(a, b, fn)

    @given(
        rows=st.lists(st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.one_of(st.just(0.0), st.integers(-17, 2).map(lambda e: 10.0 ** e),
                      st.floats(min_value=0.0, max_value=50.0)),
            st.floats(min_value=-1.0, max_value=160.0)), max_size=6),
        steps=st.sampled_from([0, 45, 100]),
        rel=st.sampled_from([0.0, 1e-13, 1e-10]),
    )
    def test_rows_match_one_search_each(self, rows, steps, rel):
        a, width, root = np.array(rows, dtype=float).reshape(-1, 3).T
        b = a + width
        seen = []

        def below(live, m):
            seen.append(int(live.sum()))
            # no Newton step: every t is a midpoint
            return m - root[live] <= 0.0, np.nan

        got_a, got_b = _bisect_rows(a, b, below, steps, rel)
        for i in range(a.size):
            one = _bisect(float(a[i]), float(b[i]), lambda x, r=root[i]: (x - r <= 0.0, math.nan),
                          steps, rel)
            assert (got_a[i], got_b[i]) == one
        # a row leaves the batch once its search stops
        assert all(n > 0 for n in seen) and seen == sorted(seen, reverse=True)

    @given(
        rows=st.lists(st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.one_of(st.just(0.0), st.integers(-17, 2).map(lambda e: 10.0 ** e),
                      st.floats(min_value=0.0, max_value=50.0)),
            # the root, inside the bracket or past either end
            st.floats(min_value=-1.0, max_value=160.0),
            # d1 linear or cubic around the root; d2 exact, scaled, of the
            # wrong sign, zero or NaN
            st.booleans(), st.sampled_from([1.0, 0.3, 5.0, -1.0, 0.0, math.nan])),
            max_size=6),
        steps=st.sampled_from([0, 3, 100]),
        rel=st.sampled_from([1e-13, 1e-10]),
    )
    # a root at the unmoved end 0: each Newton step lands on it exactly, the
    # first is probed w inside it, and the bracket [0, w] is still too wide
    # to stop, so the next lands on 0 again and, probed once, takes the
    # midpoint: t never reaches the end itself
    @example(rows=[(0.0, 100.0, 0.0, False, 1.0)], steps=100, rel=1e-13)
    def test_newton_rows_match_one_search_each(self, rows, steps, rel):
        a, width, root, cubic, scale = np.array(rows, dtype=float).reshape(-1, 5).T
        b = a + width

        def d1(t, r, c):
            u = t - r
            return np.where(c, u * u * u + 0.5 * u, 2.0 * u)

        def d2(t, r, c, k):
            u = t - r
            return k * np.where(c, 3.0 * u * u + 0.5, 2.0)

        seen = []

        def below(live, t):
            seen.append(int(live.sum()))
            d = d1(t, root[live], cubic[live])
            with np.errstate(all="ignore"):
                return d <= 0.0, (0.0 - d) / d2(t, root[live], cubic[live], scale[live])

        def below_one(t, i):
            d = float(d1(t, root[i], cubic[i]))
            with np.errstate(all="ignore"):
                return d <= 0.0, float((0.0 - d) / d2(t, root[i], cubic[i], scale[i]))

        got_a, got_b = _bisect_rows(a, b, below, steps, rel)
        for i in range(a.size):
            one = _newton(float(a[i]), float(b[i]), 0.0,
                          lambda t: float(d1(t, root[i], cubic[i])),
                          lambda t: float(d2(t, root[i], cubic[i], scale[i])), steps, rel)
            assert (got_a[i], got_b[i]) == one
            # the scalar loop takes the same steps
            assert _bisect(float(a[i]), float(b[i]), lambda t: below_one(t, i), steps, rel) == one
        assert all(n > 0 for n in seen) and seen == sorted(seen, reverse=True)

    def test_stops_on_width_before_a_halving(self):
        seen = []
        assert _bisect(1.0, 1.0 + 1e-13, seen.append, 60, 1e-12) == (1.0, 1.0 + 1e-13)
        assert seen == []

    def test_zero_steps_return_at_once(self):
        seen = []
        assert _bisect(2.0, 3.0, seen.append, 0) == (2.0, 3.0)
        assert seen == []


def _loop_grow(b, below, limit):
    """The doubling loop of a bracket top as the saddle inverse once wrote
    it: returns the last b tested and whether ``below`` still held there."""
    for k in range(limit + 1):
        still = below(b)
        if k == limit or not still:
            break
        b *= 2.0
    return b, still


class TestGrowRows:
    @given(
        rows=st.lists(st.tuples(
            st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e6)),
            # the root at doubling j of b, one ulp below, at or above it:
            # j = limit and limit + 1 are the edge of the last test
            st.integers(0, 202), st.sampled_from([-1.0, 0.0, 1.0]),
            # fn is NaN from here up, which reads as still below
            st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=1e70))),
            max_size=6),
        limit=st.sampled_from([0, 1, 7, 199, 200]),
    )
    def test_rows_match_the_scalar_loop(self, rows, limit):
        b0, j, nudge, nan_from = np.array(rows, dtype=float).reshape(-1, 4).T
        root = b0 * 2.0 ** j
        root = np.where(nudge == 0.0, root, np.nextafter(root, np.copysign(math.inf, nudge)))
        seen = []

        def fn(b, r, top):
            return math.nan if b >= top else b - r

        def below(live, b):
            seen.append(int(live.sum()))
            return np.array([not fn(t, r, top) >= 0.0 for t, r, top in
                             zip(b.tolist(), root[live].tolist(), nan_from[live].tolist())],
                            dtype=bool)

        got_b, got_open = _grow_rows(b0, below, limit)
        for i in range(b0.size):
            want = _loop_grow(float(b0[i]), lambda t: not fn(t, root[i], nan_from[i]) >= 0.0,
                              limit)
            assert (got_b[i], bool(got_open[i])) == want
        # a row leaves the batch once it stops, and none is asked past the limit
        assert all(n > 0 for n in seen) and seen == sorted(seen, reverse=True)
        assert len(seen) <= limit + 1


class TestInvariants:
    @given(
        x=st.floats(min_value=0.0, max_value=30.0),
        lam=st.floats(min_value=1.0, max_value=40.0),
        p=st.sampled_from([2.0, 3.0, 4.0]),
        r=st.sampled_from([0.0, 1.0]),
    )
    def test_young_inequality(self, x, lam, p, r):
        f = PhiFunction.power_log(p, r)
        star, _ = conjugate_value(f, x)
        assert lam * x <= f.value(lam) + star + 1e-9 * max(1.0, lam * x)

    def test_order_reversal(self):
        f = PhiFunction.quadratic(coeff=0.4)
        g = PhiFunction.quadratic(coeff=0.5)
        for x in np.linspace(0.5, 12.0, 13):
            fs, _ = conjugate_value(f, float(x))
            gs, _ = conjugate_value(g, float(x))
            assert fs >= gs - 1e-9

    def test_biconjugate_below_original(self):
        ls = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        vs = np.array([0.0, 2.0, 5.5, 8.0, 12.0])
        f = PhiFunction.from_grid(ls, vs)
        bc = biconjugate(f, ls)
        assert np.all(bc.values <= vs + 1e-9)

    @pytest.mark.parametrize("delta", [0.1, 0.3])
    def test_conjugate_scaling_rule(self, delta):
        # ((1-d^2) f)*(x) = (1-d^2) f*(x/(1-d^2)) for the quadratic family
        shrink = 1.0 - delta ** 2
        f = PhiFunction.quadratic(lo=0.0)
        scaled = PhiFunction.quadratic(coeff=0.5 * shrink, lo=0.0)
        for x in np.linspace(0.5, 10.0, 11):
            lhs, _ = conjugate_value(scaled, float(x))
            inner, _ = conjugate_value(f, float(x) / shrink)
            assert lhs == pytest.approx(shrink * inner, rel=1e-8, abs=1e-9)

    def test_argmax_trace_nondecreasing(self):
        res = conjugate(PhiFunction.power_log(2.0, 1.0), np.linspace(1.0, 20.0, 30))
        assert np.all(np.diff(res.argmax) >= -1e-7)

    @given(
        knot_steps=st.lists(st.floats(min_value=0.1, max_value=2.0),
                            min_size=3, max_size=8),
        val_steps=st.lists(st.floats(min_value=0.0, max_value=5.0),
                           min_size=3, max_size=8),
    )
    def test_grid_conjugate_is_convex_nondecreasing(self, knot_steps, val_steps):
        n = min(len(knot_steps), len(val_steps))
        ls = 1.0 + np.cumsum(knot_steps[:n])
        vs = np.cumsum(val_steps[:n])
        g = PhiFunction.from_grid(ls, vs)
        validate_conjugate(conjugate(g, np.linspace(0.0, 10.0, 21)), tol=1e-6)


class TestConvexityCertificate:
    def test_families(self):
        assert certify_convex(PhiFunction.quadratic())
        assert certify_convex(PhiFunction.power_log(2.0, 1.0))
        bumpy = PhiFunction.from_callable(
            lambda l: l + 0.5 * math.sin(3 * l) + 0.5, 1.0, 50.0,
            convex=False, label="wiggle")
        assert not certify_convex(bumpy)

    def test_grid_verdict_is_the_one_saddle_point_reads(self):
        # a 1e-10 bump on a line: the chords fall by 2e-10, beyond from_grid's
        # 1e-12 relative tolerance, so the grid is not convex anywhere it is
        # read, and the saddle map's gate refuses it
        ls = np.arange(101.0)
        vs = 2.0 * ls
        vs[50] += 1e-10
        g = PhiFunction.from_grid(ls, vs)
        assert g.convex is False
        assert certify_convex(g) is False
        with pytest.raises(NotCertifiedError, match="wavy"):
            _require_saddle_map(g, "wavy")


def _row_loop_read_csv_columns(path, header):
    """The CSV reader as a loop over the rows, one Python float per cell:
    the reference whose columns and error texts the array reader keeps."""
    cols = ()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                got = tuple(c.strip().lower() for c in row)
                if got[:len(header)] != header:
                    raise InputError(f"{path}:1: expected header {','.join(header)!r}, "
                                     f"got {','.join(got)!r}")
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
            bad = [c.strip() for c, v in zip(row, nums) if not (math.isfinite(v) and v >= 0.0)]
            if bad:
                raise InputError(f"{path}:{lineno}: entries must be finite and nonnegative, "
                                 f"got {bad[0]!r}")
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


def _read_outcome(read, path, header):
    """The columns ``read`` returns as float.hex strings, or its error's
    type and text."""
    try:
        cols = read(path, header)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return [[float(v).hex() for v in col] for col in cols]


# cells beside plain increasing numbers: padded, underscored, signed zero,
# NaN, overflow to inf, quoted (with a comma inside), empty, non-numeric
_ODD_CELLS = [" 1.5 ", "1_000", "-0", "nan", "1e400", "-2", "abc", "0x10", "", "  ",
              '"3.5"', '" 4 "', '"1,5"', "inf", "1e-400"]


@st.composite
def _csv_files(draw):
    """A CSV text and the header a reader takes: grid or moments.  The
    header is mostly the reader's (in any case and padding, with
    extra columns); the rows are blank, whitespace-only or cells, mostly an
    increasing first column and numbers, then some short rows, extra
    columns, odd cells and non-increasing steps."""
    grid = draw(st.booleans())
    names = ["lambda,value", " Lambda , VALUE ", "lambda,value,note"] if grid else \
        ["p,lower,upper", "P , Lower,Upper,note"]
    header = draw(st.sampled_from(names * 4 + ["a,b", names[0][:6], ""]))
    n = 3 if "upper" in header.lower() else 2
    number = st.floats(0.0, 50.0).map(repr)
    cell = st.sampled_from([number] * 7 + [st.sampled_from(_ODD_CELLS)]).flatmap(lambda c: c)
    lines, t = [header], 0.0
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["cells"] * 9 + ["blank", "spaces", "commas"]))
        if kind != "cells":
            lines.append({"blank": "", "spaces": "   ", "commas": " , ,"}[kind])
            continue
        t += draw(st.sampled_from([1.0, 0.25, 1e-3] * 5 + [0.0, -0.5]))
        first = draw(st.sampled_from([st.just(repr(t))] * 7 + [cell]).flatmap(lambda c: c))
        width = draw(st.sampled_from([n - 1] * 10 + [n - 2, n]))
        lines.append(",".join([first] + draw(st.lists(cell, min_size=width, max_size=width))))
    ending = draw(st.sampled_from(["", "\n", "\n\n"]))
    text = "" if lines == [""] and not ending else "\n".join(lines) + ending
    return text, ("lambda", "value") if grid else ("p", "lower", "upper")

class TestCsvLoading:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "grid.csv"
        p.write_text("lambda,value\n1.0,1.0\n2.0,2.5\n4.0,8.0\n")
        f = PhiFunction.from_csv(str(p))
        assert f.value(3.0) == pytest.approx((2.5 + 8.0) / 2.0)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,1\n2,2\n")
        with pytest.raises(InputError, match=":1:"):
            PhiFunction.from_csv(str(p))

    def test_non_monotone_reports_line(self, tmp_path):
        p = tmp_path / "mono.csv"
        p.write_text("lambda,value\n1.0,1.0\n3.0,2.0\n2.0,3.0\n")
        with pytest.raises(InputError, match=":4:"):
            PhiFunction.from_csv(str(p))

    def test_non_numeric_reports_line(self, tmp_path):
        p = tmp_path / "num.csv"
        p.write_text("lambda,value\n1.0,1.0\nx,3.0\n")
        with pytest.raises(InputError, match=":3:"):
            PhiFunction.from_csv(str(p))

    @pytest.mark.parametrize("row", ["1.5,nan", "1.5,-1", "nan,2.0", "1.5,inf", "-1,2.0"])
    def test_entries_must_be_finite_and_nonnegative(self, tmp_path, row):
        # a NaN lambda compares false, so the increasing test alone let it through
        p = tmp_path / "bad.csv"
        p.write_text(f"lambda,value\n1.0,1.0\n{row}\n2.0,3.0\n")
        with pytest.raises(InputError, match=":3: entries must be finite and nonnegative"):
            PhiFunction.from_csv(str(p))

    @pytest.mark.parametrize("text", ["p,lower,upper\n1,0.5,2\n2,nan,2\n",
                                      "p,lower,upper\n1,0.5,2\n2,0.5,-inf\n"])
    def test_moment_entries_must_be_finite_and_nonnegative(self, tmp_path, text):
        p = tmp_path / "moments.csv"
        p.write_text(text)
        with pytest.raises(InputError, match=":3: entries must be finite and nonnegative"):
            moment_envelope_from_csv(str(p))

    def test_a_valid_file_is_never_walked_row_by_row(self, tmp_path, monkeypatch):
        # quoted cells, blank rows, padding, extra columns and -0 all parse in one array
        p = tmp_path / "ok.csv"
        p.write_text('p,lower,upper,note\n1," 0.5 ",2,a\n\n2,1000,-0,b,c\n')
        monkeypatch.setattr(functions, "_csv_walk", None)
        cols = _read_csv_columns(str(p), ("p", "lower", "upper"))
        assert [c.tolist() for c in cols] == [[1.0, 2.0], [0.5, 1000.0], [2.0, 0.0]]
        assert math.copysign(1.0, cols[2][1]) == -1.0

    @pytest.mark.parametrize("text", ['p,lower,upper\n1,0.5,2\n  ,\n2,1_000,0\n',
                                      'p,lower,upper\n1,0.5,2\n   \n2,1000,0\n'])
    def test_what_loadtxt_refuses_the_walk_reads(self, tmp_path, monkeypatch, text):
        # 1_000 and whitespace-only rows, which only float and csv accept
        p = tmp_path / "walked.csv"
        p.write_text(text)
        walked = []
        inner = functions._csv_walk
        monkeypatch.setattr(functions, "_csv_walk", lambda *a: walked.append(1) or inner(*a))
        cols = _read_csv_columns(str(p), ("p", "lower", "upper"))
        assert walked == [1]
        assert [c.tolist() for c in cols] == [[1.0, 2.0], [0.5, 1000.0], [2.0, 0.0]]

    @pytest.mark.parametrize("text", ["lambda,value\n", "lambda,value", "lambda,value\n\n\r\n",
                                      "lambda,value\n  \n"])
    def test_no_data_row_is_an_input_error_under_warnings_as_errors(self, tmp_path, text):
        # loadtxt would warn "input contained no data", an error under -W error
        p = tmp_path / "empty.csv"
        p.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="need at least 2 data rows$"):
                PhiFunction.from_csv(str(p))

    @pytest.mark.parametrize("text, header", [
        ("lambda,value\n1\n2\n3\n", ("lambda", "value")),
        ("p,lower,upper\n1,1\n2,2\n", ("p", "lower", "upper")),
    ])
    def test_short_rows_everywhere_name_the_first(self, tmp_path, text, header):
        # every row one cell short still stacks into an array: the column
        # count check refuses it before numpy does
        p = tmp_path / "short.csv"
        p.write_text(text)
        with pytest.raises(InputError, match=r":2: expected \d columns, got \d$"):
            _read_csv_columns(str(p), header)

    @pytest.mark.parametrize("fault", ["", "1,-1\n"])
    @pytest.mark.parametrize("tail", [b"5,\xff\n", b"5," + b"9" * 200_000 + b"\n"])
    def test_a_bad_byte_or_field_raises_where_the_row_loop_meets_it(self, tmp_path, fault, tail):
        # an undecodable byte or a field past csv's size limit, 40 kB into
        # the file, after a faulty row 3 or after none: the row's error, or
        # the reader's own, as the row loop raises it
        p = tmp_path / "bytes.csv"
        rows = "".join(f"{k},{k}\n" for k in range(2, 4000))
        p.write_bytes(f"lambda,value\n0,0\n{fault}{rows}".encode() + tail)
        got = _read_outcome(_read_csv_columns, str(p), ("lambda", "value"))
        assert got == _read_outcome(_row_loop_read_csv_columns, str(p), ("lambda", "value"))
        assert got.startswith("InputError: " if fault else ("UnicodeDecodeError", "Error: field"))

    def test_each_odd_cell_reads_as_the_row_loop_reads_it(self, tmp_path):
        # every odd cell in each column of the third of four rows, under
        # both readers' headers: valid, or the row loop's error on line 3
        p = tmp_path / "odd.csv"
        for header, text in [(("lambda", "value"), "lambda,value\n1,1\n{}\n9,9\n"),
                             (("p", "lower", "upper"), "p,lower,upper\n1,1,1\n{}\n9,9,9\n")]:
            width = len(header)
            for cell in _ODD_CELLS:
                for col in range(width):
                    row = ",".join(cell if j == col else "2" for j in range(width))
                    p.write_text(text.format(row))
                    got = _read_outcome(_read_csv_columns, str(p), header)
                    assert got == _read_outcome(_row_loop_read_csv_columns, str(p), header)

    @settings(max_examples=120, deadline=None)
    @given(drawn=_csv_files())
    def test_reads_what_the_row_loop_reads(self, tmp_path_factory, drawn):
        # the same columns, bit for bit, or the same error text: line
        # number, message and which of a row's failures comes first
        text, header = drawn
        p = tmp_path_factory.getbasetemp() / "drawn.csv"
        p.write_text(text, encoding="utf-8")
        assert _read_outcome(_read_csv_columns, str(p), header) == \
            _read_outcome(_row_loop_read_csv_columns, str(p), header)


def _searched(f):
    """The same function as a callable, whose conjugate is found by search."""
    return PhiFunction.from_callable(f.fn, f.domain.lo, f.domain.hi, deriv=f.deriv,
                                     convex=True, slope_lim=f.slope_limit())


class TestClosedFormConjugates:
    @given(
        family=st.sampled_from(["quadratic", "power_log", "linear"]),
        coeff=st.floats(min_value=0.05, max_value=5.0),
        p=st.floats(min_value=1.1, max_value=6.0, exclude_min=True),
        lo=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
        width=st.one_of(st.just(math.inf), st.floats(min_value=0.5, max_value=50.0)),
        where=st.sampled_from(["zero", "below", "inside", "above"]),
        u=st.floats(min_value=0.0, max_value=0.99),
    )
    def test_agrees_with_search(self, family, coeff, p, lo, width, where, u):
        hi = lo + width
        if family == "quadratic":
            f = PhiFunction.quadratic(coeff, lo, hi)
        elif family == "power_log":
            f = PhiFunction.power_log(p, 0.0, lo, hi)
        else:
            f = PhiFunction.linear(coeff, lo, hi)
        top = f.domain.top()
        if family == "linear":
            # the objective is monotone: the maximizer is lo below the
            # slope and the top above it (unbounded without a top)
            x = {"zero": 0.0, "below": u * coeff, "inside": u * coeff,
                 "above": coeff * (1.0 + u) + 1e-3}[where]
        else:
            # x = f'(target): the stationary point sits at the target,
            # which may lie below lo or above the top, where only the raw
            # formula f.deriv answers (f.derivative refuses outside the domain)
            target = {"zero": 0.0, "below": lo * u,
                      "inside": lo + u * min(width, 100.0),
                      "above": top * (1.0 + u) + 1e-3 if math.isfinite(top) else lo + 100.0 * u,
                      }[where]
            x = float(f.deriv(target)) if target > 0 else 0.0
        g = _searched(f)
        if family == "linear" and where == "above" and not f.domain.bounded:
            with pytest.raises(UnboundedObjectiveError):
                conjugate_value(f, x)
            with pytest.raises(UnboundedObjectiveError):
                conjugate_value(g, x)
            return
        v, a = conjugate_value(f, x)
        v_s, a_s = conjugate_value(g, x)
        assert v == pytest.approx(v_s, rel=1e-9, abs=1e-12)
        assert a == pytest.approx(a_s, rel=1e-6, abs=1e-6)
        assert lo <= a <= top

    @pytest.mark.parametrize("f", [PhiFunction.quadratic(0.7), PhiFunction.power_log(3.0),
                                   PhiFunction.linear(2.0, hi=9.0)])
    def test_one_evaluation_per_point(self, f):
        calls = []
        counted = dataclasses.replace(f, fn=lambda l, fn=f.fn: calls.append(l) or fn(l))
        assert conjugate_value(counted, 2.5) == conjugate_value(f, 2.5)
        assert len(calls) == 1

    def test_cap_is_reported(self):
        # at x = 30 the maximizer 30^10 lies beyond lambda_cap = 1e8, at x = 2
        # it is 2^10; the search of x = 3e7 starts at the cap, not at 4x;
        # on a bounded domain the top is no cap
        f = PhiFunction.power_log(1.1)
        for g in (f, _searched(f)):
            res = conjugate(g, [2.0, 30.0, 3e7])
            assert res.capped.tolist() == [False, True, True]
            assert res.argmax[1] == res.argmax[2] == LAMBDA_CAP
        bounded = PhiFunction.power_log(1.1, hi=50.0)
        for g in (bounded, _searched(bounded)):
            res = conjugate(g, [30.0])
            assert res.argmax[0] == pytest.approx(50.0) and not res.capped[0]
        assert not biconjugate(f, [2.0, 3.0]).capped.any()

    def test_clipped_at_the_cap_like_the_search(self):
        # the stationary point 30^10 lies far above lambda_cap = 1e8
        f = PhiFunction.power_log(1.1)
        v, a = conjugate_value(f, 30.0)
        v_s, a_s = conjugate_value(_searched(f), 30.0)
        assert a == 1e8
        assert v == pytest.approx(v_s, rel=1e-9)
        assert a == pytest.approx(a_s, rel=1e-6)

    @pytest.mark.parametrize("hi", [math.inf, 50.0])
    @pytest.mark.parametrize("p", [1.001, 1.002, 1.01])
    def test_power_near_one_clips_before_overflow(self, p, hi):
        # 8**(1/(p-1)) and 1300**100 exceed the float range; both clip at the top
        f = PhiFunction.power_log(p, 0.0, 1.0, hi)
        for x in (8.0, 1300.0):
            v, a = conjugate_value(f, x)
            v_s, a_s = conjugate_value(_searched(f), x)
            assert a == (1e8 if hi == math.inf else f.domain.top())
            assert v == pytest.approx(v_s, rel=1e-9)
            assert a == pytest.approx(a_s, rel=1e-6)


class TestGridConjugateExact:
    @given(
        knot_steps=st.lists(st.floats(min_value=0.01, max_value=3.0),
                            min_size=2, max_size=40),
        vals=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=40),
        lo=st.floats(min_value=0.0, max_value=5.0),
        xs=st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=10),
    )
    def test_equals_brute_force(self, knot_steps, vals, lo, xs):
        n = min(len(knot_steps), len(vals))
        ls = (lo + np.cumsum(knot_steps[:n])).tolist()
        vs = vals[:n]
        g = PhiFunction.from_grid(ls, vs)
        for x in xs:
            obj = [lam * x - val for lam, val in zip(ls, vs)]
            best = max(obj)
            assert conjugate_value(g, x) == (best, ls[obj.index(best)])
        xg = np.unique(xs)
        res = conjugate(g, xg)
        for x, v in zip(xg, res.values):
            assert v == max(lam * x - val for lam, val in zip(ls, vs))

    def test_a_narrowed_domain_reads_only_its_part(self):
        # the knots inside [0.5, 2.5) and the two ends, interpolated: at x = 0
        # the knot 0 and at x = 100 the knot 4 would win on the whole grid
        g = PhiFunction.from_grid([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.5, 2.0, 4.5, 100.0])
        part = dataclasses.replace(g, domain=dataclasses.replace(g.domain, lo=0.5, hi=2.5))
        lams = np.linspace(0.5, part.domain.top(), 2001)
        for x in (0.0, 1.0, 2.7, 100.0):
            v, a = conjugate_value(part, x)
            dense = float(np.max(lams * x - part.values(lams)))
            assert dense <= v <= dense + 1e-12 * max(1.0, abs(v))
            assert part.domain.contains(a)

    def test_knots_are_read_only_copies(self):
        lam = np.array([1.0, 2.0, 3.0])
        val = np.array([0.5, 2.0, 4.5])
        g = PhiFunction.from_grid(lam, val)
        lam[1] = 2.5  # the caller's array stays writable and unshared
        assert g.value(2.0) == 2.0
        with pytest.raises(ValueError):
            g.knots[0][0] = 0.0


    @settings(max_examples=60, deadline=None)
    @given(
        knot_steps=st.lists(st.integers(1, 3), min_size=1, max_size=30),
        rises=st.lists(st.integers(0, 2), min_size=1, max_size=30),
        start=st.integers(0, 5),
        offsets=st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=1, max_size=6),
    )
    def test_exact_ties_take_the_first_knot_like_the_loop(self, knot_steps, rises, start,
                                                           offsets):
        # integer knots and integer chords, repeated for flat ties: every
        # lam*x - v is exact, so at x on a chord both rules see the tie and
        # take its first knot
        n = min(len(knot_steps), len(rises)) + 1
        ls = np.concatenate(([float(start)], start + np.cumsum(knot_steps[:n - 1])))
        slopes = np.cumsum(rises[:n - 1]).astype(float)
        vs = np.concatenate(([0.0], np.cumsum(slopes * np.diff(ls))))
        g = PhiFunction.from_grid(ls, vs)
        assert _chords(ls, vs).tolist() == slopes.tolist()
        xs = (slopes[:, None] + np.array(offsets)).ravel()
        vals, arg, errors = conjugate_values(g, xs)
        assert errors == {}
        assert (vals.tolist(), arg.tolist()) == _knot_argmax_loop(g, xs)

    def test_random_convex_grids_equal_the_loop(self):
        # seeded convex grids of 2 to 3,000 knots, at random x below, across
        # and above their chords: the sorted chord search gives the loop's
        # values and knots bit for bit
        rng = np.random.default_rng(29)
        searched = 0
        for _ in range(40):
            g, chords = _random_convex_grid(rng, int(rng.integers(2, 3000)))
            searched += bool(np.all(chords[1:] >= chords[:-1]))
            xs = rng.uniform(chords[0] - 1.0, chords[-1] + 1.0, 300)
            vals, arg, _ = conjugate_values(g, xs)
            assert (vals.tolist(), arg.tolist()) == _knot_argmax_loop(g, xs)
        assert searched >= 30

    def test_x_on_a_computed_chord_is_the_loop_to_rounding(self):
        # lam*x - v ties between the chord's two knots up to the rounding of
        # the objective, which may make the loop take the second knot: the
        # values then differ by at most an ulp of max(|lam*x|, v)
        rng = np.random.default_rng(30)
        moved = 0
        for _ in range(40):
            g, chords = _random_convex_grid(rng, int(rng.integers(2, 400)))
            vals, arg, _ = conjugate_values(g, chords)
            want, want_arg = map(np.array, _knot_argmax_loop(g, chords))
            ls, vs = g.knots
            scale = np.maximum(np.abs(chords) * ls[-1], vs.max())
            assert (np.abs(vals - want) <= np.spacing(scale)).all()
            moved += int((arg != want_arg).sum())
        assert moved > 0

    def test_a_narrowed_domain_equals_the_loop(self):
        # the chords of the knots inside the domain and its two interpolated
        # ends; where rounding there makes them fall, the loop runs instead
        rng = np.random.default_rng(31)
        for _ in range(30):
            g, chords = _random_convex_grid(rng, int(rng.integers(3, 500)))
            ls = g.knots[0]
            lo, hi = np.sort(rng.uniform(ls[0], ls[-1], 2))
            part = dataclasses.replace(g, domain=dataclasses.replace(g.domain, lo=lo, hi=hi))
            xs = rng.uniform(chords[0] - 1.0, chords[-1] + 1.0, 200)
            vals, arg, _ = conjugate_values(part, xs)
            assert (vals.tolist(), arg.tolist()) == _knot_argmax_loop(part, xs)
            assert part.domain.contains(arg).all()

    def test_a_dented_grid_takes_the_loop(self):
        # a search over chords that fall would miss the argmax: the loop
        # finds it at every x
        ls = np.arange(0.0, 41.0)
        vs = 0.5 * ls ** 2
        vs[20] += 30.0
        g = PhiFunction.from_grid(ls, vs)
        assert g.convex is False
        xs = np.linspace(-1.0, 42.0, 431)
        vals, arg, _ = conjugate_values(g, xs)
        assert (vals.tolist(), arg.tolist()) == _knot_argmax_loop(g, xs)
        first = ls[np.searchsorted(_chords(ls, vs), xs)]
        assert (first * xs - np.interp(first, ls, vs) < vals).any()

    def test_random_dented_grids_equal_the_loop_across_row_chunks(self):
        # the scan's row kernel takes a grid whose chords fall; with up to
        # 3,000 knots at 400 x it forms its objective in several chunks of
        # 2**16 values, and every chunk keeps the loop's first argmax
        rng = np.random.default_rng(34)
        for _ in range(20):
            g, _ = _random_convex_grid(rng, int(rng.integers(3, 3000)))
            ls, vs = g.knots
            vs = vs.copy()
            vs[rng.integers(1, ls.size - 1, 3)] += rng.uniform(0.1, 50.0, 3)
            dented = PhiFunction.from_grid(ls, vs)
            assert np.any(np.diff(_chords(ls, vs)) < 0)
            xs = np.sort(rng.uniform(-1.0, _chords(ls, vs).max() + 1.0, 400))
            vals, arg, errors = conjugate_values(dented, xs)
            assert not errors
            assert (vals.tolist(), arg.tolist()) == _knot_argmax_loop(dented, xs)

    def test_an_empty_batch(self):
        # no x, convex or dented: empty tables and no errors
        ls = np.arange(0.0, 11.0)
        for vs in (0.5 * ls ** 2, 0.5 * ls ** 2 + np.where(ls == 5.0, 9.0, 0.0)):
            vals, arg, errors = conjugate_values(PhiFunction.from_grid(ls, vs), [])
            assert vals.shape == arg.shape == (0,) and errors == {}
        assert functions._best_rows(np.empty(0), ls, 0.5 * ls ** 2).shape == (4, 0)

    def test_chords_falling_within_the_convexity_tolerance_take_the_loop(self):
        # from_grid calls these grids convex, but a binary search of the
        # chords 1, 2, 2 - 1e-13, 3, 4, 5 stops at knot 1 for x = 2 - 2e-14,
        # 6e-14 below the value at knot 3: the loop keeps knot 3
        ls = np.arange(7.0)
        vs = np.array([0.0, 1.0, 3.0, 5.0, 8.0, 12.0, 17.0]) - np.where(ls > 2.0, 1e-13, 0.0)
        g = PhiFunction.from_grid(ls, vs)
        assert g.convex and np.searchsorted(_chords(ls, vs), 2.0 - 2e-14) == 1
        v, a = conjugate_value(g, 2.0 - 2e-14)
        assert ([v], [a]) == _knot_argmax_loop(g, [2.0 - 2e-14]) and a == 3.0
        rng = np.random.default_rng(32)
        falling = 0
        for _ in range(20):
            n = int(rng.integers(3, 300))
            ls = np.cumsum(rng.uniform(0.01, 2.0, n))
            # sorted slopes, each twice, each lowered by up to 5e-13 of the
            # largest: the chords fall within the tolerance of from_grid
            slopes = np.repeat(np.sort(rng.uniform(0.0, 50.0, n // 2 + 1)), 2)[:n - 1]
            slopes -= rng.uniform(0.0, 5e-13, n - 1) * slopes.max()
            vs = 1.0 + np.concatenate(([0.0], np.cumsum(slopes * np.diff(ls))))
            g = PhiFunction.from_grid(ls, vs)
            chords = _chords(ls, vs)
            assert g.convex
            falling += bool(np.any(chords[1:] < chords[:-1]))
            xs = rng.uniform(chords.min() - 1.0, chords.max() + 1.0, 200)
            vals, arg, _ = conjugate_values(g, xs)
            assert (vals.tolist(), arg.tolist()) == _knot_argmax_loop(g, xs)
        assert falling >= 15
    def test_a_one_point_domain_reads_its_point(self):
        # top == lo: the domain's two ends are one knot, with no chord
        g = PhiFunction.from_grid([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])
        point = dataclasses.replace(g, domain=Domain(1.5, float(np.nextafter(1.5, 2.0))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, arg, _ = conjugate_values(point, [0.5, 3.0])
        assert arg.tolist() == [1.5, 1.5] and vals.tolist() == [0.75 - 1.25, 4.5 - 1.25]

def _knot_argmax_loop(f, xs):
    """The grid conjugate as one knot argmax per x: the reference for the
    sorted chord search, over the knots f's domain reads (those inside it
    and its two ends, interpolated there); returns (values, knots) as lists."""
    ls, vs = f.knots
    lo, top = f.domain.lo, f.domain.top()
    if lo > ls[0] or top < ls[-1]:
        ls = np.concatenate(([lo], ls[(ls > lo) & (ls < top)], [top]))
        vs = np.interp(ls, *f.knots)
    vals, arg = [], []
    for x in np.asarray(xs, dtype=float).tolist():
        obj = ls * x - vs
        i = int(np.argmax(obj))
        vals.append(float(obj[i]))
        arg.append(float(ls[i]))
    return vals, arg


def _random_convex_grid(rng, n):
    """A convex grid of n knots at random spacing and scale, from sorted
    random slopes, and its chords."""
    ls = rng.uniform(0.0, 5.0) + np.cumsum(rng.uniform(0.01, 2.0, n)) * rng.uniform(0.01, 10.0)
    slopes = np.sort(rng.uniform(0.0, rng.uniform(0.1, 100.0), n - 1))
    vs = rng.uniform(0.0, 3.0) + np.concatenate(([0.0], np.cumsum(slopes * np.diff(ls))))
    return PhiFunction.from_grid(ls, vs), _chords(ls, vs)

def _vectorized(fn, deriv=None, lo=0.0, hi=math.inf, convex=False):
    return PhiFunction.from_callable(fn, lo, hi, deriv=deriv, convex=convex,
                                     vectorized=True)


ARRAY_KINDS = {
    "quadratic": PhiFunction.quadratic(0.7, 0.5, 40.0),
    "power_log_r0": PhiFunction.power_log(2.5, 0.0, 1.0),
    "power_log_r1": PhiFunction.power_log(1.5, 1.0, 0.0, 30.0),
    "linear": PhiFunction.linear(1.3, 0.0, 25.0),
    "grid": PhiFunction.from_grid([0.5, 1.0, 2.5, 4.0, 9.0], [0.1, 0.2, 1.5, 3.0, 20.0]),
    "callable": PhiFunction.from_callable(lambda l: math.sqrt(l) + l * l, 0.0, math.inf,
                                          convex=False),
    "vectorized": _vectorized(lambda l: np.log1p(np.asarray(l, dtype=float)) + np.square(l),
                              deriv=lambda l: 1.0 / (1.0 + np.asarray(l, dtype=float)) + 2.0 * l),
    # negative below 1 (tiny negatives clamp to 0), non-finite at 7, 3*sin elsewhere
    "vectorized_signed": _vectorized(
        lambda l: np.where(np.asarray(l) < 1.0, -1e-13 * np.asarray(l),
                           np.where(np.asarray(l) == 7.0, np.inf, 3.0 * np.sin(l))),
        hi=20.0),
    "dilated": dilated(PhiFunction.power_log(2.0, 1.0), 1.5, 1.0, 30.0),
    "dilated_vectorized": dilated(_vectorized(np.square, deriv=lambda l: 2.0 * np.asarray(l)),
                                  0.5, 0.0, 12.0),
}


def _assert_same_as_scalar(batch, scalar, lams):
    """batch(lams) equals [scalar(t) for t in lams] bit for bit, or raises
    the error the first failing scalar call raises."""
    try:
        want = np.array([scalar(t) for t in lams], dtype=float)
    except Exception as exc:  # noqa: BLE001 - the batch must raise the same
        with pytest.raises(type(exc)) as got:
            batch(np.asarray(lams, dtype=float))
        assert str(got.value) == str(exc)
        return
    got = batch(np.asarray(lams, dtype=float))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(st.lists(st.sampled_from([0.0, 1e-300, 0.5, 1.0, 3.0, 1e8]) | st.floats(-1e6, 1e6),
                min_size=1, max_size=30))
def test_sorted_unique_equals_np_unique(xs):
    a = np.array(xs) + 0.0  # -0.0 + 0.0 == 0.0: one zero, as on the grids
    assert _sorted_unique(a).tobytes() == np.unique(a).tobytes()


class TestArrayEvaluation:
    @given(
        kind=st.sampled_from(sorted(ARRAY_KINDS)),
        lams=st.lists(st.one_of(st.floats(min_value=-1.0, max_value=45.0),
                                st.sampled_from([0.0, 0.5, 1.0, 7.0, 9.0, 12.0, 20.0,
                                                 25.0, 30.0, 40.0,
                                                 float(np.nextafter(9.0, 10.0))])),
                      min_size=0, max_size=12),
    )
    def test_equal_to_scalar_calls(self, kind, lams):
        f = ARRAY_KINDS[kind]
        _assert_same_as_scalar(f.values, f.value, lams)
        _assert_same_as_scalar(f.derivatives, f.derivative, lams)

    def test_shape_is_kept(self):
        f = ARRAY_KINDS["quadratic"]
        lams = np.linspace(1.0, 3.0, 6).reshape(2, 3)
        assert f.values(lams).shape == (2, 3)
        assert f.values(2.0).shape == ()
        assert f.values(lams)[1, 2] == f.value(3.0)

    def test_typed_errors(self):
        with pytest.raises(OutOfDomainError):
            ARRAY_KINDS["grid"].values([1.0, 9.5])
        with pytest.raises(OutOfDomainError):
            ARRAY_KINDS["quadratic"].values([1.0, 0.1])
        with pytest.raises(NegativeInputError):
            ARRAY_KINDS["vectorized_signed"].values([0.5, 5.0])
        assert ARRAY_KINDS["vectorized_signed"].values([0.5]).tolist() == [0.0]

    def test_vectorized_callable_called_once(self):
        calls = []
        f = _vectorized(lambda l: calls.append(np.shape(l)) or np.square(l))
        f.values(np.linspace(0.0, 4.0, 50))
        assert calls == [(50,)]
        g = PhiFunction.from_callable(lambda l: calls.append(np.shape(l)) or l * l,
                                      0.0, math.inf, convex=True)
        calls.clear()
        g.values(np.linspace(0.0, 4.0, 5))
        assert calls == [()] * 5

    @pytest.mark.parametrize("make", [
        lambda: PhiFunction.power_log(2.5, 0.0, 1.0),
        lambda: PhiFunction.power_log(1.5, 1.0, 0.0),
        lambda: moment_power_growth(2.0, 0.5, 2.0).lower,
        lambda: moment_power_growth(2.0, 0.5, 2.0).upper,
        lambda: moment_power_pole(1.0, 3.0, 1.0).lower,
        lambda: to_exponential(moment_power_growth(2.0, 0.5, 2.0)).phi1,
        lambda: to_exponential(moment_power_pole(1.0, 3.0, 1.0)).phi1,
        # a CSV curve's grid, as moment_envelope_from_csv reads it
        lambda: to_exponential(MomentEnvelope(lower=PhiFunction.from_grid(
            [1.0 + i / 2 for i in range(11)], [2.0 * (1.0 + i / 2) ** 0.5 for i in range(11)]))).phi1,
    ], ids=["power_log_r0", "power_log_r1", "growth_lower", "growth_upper", "pole",
            "growth_exponent", "pole_exponent", "csv_exponent"])
    def test_library_exponents_call_fn_once_per_array(self, make):
        f = make()
        calls = []
        counted = dataclasses.replace(f, fn=lambda l: calls.append(np.shape(l)) or f.fn(l))
        lams = np.linspace(f.domain.lo, min(f.domain.top(), 40.0), 50)
        got = counted.values(lams)
        assert calls == [(50,)]
        want = np.array([f.value(t) for t in lams.tolist()])
        assert got.tobytes() == want.tobytes()
        if f.deriv is not None:
            slopes = np.array([f.derivative(t) for t in lams.tolist()])
            assert f.derivatives(lams).tobytes() == slopes.tobytes()

    def test_exponent_evaluates_its_curve_once_per_array(self):
        calls = []
        curve = PhiFunction.from_callable(
            lambda p: calls.append(np.shape(p)) or 2.0 * np.sqrt(p), 1.0, math.inf,
            label="2*sqrt(p)", vectorized=True)
        phi = to_exponential(MomentEnvelope(lower=curve)).phi1
        calls.clear()
        phi.values(np.linspace(2.0, 30.0, 40))
        assert calls == [(40,)]

    def test_scalar_callable_earlier_nan_wins_over_a_raise(self):
        # NaN at the third point, a raise at the fifth: the NaN's error, as
        # the scalar calls in order meet it first
        def fn(l):
            if l == 2.0:
                return math.nan
            if l == 4.0:
                raise ZeroDivisionError("at 4")
            return l

        f = PhiFunction.from_callable(fn, 0.0, math.inf, convex=True)
        lams = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(NegativeInputError, match="lam=2.0"):
            f.values(lams)
        _assert_same_as_scalar(f.values, f.value, lams)
        with pytest.raises(ZeroDivisionError, match="at 4"):
            f.values([3.0, 4.0, 2.0])

    def test_scalar_callable_loop_takes_the_array_checks(self):
        calls = []
        f = PhiFunction.from_callable(lambda l: calls.append(l) or l - 1e-13, 0.0, 10.0,
                                      convex=True)
        got = f.values(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert calls == [0.0, 1.0, 2.0, 3.0]
        assert got.tolist() == [[0.0, 1.0 - 1e-13], [2.0 - 1e-13, 3.0 - 1e-13]]
        with pytest.raises(OutOfDomainError):
            f.values([1.0, 10.0])

    @pytest.mark.parametrize("kind", ["callable", "vectorized_signed"])
    def test_no_derivative_is_refused_by_name(self, kind):
        f = ARRAY_KINDS[kind]
        lam = f.domain.lo + 0.25
        for call in (f.derivative, f.derivatives):
            with pytest.raises(InputError, match=re.escape(f"{f.label}: no derivative")):
                call(lam)

    @pytest.mark.parametrize("kind", ["power_log_r0", "power_log_r1", "quadratic", "linear",
                                      "vectorized", "dilated"])
    def test_derivative_outside_the_domain_is_refused_without_a_warning(self, kind):
        f = ARRAY_KINDS[kind]
        below = f.domain.lo - 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomainError) as scalar:
                f.derivative(below)
            with pytest.raises(OutOfDomainError) as batch:
                f.derivatives([f.domain.lo + 1.0, below])
        assert str(batch.value) == str(scalar.value)

    def test_subnormal_lower_end_scans_without_overflow(self):
        f = PhiFunction.from_callable(lambda l: l * l, 5e-324, 50.0, convex=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, a = conjugate_value(f, 2.0)
        assert v == pytest.approx(1.0)
        assert a == pytest.approx(1.0)


class TestValueEdges:
    def test_a_tiny_negative_value_is_zero(self):
        # above -1e-12 a negative value is rounding, read as 0; below, refused
        f = ARRAY_KINDS["vectorized_signed"]
        assert f.value(0.5) == 0.0 and math.copysign(1.0, f.value(0.5)) == 1.0
        g = PhiFunction.from_callable(lambda l: -1e-11, 0.0, 1.0, convex=False)
        with pytest.raises(NegativeInputError, match="negative value"):
            g.value(0.5)

    def test_a_scalar_answer_of_a_vectorized_callable_fills_the_array(self):
        f = _vectorized(lambda l: 2.0, convex=True)
        got = f.values(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert got.shape == (2, 2) and got.tolist() == [[2.0, 2.0], [2.0, 2.0]]

    def test_an_error_no_scalar_call_repeats_is_raised(self):
        # fn fails on its first call only: the array call fails, every
        # scalar call then passes, and the first failure is re-raised
        calls = []

        def flaky(lam):
            calls.append(lam)
            if len(calls) == 1:
                raise RuntimeError("first call fails")
            return lam

        f = PhiFunction.from_callable(flaky, 0.0, 5.0, convex=True)
        with pytest.raises(RuntimeError, match="first call fails"):
            f.values([1.0, 2.0])
        assert calls == [1.0, 1.0, 2.0]


class TestThreadSafety:
    def test_shared_instances_match_serial_run(self):
        ls = np.linspace(0.0, 20.0, 2001)
        grid = PhiFunction.from_grid(ls, 0.5 * ls ** 2)
        quad = PhiFunction.quadratic(lo=0.0)
        xs = np.linspace(0.0, 15.0, 301)
        zs = np.linspace(math.e, 8.0, 6)

        def work():
            g, q = conjugate(grid, xs), conjugate(quad, xs)
            env, cert = pinched_lower_envelope(quad, 0.1, zs)
            return (g.values, g.argmax, q.values, q.argmax, env.log_values,
                    np.array([cert.c, cert.certified_from]))

        serial = work()
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(work) for _ in range(2)]
            for run in runs:
                for got, want in zip(run.result(), serial):
                    np.testing.assert_array_equal(got, want)


def _reference_grid_saddle_point(phi2, lam):
    """The grid saddle one lam at a time: the chords and a scan of the
    knots for the first one above lam.  x0 is the chord of lam's knot
    piece."""
    if not phi2.domain.contains(lam):
        raise OutOfDomainError(lam, phi2.domain.lo, phi2.domain.hi)
    ls, vs = phi2.knots
    chords = np.diff(vs) / np.diff(ls)
    above = [j for j, knot in enumerate(ls.tolist()) if knot > lam]
    k = above[0] - 1 if above else ls.size - 1
    if not 0 <= k < chords.size:
        raise OutOfDomainError(lam, float(ls[0]), float(ls[-1]))
    return float(chords[k])


def _newton(a, b, x, d1, d2, steps=100, rel=1e-13):
    """The root search of d1(lam) = x on [a, b], one point at a time: keep
    [t, b] where d1(t) <= x, else [a, t]; the next t is the Newton point
    t + (x - d1(t))/d2(t) where it lies strictly inside, else the midpoint.
    With w = rel*max(1, |b|)/4, a step shorter than w goes w into the
    bracket, and, once, a step past an end that has not moved goes w inside
    it.  The first t is the midpoint; the stop rule is _bisect's."""
    a0, b0, probed, t = a, b, False, 0.5 * (a + b)
    for _ in range(steps):
        if b - a <= rel * max(1.0, abs(b)):
            break
        d = d1(t)
        with np.errstate(all="ignore"):
            step = float(np.float64(x - d) / np.float64(d2(t)))
        ok = d <= x
        a, b = (t, b) if ok else (a, t)
        w = 0.25 * rel * max(1.0, abs(b))
        nxt = t + ((w if ok else -w) if abs(step) < w else step)
        if not probed and nxt <= a and a == a0:
            probed, nxt = True, a + w
        elif not probed and nxt >= b and b == b0:
            probed, nxt = True, b - w
        t = nxt if a < nxt < b else 0.5 * (a + b)
    return a, b


def _reference_conjugate_value(f, x):
    """The per-point search the batched one replaced: the full grid at every
    growth step of the truncation point, from the first step of the ladder
    base * 4**k at or above 4|x|, then, where ``f`` has a derivative, a
    scalar search of the root of f'(lam) = x on the scan's bracket (Newton
    steps by :func:`_newton` where ``f`` has ``deriv2``, else halvings of
    f'(lam) <= x), and a scalar Brent search (:func:`_reference_brent`)."""
    x = float(x)
    lo, hi = f.domain.lo, f.domain.top()
    slope_lim = f.slope_limit()
    if slope_lim is not None and not f.domain.bounded and x > slope_lim:
        raise UnboundedObjectiveError(x, np.geomspace(max(lo, 1.0), LAMBDA_CAP, 8))
    if not math.isfinite(hi):
        hi_eff = max(10.0, 4.0 * max(lo, 1.0))
        while hi_eff < 4.0 * abs(x) and hi_eff < LAMBDA_CAP:
            hi_eff = min(hi_eff * _GROWTH_FACTOR, LAMBDA_CAP)
        while True:
            grid = _scan_grid(lo, hi_eff)
            vals = grid * x - f.values(grid)
            i = int(np.argmax(vals))
            if i < grid.size - 1:
                break
            if hi_eff >= LAMBDA_CAP:
                if slope_lim is None:
                    raise UnboundedObjectiveError(x, grid[-6:])
                break
            hi_eff = min(hi_eff * _GROWTH_FACTOR, LAMBDA_CAP)
    else:
        grid = _scan_grid(lo, hi)
        vals = grid * x - f.values(grid)
        i = int(np.argmax(vals))
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    if a == b:
        return float(vals[i]), float(grid[i])
    if f.deriv is not None:
        # the root of f'(lam) = x, so the Brent search below takes no
        # step; where no end moved, the scan's point stands
        if f.deriv2 is None:
            a2, b2 = _bisect(a, b, lambda m: (f.derivative(m) <= x, math.nan), 100, 1e-13)
        else:
            a2, b2 = _newton(a, b, x, f.derivative,
                             lambda m: f.second_derivatives(np.array([m]))[0])
        if a2 == a or b2 == b:
            return float(vals[i]), float(grid[i])
        a, b = a2, b2
    lam_hat, v_hat = _reference_brent(lambda t: t * x - f.value(t), a, b)
    if vals[i] > v_hat:
        lam_hat, v_hat = float(grid[i]), float(vals[i])
    return v_hat, lam_hat


def _reference_brent(g, a, b):
    """Brent's search for a maximizer of ``g`` on [a, b], one point at a
    time: the golden inner points c < d first, the best point x = d where
    g(d) >= g(c), else c, then Brent's steps on [c, b] or [a, d] until the
    bracket is no wider than ``_GOLDEN_REL_WIDTH`` * max(1, |a|, |b|).
    Returns (x, g(x))."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = g(c), g(d)
    x, fx = (d, fd) if fd >= fc else (c, fc)
    if (b - a) > _GOLDEN_REL_WIDTH * max(1.0, abs(a), abs(b)):
        a, b, w, fw = (c, b, c, fc) if fd >= fc else (a, d, d, fd)
        v, fv, e, step = c, fc, 0.0, 0.0
        while (b - a) > _GOLDEN_REL_WIDTH * max(1.0, abs(a), abs(b)):
            m, tol = 0.5 * (a + b), 0.25 * (_GOLDEN_REL_WIDTH * max(1.0, abs(a), abs(b)))
            para = False
            if abs(e) > tol:
                r = (x - w) * (fx - fv)
                q = (x - v) * (fx - fw)
                p = (x - v) * q - (x - w) * r
                q = 2.0 * (q - r)
                p, q = (-p if q > 0.0 else p), abs(q)
                para = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
            if para:
                e, step = step, p / q
                if (x + step) - a < 2.0 * tol or b - (x + step) < 2.0 * tol:
                    step = tol if x < m else -tol
            else:
                e = a - x if x >= m else b - x
                step = (1.0 - gr) * e
            u = x + (step if abs(step) >= tol else -tol if step < 0.0 else tol)
            fu = g(u)
            if fu >= fx:
                a, b = (a, x) if u < x else (x, b)
                v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
            else:
                a, b = (u, b) if u < x else (a, u)
                if fu >= fw or w == x:
                    v, fv, w, fw = w, fw, u, fu
                elif fu >= fv or v == x or v == w:
                    v, fv = u, fu
    return x, fx


def _assert_batch_matches_reference(f, xs):
    """conjugate_values, conjugate_value and conjugate against the per-point
    reference: equal values and argmax, or the same error."""
    vals, arg, errors = conjugate_values(f, xs)
    for k, x in enumerate(xs):
        try:
            want = _reference_conjugate_value(f, x)
        except TailboundsError as exc:
            for got in (errors.get(k), _raised(conjugate_value, f, x)):
                assert type(got) is type(exc)
                assert str(got) == str(exc)
                if isinstance(exc, UnboundedObjectiveError):
                    assert np.array_equal(got.witness, exc.witness)
            assert math.isnan(vals[k]) and math.isnan(arg[k])
            continue
        assert k not in errors
        assert (vals[k], arg[k]) == want
        assert conjugate_value(f, x) == want
    # conjugate: +inf where unbounded; any other error of the smallest x raises
    xg = np.unique(xs)
    hard = [errors[xs.index(x)] for x in xg.tolist() if xs.index(x) in errors
            and not isinstance(errors[xs.index(x)], UnboundedObjectiveError)]
    if hard:
        with pytest.raises(type(hard[0]), match=re.escape(str(hard[0]))):
            conjugate(f, xg)
        return
    res = conjugate(f, xg)
    for k, x in enumerate(xg.tolist()):
        j = xs.index(x)
        want = (math.inf, math.nan) if j in errors else (vals[j], arg[j])
        np.testing.assert_array_equal([res.values[k], res.argmax[k]], want)


def _raised(fn, *args):
    try:
        fn(*args)
    except TailboundsError as exc:
        return exc
    return None


def _bump(a, shift, depth, centre, width, lo=0.0, hi=math.inf, convex=False):
    """a(l - shift)^2 + depth*(1 - exp(-((l - centre)/width)^2)): not convex,
    and for small x its objective still rises at the top of the first scan
    while its maximum sits in the narrow dip at ``centre``."""
    return PhiFunction.from_callable(
        lambda t: a * (t - shift) ** 2 + depth - depth * math.exp(-((t - centre) / width) ** 2),
        lo, hi, convex=convex, label="bump")


def _power_sum(a, q, b, vectorized, lo=0.0, hi=math.inf):
    """a*l^q + b*l, convex for q >= 1, as a scalar or an array callable."""
    def fn(t):
        if vectorized:
            t = np.asarray(t, dtype=float)
        return a * t ** q + b * t

    return PhiFunction.from_callable(fn, lo, hi, vectorized=vectorized,
                                     label=f"power_sum(vectorized={vectorized})")


def _golden_steps(objective, a, b):
    """Steps per bracket of the golden section Brent's search replaced:
    keep [a, d] where f(c) >= f(d), else [c, b], and evaluate the new inner
    point, until the bracket is no wider than ``_GOLDEN_REL_WIDTH`` *
    max(1, |a|, |b|)."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    every = np.arange(a.size)
    fc, fd = objective(every, c), objective(every, d)
    steps = np.zeros(a.size, dtype=int)
    while True:
        r = np.flatnonzero((b - a) > _GOLDEN_REL_WIDTH * np.maximum(
            1.0, np.maximum(np.abs(a), np.abs(b))))
        if r.size == 0:
            return steps
        steps[r] += 1
        left = fc[r] >= fd[r]
        a[r], b[r] = np.where(left, a[r], c[r]), np.where(left, d[r], b[r])
        new = np.where(left, b[r] - gr * (b[r] - a[r]), a[r] + gr * (b[r] - a[r]))
        fnew = objective(r, new)
        c[r], d[r] = np.where(left, new, d[r]), np.where(left, c[r], new)
        fc[r], fd[r] = np.where(left, fnew, fd[r]), np.where(left, fc[r], fnew)


XS = st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=4)
# each example runs four searches per x, the reference one point by point
FEW = settings(max_examples=25)


class TestBatchedSearch:
    """The batched search equals the per-point loop it replaced."""

    # the unbounded linear diverges above its slope 1.3; the bounded
    # power_log's stationary points x^(1/1.5) clip at the top below 3
    @pytest.mark.parametrize("f, diverging, clipped", [
        (PhiFunction.quadratic(0.7, 0.0), 0, 0),
        (PhiFunction.power_log(4.0, 0.0, 0.0), 0, 0),
        (PhiFunction.linear(1.3, 0.0, 25.0), 0, 38),
        (PhiFunction.linear(1.3, 0.0), 38, 0),
        (PhiFunction.power_log(2.5, 0.0, 0.0, 3.0), 0, 30)])
    def test_closed_forms_value_a_table_in_one_call(self, f, diverging, clipped):
        calls = []
        counted = dataclasses.replace(f, fn=lambda l: calls.append(np.shape(l)) or f.fn(l))
        xs = np.linspace(0.0, 20.0, 41)
        vals, arg, errors = conjugate_values(counted, xs)
        assert calls == [(41 - diverging,)] and len(errors) == diverging
        assert int(np.sum(arg == f.domain.top())) == clipped
        for k, x in enumerate(xs.tolist()):
            want = _raised(conjugate_value, f, x)
            if k in errors:
                assert type(errors[k]) is type(want) is UnboundedObjectiveError
                assert str(errors[k]) == str(want)
                assert math.isnan(vals[k]) and math.isnan(arg[k])
                continue
            assert want is None and (vals[k], arg[k]) == conjugate_value(f, x)
            assert vals[k] == arg[k] * x - f.value(arg[k])

    def test_closed_form_that_overflows_is_refused_point_by_point(self):
        # the maximizer of x = 1e308 is 1e308^(1/39), where lam^40 overflows
        f = PhiFunction.power_log(40.0, 0.0, 0.0, 1e10)
        xs = [1.0, 1e308, 2.0]
        with np.errstate(over="ignore"):
            vals, arg, errors = conjugate_values(f, xs)
            assert list(errors) == [1] and isinstance(errors[1], NegativeInputError)
            assert str(errors[1]) == str(_raised(conjugate_value, f, 1e308))
        assert math.isnan(vals[1]) and math.isnan(arg[1])
        for k in (0, 2):
            assert (vals[k], arg[k]) == conjugate_value(f, xs[k])

    @FEW
    @given(p=st.floats(min_value=1.0, max_value=4.0), r=st.floats(min_value=0.05, max_value=2.0),
           lo=st.sampled_from([0.0, 1.0]), xs=XS)
    def test_power_log(self, p, r, lo, xs):
        _assert_batch_matches_reference(PhiFunction.power_log(p, r, lo), xs)

    @FEW
    @given(a=st.floats(min_value=0.1, max_value=2.0), q=st.floats(min_value=1.2, max_value=3.0),
           b=st.floats(min_value=0.0, max_value=1.0), vectorized=st.booleans(), xs=XS)
    def test_callables(self, a, q, b, vectorized, xs):
        f = _power_sum(a, q, b, vectorized)
        assert f.convex is True  # certified, so the growth probe runs
        _assert_batch_matches_reference(f, xs)

    @settings(max_examples=4, deadline=None)
    @given(m=st.sampled_from([2.0, 4.0]), c=st.floats(min_value=0.3, max_value=3.0),
           lo=st.sampled_from([0.0, 0.5]),
           xs=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=1, max_size=3))
    def test_dilated_weibull(self, m, c, lo, xs):
        _assert_batch_matches_reference(dilated(oracles.weibull(m).mgf_exponent, c, lo, math.inf), xs)

    @FEW
    @given(kind=st.sampled_from(["power_log", "callable", "bump"]),
           lo=st.floats(min_value=0.0, max_value=3.0),
           width=st.floats(min_value=0.5, max_value=60.0), xs=XS)
    def test_bounded_domain(self, kind, lo, width, xs):
        hi = lo + width
        f = {"power_log": lambda: PhiFunction.power_log(2.5, 0.5, lo, hi),
             "callable": lambda: _power_sum(0.3, 2.2, 0.1, False, lo, hi),
             "bump": lambda: _bump(0.02, 12.0, 5.0, lo + 0.5 * width, 0.05, lo, hi)}[kind]()
        _assert_batch_matches_reference(f, xs)

    @FEW
    @given(a=st.floats(min_value=0.005, max_value=0.05),
           shift=st.floats(min_value=8.0, max_value=20.0),
           depth=st.floats(min_value=1.0, max_value=6.0),
           centre=st.floats(min_value=1.0, max_value=8.0),
           width=st.floats(min_value=0.05, max_value=1.0),
           xs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4))
    def test_non_convex_callable(self, a, shift, depth, centre, width, xs):
        _assert_batch_matches_reference(_bump(a, shift, depth, centre, width), xs)

    def test_non_convex_callable_scans_every_step(self):
        f = _bump(0.02, 12.0, 5.0, 3.0, 0.05)
        want = _reference_conjugate_value(f, 0.1)
        assert want[1] == pytest.approx(3.0, abs=1e-3)
        assert conjugate_value(f, 0.1) == want
        # declared convex or not, the same answer
        assert conjugate_value(dataclasses.replace(f, convex=True), 0.1) == want

    @FEW
    @given(depth=st.floats(min_value=9.0, max_value=12.0),
           centre=st.floats(min_value=120.0, max_value=155.0),
           width=st.floats(min_value=2.0, max_value=4.0),
           xs=st.lists(st.floats(min_value=0.0, max_value=0.02), min_size=1, max_size=4))
    def test_certified_only_up_to_the_probe_top(self, depth, centre, width, xs):
        # convex on certify_convex's probe grid [0, 100], the dip lies beyond it
        f = _bump(1e-4, 300.0, depth, centre, width, convex=None)
        assert f.convex is True
        _assert_batch_matches_reference(f, xs)

    def test_declared_convex_dip_gets_the_reference(self):
        # declared convex, yet its maximum sits in a dip at 140, on a grid
        # above the first one; each level grid is read whole, so the
        # declaration changes nothing
        f = _bump(1e-4, 300.0, 10.0, 140.0, 3.0, convex=True)
        want = _reference_conjugate_value(f, 0.01)
        assert want[1] == pytest.approx(140.0, abs=0.1)
        assert conjugate_value(f, 0.01) == want
        _assert_batch_matches_reference(f, [0.0, 0.01, 0.02])

    @FEW
    @given(kind=st.sampled_from(["convex", "concave_part", "slope_one", "sublinear"]),
           s=st.floats(min_value=0.5, max_value=3.0),
           u=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=5))
    def test_unbounded_points(self, kind, s, u):
        # the objective diverges for x above the slope limit s (1 and 0 for
        # the power_log cases): searched to the cap, or refused analytically
        if kind == "convex":
            f = PhiFunction.from_callable(lambda t: s * t + 1.0 / (1.0 + t), 0.0, math.inf)
            assert f.convex is True
        elif kind == "concave_part":
            f = PhiFunction.from_callable(lambda t: s * t + math.sqrt(t), 0.0, math.inf)
        elif kind == "slope_one":
            f, s = PhiFunction.power_log(1.0), 1.0
        else:
            f, s = PhiFunction.power_log(0.5, 0.0, 0.0), 0.0
        _assert_batch_matches_reference(f, [s * v for v in u])

    @pytest.mark.parametrize("xs", [[2.9, 2.95, 2.955, 2.96, 3.5],
                                    np.linspace(2.5, 3.5, 80).tolist()])
    def test_failing_points_keep_their_own_error(self, xs):
        # negative on (2.95, 2.96), where the refinement of some x lands but
        # no scan point does
        f = PhiFunction.from_callable(lambda t: -1.0 if 2.95 < t < 2.96 else 0.5 * t * t,
                                      0.0, math.inf, convex=False)
        _assert_batch_matches_reference(f, xs)
        assert any(isinstance(e, NegativeInputError) for e in conjugate_values(f, xs)[2].values())

    def test_a_failing_level_grid_fails_each_of_its_points(self):
        # negative only at the first point above 10 of the ladder's grid up
        # to 40: the x that start there or climb to it take its error
        grid = _scan_grid(0.0, 40.0)
        bad = float(grid[grid > 10.0][0])
        f = PhiFunction.from_callable(lambda t: -1.0 if t == bad else 0.05 * t * t,
                                      0.0, math.inf, convex=False)
        xs = [0.5, 2.0, 3.0, 8.0]
        _assert_batch_matches_reference(f, xs)
        errors = conjugate_values(f, xs)[2]
        assert sorted(errors) == [1, 2, 3]
        assert all(isinstance(e, NegativeInputError) for e in errors.values())

    def test_many_points(self):
        xs = np.linspace(0.0, 20.0, 80).tolist()
        for f in (PhiFunction.power_log(2.0, 1.0), _power_sum(0.4, 2.5, 0.2, False),
                  _power_sum(0.4, 2.5, 0.2, True, hi=30.0), _bump(0.02, 12.0, 5.0, 3.0, 0.05)):
            _assert_batch_matches_reference(f, [x / 20.0 for x in xs] if f.label == "bump" else xs)

    def test_errors_map_by_index(self):
        vals, arg, errors = conjugate_values(PhiFunction.power_log(1.0), [0.5, 2.0, 0.75, 3.0])
        assert sorted(errors) == [1, 3]
        assert all(isinstance(e, UnboundedObjectiveError) for e in errors.values())
        assert np.isfinite(vals[[0, 2]]).all() and np.isnan(arg[[1, 3]]).all()

    def test_a_table_evaluates_each_level_grid_once(self):
        # 2,000 x up to 20 start on the ladder's grids up to 10, 40 and 160
        # and stay there: one values call each, then one call for the two
        # inner points of every bisected bracket (the golden steps took 50
        # calls and 94,562 rows, one scan per x 4,046 calls and 348,679 rows)
        f = PhiFunction.power_log(2.0, 1.0, 0.0)
        calls = []
        counted = dataclasses.replace(f, fn=lambda l: calls.append(np.array(l)) or f.fn(l))
        conjugate(counted, np.linspace(0.0, 20.0, 2000))
        grids = [_scan_grid(0.0, top) for top in (10.0, 40.0, 160.0)]
        assert [sum(np.array_equal(c, g) for c in calls) for g in grids] == [1, 1, 1]
        assert (len(calls), sum(c.size for c in calls)) == (4, 4_511)

    def test_a_derivative_free_table_takes_one_row_per_golden_step(self):
        # 2,000 x of the Gaussian scale mixture without its derivative share
        # the scan ladder, then Brent searches that evaluate one new point
        # per step (the golden sections took 51 calls and 96,043 rows)
        f = dataclasses.replace(oracles.gaussian_scale_mixture(0.3, 1.0, 2.0).mgf_exponent,
                                deriv=None)
        calls = []
        counted = dataclasses.replace(f, fn=lambda l: calls.append(np.size(l)) or f.fn(l))
        conjugate(counted, np.linspace(0.01, 20.0, 2000))
        assert (len(calls), sum(calls)) == (39, 40_748)

    @pytest.mark.parametrize("f", [
        dataclasses.replace(oracles.gaussian_scale_mixture(0.3, 1.0, 2.0).mgf_exponent, deriv=None),
        dataclasses.replace(PhiFunction.power_log(2.0, 1.0, 0.0), deriv=None),
        PhiFunction.from_callable(
            lambda t: (0.25 * t * t + np.maximum(0.0, t - 1.0) + np.maximum(0.0, 2.0 * t - 6.0)
                       + np.maximum(0.0, 3.0 * t - 18.0)),
            0.0, math.inf, convex=True, slope_lim=math.inf, vectorized=True)],
        ids=["mixture", "power_log", "three_kinks"])
    def test_no_row_takes_more_than_8_steps_past_golden(self, f, monkeypatch):
        # on 2,000 x, each bracket's Brent steps against the steps of the
        # golden section it replaced, on the same bracket and objective; on
        # the kinks (x in [0.5, 1.5], [2.5, 4.5], [5, 8]) parabolas fit badly
        inner, seen = functions._brent_section, []

        def spy(objective, a, b):
            rows = np.zeros(np.size(a), dtype=int)

            def counted(r, pts):
                np.add.at(rows, r, 1)
                return objective(r, pts)

            out = inner(counted, a, b)
            seen.append((rows - 2, _golden_steps(objective, np.array(a), np.array(b))))
            return out

        monkeypatch.setattr(functions, "_brent_section", spy)
        conjugate(f, np.linspace(0.01, 20.0, 2000))
        (brent, golden), = seen
        assert (brent - golden).max() <= 8
        assert brent.mean() < 0.7 * golden.mean()

    @pytest.mark.parametrize("make", [
        lambda: PhiFunction.power_log(2.0, 1.0, 0.0),
        lambda: oracles.gaussian_scale_mixture(0.3, 1.0, 2.0).mgf_exponent,
    ], ids=["power_log", "mixture"])
    def test_brent_values_match_the_root_path(self, make):
        # the same phi without its derivative: Brent's value lies within 8
        # ulp of the root of phi'(lam) = x's, scaled to max(|lam x|, phi(lam))
        f = make()
        xs = np.linspace(0.0, 12.0, 25)
        got, _, errors = conjugate_values(dataclasses.replace(f, deriv=None), xs)
        want, lam, _ = conjugate_values(f, xs)
        assert not errors
        gap = np.abs(got - want) / np.spacing(np.maximum(np.abs(lam * xs), f.values(lam)))
        assert gap.max() <= 8.0

    @pytest.mark.parametrize("kind", ["power_sum", "bump"])
    def test_brent_values_match_mpmath(self, kind):
        # power_sum's maximizer ((x - b)/(a q))^(1/(q - 1)) in closed form, the
        # bump's the root of x = phi' nearest the found argmax, at 30 digits
        a, q, b = 0.4, 2.5, 0.2
        if kind == "power_sum":
            f, xs = _power_sum(a, q, b, False), np.linspace(0.0, 12.0, 25)
        else:
            f, xs = _bump(0.02, 12.0, 5.0, 3.0, 0.05), np.linspace(0.0, 1.0, 25)
        got, lam, errors = conjugate_values(f, xs)
        assert not errors
        with mp.workdps(30):
            def phi(t):
                if kind == "power_sum":
                    return mp.mpf(a) * t ** mp.mpf(q) + mp.mpf(b) * t
                return (mp.mpf(0.02) * (t - 12) ** 2 + 5
                        - 5 * mp.exp(-((t - 3) / mp.mpf(0.05)) ** 2))

            for x, v, l in zip(xs.tolist(), got.tolist(), lam.tolist()):
                if kind == "power_sum":
                    t = (max(mp.mpf(x) - mp.mpf(b), 0) / (mp.mpf(a) * q)) ** (1 / mp.mpf(q - 1))
                else:
                    t = mp.findroot(lambda u: x - mp.diff(phi, u), mp.mpf(l))
                want = t * x - phi(t)
                assert float(abs(v - want)) <= 8.0 * math.ulp(max(abs(l * x), f.value(l)))

    def test_weibull_conjugate_work(self, monkeypatch):
        # the Gauss-Hermite rule rows behind 15 searched conjugates of
        # weibull(4): 515 rows in 14 calls, the 15 x sharing their scan
        # grids and taking 5 Newton steps, each one phi' and one phi'' call
        # (333 rows in 13 calls while the series took rows of up to 1,024
        # terms; bisecting phi' took 594 rows in 42 calls, the golden steps
        # 616 rows in 45 calls, one scan per x 1,549 rows in 74 calls, and
        # the quadrature before the rule 4,152 rows)
        calls = []
        inner = oracles._hermite_rows

        def counted(m, lams, order):
            calls.append(lams.size)
            return inner(m, lams, order)

        phi = oracles.weibull(4.0).mgf_exponent
        monkeypatch.setattr(oracles, "_hermite_rows", counted)
        conjugate(phi, np.linspace(1.0, 8.0, 15))
        assert (len(calls), sum(calls)) == (14, 515)


def _bump_with_derivative(a, shift, depth, centre, width):
    """:func:`_bump` with its analytic derivative, so its conjugate bisects."""
    def deriv(t):
        dip = math.exp(-((t - centre) / width) ** 2)
        return 2.0 * a * (t - shift) + 2.0 * depth * (t - centre) / (width * width) * dip

    return dataclasses.replace(_bump(a, shift, depth, centre, width), deriv=deriv)


ROOT_FAMILIES = [(2.0, 1.0), (1.5, 0.5)]
ROOT_XS = [0.5, 1.0, 2.5, 7.0, 20.0]


@pytest.fixture(scope="module")
def mp_roots():
    """The root of phi'(lam) = x for each power_log(p, r) of ROOT_FAMILIES
    and x of ROOT_XS, to 30 digits, computed once for the module."""
    roots = {}
    with mp.workdps(30):
        for p, r in ROOT_FAMILIES:
            def dphi(t, p=mp.mpf(p), r=mp.mpf(r)):
                big = mp.log(mp.e + t)
                return t ** (p - 1) * big ** r + t ** p * r * big ** (r - 1) / (p * (mp.e + t))

            for x in ROOT_XS:
                roots[p, r, x] = mp.findroot(lambda t: dphi(t) - x, (mp.mpf("1e-6"), mp.mpf(1000)),
                                             solver="anderson")
    return roots


class TestOneRoot:
    """A searched phi with a derivative takes the root of phi'(lam) = x."""

    @pytest.mark.parametrize("p, r", ROOT_FAMILIES)
    def test_argmax_is_the_root(self, p, r, mp_roots):
        # the golden section's argmax was loose by up to 3e-8 on a flat maximum
        _, arg, errors = conjugate_values(PhiFunction.power_log(p, r, 0.0), ROOT_XS)
        assert not errors
        for x, got in zip(ROOT_XS, arg.tolist()):
            want = mp_roots[p, r, x]
            assert float(abs(mp.mpf(got) - want) / want) <= 1e-12

    def test_a_maximizer_just_past_the_cap_is_capped(self):
        # f'(LAMBDA_CAP) is just below x: the bisection never moves the
        # bracket's top, so the argmax is the cap itself, and the table
        # says so (the golden section could settle an ulp-scale step below)
        f = PhiFunction.power_log(1.1, 2.0, 0.0)
        xs = float(f.deriv(LAMBDA_CAP)) * (1.0 + np.geomspace(1e-9, 1e-3, 13))
        res = conjugate(f, xs)
        assert res.capped.all() and (res.argmax == LAMBDA_CAP).all()

    @FEW
    @given(a=st.floats(min_value=0.005, max_value=0.05),
           shift=st.floats(min_value=8.0, max_value=20.0),
           depth=st.floats(min_value=1.0, max_value=6.0),
           centre=st.floats(min_value=1.0, max_value=8.0),
           width=st.floats(min_value=0.05, max_value=1.0),
           xs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4))
    def test_non_convex_callable_with_a_derivative(self, a, shift, depth, centre, width, xs):
        # the bisection of f' on the scan's bracket agrees with the golden
        # section of the same function without its derivative
        f = _bump_with_derivative(a, shift, depth, centre, width)
        _assert_batch_matches_reference(f, xs)
        golden, _, _ = conjugate_values(_bump(a, shift, depth, centre, width), xs)
        np.testing.assert_allclose(conjugate_values(f, xs)[0], golden, rtol=1e-13, atol=1e-14)


def _root_steps(monkeypatch, f, xs):
    """conjugate_values(f, xs) with its root search watched: returns
    whether the search was handed a Newton step (a finite one) and the steps
    each row took, or None where no root search ran."""
    seen = []
    inner = functions._bisect_rows

    def spy(a, b, below, steps, rel=0.0):
        count, newton = np.zeros(np.size(a), dtype=int), [False]

        def counted(rows, t):
            count[rows] += 1
            ok, step = below(rows, t)
            newton[0] |= bool(np.isfinite(step).any())
            return ok, step

        seen.append((newton, count))
        return inner(a, b, counted, steps, rel)

    monkeypatch.setattr(functions, "_bisect_rows", spy)
    conjugate_values(f, xs)
    monkeypatch.undo()
    assert len(seen) <= 1
    return (seen[0][0][0], seen[0][1]) if seen else None


class TestNewtonRoot:
    """With phi'' the root of phi'(lam) = x takes Newton steps: about five
    per table, where halvings took about 42."""

    @settings(max_examples=30, deadline=None)
    @given(p=st.floats(min_value=1.0, max_value=6.0), r=st.floats(min_value=0.0, max_value=2.0),
           lam=st.floats(min_value=1e-3, max_value=1e3))
    def test_power_log_second_derivative_against_mpmath(self, p, r, lam):
        # by the log-derivative g = p/lam + h, h = r/(L (e + lam)), L = ln(e + lam):
        # phi'' = phi (g^2 + g'), g' = -p/lam^2 - r (1 + L)/(L (e + lam))^2,
        # with g^2 - p/lam^2 expanded so that nothing cancels at p = 1;
        # measured within 7e-16 relative on 3,000 random draws
        got = PhiFunction.power_log(p, r, 0.0).second_derivatives(np.array([lam]))[0]
        with mp.workdps(30):
            t, big = mp.mpf(lam), mp.log(mp.e + lam)
            h = r / (big * (mp.e + t))
            want = (t ** p * big ** r / p) * (p * (p - 1) / t ** 2 + 2 * p * h / t + h * h
                                              - r * (1 + big) / (big * (mp.e + t)) ** 2)
        assert abs(got - float(want)) <= 1e-14 * abs(float(want))

    def test_second_derivatives_keep_shape_and_check_the_domain(self):
        f = PhiFunction.power_log(2.0, 1.0, 1.0, 5.0)
        lams = np.linspace(1.0, 4.0, 6).reshape(2, 3)
        got = f.second_derivatives(lams)
        assert got.shape == (2, 3)
        assert got.tobytes() == np.array([f.deriv2(t) for t in lams.ravel().tolist()]).tobytes()
        with pytest.raises(OutOfDomainError):
            f.second_derivatives([2.0, 5.0, 0.5])
        with pytest.raises(InputError, match="no second derivative"):
            PhiFunction.quadratic().second_derivatives([1.0])
        # a callable not declared vectorized is called once per point
        g = PhiFunction.from_callable(lambda t: t * t, 0.0, 9.0, deriv=lambda t: 2.0 * t,
                                      deriv2=lambda t: 2.0, convex=True)
        assert g.second_derivatives(lams).tolist() == np.full((2, 3), 2.0).tolist()

    @pytest.mark.parametrize("p, r", ROOT_FAMILIES)
    def test_values_match_mpmath(self, p, r, mp_roots):
        # within 8 ulp of max(|lam x|, phi(lam)), as Brent's values are
        f = PhiFunction.power_log(p, r, 0.0)
        got, lam, errors = conjugate_values(f, ROOT_XS)
        assert not errors
        with mp.workdps(30):
            for x, v, l in zip(ROOT_XS, got.tolist(), lam.tolist()):
                t = mp_roots[p, r, x]
                want = t * x - t ** mp.mpf(p) * mp.log(mp.e + t) ** mp.mpf(r) / p
                assert float(abs(v - want)) <= 8.0 * math.ulp(max(abs(l * x), f.value(l)))

    def test_exponential_values_match_mpmath(self):
        # -ln(1 - lam) has its maximizer 1 - 1/x and the conjugate x - 1 - ln x
        f = oracles.exponential_unit().mgf_exponent
        xs = np.linspace(1.5, 8.0, 14)
        got, lam, errors = conjugate_values(f, xs)
        assert not errors
        with mp.workdps(30):
            for x, v, l in zip(xs.tolist(), got.tolist(), lam.tolist()):
                want = x - 1 - mp.log(x)
                assert float(abs(v - want)) <= 8.0 * math.ulp(max(abs(l * x), f.value(l)))
                assert abs(l - (1.0 - 1.0 / x)) <= 1e-13

    def test_a_power_log_table_ends_within_6_steps(self, monkeypatch):
        # 2,000 x of power_log(2, 1): 42 halvings over 82,350 phi' rows before
        newton, steps = _root_steps(monkeypatch, PhiFunction.power_log(2.0, 1.0),
                                    np.linspace(0.01, 20.0, 2000))
        assert newton and steps.max() <= 6
        assert steps.sum() < 10_000

    @pytest.mark.parametrize("name", ["exponential", "weibull2", "weibull4"])
    def test_every_suite_law_ends_within_6_steps(self, name, monkeypatch):
        # the battery's 15 x; the Gaussian's conjugate has a closed form and
        # the Pareto law has no exponent
        newton, steps = _root_steps(monkeypatch, oracles.suite()[name].mgf_exponent,
                                    np.linspace(1.0, 8.0, 15))
        assert newton and steps.max() <= 6

    def test_a_settled_x_below_the_first_slope_ends_within_2_steps(self, monkeypatch):
        # phi'(1) = 1.45 for power_log(2, 1) on [1, inf): x = 0.5 and 1 peak
        # at lo, and probing just inside it settles them
        f = PhiFunction.power_log(2.0, 1.0)
        xs = [0.5, 1.0]
        newton, steps = _root_steps(monkeypatch, f, xs)
        assert newton and steps.tolist() == [2, 2]
        _, arg, _ = conjugate_values(f, xs)
        assert arg.tolist() == [1.0, 1.0]

    def test_a_bracket_open_at_the_step_cap_is_an_error(self):
        # phi'' 37 times too large: steps 37 times too short leave each
        # bracket 0.6% to 2.7% open after 100 steps, where the scan's grid
        # point would be off by up to 1.9%
        f = PhiFunction.from_callable(lambda t: t ** 1.5, 0.0, math.inf,
                                      deriv=lambda t: 1.5 * t ** 0.5,
                                      deriv2=lambda t: 37.0 * 0.75 * t ** -0.5,
                                      convex=True, vectorized=True)
        vals, arg, errors = conjugate_values(f, [2.0, 5.0, 9.0])
        assert np.isnan(vals).all() and np.isnan(arg).all()
        assert sorted(errors) == [0, 1, 2]
        assert all(isinstance(e, NotConvergedError) and "after 100 steps" in str(e)
                   for e in errors.values())
        # with phi'' right each root closes: lam = (x / 1.5)^2
        good = dataclasses.replace(f, deriv2=lambda t: 0.75 * t ** -0.5)
        vals, arg, errors = conjugate_values(good, [2.0, 5.0, 9.0])
        assert not errors
        np.testing.assert_allclose(arg, (np.array([2.0, 5.0, 9.0]) / 1.5) ** 2, rtol=1e-12)

    def test_without_phi2_the_search_halves_and_without_phi1_it_is_brent(self, monkeypatch):
        f = PhiFunction.power_log(2.0, 1.0, 0.0)
        xs = np.linspace(0.5, 12.0, 24)
        newton, steps = _root_steps(monkeypatch, dataclasses.replace(f, deriv2=None), xs)
        assert not newton and steps.min() >= 40
        # no root search at all without phi', phi'' or not
        assert _root_steps(monkeypatch, dataclasses.replace(f, deriv=None), xs) is None
        halved, _, _ = conjugate_values(dataclasses.replace(f, deriv2=None), xs)
        np.testing.assert_allclose(conjugate_values(f, xs)[0], halved, rtol=1e-14)
