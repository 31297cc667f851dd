"""Function representation, Legendre transform, biconjugate, saddle points."""

import dataclasses
import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailbounds.errors import (
    EmptyDomainError,
    InputError,
    NegativeInputError,
    NonUniqueArgmaxError,
    OutOfDomainError,
    UnboundedObjectiveError,
)
from tailbounds.functions import (
    Domain,
    PhiFunction,
    biconjugate,
    certify_convex,
    conjugate,
    conjugate_value,
    evaluate,
    saddle_point,
)
from tailbounds.lower_bilateral import pinched_lower_envelope


class TestEvaluate:
    def test_quadratic_value(self):
        assert evaluate(PhiFunction.quadratic(), 2.0) == pytest.approx(2.0)

    def test_grid_midpoint_interpolation(self):
        g = PhiFunction.from_grid([1.0, 3.0], [1.0, 5.0])
        assert evaluate(g, 2.0) == pytest.approx(3.0)

    def test_half_open_upper_boundary(self):
        f = PhiFunction.quadratic(hi=10.0)
        with pytest.raises(OutOfDomainError):
            evaluate(f, 10.0)
        assert evaluate(f, np.nextafter(10.0, 0.0)) > 0

    def test_below_domain(self):
        with pytest.raises(OutOfDomainError):
            evaluate(PhiFunction.quadratic(), 0.5)

    def test_grid_no_extrapolation(self):
        g = PhiFunction.from_grid([1.0, 3.0], [1.0, 5.0])
        with pytest.raises(OutOfDomainError):
            evaluate(g, 3.5)

    def test_empty_domain_rejected(self):
        with pytest.raises(EmptyDomainError):
            Domain(2.0, 2.0)

    def test_grid_knots_must_increase(self):
        with pytest.raises(InputError):
            PhiFunction.from_grid([1.0, 1.0, 2.0], [0.0, 1.0, 2.0])


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

    def test_result_invariants_on_families(self):
        xs = np.linspace(0.0, 12.0, 40)
        for f in (PhiFunction.quadratic(), PhiFunction.power_log(4.0),
                  PhiFunction.power_log(2.0, 1.0)):
            res = conjugate(f, xs)
            res.validate()

    def test_infinite_flag_in_grid_output(self):
        res = conjugate(PhiFunction.linear(1.0), np.array([0.5, 2.0]))
        assert math.isfinite(res.values[0])
        assert math.isinf(res.values[1])
        assert math.isnan(res.argmax[1])


class TestBiconjugate:
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
        assert bc.values[2] < vs[2]

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


class TestSaddlePoint:
    def test_quadratic_identity(self):
        assert saddle_point(PhiFunction.quadratic(), 10.0) == pytest.approx(10.0, rel=1e-6)

    def test_quartic_cubic_map(self):
        # conjugate of l^4/4 is (3/4) x^(4/3); slope inverse at 2 is 8
        assert saddle_point(PhiFunction.power_log(4.0), 2.0) == pytest.approx(8.0, rel=1e-5)

    def test_grid_within_resolution(self):
        ls = np.arange(0.0, 10.01, 0.1)
        g = PhiFunction.from_grid(ls, 0.5 * ls ** 2)
        assert saddle_point(g, 5.0) == pytest.approx(5.0, abs=0.1)

    def test_flat_top_reported(self):
        with pytest.raises(NonUniqueArgmaxError):
            saddle_point(PhiFunction.linear(2.0, lo=0.0), 2.0)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            saddle_point(PhiFunction.quadratic(hi=5.0), 6.0)


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
        res = conjugate(g, np.linspace(0.0, 10.0, 21))
        res.validate(tol=1e-6)


class TestConvexityCertificate:
    def test_families(self):
        assert certify_convex(PhiFunction.quadratic())
        assert certify_convex(PhiFunction.power_log(2.0, 1.0))
        bumpy = PhiFunction.from_callable(
            lambda l: l + 0.5 * math.sin(3 * l) + 0.5, 1.0, 50.0,
            convex=False, label="wiggle")
        assert not certify_convex(bumpy)


class TestCsvLoading:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "grid.csv"
        p.write_text("lambda,value\n1.0,1.0\n2.0,2.5\n4.0,8.0\n")
        f = PhiFunction.from_csv(str(p))
        assert evaluate(f, 3.0) == pytest.approx((2.5 + 8.0) / 2.0)

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
            # which may lie below lo or above the top
            target = {"zero": 0.0, "below": lo * u,
                      "inside": lo + u * min(width, 100.0),
                      "above": top * (1.0 + u) + 1e-3 if math.isfinite(top) else lo + 100.0 * u,
                      }[where]
            x = f.derivative(target) if target > 0 else 0.0
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

    def test_dilate_keeps_the_family(self):
        assert PhiFunction.quadratic(0.5).dilate(2.0, 0.5, 10.0) == \
            PhiFunction.quadratic(2.0, 0.5, 10.0)
        assert PhiFunction.linear(1.5).dilate(2.0, 1.0, math.inf) == PhiFunction.linear(3.0)
        d = PhiFunction.power_log(2.0, 1.0).dilate(2.0, 1.0, math.inf)
        assert d.kind == "callable"
        assert d.value(3.0) == PhiFunction.power_log(2.0, 1.0).value(6.0)


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

    def test_knots_are_read_only_copies(self):
        lam = np.array([1.0, 2.0, 3.0])
        val = np.array([0.5, 2.0, 4.5])
        g = PhiFunction.from_grid(lam, val)
        lam[1] = 2.5  # the caller's array stays writable and unshared
        assert g.value(2.0) == 2.0
        with pytest.raises(ValueError):
            g.knots[0][0] = 0.0


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
    "dilated": PhiFunction.power_log(2.0, 1.0).dilate(1.5, 1.0, 30.0),
    "dilated_vectorized": _vectorized(np.square, deriv=lambda l: 2.0 * np.asarray(l))
    .dilate(0.5, 0.0, 12.0),
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

    def test_subnormal_lower_end_scans_without_overflow(self):
        f = PhiFunction.from_callable(lambda l: l * l, 5e-324, 50.0, convex=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, a = conjugate_value(f, 2.0)
        assert v == pytest.approx(1.0)
        assert a == pytest.approx(1.0)


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
