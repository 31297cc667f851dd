"""Reciprocal limit constants on the MGF and tail sides."""

import dataclasses
import math

import numpy as np
import pytest

from tailbounds import oracles
from tailbounds.errors import InputError, NonInvertibleError, OutOfDomainError, TailboundsError
from tailbounds.functions import PhiFunction, _bisect, _values_or_errors, conjugate_value
from tailbounds.tauberian import (TauberianReport, _extrapolate, _invert_increasing,
                                  tauberian_check)

QREF = PhiFunction.quadratic(lo=0.0)


class TestAnalytic:
    def test_standard_gaussian_is_unit(self):
        rep = tauberian_check(QREF, oracles.gaussian())
        # the MGF-side ratio is identically 1 for the matching exponent
        assert all(abs(k - 1.0) < 1e-9 for k in rep.k_mgf_ladder)
        assert rep.k_mgf == pytest.approx(1.0, abs=1e-9)
        assert rep.k_tail == pytest.approx(1.0, abs=0.02)
        assert rep.converged

    def test_doubled_scale(self):
        rep = tauberian_check(QREF, oracles.gaussian(2.0))
        assert rep.k_mgf == pytest.approx(2.0, abs=1e-9)
        assert rep.k_tail == pytest.approx(0.5, rel=0.02)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_reciprocity_within_two_percent(self, scale):
        rep = tauberian_check(QREF, oracles.gaussian(scale))
        assert rep.consistency <= 0.02

    def test_scale_equivariance(self):
        base = tauberian_check(QREF, oracles.gaussian())
        for a in (0.5, 2.0):
            rep = tauberian_check(QREF, oracles.gaussian(a))
            assert rep.k_mgf == pytest.approx(a * base.k_mgf, rel=1e-9)
            assert rep.k_tail == pytest.approx(base.k_tail / a, rel=0.02)

    def test_tail_ladder_monotone_toward_limit(self):
        rep = tauberian_check(QREF, oracles.gaussian())
        ladder = np.array(rep.k_tail_ladder)
        assert np.all(np.diff(ladder) < 0)  # corrections shrink with x
        assert ladder[-1] > rep.k_tail       # extrapolation moves past the cap

    def test_weibull4_converges_where_its_tail_underflows(self):
        # exp(-x^4) is 0.0 in floats at the top of the ladder; the targets
        # are the log tail itself
        dist = oracles.weibull(4.0)
        assert dist.exact_tail(8.0) == 0.0
        rep = tauberian_check(PhiFunction.power_log(4.0 / 3.0, lo=0.0), dist)
        assert rep.converged
        assert rep.consistency < 0.02
        assert rep.k_tail == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_pareto_has_no_mgf(self):
        with pytest.raises(InputError):
            tauberian_check(QREF, oracles.pareto(3.0))

    def test_a_mgf_domain_that_ends_below_the_ladder_is_refused(self):
        # the exponential's MGF domain [0, 1) ends below the ladder's first
        # lambda 2: an InputError naming both, before any MGF evaluation
        law = oracles.exponential_unit()
        calls = []
        mgf = dataclasses.replace(law.mgf_exponent,
                                  fn=lambda l: calls.append(l) or law.mgf_exponent.fn(l))
        with pytest.raises(InputError) as exc:
            tauberian_check(QREF, dataclasses.replace(law, mgf_exponent=mgf))
        assert type(exc.value) is InputError and calls == []
        assert str(exc.value) == (
            "exponential: the MGF ladder's first lambda 2.0 is not below its top "
            "0.9799999999999999 = min(50, 0.98 x its MGF domain top 1.0)")

    def test_flat_reference_fails_regularity_gate(self):
        from tailbounds.errors import NotCertifiedError
        ref = PhiFunction.from_callable(lambda l: 5.0, 0.0, math.inf,
                                        convex=True, label="flat", slope_lim=0.0)
        with pytest.raises(NotCertifiedError):
            tauberian_check(ref, oracles.gaussian())

    def test_non_monotone_reference_not_invertible(self):
        # the flat reference, whose regularity gate refuses it first: its
        # inversion alone finds no root below phi's constant value
        ref = PhiFunction.from_callable(lambda l: 5.0, 0.0, math.inf,
                                        convex=True, label="flat", slope_lim=0.0)
        lams = np.geomspace(2.0, 50.0, 7)
        with pytest.raises(NonInvertibleError, match="target 2.0 below function value 5.0"):
            _invert_increasing(lambda ts: _values_or_errors(ref, ts), 0.5 * lams ** 2, 0.0, lams)

    def test_only_a_distribution_is_a_source(self):
        gauss = (lambda l: 0.5 * l * l, lambda x: 0.5 * math.erfc(x / math.sqrt(2.0)))
        with pytest.raises(InputError, match="source must be an OracleDistribution, got tuple"):
            tauberian_check(QREF, gauss)

    @pytest.mark.parametrize("ladder", [[4.0, 2.0, 3.0], [2.0, math.nan, 4.0]])
    def test_a_ladder_out_of_order_or_with_a_nan_is_refused(self, ladder):
        # out of order, the extrapolation read the last three points as the
        # largest and reported k_tail = 1.0043, converged; a NaN rung raised
        # NonInvertibleError at a target of -0.0
        with pytest.raises(InputError, match="x_ladder must be a nonempty 1-d grid"):
            tauberian_check(QREF, oracles.gaussian(), x_ladder=ladder)



class TestExtrapolation:
    def test_a_short_ladder_keeps_its_last_value(self):
        assert _extrapolate(np.array([2.0, 3.0]), np.array([1.0, 2.0])) == (2.0, False)

    def test_a_singular_solve_keeps_the_last_value(self):
        # two equal ladder points make the 3 x 3 system singular
        assert _extrapolate(np.array([2.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == (3.0, False)

    def test_a_limit_far_from_the_last_value_is_not_taken(self):
        # the exact solve lands more than half the last value away from it
        xs, ks = np.array([2.0, 3.0, 4.0]), np.array([1.0, 5.0, 1.2])
        mat = np.vstack([np.ones(3), np.log(xs) / xs ** 2, 1.0 / xs ** 2]).T
        assert abs(np.linalg.solve(mat, ks)[0] - 1.2) > 0.6
        assert _extrapolate(xs, ks) == (1.2, False)
        k_inf, converged = _extrapolate(xs, np.array([1.0, 1.1, 1.15]))
        assert converged and abs(k_inf - 1.15) < 0.2

class TestMonteCarlo:
    def test_seeded_tail_constant(self):
        rep = tauberian_check(QREF, oracles.gaussian(),
                              x_ladder=[2.0, 3.0, 4.0, 5.0],
                              monte_carlo=True, n_samples=10_000_000, seed=42)
        assert rep.mode == "monte-carlo"
        assert rep.details["counts"][-1] > 0
        assert abs(rep.k_tail - 1.0) <= 0.10
        # identical seed, identical report
        rep2 = tauberian_check(QREF, oracles.gaussian(),
                               x_ladder=[2.0, 3.0, 4.0, 5.0],
                               monte_carlo=True, n_samples=10_000_000, seed=42)
        assert rep2.k_tail == rep.k_tail
        assert rep2.details["counts"] == rep.details["counts"]


def _sequential_invert(fn, target, lo, hi_seed):
    """One inversion at a time: monotone bisection for fn(x) = target."""
    lo = max(lo, 1e-12)
    f_lo = fn(lo)
    if f_lo > target:
        raise NonInvertibleError(
            f"target {target} below function value {f_lo} at the domain floor"
        )
    hi = max(hi_seed, 2.0 * lo)
    for _ in range(200):
        if fn(hi) >= target:
            break
        hi *= 2.0
    else:
        raise NonInvertibleError(f"no bracket for target {target}")
    a, b = _bisect(lo, hi, lambda x: (fn(x) < target, math.nan), 200, 1e-10)
    return 0.5 * (a + b)


def _sequential_check(phi, log_mgf, tail, x_ladder=None, mc=None):
    """tauberian_check with each ladder point inverted alone, by scalar
    calls of phi and of its conjugate; ``mc`` is (dist, n_samples, seed)."""
    lams = np.geomspace(max(phi.domain.lo, 1.0) + 1.0, 50.0, 7)
    xs = np.asarray(2.0 * 2.0 ** (np.arange(7) / 3.0) if x_ladder is None else x_ladder)
    k_mgf = np.array([_sequential_invert(phi.value, float(log_mgf(float(lam))),
                                         phi.domain.lo, max(lam, 1.0)) / float(lam)
                      for lam in lams])
    details = {}
    if mc:
        dist, n, seed = mc
        frac = oracles.empirical_tail(dist, seed, n, xs)["fraction"]
        xs, tail_vals = xs[frac > 0], frac[frac > 0]
        details = {"counts": np.rint(frac * n).astype(int).tolist(), "n_samples": n, "seed": seed}
    else:
        tail_vals = np.array([tail(float(x)) for x in xs])
    k_tail = np.array([_sequential_invert(lambda x: conjugate_value(phi, x)[0],
                                          abs(math.log(t)), 1e-9, max(float(x), 1.0)) / float(x)
                       for x, t in zip(xs, tail_vals)])
    k_m, conv_m = _extrapolate(lams, k_mgf)
    k_t, conv_t = (float(k_tail[-1]), bool(xs.size >= 3)) if mc else _extrapolate(xs, k_tail)
    return TauberianReport(
        k_mgf=k_m, k_tail=k_t, k_mgf_ladder=tuple(k_mgf.tolist()),
        k_tail_ladder=tuple(k_tail.tolist()), lam_ladder=tuple(lams.tolist()),
        x_ladder=tuple(xs.tolist()), converged=bool(conv_m and conv_t),
        consistency=abs(k_m * k_t - 1.0), mode="monte-carlo" if mc else "analytic",
        details=details)


class TestLockstepInversions:
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_matches_one_inversion_at_a_time(self, scale):
        dist = oracles.gaussian(scale)
        want = _sequential_check(QREF, dist.mgf_exponent.value, dist.exact_tail)
        assert repr(tauberian_check(QREF, dist)) == repr(want)

    def test_monte_carlo_matches_one_inversion_at_a_time(self):
        dist = oracles.gaussian()
        ladder = [2.0, 3.0, 4.0, 5.0]
        want = _sequential_check(QREF, dist.mgf_exponent.value, None, ladder,
                                 mc=(dist, 200_000, 7))
        got = tauberian_check(QREF, dist, x_ladder=ladder, monte_carlo=True,
                              n_samples=200_000, seed=7)
        assert repr(got) == repr(want)

    def test_monte_carlo_counts_are_the_sample_counts(self):
        # 7 of the 200,000 seed-7 draws of N(0, 4) reach x = 8, and 7/200000
        # times 200000 is 6.999999999999999: the count is rounded, not truncated
        dist = oracles.gaussian(2.0)
        got = tauberian_check(QREF, dist, monte_carlo=True, n_samples=200_000, seed=7)
        want = _sequential_check(QREF, dist.mgf_exponent.value, None, mc=(dist, 200_000, 7))
        assert repr(got) == repr(want)
        sample = dist.sample(7, 200_000)
        xs = 2.0 * 2.0 ** (np.arange(7) / 3.0)
        assert got.details["counts"] == [int(np.count_nonzero(sample >= x)) for x in xs]
        assert got.details["counts"][-1] == 7

    @staticmethod
    def _mgf_side(phi, targets):
        # the MGF-side inversion as tauberian_check runs it, one at a time
        # and in lockstep, on the ladder lambdas 2 .. 50
        lams = np.geomspace(2.0, 50.0, 7)
        with pytest.raises(TailboundsError) as seq:
            for lam, t in zip(lams.tolist(), targets.tolist()):
                _sequential_invert(phi.value, t, phi.domain.lo, lam)
        with pytest.raises(TailboundsError) as lockstep:
            _invert_increasing(lambda ts: _values_or_errors(phi, ts), targets,
                               phi.domain.lo, lams)
        assert type(lockstep.value) is type(seq.value)
        assert str(lockstep.value) == str(seq.value)
        return seq.value

    def test_raises_the_first_failing_ladder_point(self):
        # targets below phi at the domain floor at ladder points 3 and 5:
        # both searches fail in their first round, and point 3's error wins
        targets = 0.5 * np.geomspace(2.0, 50.0, 7) ** 2
        targets[[3, 5]] = [-3.0, -5.0]
        err = self._mgf_side(QREF, targets)
        assert isinstance(err, NonInvertibleError)
        assert str(err).startswith("target -3.0 below")

    def test_a_point_outside_the_domain_fails_its_own_search(self):
        # on [0, 20) the brackets of the ladder points 29.2 and 50 start
        # outside the domain; the other searches run on to their roots
        phi = PhiFunction.from_callable(lambda l: 0.5 * l * l, 0.0, 20.0, convex=True,
                                        label="half-square[0, 20)", vectorized=True)
        err = self._mgf_side(phi, 0.5 * np.geomspace(2.0, 50.0, 7) ** 2)
        assert isinstance(err, OutOfDomainError)
        assert "29.2" in str(err)
