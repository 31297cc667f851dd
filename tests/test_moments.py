"""Moment-envelope bridge: exponent conversion and tail recovery."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from tailbounds import oracles
from tailbounds.errors import InputError, NotCertifiedError
from tailbounds.functions import PhiFunction, conjugate_values
from tailbounds.moments import (
    MomentEnvelope,
    growth_tail_recovery,
    moment_envelope_from_csv,
    moment_power_growth,
    moment_power_pole,
    power_tail_lower,
    to_exponential,
)


class TestToExponential:
    def test_sqrt_growth_spot(self):
        pair = to_exponential(moment_power_growth(2.0, 1.0, 1.0))
        assert pair.phi2.value(4.0) == pytest.approx(4.0 * math.log(2.0), rel=1e-12)

    def test_constant_curve_degenerates(self):
        env = MomentEnvelope(lower=PhiFunction.from_callable(
            lambda p: 1.0, 1.0, math.inf, label="unit"))
        pair = to_exponential(env)
        assert pair.degenerate_lower
        assert pair.phi1.value(5.0) == 0.0

    def test_tight_envelope_gives_equal_exponents(self):
        pair = to_exponential(moment_power_growth(2.0, 1.3, 1.3))
        for lam in (1.5, 3.0, 7.0):
            assert pair.phi1.value(lam) == pytest.approx(pair.phi2.value(lam), rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            MomentEnvelope(lower=PhiFunction.from_callable(
                lambda p: 0.0, 1.0, 10.0, label="zero"))

    @pytest.mark.parametrize("make, name", [
        (lambda v: moment_power_growth(v, 1.0, 1.0), "m"),
        (lambda v: moment_power_growth(2.0, v, v), "c_low"),
        (lambda v: moment_power_growth(2.0, 1.0, v), "c_high"),
        (lambda v: moment_power_pole(v, 3.0, 1.0), "c"),
        (lambda v: moment_power_pole(1.0, v, 1.0), "b"),
        (lambda v: moment_power_pole(1.0, 3.0, v), "beta"),
    ], ids=["growth-m", "growth-c-low", "growth-c-high", "pole-c", "pole-b", "pole-beta"])
    def test_an_infinite_parameter_is_refused(self, make, name):
        # inf passes every positivity check; it ran into a search cap, a
        # non-finite value or the wrong refusal before
        with pytest.raises(InputError, match=f"^moment envelope parameter {name} must be "
                                             "finite, got inf$"):
            make(math.inf)

    def test_crossing_envelopes_rejected(self):
        with pytest.raises(InputError):
            MomentEnvelope(
                lower=PhiFunction.from_callable(lambda p: 2.0, 1.0, 10.0, label="2"),
                upper=PhiFunction.from_callable(lambda p: 1.0, 1.0, 10.0, label="1"),
            )


@pytest.fixture(scope="module")
def pole_run():
    env = moment_power_pole(1.0, 3.0, 1.0)
    xs = np.geomspace(math.e, 10.0, 12)
    return power_tail_lower(env, xs, m_surrogate=2.0)


class TestPoleFamily:
    def test_power_exponent_in_open_interval(self, pole_run):
        _, rep = pole_run
        assert 1.0 < rep.gamma < 3.0
        assert rep.c_fit > 0

    def test_validity_against_dominating_pareto(self, pole_run):
        # a pareto law whose norms dominate the input envelope on the whole
        # p range (infinite beyond its own pole) must sit above the emitted
        # envelope
        alpha = 2.2
        for p in np.linspace(1.0, 2.15, 12):
            norm = (alpha / (alpha - p)) ** (1.0 / p)
            assert norm >= 1.0 / (3.0 - p) - 1e-12
        env, _ = pole_run
        par = oracles.pareto(alpha)
        assert np.all(env.values <= par.exact_tail(env.x) + 1e-12)

    def test_no_points_below_e(self, pole_run):
        env, _ = pole_run
        assert np.all(env.x >= math.e - 1e-12)
        assert env.valid_from == pytest.approx(math.e)

    def test_grid_below_e_rejected(self):
        env = moment_power_pole(1.0, 3.0, 1.0)
        with pytest.raises(InputError):
            power_tail_lower(env, np.array([1.0, 2.0]))

    def test_a_lower_envelope_never_above_1_is_refused(self):
        # |X|_p >= 1/2 on [1, 3): lam ln(1/2) is never positive, so there
        # is no exponent to invert
        half = PhiFunction.from_callable(lambda p: np.full(np.shape(p), 0.5), 1.0, 3.0,
                                         convex=True, vectorized=True, label="half")
        with pytest.raises(NotCertifiedError, match="never exceeds 1"):
            power_tail_lower(MomentEnvelope(lower=half), np.array([3.0, 5.0]))


class TestGrowthRecovery:
    def test_unit_constants_recover_exponent(self):
        env = moment_power_growth(2.0, 1.0, 1.0)
        xs = np.geomspace(math.e, 10.0, 15)
        lower, upper, rep = growth_tail_recovery(2.0, env, xs)
        assert rep.recovered_m == pytest.approx(2.0, rel=0.05)
        assert rep.c1_coeff == pytest.approx(1.0 / (2.0 * math.e), rel=1e-6)
        assert lower is not None
        assert rep.c1_coeff <= rep.c2_coeff

    def test_cramer_flips_at_one(self):
        xs = np.geomspace(math.e, 10.0, 15)
        outcomes = {}
        for m, lo, hi in ((0.5, 1.0, 3.0), (1.0, 0.8, 1.0), (2.0, 1.0, 1.0)):
            _, _, rep = growth_tail_recovery(m, moment_power_growth(m, lo, hi), xs)
            outcomes[m] = rep.cramer.certified
        assert outcomes == {0.5: False, 1.0: True, 2.0: True}

    def test_sub_cramer_still_yields_upper(self):
        xs = np.geomspace(math.e, 10.0, 15)
        _, upper, rep = growth_tail_recovery(
            0.5, moment_power_growth(0.5, 1.0, 3.0), xs)
        assert upper.side == "upper"
        assert np.all(np.isfinite(upper.log_values))
        assert not rep.cramer.certified

    def test_envelope_ordering(self):
        xs = np.geomspace(math.e, 10.0, 15)
        lower, upper, _ = growth_tail_recovery(
            2.0, moment_power_growth(2.0, 1.0, 1.0), xs)
        common = np.intersect1d(lower.x, upper.x)
        lmap = dict(zip(lower.x.tolist(), lower.log_values.tolist()))
        umap = dict(zip(upper.x.tolist(), upper.log_values.tolist()))
        assert all(lmap[c] <= umap[c] + 1e-12 for c in common.tolist())

    def test_no_lower_envelope_is_a_note(self):
        # the upper envelope stands alone, and the report says why there is
        # no lower one: a lower moment curve never above 1 on its probe
        # grid, or a chain with fewer than two positive exponents on the grid
        xs = np.array([3.0, 1000.0])
        for c_low, note in ((0.1, "lower moment envelope degenerate; no lower tail bound"),
                            (0.5, "lower chain not certified: chain produced no positive "
                                  "exponent points")):
            lower, upper, rep = growth_tail_recovery(2.0, moment_power_growth(2.0, c_low, 1.0),
                                                     xs)
            assert lower is None and not rep.lower_produced and rep.notes == (note,)
            assert upper.side == "upper" and rep.c2_coeff == math.inf


def weibull_norm_constants(m, p_grid):
    """|X|_p / p^(1/m) for the stretched-exponential law, by quadrature."""
    ratios = []
    for p in p_grid:
        val, _ = quad(lambda x, p=p: p * x ** (p - 1) * math.exp(-x ** m),
                      0, 60.0 ** (1.0 / m) * 3, limit=300)
        ratios.append(val ** (1.0 / p) / p ** (1.0 / m))
    return min(ratios), max(ratios)


class TestRoundTrip:
    @pytest.mark.parametrize("m", [1.0, 2.0, 4.0])
    def test_moments_grow_like_power(self, m):
        lo, hi = weibull_norm_constants(m, np.linspace(1.0, 30.0, 15))
        assert 0.0 < lo <= hi < 3.0  # bounded constants around p^(1/m)

    @pytest.mark.parametrize("m", [2.0, 4.0])
    def test_recovery_from_true_constants(self, m):
        lo, hi = weibull_norm_constants(m, np.linspace(1.0, 30.0, 15))
        env = moment_power_growth(m, lo, hi)
        xs = np.geomspace(math.e, 10.0, 12)
        lower, upper, rep = growth_tail_recovery(m, env, xs)
        assert rep.recovered_m == pytest.approx(m, rel=0.05)
        # in nats, with the battery's slack 1e-12 max(1, |ln T|): in
        # probabilities a slack of 1e-12 cannot fail, since every lower value
        # is below 6.5e-13 at m = 2 and T underflows to 0 at m = 4
        assert lower is not None
        for env, side in ((upper, 1.0), (lower, -1.0)):
            log_t = oracles.weibull(m).log_tail(env.x)
            gap = side * (env.log_values - log_t)
            assert np.all(gap >= -1e-12 * np.maximum(1.0, np.abs(log_t))), (env.side, gap)

    def test_log_transform_identity_for_pareto(self):
        # theta = ln X of a pareto law is exponential: the tails transform
        # exactly, not just within tolerance
        alpha = 3.0
        par = oracles.pareto(alpha)
        for x in (math.e, 4.0, 9.0):
            t_direct = par.exact_tail(x)
            t_via_log = math.exp(-alpha * math.log(x))
            assert t_direct == pytest.approx(t_via_log, rel=1e-14)


class TestMomentCsv:
    def test_lower_only_is_refused(self, tmp_path):
        # no route reads a one-sided CSV: the header names both columns
        p = tmp_path / "m.csv"
        p.write_text("p,lower\n1.0,1.0\n2.0,1.4\n4.0,2.0\n")
        with pytest.raises(InputError, match=":1: expected header 'p,lower,upper', got 'p,lower'"):
            moment_envelope_from_csv(str(p))

    def test_three_column(self, tmp_path):
        p = tmp_path / "m3.csv"
        p.write_text("p,lower,upper\n1.0,1.0,1.1\n2.0,1.4,1.5\n4.0,2.0,2.2\n")
        env = moment_envelope_from_csv(str(p))
        assert env.lower.value(2.0) == pytest.approx(1.4)
        assert env.upper.value(4.0) == pytest.approx(2.2)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("q,lower\n1,1\n2,2\n")
        with pytest.raises(InputError, match=":1:"):
            moment_envelope_from_csv(str(p))


# the CSV curve of the CI's moments.csv: 2 sqrt(p) at p = 1, 1.5, ..., 6
CSV_PS = [1.0 + i / 2 for i in range(11)]
CSV_VS = [2.0 * p ** 0.5 for p in CSV_PS]


def _csv_piece(lam):
    """The linear piece of the CSV curve to the right of lam, the last at
    the last knot, in mpmath from the float knots."""
    j = min(int(np.searchsorted(CSV_PS, lam, side="right")) - 1, len(CSV_PS) - 2)
    l0, l1, v0, v1 = (mp.mpf(t) for t in (CSV_PS[j], CSV_PS[j + 1], CSV_VS[j], CSV_VS[j + 1]))
    return lambda t: v0 + (v1 - v0) / (l1 - l0) * (t - l0)


class TestExponentDerivative:
    """psi'(lam) = ln c(lam) + lam*c'(lam)/c(lam) against an mpmath
    derivative of lam*ln c(lam) at 30 digits."""

    @pytest.mark.parametrize("case", ["pole", "growth", "csv"])
    def test_against_mpmath(self, case, tmp_path):
        if case == "pole":
            phi = to_exponential(moment_power_pole(1.5, 3.0, 1.2)).phi1
            curve = lambda t: mp.mpf(1.5) * (3 - t) ** mp.mpf(-1.2)
            lams = [phi.domain.lo, 2.0, 2.5, 2.9, 2.999]
        elif case == "growth":
            phi = to_exponential(moment_power_growth(2.0, 1.0, 1.3)).phi2
            curve = lambda t: mp.mpf(1.3) * t ** (mp.mpf(1) / 2)
            lams = [1.0, 2.5, 10.0, 1e3, 1e6]
        else:
            path = tmp_path / "moments.csv"
            path.write_text("p,lower,upper\n" + "".join(
                f"{p!r},{v / 4!r},{v!r}\n" for p, v in zip(CSV_PS, CSV_VS)))
            phi = to_exponential(moment_envelope_from_csv(str(path))).phi2
            curve = None
            # inside pieces, and at knots, where the right chord applies
            lams = [1.2, 2.7, 5.9, 1.0, 2.0, 3.5, 6.0]
        with mp.workdps(30):
            for lam in lams:
                c = curve or _csv_piece(lam)
                want = mp.diff(lambda t: t * mp.log(c(t)), mp.mpf(lam))
                got = phi.derivative(lam)
                assert abs(got - want) <= 1e-13 * abs(want), (case, lam)
        got = phi.derivatives(np.array(lams))
        assert got.tobytes() == np.array([phi.derivative(t) for t in lams]).tobytes()

    def test_a_curve_without_a_derivative_gives_none(self):
        # its exponent keeps the Brent search, and agrees with the root
        curve = PhiFunction.from_callable(lambda p: 2.0 * np.sqrt(p), 1.0, math.inf,
                                          vectorized=True)
        phi = to_exponential(MomentEnvelope(lower=curve)).phi1
        assert phi.deriv is None
        want = to_exponential(moment_power_growth(2.0, 2.0, 2.0)).phi1
        xs = [1.0, 2.0, 3.0]
        np.testing.assert_allclose(conjugate_values(phi, xs)[0], conjugate_values(want, xs)[0],
                                   rtol=1e-14)

    def test_growth_table_argmax_is_the_root(self):
        # the README's growth command: psi(lam) = (lam/2) ln lam, conjugated
        # at y = ln x for x = 3, 3.5, ..., 10
        phi = to_exponential(moment_power_growth(2.0, 1.0, 1.0)).phi2
        ys = np.log(np.arange(3.0, 10.25, 0.5))
        _, arg, errors = conjugate_values(phi, ys)
        assert not errors
        with mp.workdps(30):
            for y, got in zip(ys.tolist(), arg.tolist()):
                want = mp.findroot(lambda t: (mp.log(t) + 1) / 2 - mp.mpf(y), mp.mpf(got))
                assert float(abs(mp.mpf(got) - want) / want) <= 1e-12
