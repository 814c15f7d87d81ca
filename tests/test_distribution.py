import math

import numpy as np
import pytest
from scipy.integrate import quad

from tgiw import (
    TgiwParams,
    cdf,
    cumulative_hazard,
    hazard,
    log_pdf,
    pdf,
    quantile,
    survival,
)

E1 = math.exp(-1.0)
E2 = math.exp(-2.0)

# parameter grid used by the distribution-wide property checks (alpha = 1)
GRID = [
    TgiwParams(1.0, beta, gamma, lam)
    for beta in (0.5, 1.0, 2.0, 5.0)
    for gamma in (0.5, 1.0, 3.0)
    for lam in (-1.0, -0.5, 0.0, 0.5, 1.0)
]


def grid_ids(p):
    return f"b{p.beta}g{p.gamma}l{p.lam}"


class TestCdf:
    def test_base_model_unit_point(self):
        assert cdf(TgiwParams(1, 1, 1, 0), 1.0) == pytest.approx(E1, abs=1e-12)

    def test_full_negative_transmutation_is_square(self):
        # lam = -1 turns u*(1+lam-lam*u) into u**2
        assert cdf(TgiwParams(1, 1, 1, -1), 1.0) == pytest.approx(E2, abs=1e-12)

    def test_full_positive_transmutation(self):
        expected = 2 * E1 - E2  # u*(2-u) at u = e^-1
        got = cdf(TgiwParams(1, 1, 1, 1), 1.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.600423, abs=1e-6)
        # cross-check by integrating the density over (0, 1]
        integral, err = quad(lambda t: pdf(TgiwParams(1, 1, 1, 1), t), 1e-12, 1.0, limit=200)
        assert got == pytest.approx(integral, abs=max(1e-9, 10 * err))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            cdf(TgiwParams(1, 1, 1, 0), bad)

    def test_limits(self):
        p = TgiwParams(1, 1, 1, 0.3)
        assert cdf(p, 1e-8) == pytest.approx(0.0, abs=1e-15)
        assert cdf(p, 1e10) == pytest.approx(1.0, abs=1e-9)

    def test_vectorized(self):
        p = TgiwParams(1, 2, 1, 0.5)
        xs = np.array([0.5, 1.0, 2.0])
        vals = cdf(p, xs)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(cdf(p, 0.5))


class TestPdf:
    def test_base_model_unit_point(self):
        assert pdf(TgiwParams(1, 1, 1, 0), 1.0) == pytest.approx(E1, abs=1e-12)

    def test_positive_transmutation_unit_point(self):
        assert pdf(TgiwParams(1, 1, 1, 1), 1.0) == pytest.approx(2 * E1 - 2 * E2, abs=1e-12)

    def test_matches_cdf_derivative(self):
        p = TgiwParams(1, 1, 1, 0.5)
        h = 1e-6
        fd = (cdf(p, 1 + h) - cdf(p, 1 - h)) / (2 * h)
        assert pdf(p, 1.0) == pytest.approx(fd, rel=1e-9)

    def test_underflow_returns_zero(self):
        # far left tail: the exponential term underflows before the power blows up
        p = TgiwParams(1, 2, 1, 0.0)
        assert pdf(p, 1e-200) == 0.0
        assert log_pdf(p, 1e-200) == -math.inf

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pdf(TgiwParams(1, 1, 1, 0), -0.5)


class TestSurvivalHazard:
    def test_survival_complement(self):
        assert survival(TgiwParams(1, 1, 1, 0), 1.0) == pytest.approx(1 - E1, abs=1e-12)
        assert survival(TgiwParams(1, 1, 1, -1), 1.0) == pytest.approx(1 - E2, abs=1e-12)

    def test_survival_vanishes_far_right(self):
        assert survival(TgiwParams(1, 1, 1, 0.2), 1e8) == pytest.approx(0.0, abs=1e-7)

    def test_hazard_unit_point(self):
        assert hazard(TgiwParams(1, 1, 1, 0), 1.0) == pytest.approx(E1 / (1 - E1), rel=1e-12)

    def test_hazard_positive_transmutation(self):
        f = 2 * E1 - 2 * E2
        s = 1 - (2 * E1 - E2)
        assert hazard(TgiwParams(1, 1, 1, 1), 1.0) == pytest.approx(f / s, rel=1e-12)
        # 1.163952 is the ratio of the 6-digit-rounded factors 0.465088/0.399577
        assert hazard(TgiwParams(1, 1, 1, 1), 1.0) == pytest.approx(1.163952, abs=1e-5)

    def test_hazard_nonnegative_on_grid(self):
        xs = np.geomspace(0.01, 100, 25)
        for p in [TgiwParams(1, 0.8, 1, -0.6), TgiwParams(2, 3, 0.5, 0.9)]:
            assert np.all(np.asarray(hazard(p, xs)) >= 0.0)

    def test_hazard_overflow_signal(self):
        # true survival 1e-400 is below the smallest float; at (1, 1, 1, 0)
        # and x = 1e20 it is 1e-20, which survival now represents exactly
        p = TgiwParams(1, 2, 1, 0)
        # h = beta (t/w) u B / (x ((1 - lam) u + w)) needs no R: 2e-200 (mpmath, 50 digits)
        assert hazard(p, 1e200) == pytest.approx(2.0e-200, rel=1e-15)
        # -ln R = 400 ln 10 is representable, and is taken from ln t (mpmath, 50 digits)
        assert cumulative_hazard(p, 1e200) == pytest.approx(921.03403719761827360719658187375, rel=1e-15)
        # at lam = 1, S = w**2 and H = -2 ln w = 800 ln 10 (mpmath, 50 digits)
        assert cumulative_hazard(TgiwParams(1, 2, 1, 1), 1e200) == pytest.approx(
            1842.0680743952365472143931637475, rel=1e-15
        )
        assert hazard(TgiwParams(1, 1, 1, 0), 1e20) == pytest.approx(1e-20, rel=1e-12)

    def test_hazard_is_log_survival_slope(self):
        p = TgiwParams(1, 1.5, 2, -0.4)
        x, h = 2.0, 1e-6
        slope = -(math.log(survival(p, x + h)) - math.log(survival(p, x - h))) / (2 * h)
        assert hazard(p, x) == pytest.approx(slope, rel=1e-8)


def _tail_oracle(p, x):
    """(survival, hazard, cumulative hazard, log density) at 50 digits.

    expm1 keeps w = 1 - u exact as t -> 0, and the factors (1 - lam) u + w
    and (1 - lam) u + (1 + lam) w hold no 1 - u, so they keep their digits
    at lam = 1 where t is below 1e-50.
    """
    import mpmath as mp

    with mp.workdps(50):
        a, b, g, lam = (mp.mpf(v) for v in p.as_tuple())
        x = mp.mpf(x)
        t = g * (a * x) ** -b
        u = mp.exp(-t)
        w = -mp.expm1(-t)
        s = w * ((1 - lam) * u + w)
        F = u * (1 + lam - lam * u)
        f = b * t / x * u * ((1 - lam) * u + (1 + lam) * w)
        H = -mp.log1p(-F) if F < 0.5 else -mp.log(s)
        return float(s), float(f / s), float(H), float(mp.log(f))


class TestTailExactness:
    """Survival, hazard, cumulative hazard and log density against 50-digit mpmath, both tails."""

    # up to 1e300, where t underflows for beta = 2 and S with it
    XS = np.concatenate([np.geomspace(1e-3, 1e12, 31), np.geomspace(1e20, 1e300, 15)])

    @pytest.mark.parametrize("lam", [-1.0, -0.5, 0.0, 0.7, 1.0])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    def test_matches_mpmath(self, lam, beta, gamma):
        p = TgiwParams(1.3, beta, gamma, lam)
        got = np.array([survival(p, self.XS), hazard(p, self.XS), cumulative_hazard(p, self.XS)])
        want = np.array([_tail_oracle(p, x) for x in self.XS]).T
        rel = np.abs(got - want[:3]) / np.maximum(np.abs(want[:3]), np.finfo(float).tiny)
        assert rel[0].max() <= 1e-14
        # t = gamma*(alpha*x)**-beta carries one rounding, amplified by t in exp(-t)
        assert rel[1].max() <= 1e-12
        assert rel[2].max() <= 1e-12
        # log f is finite where f, w and (at lam = 1) B or (at lam = -1) u
        # underflow; its absolute error is the relative error of f
        np.testing.assert_allclose(log_pdf(p, self.XS), want[3], rtol=1e-14, atol=1e-14)


class TestCumulativeHazard:
    def test_unit_point(self):
        expected = -math.log(1 - E1)
        assert cumulative_hazard(TgiwParams(1, 1, 1, 0), 1.0) == pytest.approx(expected, rel=1e-12)

    def test_negative_transmutation(self):
        expected = -math.log(1 - E2)
        assert cumulative_hazard(TgiwParams(1, 1, 1, -1), 1.0) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_at_origin(self):
        assert cumulative_hazard(TgiwParams(1, 1, 1, 0.7), 1e-8) == pytest.approx(0.0, abs=1e-12)

    def test_nondecreasing(self):
        p = TgiwParams(1, 2, 1, 0.5)
        xs = np.geomspace(0.05, 50, 40)
        vals = np.asarray(cumulative_hazard(p, xs))
        assert np.all(np.diff(vals) >= 0.0)


class TestGridProperties:
    """Family-wide invariants over the (beta, gamma, lam) grid."""

    @pytest.mark.parametrize("p", GRID, ids=grid_ids)
    def test_cdf_bounds_and_monotonicity(self, p):
        xs = np.geomspace(0.05, 50, 60)
        F = np.asarray(cdf(p, xs))
        assert np.all((F >= 0.0) & (F <= 1.0))
        # strict increase checked away from the saturated tails, where the
        # exponential term under/overflows and the cdf is exactly 0 or 1
        xq = np.asarray(quantile(p, np.linspace(1e-6, 1 - 1e-6, 60)))
        Fq = np.asarray(cdf(p, xq))
        assert np.all(np.diff(Fq) > 0.0)

    @pytest.mark.parametrize("p", GRID, ids=grid_ids)
    def test_survival_cdf_complement_machine_precision(self, p):
        xs = np.geomspace(0.05, 50, 20)
        total = np.asarray(cdf(p, xs)) + np.asarray(survival(p, xs))
        np.testing.assert_allclose(total, 1.0, atol=5e-16, rtol=0)

    @pytest.mark.parametrize("p", GRID, ids=grid_ids)
    def test_hazard_survival_product_recovers_pdf(self, p):
        xs = np.geomspace(0.05, 20, 20)
        h = np.asarray(hazard(p, xs))
        s = np.asarray(survival(p, xs))
        f = np.asarray(pdf(p, xs))
        np.testing.assert_allclose(h * s, f, rtol=1e-14, atol=1e-300)

    @pytest.mark.parametrize("p", GRID, ids=grid_ids)
    def test_pdf_normalizes(self, p):
        # graded breakpoints keep the adaptive rule from missing the slow tail
        lo = quantile(p, 1e-12)
        hi = quantile(p, 1.0 - 1e-8)
        pts = [quantile(p, q) for q in (0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-5, 1 - 1e-7)]
        integral, _ = quad(lambda t: pdf(p, t), lo, hi, points=pts, limit=400)
        assert integral == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("p", GRID, ids=grid_ids)
    def test_pdf_matches_cdf_finite_difference(self, p):
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            x = quantile(p, q)
            h = x * 1e-6
            fd = (cdf(p, x + h) - cdf(p, x - h)) / (2 * h)
            assert pdf(p, x) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
    def test_zero_transmutation_reduces_to_base(self, beta, gamma):
        """At lam = 0 the cdf/pdf equal the plain generalized inverse Weibull."""
        p = TgiwParams(1.0, beta, gamma, 0.0)
        xs = np.geomspace(0.1, 20, 30)
        base_cdf = np.exp(-gamma * xs ** (-beta))
        base_pdf = beta * gamma * xs ** (-beta - 1) * base_cdf
        np.testing.assert_allclose(np.asarray(cdf(p, xs)), base_cdf, rtol=1e-13)
        np.testing.assert_allclose(np.asarray(pdf(p, xs)), base_pdf, rtol=1e-13)

    def test_alpha_is_a_pure_scale(self):
        a = 2.5
        p1 = TgiwParams(1.0, 1.3, 0.7, 0.4)
        pa = TgiwParams(a, 1.3, 0.7, 0.4)
        xs = np.geomspace(0.1, 10, 15)
        np.testing.assert_allclose(
            np.asarray(cdf(pa, xs / a)), np.asarray(cdf(p1, xs)), rtol=1e-13
        )
