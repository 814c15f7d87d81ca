import math

import numpy as np
import pytest

from tgiw import TgiwParams, cdf, ks_statistic, median, quantile, raw_moment, sample
from tgiw.data import Dataset

E1 = math.exp(-1.0)

PARAM_POINTS = [
    TgiwParams(1, 1, 1, 0),
    TgiwParams(1, 2, 1, 0.5),
    TgiwParams(2, 0.7, 3, -0.8),
    TgiwParams(1, 1, 1, 1),
    TgiwParams(1, 1, 1, -1),
    TgiwParams(0.5, 4, 0.3, 0.2),
]


def bisect_cdf(p, target, lo=1e-12, hi=1e12, iters=200):
    """Independent quantile oracle: bisection on the cdf."""
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if cdf(p, mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


class TestQuantile:
    def test_base_model_closed_form(self):
        assert quantile(TgiwParams(1, 1, 1, 0), E1) == pytest.approx(1.0, rel=1e-12)

    def test_positive_transmutation_inverts_forward_value(self):
        p = TgiwParams(1, 1, 1, 1)
        q = cdf(p, 1.0)
        assert quantile(p, q) == pytest.approx(1.0, rel=1e-10)
        assert quantile(p, q) == pytest.approx(bisect_cdf(p, q), rel=1e-8)

    @pytest.mark.parametrize("p", PARAM_POINTS, ids=str)
    def test_round_trip_identity(self, p):
        for q in [1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-6]:
            assert abs(cdf(p, quantile(p, q)) - q) <= 1e-10

    @pytest.mark.parametrize("p", PARAM_POINTS, ids=str)
    def test_strictly_increasing(self, p):
        qs = np.linspace(0.001, 0.999, 200)
        xs = np.asarray(quantile(p, qs))
        assert np.all(np.diff(xs) > 0.0)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_domain_error(self, q):
        with pytest.raises(ValueError):
            quantile(TgiwParams(1, 1, 1, 0), q)


def _quantile_oracle(p, q):
    """x with F(x) = q at 50 digits; the conjugate-form root u stays exact at any q."""
    import mpmath as mp

    with mp.workdps(50):
        a, b, g, lam = (mp.mpf(v) for v in p.as_tuple())
        q = mp.mpf(q)
        u = 2 * q / ((1 + lam) + mp.sqrt((1 + lam) ** 2 - 4 * lam * q))
        return float((g / -mp.log(u)) ** (1 / b) / a)


class TestQuantileTails:
    """Quantile against 50-digit mpmath at the same float q, from 1e-300 to 1 - 1e-15."""

    QS = np.concatenate([10.0 ** -np.arange(300.0, 0.0, -20.0), [0.3, 0.5, 0.7], 1.0 - 10.0 ** -np.arange(1.0, 16.0)])

    @pytest.mark.parametrize("lam", [-1.0, -0.5, 0.0, 0.7, 1.0])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_matches_mpmath(self, lam, beta):
        p = TgiwParams(1.3, beta, 0.8, lam)
        got = np.asarray(quantile(p, self.QS))
        want = np.array([_quantile_oracle(p, q) for q in self.QS])
        assert np.max(np.abs(got - want) / want) <= 1e-14


class TestMedian:
    def test_base_model(self):
        assert median(TgiwParams(1, 1, 1, 0)) == pytest.approx(1 / math.log(2), rel=1e-12)

    def test_beta_two(self):
        assert median(TgiwParams(1, 2, 1, 0)) == pytest.approx((1 / math.log(2)) ** 0.5, rel=1e-12)

    def test_transmuted_against_bisection(self):
        p = TgiwParams(1, 1, 1, 0.5)
        assert median(p) == pytest.approx(bisect_cdf(p, 0.5), rel=1e-8)
        assert cdf(p, median(p)) == pytest.approx(0.5, abs=1e-12)


class _StubRng:
    """Generator stand-in yielding a fixed uniform sequence."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def random(self, n):
        assert n == self._values.size
        return self._values


class TestSample:
    def test_inverse_transform_composition(self):
        # a uniform draw of exactly e^-1 must map to x = 1 for the base model
        out = sample(TgiwParams(1, 1, 1, 0), 1, rng=_StubRng([E1]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(1.0, rel=1e-12)

    def test_seed_determinism(self):
        p = TgiwParams(1, 2, 1, -0.3)
        a = sample(p, 100, seed=7)
        b = sample(p, 100, seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample(p, 100, seed=8)
        assert not np.array_equal(a, c)

    def test_all_positive(self):
        out = sample(TgiwParams(1, 0.5, 2, 0.9), 1000, seed=3)
        assert np.all(out > 0)

    def test_mean_matches_first_moment(self):
        p = TgiwParams(1, 3, 1, 0)
        n = 100_000
        draws = sample(p, n, seed=777)
        mu = raw_moment(p, 1)
        var = raw_moment(p, 2) - mu * mu
        se = math.sqrt(var / n)
        assert abs(draws.mean() - mu) <= 3 * se

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            sample(TgiwParams(1, 1, 1, 0), 0, seed=1)

    @pytest.mark.parametrize("k,p", list(enumerate(PARAM_POINTS[:3])))
    def test_draws_pass_ks_against_own_cdf(self, k, p):
        n = 10_000
        draws = sample(p, n, seed=550 + k)
        d = Dataset(values=draws, label="sim")
        assert ks_statistic(p, d) < 1.63 / math.sqrt(n)
