import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from tgiw import (
    OrderSpec,
    TgiwParams,
    cdf,
    joint_os_density,
    min_max_joint_density,
    os_density,
    pdf,
    quantile,
)

E1 = math.exp(-1.0)


class TestOrderSpec:
    def test_valid(self):
        s = OrderSpec(n=5, i=3)
        assert s.j is None

    @pytest.mark.parametrize("n,i", [(0, 1), (3, 0), (3, 4), (5, -1)])
    def test_invalid_rank(self, n, i):
        with pytest.raises(ValueError):
            OrderSpec(n=n, i=i)

    @pytest.mark.parametrize("n,i,j", [(5, 3, 3), (5, 3, 2), (5, 3, 6)])
    def test_invalid_joint_rank(self, n, i, j):
        with pytest.raises(ValueError):
            OrderSpec(n=n, i=i, j=j)

    def test_median_requires_odd(self):
        assert OrderSpec.median(7).i == 4
        with pytest.raises(ValueError, match="odd"):
            OrderSpec.median(6)

    def test_min_max_constructors(self):
        assert OrderSpec.minimum(9).i == 1
        assert OrderSpec.maximum(9).i == 9


class TestOsDensity:
    def test_single_observation_is_plain_density(self):
        p = TgiwParams(1, 1.3, 0.6, 0.2)
        assert os_density(p, OrderSpec(1, 1), 1.0) == pytest.approx(pdf(p, 1.0), rel=1e-14)

    def test_minimum_of_two_closed_form(self):
        p = TgiwParams(1, 1, 1, 0)
        expected = 2 * (1 - E1) * E1
        assert os_density(p, OrderSpec(2, 1), 1.0) == pytest.approx(expected, rel=1e-12)

    def test_maximum_of_two_closed_form(self):
        p = TgiwParams(1, 1, 1, 0)
        expected = 2 * E1 * E1
        assert os_density(p, OrderSpec(2, 2), 1.0) == pytest.approx(expected, rel=1e-12)

    def test_rejects_joint_spec(self):
        with pytest.raises(ValueError):
            os_density(TgiwParams(1, 1, 1, 0), OrderSpec(3, 1, j=2), 1.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            os_density(TgiwParams(1, 1, 1, 0), OrderSpec(3, 1), 0.0)

    @pytest.mark.parametrize("n,i,p", [
        (5, 3, TgiwParams(1, 2, 1, 0.5)),
        (3, 1, TgiwParams(1, 1, 1, -0.5)),
        (4, 4, TgiwParams(1, 0.8, 2, 0.9)),
        (80, 40, TgiwParams(1, 1.5, 1, 0.3)),  # powers of 39 and 40
    ])
    def test_integrates_to_one(self, n, i, p):
        spec = OrderSpec(n, i)
        lo, hi = quantile(p, 1e-14), quantile(p, 1 - 1e-12)
        pts = [quantile(p, q) for q in (0.05, 0.25, 0.5, 0.75, 0.95, 0.999, 1 - 1e-6, 1 - 1e-9)]
        integral, _ = quad(lambda x: os_density(p, spec, x), lo, hi, points=pts, limit=500)
        assert integral == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_rank_sum_identity(self, n):
        """Summing the n rank densities recovers n times the sample density."""
        p = TgiwParams(1, 1.7, 0.9, -0.35)
        for x in [0.3, 1.0, 2.5, 6.0]:
            total = sum(os_density(p, OrderSpec(n, i), x) for i in range(1, n + 1))
            assert total == pytest.approx(n * pdf(p, x), rel=1e-12)

    def test_median_density_at_center(self):
        # at the distribution median, the sample-median density peaks near there
        p = TgiwParams(1, 2, 1, 0)
        spec = OrderSpec.median(5)
        m = quantile(p, 0.5)
        assert os_density(p, spec, m) > os_density(p, spec, 4 * m)


def _os_oracle(p, n, ranks, xs):
    """Order-statistic density at 50 digits: one rank and one point, or two of each."""
    import mpmath as mp

    with mp.workdps(50):
        a, b, g, lam = (mp.mpf(v) for v in p.as_tuple())
        F, S, f = [], [], []
        for x in map(mp.mpf, xs):
            t = g * (a * x) ** -b
            u = mp.exp(-t)
            w = -mp.expm1(-t)
            F.append(u * (1 + lam - lam * u))
            S.append(w * ((1 - lam) * u + w))
            f.append(b * t / x * u * ((1 - lam) * u + (1 + lam) * w))
        if len(ranks) == 1:
            (i,) = ranks
            c = mp.factorial(n) / (mp.factorial(i - 1) * mp.factorial(n - i))
            return float(c * F[0] ** (i - 1) * S[0] ** (n - i) * f[0])
        i, j = ranks
        c = mp.factorial(n) / (mp.factorial(i - 1) * mp.factorial(j - i - 1) * mp.factorial(n - j))
        return float(c * F[0] ** (i - 1) * (F[1] - F[0]) ** (j - i - 1) * S[1] ** (n - j) * f[0] * f[1])


class TestTailExactness:
    """Minimum, maximum and a joint density (n = 5) against 50-digit mpmath, both tails."""

    # 1e200 is past the point where w underflows, and log S with it at lam = 1
    XS = np.append(np.geomspace(1e-2, 1e7, 28), 1e200)
    PARAMS = [TgiwParams(1.0, 2.0, 1.0, lam) for lam in (-1.0, -0.5, 0.0, 0.7, 1.0)] + [TgiwParams(1.3, 0.5, 3.0, 0.4)]

    @pytest.mark.parametrize("p", PARAMS, ids=str)
    @pytest.mark.parametrize("i", [1, 5])
    def test_min_and_max(self, p, i):
        got = np.asarray(os_density(p, OrderSpec(5, i), self.XS))
        want = np.array([_os_oracle(p, 5, (i,), [x]) for x in self.XS])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("p", PARAMS, ids=str)
    @pytest.mark.parametrize("ranks", [(1, 5), (2, 4)])
    def test_joint(self, p, ranks):
        xs, ys = self.XS, self.XS * 1.5
        got = np.asarray(joint_os_density(p, OrderSpec.joint(5, *ranks), xs, ys))
        want = np.array([_os_oracle(p, 5, ranks, [x, y]) for x, y in zip(xs, ys)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


class TestJointOsDensity:
    def test_pair_of_two_has_no_middle_factor(self):
        p = TgiwParams(1, 1, 1, 0)
        got = joint_os_density(p, OrderSpec(2, 1, j=2), 1.0, 2.0)
        expected = 2 * pdf(p, 1.0) * pdf(p, 2.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.111565, abs=1e-6)

    def test_ordering_precondition(self):
        p = TgiwParams(1, 1, 1, 0)
        spec = OrderSpec(4, 2, j=3)
        with pytest.raises(ValueError):
            joint_os_density(p, spec, 2.0, 1.0)
        with pytest.raises(ValueError):
            joint_os_density(p, spec, 1.0, 1.0)

    def test_requires_joint_spec(self):
        with pytest.raises(ValueError):
            joint_os_density(TgiwParams(1, 1, 1, 0), OrderSpec(4, 2), 1.0, 2.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_double_quadrature_normalizes(self):
        p = TgiwParams(1, 2, 1, -0.5)
        spec = OrderSpec(4, 2, j=3)
        hi = quantile(p, 1 - 1e-8)
        integral, err = dblquad(
            lambda xj, xi: joint_os_density(p, spec, xi, xj),
            1e-6,
            hi,
            lambda xi: xi * (1 + 1e-12),
            lambda xi: hi,
            epsabs=1e-6,
        )
        assert integral == pytest.approx(1.0, abs=1e-4)

    def test_marginalizing_recovers_single_rank_density(self):
        p = TgiwParams(1, 1.5, 1, 0.4)
        n, i, j = 4, 2, 3
        spec = OrderSpec(n, i, j=j)
        for xi in [0.5, 1.0, 2.0]:
            pts = [t for t in (quantile(p, q) for q in (0.9, 0.99, 0.999)) if t > xi]
            body, _ = quad(
                lambda xj: joint_os_density(p, spec, xi, xj),
                xi * (1 + 1e-12),
                pts[-1],
                points=pts,
                limit=400,
            )
            tail, _ = quad(lambda xj: joint_os_density(p, spec, xi, xj), pts[-1], np.inf, limit=400)
            assert body + tail == pytest.approx(os_density(p, OrderSpec(n, i), xi), rel=1e-4)


class TestMinMaxJoint:
    def test_two_sample_case(self):
        p = TgiwParams(1, 1.2, 0.8, 0.6)
        for a, b in [(0.4, 0.9), (1.0, 3.0)]:
            assert min_max_joint_density(p, 2, a, b) == pytest.approx(
                2 * pdf(p, a) * pdf(p, b), rel=1e-12
            )

    def test_three_sample_closed_form(self):
        p = TgiwParams(1, 1, 1, 0)
        got = min_max_joint_density(p, 3, 1.0, 2.0)
        expected = 6 * (cdf(p, 2.0) - cdf(p, 1.0)) * pdf(p, 1.0) * pdf(p, 2.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_general_joint(self):
        p = TgiwParams(1, 2.2, 0.5, -0.7)
        rng = np.random.default_rng(11)
        for n in (2, 4, 9):
            for _ in range(5):
                a, b = np.sort(quantile(p, rng.uniform(0.05, 0.95, size=2)))
                if a == b:
                    continue
                direct = min_max_joint_density(p, n, a, b)
                general = joint_os_density(p, OrderSpec(n, 1, j=n), a, b)
                assert direct == pytest.approx(general, rel=1e-14)

    def test_requires_two_or_more(self):
        with pytest.raises(ValueError):
            min_max_joint_density(TgiwParams(1, 1, 1, 0), 1, 1.0, 2.0)
