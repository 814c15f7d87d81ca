import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgiw import (
    Dataset,
    FitConfig,
    ReducedParams,
    SubModel,
    TgiwParams,
    compare,
    embedded_dataset,
    expand_params,
    fit_lse,
    fit_mle,
    fit_wlse,
    identifiable_k,
    log_likelihood,
    log_pdf,
    observed_information,
    quantile,
    reduce_params,
    sample,
    score,
    wald_intervals,
    wlse_weights,
)
from tgiw.estimation import FitResult, _free_names, _ls_gradient, _ls_objective, _reduced_from_z

# fitted values for the bundled data, frozen from converged runs
TGIW_NEG_LL = 166.38696
GIW_NEG_LL = 168.63883

PUBLISHED_TGIW = TgiwParams(2.382715, 0.5297876, 1.1428575, -0.7472070)
PUBLISHED_GIW = TgiwParams(0.8537419, 0.4790610, 1.043654, 0.0)


@pytest.fixture(scope="module")
def weeks():
    return embedded_dataset()


@pytest.fixture(scope="module")
def tgiw_fit(weeks):
    return fit_mle(weeks, FitConfig(model=SubModel.TGIW))


@pytest.fixture(scope="module")
def giw_fit(weeks):
    return fit_mle(weeks, FitConfig(model=SubModel.GIW))


class TestLogLikelihood:
    def test_published_four_parameter_points(self, weeks):
        assert log_likelihood(PUBLISHED_TGIW, weeks) == pytest.approx(-166.387, abs=1e-3)
        assert log_likelihood(PUBLISHED_GIW, weeks) == pytest.approx(-168.638, abs=1e-3)

    def test_single_unit_observation(self):
        d = Dataset(values=np.array([1.0]))
        assert log_likelihood(TgiwParams(1, 1, 1, 0), d) == pytest.approx(-1.0, abs=1e-14)

    def test_consistency_with_pointwise_log_density(self, weeks):
        p = TgiwParams(1.3, 0.8, 2.0, 0.6)
        total = float(np.sum(np.asarray(log_pdf(p, weeks.values))))
        assert log_likelihood(p, weeks) == pytest.approx(total, abs=1e-8)

    def test_minus_infinity_sentinel_at_edge(self):
        # lam = -1 at a tiny observation: B = 2u underflows to 0, but log B = log 2 - t is finite
        p = TgiwParams(1, 1, 1, -1)
        d = Dataset(values=np.array([1e-300]))
        assert log_likelihood(p, d) == pytest.approx(log_pdf(p, 1e-300), rel=1e-12)
        assert log_pdf(p, 1e-300) == pytest.approx(-2e300, rel=1e-15)
        # where t overflows the density is 0 and both read -inf
        p = TgiwParams(1, 2, 1, -1)
        assert log_pdf(p, 1e-200) == -math.inf
        assert log_likelihood(p, Dataset(values=np.array([1e-200]))) == -math.inf

    @pytest.mark.parametrize("lam, values, expected", [
        (-1.0, [0.01, 1.0, 2.0], -19986.605),  # u = exp(-t) underflows at 0.01
        (1.0, [1.0, 2.0, 1e200], -2303.723),  # w = 1 - u underflows at 1e200
    ])
    def test_finite_at_the_lambda_edges(self, lam, values, expected):
        p = TgiwParams(1, 2, 1, lam)
        total = float(np.sum(log_pdf(p, np.array(values))))
        assert log_likelihood(p, Dataset(values=np.array(values))) == pytest.approx(total, rel=1e-14)
        assert total == pytest.approx(expected, abs=1e-3)

    @settings(max_examples=300, deadline=None)
    @given(
        log_alpha=st.floats(-3.0, 3.0),
        log_beta=st.floats(-2.0, 2.0),
        log_gamma=st.floats(-3.0, 3.0),
        lam=st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0),
        exponents=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=20),
    )
    def test_equals_sum_of_log_pdf(self, log_alpha, log_beta, log_gamma, lam, exponents):
        p = TgiwParams(math.exp(log_alpha), math.exp(log_beta), math.exp(log_gamma), lam)
        x = np.sort(10.0 ** np.array(exponents))
        terms = np.asarray(log_pdf(p, x))
        ll = log_likelihood(p, Dataset(values=x))
        if np.isneginf(terms).any():
            assert ll == -math.inf
        else:
            assert abs(ll - terms.sum()) <= 1e-12 * np.abs(terms).sum()


class TestScore:
    def test_lambda_component_at_zero(self, weeks):
        p = TgiwParams(1.0, 0.5, 1.2, 0.0)
        u = np.exp(-1.2 * weeks.values ** (-0.5))
        expected = float(np.sum(1.0 - 2.0 * u))
        assert score(p, weeks)[3] == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences(self, weeks):
        rng = np.random.default_rng(42)
        for _ in range(25):
            p = TgiwParams(
                alpha=math.exp(rng.uniform(-1.5, 1.5)),
                beta=math.exp(rng.uniform(-1.2, 1.0)),
                gamma=math.exp(rng.uniform(-1.5, 1.5)),
                lam=rng.uniform(-0.95, 0.95),
            )
            analytic = score(p, weeks)
            fd = _fd_score(p, weeks)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-5 * np.abs(fd).max())

    def test_vanishes_at_interior_optimum(self, weeks, tgiw_fit):
        g = score(tgiw_fit.params, weeks)
        assert np.max(np.abs(g)) < 1e-4

    def test_undefined_where_the_density_factor_is_zero(self):
        # at lam = 1, B = 2w is 0 at 1e200: l is finite, but its derivatives divide by B
        p, d = TgiwParams(1, 2, 1, 1), Dataset(values=np.array([1.0, 2.0, 1e200]))
        assert math.isfinite(log_likelihood(p, d))
        with pytest.raises(ValueError, match="derivatives"):
            score(p, d)


def _fd_score(p, d):
    eps = np.finfo(float).eps ** (1 / 3)
    base = dict(alpha=p.alpha, beta=p.beta, gamma=p.gamma, lam=p.lam)
    out = []
    for name in ("alpha", "beta", "gamma", "lam"):
        h = eps * max(1.0, abs(base[name]))
        hi, lo = dict(base), dict(base)
        hi[name] += h
        lo[name] -= h
        out.append(
            (log_likelihood(TgiwParams(**hi), d) - log_likelihood(TgiwParams(**lo), d))
            / (2 * h)
        )
    return np.array(out)


class TestFitMle:
    def test_transmuted_fit_reaches_reference_value(self, tgiw_fit):
        assert tgiw_fit.neg_log_lik == pytest.approx(166.387, abs=0.01)
        assert tgiw_fit.converged
        assert tgiw_fit.gradient_norm < 1e-4
        assert tgiw_fit.reduced.theta == pytest.approx(0.7213, abs=5e-3)
        assert tgiw_fit.reduced.beta == pytest.approx(0.5298, abs=5e-3)
        assert tgiw_fit.reduced.lam == pytest.approx(-0.7474, abs=5e-3)

    def test_base_fit_reaches_reference_value(self, giw_fit):
        assert giw_fit.neg_log_lik == pytest.approx(168.638, abs=0.01)
        assert giw_fit.converged
        assert giw_fit.free_names == ("theta", "beta")

    def test_nesting_monotonicity(self, tgiw_fit, giw_fit):
        assert giw_fit.neg_log_lik >= tgiw_fit.neg_log_lik

    def test_full_mode_reaches_same_likelihood(self, weeks, tgiw_fit):
        full = fit_mle(weeks, FitConfig(model=SubModel.TGIW, mode="full"))
        assert full.neg_log_lik == pytest.approx(tgiw_fit.neg_log_lik, abs=1e-6)
        # the (alpha, gamma) pair is arbitrary on the ridge; theta is not
        assert full.reduced.theta == pytest.approx(tgiw_fit.reduced.theta, abs=1e-4)

    def test_standard_errors_present_and_positive(self, tgiw_fit):
        assert tgiw_fit.std_errors is not None
        assert set(tgiw_fit.std_errors) == {"theta", "beta", "lam"}
        assert all(v > 0 for v in tgiw_fit.std_errors.values())
        for name, (lo, hi) in tgiw_fit.conf_intervals.items():
            assert lo <= tgiw_fit.estimates[name] <= hi

    def test_multistart_exploration_finds_boundary_solution(self, weeks, tgiw_fit):
        """The likelihood is bimodal in lam: restarts reach a non-regular
        boundary solution with higher likelihood, reported with a flag."""
        probe = fit_mle(weeks, FitConfig(model=SubModel.TGIW, multistart=12, seed=1))
        assert probe.neg_log_lik < tgiw_fit.neg_log_lik
        assert probe.neg_log_lik == pytest.approx(164.134, abs=0.01)
        assert probe.boundary_lambda
        assert not probe.converged
        assert probe.std_errors is not None and "lam" not in probe.std_errors

    def test_synthetic_recovery(self):
        truth = TgiwParams(1, 2, 1, 0)
        data = Dataset(values=sample(truth, 10_000, seed=99))
        fr = fit_mle(data, FitConfig(model=SubModel.IW))
        assert fr.reduced.theta == pytest.approx(1.0, rel=0.05)
        assert fr.reduced.beta == pytest.approx(2.0, rel=0.05)

    def test_too_few_observations(self):
        d = Dataset(values=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="n > k"):
            fit_mle(d, FitConfig(model=SubModel.TGIW))

    def test_config_fields(self):
        assert {f.name for f in fields(FitConfig)} == {
            "model", "mode", "method", "max_iter", "multistart", "seed", "delta",
        }

    def test_identifiable_counts(self):
        assert identifiable_k(SubModel.TGIW) == 3
        assert identifiable_k(SubModel.GIW) == 2
        assert identifiable_k(SubModel.IW) == 2
        assert identifiable_k(SubModel.TIW) == 3
        assert identifiable_k(SubModel.IE) == 1
        assert identifiable_k(SubModel.TIR) == 2

    def test_beats_random_search(self, weeks, tgiw_fit):
        rng = np.random.default_rng(20240)
        best = math.inf
        for _ in range(1000):
            p = expand_params_from(
                theta=math.exp(rng.uniform(math.log(0.05), math.log(20))),
                beta=math.exp(rng.uniform(math.log(0.05), math.log(5))),
                lam=rng.uniform(-1, 1),
            )
            best = min(best, -log_likelihood(p, weeks))
        assert tgiw_fit.neg_log_lik <= best


    def test_bundled_fit_iteration_count(self, tgiw_fit):
        assert tgiw_fit.iterations <= 40

    @pytest.mark.parametrize("k", range(-8, 9))
    def test_scale_equivariance(self, weeks, tgiw_fit, k):
        """Rescaling the data moves only theta and shifts -l by n log c."""
        c = 10.0**k
        fr = fit_mle(Dataset(values=weeks.values * c), FitConfig(model=SubModel.TGIW))
        assert fr.converged
        assert fr.reduced.beta == pytest.approx(tgiw_fit.reduced.beta, abs=1e-6)
        assert fr.reduced.lam == pytest.approx(tgiw_fit.reduced.lam, abs=1e-6)
        assert fr.neg_log_lik == pytest.approx(tgiw_fit.neg_log_lik + weeks.n * math.log(c), abs=1e-6)

    def test_degenerate_data_raises_value_error(self):
        d = Dataset(values=np.full(10, 2.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model in (SubModel.TGIW, SubModel.GIW):
                with pytest.raises(ValueError, match="equal"):
                    fit_mle(d, FitConfig(model=model))

    def test_near_degenerate_data_fits_without_warnings(self):
        d = Dataset(values=np.array([1.0] * 9 + [1.0 + 1e-9]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fr = fit_mle(d, FitConfig(model=SubModel.TGIW))
            except ValueError:
                return
        assert math.isfinite(fr.neg_log_lik)


def expand_params_from(theta, beta, lam):
    return expand_params(ReducedParams(theta=theta, beta=beta, lam=lam))


# generating point of the synthetic samples: the bundled data's GIW fit
SYNTH_THETA, SYNTH_BETA = 1.1256, 0.4791


def synthetic(lam, n, seed, scale=1.0):
    p = TgiwParams(1.0 / scale, SYNTH_BETA, SYNTH_THETA, lam)
    return Dataset(values=sample(p, n, seed=seed))


class TestNesting:
    """A transmuted fit starts from its lam = 0 sub-model's optimum, so it never ends worse."""

    def test_sample_where_a_quantile_seed_start_ends_worse(self):
        # from the quantile seed alone Newton stops at -l = -211.2205 here,
        # above the base model's -211.2290, and compare reports a nesting violation
        d = synthetic(0.7, 50, 916624403, scale=1e-3)
        giw = fit_mle(d, FitConfig(model=SubModel.GIW))
        tgiw = fit_mle(d, FitConfig(model=SubModel.TGIW))
        assert giw.neg_log_lik == pytest.approx(-211.2290, abs=1e-4)
        assert tgiw.neg_log_lik <= giw.neg_log_lik
        compare(d, [SubModel.GIW, SubModel.TGIW])  # raises on a nesting violation

    @pytest.mark.parametrize("lam", [-0.7, 0.0, 0.7])
    def test_seeded_samples(self, lam):
        for seed in range(20):
            d = synthetic(lam, 50, 7000 + seed)
            for full, base in ((SubModel.TGIW, SubModel.GIW), (SubModel.TIR, SubModel.IR)):
                restricted = fit_mle(d, FitConfig(model=base))
                fr = fit_mle(d, FitConfig(model=full))
                assert fr.neg_log_lik <= restricted.neg_log_lik
                assert fr.converged or fr.boundary_lambda


class TestLargeSample:
    @pytest.mark.parametrize("lam, seed", [(0.0, 1970154576), (-0.7, 543052427)])
    def test_converges_at_n_1e5(self, lam, seed):
        """Samples on which a simplex fit stopped unconverged after thousands of iterations."""
        fr = fit_mle(synthetic(lam, 100_000, seed))
        assert fr.converged
        assert fr.iterations <= 40
        assert fr.std_errors is not None


class TestLeastSquares:
    def calibrated(self, p0, n=50):
        ranks = np.arange(1, n + 1) / (n + 1)
        return Dataset(values=np.asarray(quantile(p0, ranks)), label="calibrated")

    def test_lse_recovers_exact_generator(self):
        p0 = expand_params_from(theta=1.0, beta=1.5, lam=0.4)
        d = self.calibrated(p0)
        fr = fit_lse(d, FitConfig(model=SubModel.TGIW))
        assert fr.objective == pytest.approx(0.0, abs=1e-10)
        assert fr.reduced.theta == pytest.approx(1.0, abs=1e-3)
        assert fr.reduced.beta == pytest.approx(1.5, abs=1e-3)
        assert fr.reduced.lam == pytest.approx(0.4, abs=1e-3)

    def test_wlse_recovers_exact_generator(self):
        p0 = expand_params_from(theta=1.0, beta=1.5, lam=0.4)
        d = self.calibrated(p0)
        fr = fit_wlse(d, FitConfig(model=SubModel.TGIW))
        assert fr.objective == pytest.approx(0.0, abs=1e-7)
        assert fr.reduced.theta == pytest.approx(1.0, abs=1e-3)
        assert fr.reduced.beta == pytest.approx(1.5, abs=1e-3)
        assert fr.reduced.lam == pytest.approx(0.4, abs=1e-3)

    def test_weights_for_three_observations(self):
        w = wlse_weights(3)
        np.testing.assert_allclose(w, [80 / 3, 20.0, 80 / 3], rtol=1e-14)
        # symmetric in j <-> n-j+1
        np.testing.assert_allclose(w, w[::-1], rtol=1e-14)

    def test_lse_objective_beats_mle_point(self, weeks, tgiw_fit):
        fr = fit_lse(weeks, FitConfig(model=SubModel.TGIW))
        at_mle = _ls_objective(tgiw_fit.params, weeks.values, None)
        assert fr.objective <= at_mle + 1e-12

    def test_wlse_objective_beats_lse_point(self, weeks):
        lse = fit_lse(weeks, FitConfig(model=SubModel.TGIW))
        wlse = fit_wlse(weeks, FitConfig(model=SubModel.TGIW))
        w = wlse_weights(weeks.n)
        at_lse = _ls_objective(lse.params, weeks.values, w)
        assert wlse.objective <= at_lse + 1e-9

    def test_lse_matches_grid_refinement_oracle(self, weeks):
        """Coarse grid plus local refinement must agree with the fitter."""
        fr = fit_lse(weeks, FitConfig(model=SubModel.GIW))
        best = min(
            (
                _ls_objective(expand_params_from(t, b, 0.0), weeks.values, None),
                t,
                b,
            )
            for t in np.geomspace(0.1, 10, 60)
            for b in np.geomspace(0.1, 3, 60)
        )
        from scipy.optimize import minimize

        refined = minimize(
            lambda z: _ls_objective(
                expand_params_from(math.exp(z[0]), math.exp(z[1]), 0.0), weeks.values, None
            ),
            [math.log(best[1]), math.log(best[2])],
            method="Nelder-Mead",
            options=dict(xatol=1e-12, fatol=1e-14, maxiter=4000),
        )
        assert fr.objective == pytest.approx(refined.fun, abs=1e-4)

    def test_no_standard_errors(self, weeks):
        fr = fit_lse(weeks, FitConfig(model=SubModel.GIW))
        assert fr.std_errors is None
        assert fr.neg_log_lik == pytest.approx(-log_likelihood(fr.params, weeks), rel=1e-12)

    @pytest.mark.parametrize("method", ["lse", "wlse"])
    @pytest.mark.parametrize("model", list(SubModel), ids=lambda m: m.value)
    def test_full_mode_maps_the_reduced_fit(self, weeks, model, method):
        fitter = fit_lse if method == "lse" else fit_wlse
        reduced = fitter(weeks, FitConfig(model=model))
        full = fitter(weeks, FitConfig(model=model, mode="full"))
        assert full.free_names == model.free
        assert full.objective == pytest.approx(reduced.objective, rel=1e-14)
        np.testing.assert_allclose(
            reduce_params(full.params).as_tuple(), reduced.reduced.as_tuple(), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("method", ["lse", "wlse"])
    def test_exact_gradient_matches_differences(self, weeks, method):
        names, fixed = _free_names(SubModel.TGIW)
        weights = wlse_weights(weeks.n) if method == "wlse" else None

        def objective(z):
            return _ls_objective(expand_params(_reduced_from_z(z, names, fixed)), weeks.values, weights)

        for z in ([0.5, -0.3, 0.4], [-0.2, 0.1, -1.0], [1.0, -0.8, 0.0]):
            z = np.array(z)
            h = np.finfo(float).eps ** (1 / 3) * np.maximum(1.0, np.abs(z))
            differences = [(objective(z + e) - objective(z - e)) / (2.0 * hi) for e, hi in zip(np.diag(h), h)]
            exact = _ls_gradient(_reduced_from_z(z, names, fixed), names, weeks.values, weights)
            np.testing.assert_allclose(exact, differences, rtol=1e-6)

    def test_tie_stability(self):
        # equal observations: objective invariant under input order
        vals = np.array([0.5, 0.111, 0.111, 2.0, 1.0])
        a = fit_lse(Dataset(values=vals), FitConfig(model=SubModel.IE))
        b = fit_lse(Dataset(values=vals[::-1].copy()), FitConfig(model=SubModel.IE))
        assert a.objective == pytest.approx(b.objective, rel=1e-12)


class TestObservedInformation:
    def test_symmetry_exact(self, weeks, tgiw_fit):
        info = observed_information(tgiw_fit.params, weeks, mode="reduced")
        np.testing.assert_array_equal(info.matrix, info.matrix.T)

    def test_reduced_positive_definite_at_optimum(self, weeks, tgiw_fit):
        info = observed_information(tgiw_fit.params, weeks, mode="reduced")
        eigvals = np.linalg.eigvalsh(info.matrix)
        assert np.all(eigvals > 0)
        assert not info.ill_conditioned

    def test_full_mode_ridge_is_ill_conditioned(self, weeks, tgiw_fit):
        # the four-parameter matrix is analytically singular along the ridge;
        # the warning must fire wherever the optimum happens to sit on it
        info = observed_information(tgiw_fit.params, weeks, mode="full")
        assert info.ill_conditioned
        at_published = observed_information(PUBLISHED_TGIW, weeks, mode="full")
        assert at_published.ill_conditioned
        assert at_published.condition_number > 1e6

    def test_singular_flag_threshold(self):
        from tgiw.estimation import ObservedInformation

        near_singular = ObservedInformation(
            matrix=np.diag([1.0, 1e-13]),
            names=("a", "b"),
            condition_number=1e13,
            ill_conditioned=True,
            singular=True,
        )
        with pytest.raises(ValueError, match="singular"):
            near_singular.covariance()

    def test_exact_matrices_match_score_differences(self, weeks):
        """-d(score)/dp by central differences: full mode, and reduced at alpha = 1."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = TgiwParams(
                alpha=math.exp(rng.uniform(-1.0, 1.0)),
                beta=math.exp(rng.uniform(-1.0, 0.7)),
                gamma=math.exp(rng.uniform(-1.0, 1.0)),
                lam=rng.uniform(-0.9, 0.9),
            )
            v = np.array(p.as_tuple())
            fd = np.empty((4, 4))
            for j in range(4):
                h = 1e-6 * max(1.0, abs(v[j]))
                e = np.zeros(4)
                e[j] = h
                fd[:, j] = -(score(TgiwParams(*(v + e)), weeks) - score(TgiwParams(*(v - e)), weeks)) / (2 * h)
            scale = np.abs(fd).max()
            full = observed_information(p, weeks, mode="full").matrix
            np.testing.assert_allclose(full, fd, rtol=1e-5, atol=1e-6 * scale)
            # at alpha = 1, gamma is theta: reduced (theta, beta, lam) is a slice
            rp = expand_params(reduce_params(p))
            reduced = observed_information(rp, weeks, mode="reduced").matrix
            at_one = observed_information(rp, weeks, mode="full", names=("gamma", "beta", "lam")).matrix
            np.testing.assert_allclose(reduced, at_one, rtol=1e-12)

    def test_lambda_boundary_guard(self, weeks):
        p = expand_params_from(theta=0.7, beta=0.5, lam=0.9999999)
        with pytest.raises(ValueError, match="boundary"):
            observed_information(p, weeks, mode="reduced")


class TestWaldIntervals:
    def make_result(self, estimate, se):
        return FitResult(
            model=SubModel.GIW,
            mode="reduced",
            method="mle",
            params=TgiwParams(1, 1, 1, 0),
            reduced=ReducedParams(1, 1, 0),
            neg_log_lik=0.0,
            objective=0.0,
            converged=True,
            iterations=1,
            gradient_norm=0.0,
            free_names=("theta",),
            estimates={"theta": estimate},
            n_obs=10,
            std_errors={"theta": se},
        )

    def test_standard_normal_quantile(self):
        fr = self.make_result(0.0, 1.0)
        lo, hi = wald_intervals(fr, delta=0.05)["theta"]
        assert lo == pytest.approx(-1.959964, abs=1e-6)
        assert hi == pytest.approx(1.959964, abs=1e-6)

    def test_narrower_interval_nested_in_wider(self):
        fr = self.make_result(2.0, 0.5)
        lo95, hi95 = wald_intervals(fr, delta=0.05)["theta"]
        lo90, hi90 = wald_intervals(fr, delta=0.10)["theta"]
        assert lo95 < lo90 < hi90 < hi95

    def test_fitted_intervals_finite_width(self, weeks, tgiw_fit):
        cis = wald_intervals(tgiw_fit, delta=0.05)
        for name, (lo, hi) in cis.items():
            assert math.isfinite(lo) and math.isfinite(hi) and lo < hi

    def test_unavailable_without_information(self, weeks):
        fr = fit_lse(weeks, FitConfig(model=SubModel.GIW))
        with pytest.raises(ValueError, match="no standard errors"):
            wald_intervals(fr)
