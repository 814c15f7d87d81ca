"""The two benchmark workloads: seeded inputs, jobs, and output checks.

A job is one unit of user work.  Jobs come in rounds; a round covers the
workload's whole input mix, so every run sees the same mix whatever its
length.  ``job`` does the timed work and returns its outputs; ``check``
compares those outputs with the oracles afterwards, outside the timed region,
and returns the failed checks.  ``call(name, fn, *args)`` is how a job calls
the CLI, so the traced run can record a span around each command.

Generating parameters: the bundled data's published GIW point,
theta = 1.1256 and beta = 0.4791, with the transmutation weight lam varied.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

THETA, BETA = 1.1256, 0.4791
LAMS = (-0.7, 0.0, 0.7)

# Checks whose failures are known defects of the program: they are counted in
# fail_ratio like any other failure, but do not make a run incorrect.
KNOWN_DEFECTS = {
    # a fit at an interior point reports converged=False (CLI exit code 3);
    # bundled data x 1e-6 hits it on every round, synthetic data rarely
    "converges",
    # single-start MLE reports convergence at a point worse than the generator
    "mle_beats_truth",
    # survival/hazard lose accuracy, then overflow, in the far right tail
    "tail_exact",
}


@dataclass(frozen=True)
class Failure:
    check: str
    layer: str
    detail: str


@dataclass
class Checks:
    failures: list[Failure] = field(default_factory=list)

    def expect(self, ok, check: str, layer: str, detail: str = "") -> None:
        if not ok:
            self.failures.append(Failure(check, layer, detail))

    def close(self, got, want, tol: float, check: str, layer: str) -> None:
        err = oracles.rel_err(got, want)
        self.expect(err <= tol, check, layer, f"relative error {err:.3g} > {tol:g}")


def _seeds(seed: int, salt: int):
    rng = np.random.default_rng([seed, salt])
    while True:
        yield int(rng.integers(2**31 - 1))


class Workload:
    name = ""
    tail_percentile = 50
    min_jobs = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def rounds(self):
        """Endless sequence of rounds, each a list of job specs."""
        raise NotImplementedError

    def jobs(self, count: int) -> list:
        out: list = []
        for rnd in self.rounds():
            out.extend(rnd)
            if len(out) >= count:
                return out[:count]

    def warm_up(self, call) -> None:
        raise NotImplementedError

    def job(self, spec, call):
        raise NotImplementedError

    def check(self, spec, out) -> list[Failure]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# casestudy: one analyst's session on n = 50 data, through the CLI in-process


def _cli(call, argv: list[str]) -> tuple[int, str]:
    import tgiw.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = call(f"cli.main.{argv[0]}", tgiw.cli.main, argv)
    return rc, buf.getvalue()


def _exit_check(rc: int) -> str:
    return "converges" if rc == 3 else "exit_code"


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class CaseStudy(Workload):
    """Bundled data at scale 1 and 1e-6, then synthetic n = 50 data for each lam.

    Synthetic datasets rotate through the scales 1e-3, 1 and 1e3 round by
    round.  Bundled x 1e-6 probes scale equivariance on every round.
    """

    name = "casestudy"
    tail_percentile = 85
    min_jobs = 67  # p85 keeps >= 10 jobs above it
    n = 50
    synth_scales = (1e-3, 1.0, 1e3)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from tgiw.data import FAILURE_TIMES_WEEKS

        self.bundled = np.array(FAILURE_TIMES_WEEKS)
        self.bundled_files = {}
        for scale in (1.0, 1e-6):
            path = workdir / f"bundled-{scale:g}.csv"
            path.write_text("".join(f"{float(v * scale)!r}\n" for v in self.bundled), encoding="utf-8")
            self.bundled_files[scale] = path
        self.reference = None  # mle report on the unscaled bundled data

    def rounds(self):
        yield [("reproduce-paper",)]
        seeds = _seeds(self.seed, 1)
        r = 0
        while True:
            rnd = [("bundled", 1.0, None, 0), ("bundled", 1e-6, None, 0)]
            for k, lam in enumerate(LAMS):
                scale = self.synth_scales[(k + r) % len(self.synth_scales)]
                rnd.append(("synthetic", scale, lam, next(seeds)))
            yield rnd
            r += 1

    def warm_up(self, call) -> None:
        data = str(self.bundled_files[1.0])
        _cli(call, ["fit", "--data", data, "--json"])
        _cli(call, ["fit", "--data", data, "--method", "lse", "--json"])
        _cli(call, ["tabulate", "--alpha", "1", "--beta", "1", "--gamma", "1",
                    "--x-min", "0.1", "--x-max", "10", "--points", "10", "--data", data,
                    "--out", str(self.workdir / "warm.csv")])

    def job(self, spec, call):
        if spec[0] == "reproduce-paper":
            return {"repro": _cli(call, ["reproduce-paper", "--json"])}
        kind, scale, lam, seed = spec
        out = {}
        if kind == "bundled":
            data = str(self.bundled_files[scale])
        else:
            data = str(self.workdir / "sample.csv")
            out["sample"] = _cli(call, [
                "sample", "--alpha", repr(1.0 / scale), "--beta", repr(BETA),
                "--gamma", repr(THETA), "--lambda", repr(lam), "-n", str(self.n),
                "--seed", str(seed), "--out", data,
            ])
        for method in ("mle", "lse", "wlse"):
            out[method] = _cli(call, ["fit", "--data", data, "--method", method, "--json"])
        out["multistart"] = _cli(call, ["fit", "--data", data, "--multistart", "12",
                                        "--seed", str(seed), "--json"])
        out["compare"] = _cli(call, ["compare", "--data", data, "--models", "giw,tgiw",
                                     "--paper-k", "--json"])
        report = _json(out["mle"][1])
        if report is not None:
            p = report["fit"]["params"]
            out["tabulate"] = _cli(call, [
                "tabulate", "--alpha", repr(p["alpha"]), "--beta", repr(p["beta"]),
                "--gamma", repr(p["gamma"]), "--lambda", repr(p["lam"]),
                "--x-min", repr(1e-3 * scale), "--x-max", repr(1e4 * scale),
                "--points", "200", "--data", data, "--out", str(self.workdir / "curves.csv"),
            ])
        out["data"] = data
        return out

    def check(self, spec, out) -> list[Failure]:
        c = Checks()
        if spec[0] == "reproduce-paper":
            rc, text = out["repro"]
            report = _json(text)
            c.expect(rc == 0 and report is not None and report["passed"], "reproduce_paper",
                     "cli.main.reproduce-paper", f"exit code {rc}")
            return c.failures
        kind, scale, lam, seed = spec
        x = np.loadtxt(out["data"], comments="#", ndmin=1)
        truth = (THETA * scale**BETA, BETA, lam)
        if kind == "synthetic":
            rc, _ = out["sample"]
            c.expect(rc == 0, "exit_code", "cli.main.sample", f"exit code {rc}")
            c.close(x, oracles.sample(*truth, self.n, seed), 1e-12, "sample_values", "distribution.sample")
        x = np.sort(x)

        fits = {}
        for method in ("mle", "lse", "wlse", "multistart"):
            rc, text = out[method]
            report = _json(text)
            fit = report["fit"] if report else None
            boundary_ok = rc == 3 and fit is not None and fit["boundary_lambda"] and method == "multistart"
            c.expect(rc == 0 or boundary_ok, _exit_check(rc), "cli.main.fit",
                     f"{method}: exit code {rc}")
            if fit is None:
                continue
            fits[method] = fit
            r = fit["reduced"]
            nll = oracles.neg_log_lik(r["theta"], r["beta"], r["lam"], x)
            layer = "estimation.fit_" + ("mle" if method == "multistart" else method)
            c.close(fit["neg_log_lik"], nll, 1e-9, "fit_nll_consistent", layer)
            if method in ("lse", "wlse"):
                obj = self._ls_objective(x, r, method)
                c.close(fit["objective"], obj, 1e-8, "ls_objective_consistent", layer)
        mle = fits.get("mle")
        if mle is not None:
            if kind == "synthetic":
                floor = oracles.neg_log_lik(*truth, x)
                c.expect(mle["neg_log_lik"] <= floor + 1e-6 * abs(floor), "mle_beats_truth",
                         "estimation.fit_mle", f"{mle['neg_log_lik']:.6f} > {floor:.6f}")
            elif scale == 1.0:
                self.reference = mle
            elif self.reference is not None:
                self._check_equivariance(c, mle, self.reference, scale)
            if "multistart" in fits:
                ms = fits["multistart"]["neg_log_lik"]
                c.expect(ms <= mle["neg_log_lik"] + 1e-9 * abs(mle["neg_log_lik"]),
                         "multistart_no_worse", "estimation.fit_mle",
                         f"{ms:.6f} > {mle['neg_log_lik']:.6f}")
            self._check_tabulate(c, out.get("tabulate"), mle, x)
        self._check_compare(c, out["compare"], x)
        return c.failures

    def _ls_objective(self, x, r, method) -> float:
        n = x.size
        resid = oracles.cdf(r["theta"], r["beta"], r["lam"], x) - np.arange(1, n + 1) / (n + 1.0)
        if method == "lse":
            return float(np.sum(resid**2))
        j = np.arange(1, n + 1)
        return float(np.sum((n + 1.0) ** 2 * (n + 2.0) / (j * (n - j + 1.0)) * resid**2))

    def _check_equivariance(self, c: Checks, fit, ref, scale: float) -> None:
        got, want = fit["reduced"], ref["reduced"]
        ok = (
            abs(got["beta"] - want["beta"]) <= 1e-4 * want["beta"]
            and abs(got["lam"] - want["lam"]) <= 1e-4
            and abs(fit["neg_log_lik"] - (ref["neg_log_lik"] + self.n * math.log(scale))) <= 1e-4 * self.n
        )
        c.expect(ok, "scale_equivariance", "estimation.fit_mle",
                 f"beta {got['beta']:.6g} vs {want['beta']:.6g}, lam {got['lam']:.6g} vs {want['lam']:.6g}")

    def _check_tabulate(self, c: Checks, result, mle, x) -> None:
        if result is None:
            return
        rc, _ = result
        c.expect(rc == 0, "exit_code", "cli.main.tabulate", f"exit code {rc}")
        if rc != 0:
            return
        table = np.genfromtxt(self.workdir / "curves.csv", delimiter=",", names=True)
        r = mle["reduced"]
        p = (r["theta"], r["beta"], r["lam"])
        grid, overlay = table[: -x.size], table[-x.size:]
        c.close(overlay["x"], x, 0.0, "tabulate_overlay", "cli.main.tabulate")
        n = x.size
        j = np.arange(n)
        c.expect(np.array_equal(overlay["ecdf_lower"], j / n) and np.array_equal(overlay["ecdf_upper"], (j + 1) / n),
                 "tabulate_overlay", "cli.main.tabulate", "empirical cdf steps")
        for rows in (grid, overlay):
            xs = rows["x"]
            c.expect(np.max(np.abs(rows["cdf"] - oracles.cdf(*p, xs))) <= 1e-12, "cdf_values",
                     "distribution.cdf", "cdf off by more than 1e-12")
            c.close(rows["pdf"], oracles.pdf(*p, xs), 1e-9, "pdf_values", "distribution.pdf")
            c.close(rows["survival"], oracles.survival(*p, xs), 1e-8, "tail_exact", "distribution.survival")
            c.close(rows["hazard"], oracles.hazard(*p, xs), 1e-8, "tail_exact", "cli.main.tabulate")

    def _check_compare(self, c: Checks, result, x) -> None:
        rc, text = result
        report = _json(text)
        c.expect(rc == 0, _exit_check(rc), "cli.main.compare", f"exit code {rc}")
        if report is None:
            return
        comp = report["comparison"]
        rows = {row["model"]: row for row in comp["rows"]}
        n = x.size
        for model, k in (("giw", 3), ("tgiw", 4)):
            row = rows.get(model)
            if row is None or row["failed"]:
                c.expect(False, "compare_rows", "model_selection.compare", f"{model} row missing or failed")
                continue
            fit = row["fit"]
            r = fit["reduced"]
            neg2 = 2.0 * oracles.neg_log_lik(r["theta"], r["beta"], r["lam"], x)
            aic = neg2 + 2.0 * k
            aicc = aic + 2.0 * k * (k + 1.0) / (n - k - 1.0)
            c.close([row["k"], row["neg2_log_lik"], row["aic"], row["aicc"]], [k, neg2, aic, aicc], 1e-9,
                    "information_criteria", "model_selection.compare")
            ks = oracles.ks_statistic(r["theta"], r["beta"], r["lam"], x)
            c.expect(abs(row["ks"] - ks) <= 1e-10, "ks_values", "model_selection.ks_statistic",
                     f"{row['ks']:.12g} vs {ks:.12g}")
        if "giw" in rows and "tgiw" in rows and not (rows["giw"]["failed"] or rows["tgiw"]["failed"]):
            omega = rows["giw"]["neg2_log_lik"] - rows["tgiw"]["neg2_log_lik"]
            tests = comp["lr_tests"]
            c.expect(len(tests) == 1 and abs(tests[0]["omega"] - omega) <= 1e-9 * max(1.0, abs(omega))
                     and abs(tests[0]["critical"] - 3.841458820694124) <= 1e-9,
                     "lr_values", "model_selection.lr_test", f"omega {tests and tests[0]['omega']} vs {omega}")


# ---------------------------------------------------------------------------
# library, vector part: calls at n = 1e5


class LargeN(Workload):
    """One step per lam: sample, Dataset, fit, checks of the fit, and curves.

    lam = -0.7 and 0 draw fresh samples from the run's seed.  lam = 0.7 uses
    the sample drawn with seed 3, where single-start MLE reports convergence
    at -l = 252894.6 against 252783.6 at the generator.  Fresh lam = 0.7
    samples hit that defect about three times in four, which would make
    fail_ratio a coin toss over the run's dozen or so lam = 0.7 jobs.
    """

    def rounds(self):
        seeds = _seeds(self.seed, 2)
        while True:
            yield [(lam, next(seeds) if lam != 0.7 else 3, 100_000, 1_000_000) for lam in LAMS]

    def warm_up(self, call) -> None:
        # the whole job on small arrays, for lazy imports and first-call costs
        self.job((0.0, 0, 2000, 1000), call)

    def job(self, spec, call):
        from tgiw import data, distribution as dist, estimation as est, model_selection as ms
        from tgiw.params import TgiwParams

        lam, seed, n, points = spec
        x = dist.sample(TgiwParams(alpha=1.0, beta=BETA, gamma=THETA, lam=lam), n, seed=seed)
        d = data.Dataset(x)
        fit = est.fit_mle(d)
        p = fit.params
        out = {
            "x": x,
            "d": d,
            "fit": fit,
            "log_likelihood": est.log_likelihood(p, d),
            "score": est.score(p, d),
            "ks": ms.ks_statistic(p, d),
            "log_pdf": dist.log_pdf(p, d.values),
            "hazard": dist.hazard(p, d.values),
            "quantile": dist.quantile(p, (np.arange(1, n + 1) - 0.5) / n),
        }
        grid = np.geomspace(dist.quantile(p, 1e-4), dist.quantile(p, 1.0 - 1e-4), points)
        out["grid"] = grid
        for fn in ("cdf", "pdf", "survival", "hazard"):
            out["curve_" + fn] = getattr(dist, fn)(p, grid)
        return out

    def check(self, spec, out) -> list[Failure]:
        lam, seed, n, _ = spec
        c = Checks()
        truth = (THETA, BETA, lam)
        x, d, fit = out["x"], out["d"], out["fit"]
        c.close(x, oracles.sample(*truth, n, seed), 1e-12, "sample_values", "distribution.sample")
        c.expect(d.n == n and np.array_equal(d.values, np.sort(x)), "dataset_values", "data.Dataset")
        xs = d.values
        r = fit.reduced
        p = (r.theta, r.beta, r.lam)
        nll = oracles.neg_log_lik(*p, xs)
        c.close(fit.neg_log_lik, nll, 1e-10, "fit_nll_consistent", "estimation.fit_mle")
        c.expect(fit.converged or fit.boundary_lambda, "converges", "estimation.fit_mle", fit.message)
        floor = oracles.neg_log_lik(*truth, xs)
        c.expect(fit.neg_log_lik <= floor + 1e-6 * abs(floor), "mle_beats_truth", "estimation.fit_mle",
                 f"converged={fit.converged}: -l {fit.neg_log_lik:.1f} > {floor:.1f} at the generator")
        if not fit.boundary_lambda:
            info = fit.information
            ok = info is not None and np.allclose(info.matrix, info.matrix.T) and bool(
                np.all(np.linalg.eigvalsh(info.matrix) > 0)) and fit.std_errors is not None
            c.expect(ok, "information_positive", "estimation.observed_information")
        c.close(out["log_likelihood"], -nll, 1e-10, "log_likelihood_values", "estimation.log_likelihood")
        g = out["score"]
        want = oracles.score(*p, xs)
        got = np.array([g[2], g[1], g[3]])  # (theta, beta, lam) at alpha = 1
        tol = 1e-6 * (1.0 + np.abs(want)) * math.sqrt(n)
        c.expect(np.all(np.abs(got - want) <= tol), "score_values", "estimation.score", f"{got} vs {want}")
        ks = oracles.ks_statistic(*p, xs)
        c.expect(abs(out["ks"] - ks) <= 1e-10, "ks_values", "model_selection.ks_statistic")
        ref = oracles.log_pdf(*p, xs)
        c.expect(np.max(np.abs(out["log_pdf"] - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-9,
                 "log_pdf_values", "distribution.log_pdf")
        c.close(out["hazard"], oracles.hazard(*p, xs), 1e-8, "tail_exact", "distribution.hazard")
        c.close(out["quantile"], oracles.quantile(*p, (np.arange(1, n + 1) - 0.5) / n), 1e-9,
                "quantile_values", "distribution.quantile")
        grid = out["grid"][::10]
        c.expect(np.max(np.abs(out["curve_cdf"][::10] - oracles.cdf(*p, grid))) <= 1e-12, "cdf_values",
                 "distribution.cdf")
        c.close(out["curve_pdf"][::10], oracles.pdf(*p, grid), 1e-9, "pdf_values", "distribution.pdf")
        c.close(out["curve_survival"][::10], oracles.survival(*p, grid), 1e-8, "tail_exact",
                "distribution.survival")
        c.close(out["curve_hazard"][::10], oracles.hazard(*p, grid), 1e-8, "tail_exact", "distribution.hazard")
        return c.failures


# ---------------------------------------------------------------------------
# library, scalar part: scalar callbacks under scipy quadrature and root finding


class ScalarQuad(Workload):
    """One step per (beta, lam) point; theta is drawn from the seed.

    Single integrals run in log-x coordinates over (Q(1e-8), Q(1 - 1e-8)):
    in x itself quad returns 0.99144 for beta = 1.5.  The double integrals
    run in probability coordinates q = F(x), where the integrand is a
    polynomial; in log-x the 2-D adaptive rule needs about 9,000 calls
    (about 1 s) per integral.
    """

    betas = (0.5, 1.5, 3.0)
    orders = ((5, 1), (5, 3), (5, 5), (15, 8))
    probs = (1e-3, 0.5, 0.999)
    tail_x = tuple(10.0**k for k in range(2, 10))

    def rounds(self):
        rng = np.random.default_rng([self.seed, 3])
        while True:
            yield [(beta, lam, float(math.exp(rng.uniform(-1.0, 1.0))))
                   for beta in self.betas for lam in LAMS]

    def warm_up(self, call) -> None:
        self.job((1.5, 0.0, 1.0), call)

    def job(self, spec, call):
        from scipy import integrate, optimize
        from tgiw import distribution as dist, order_stats as ost
        from tgiw.params import TgiwParams

        beta, lam, theta = spec
        p = TgiwParams(alpha=1.0, beta=beta, gamma=theta, lam=lam)
        lo, hi = math.log(dist.quantile(p, 1e-8)), math.log(dist.quantile(p, 1.0 - 1e-8))
        out = {"os": [], "roots": [], "tail": []}
        for n, i in self.orders:
            order = ost.OrderSpec(n=n, i=i)
            out["os"].append(integrate.quad(
                lambda u: ost.os_density(p, order, math.exp(u)) * math.exp(u), lo, hi,
                epsabs=1e-10, epsrel=1e-10, limit=200)[0])

        def in_q(density):
            def f(q2, q1):
                x1, x2 = dist.quantile(p, q1), dist.quantile(p, q2)
                return density(x1, x2) / (dist.pdf(p, x1) * dist.pdf(p, x2))
            return integrate.dblquad(f, 0.0, 1.0, lambda q1: q1, lambda q1: 1.0, epsabs=1e-8, epsrel=1e-8)[0]

        joint = ost.OrderSpec.joint(5, 2, 4)
        out["joint"] = in_q(lambda a, b: ost.joint_os_density(p, joint, a, b))
        out["min_max"] = in_q(lambda a, b: ost.min_max_joint_density(p, 4, a, b))
        if beta > 1.0:
            def x_pdf(u):  # x * f(x) dx in log-x; f underflows before x * x overflows
                x = math.exp(u)
                return dist.pdf(p, x) * x * x

            out["mean"] = integrate.quad(x_pdf, lo, 690.0, epsabs=0.0, epsrel=1e-10, limit=200)[0]
            out["raw_moment"] = dist.raw_moment(p, 1)
        for q in self.probs:
            root = optimize.brentq(lambda u: dist.cdf(p, math.exp(u)) - q, lo, hi, xtol=1e-14, rtol=1e-14)
            out["roots"].append((math.exp(root), dist.quantile(p, q)))
        for x in self.tail_x:
            s = dist.survival(p, x)
            try:
                h = dist.hazard(p, x)
            except OverflowError as exc:
                h = exc
            out["tail"].append((x, s, h))
        return out

    def check(self, spec, out) -> list[Failure]:
        beta, lam, theta = spec
        c = Checks()
        for (n, i), value in zip(self.orders, out["os"]):
            c.expect(abs(value - 1.0) <= 1e-4, "os_normalisation", "order_stats.os_density",
                     f"(n={n}, i={i}) integrates to {value:.6g}")
        c.expect(abs(out["joint"] - 1.0) <= 1e-4, "joint_normalisation", "order_stats.joint_os_density",
                 f"integrates to {out['joint']:.6g}")
        c.expect(abs(out["min_max"] - 1.0) <= 1e-4, "joint_normalisation", "order_stats.min_max_joint_density",
                 f"integrates to {out['min_max']:.6g}")
        if "mean" in out:
            c.close(out["mean"], out["raw_moment"], 1e-6, "moment_values", "distribution.pdf")
        for root, q in out["roots"]:
            c.close(root, q, 1e-9, "quantile_values", "distribution.quantile")
        for x, s, h in out["tail"]:
            want_s, want_h = oracles.tail_mp(theta, beta, lam, x)
            c.close(s, want_s, 1e-8, "tail_exact", "distribution.survival")
            if isinstance(h, OverflowError):
                c.expect(False, "tail_exact", "distribution.hazard", f"x={x:g}: {h}")
            else:
                c.close(h, want_h, 1e-8, "tail_exact", "distribution.hazard")
        return c.failures


# ---------------------------------------------------------------------------
# library: both parts in one job


class Library(Workload):
    """A job is the vector step at one lam, then the scalar step at the same lam.

    The scalar step's beta moves on each round, so three rounds cover every
    (beta, lam) point.  The two parts share a job, not a workload each: every
    scalar step costs about the same, so on its own its median job flips
    between the machine's fast and slow phases, and the time for all runs
    leaves room for two long workloads, not three.
    """

    name = "library"
    tail_percentile = 75
    min_jobs = 41  # p75 keeps >= 10 jobs above it

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.vector = LargeN(seed, workdir)
        self.scalar = ScalarQuad(seed, workdir)

    def rounds(self):
        vector, scalar = self.vector.rounds(), self.scalar.rounds()
        while True:
            points = next(scalar)  # beta-major: one row of lams per beta
            for b in range(len(ScalarQuad.betas)):
                yield list(zip(next(vector), points[b * len(LAMS):(b + 1) * len(LAMS)]))

    def warm_up(self, call) -> None:
        self.vector.warm_up(call)
        self.scalar.warm_up(call)

    def job(self, spec, call):
        return self.vector.job(spec[0], call), self.scalar.job(spec[1], call)

    def check(self, spec, out) -> list[Failure]:
        return self.vector.check(spec[0], out[0]) + self.scalar.check(spec[1], out[1])


WORKLOADS = {w.name: w for w in (CaseStudy, Library)}
