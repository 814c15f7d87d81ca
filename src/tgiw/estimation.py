"""Parameter estimation: maximum likelihood, (weighted) least squares, inference.

One private kernel returns the log-likelihood, its gradient and its exact
Hessian in the identifiable coordinates (theta, beta, lam) in one vector pass
over log x.  Maximum likelihood is one trust-region Newton solve
(``trust-exact``) in z = (log theta, log beta, atanh lam) on the data divided
by their median, so neither the iterates nor the convergence test depend on
the unit of measurement.  A model with a free transmutation weight starts
from the optimum of its lam = 0 sub-model; every accepted step raises the
likelihood, so the fit never ends below the base model.  Extra multistart
starts are uniform draws around a method-of-quantiles seed.  The observed
information is the negative of the same Hessian.  Least squares (LSE/WLSE)
runs a Nelder-Mead simplex in the same z from the quantile seed, restarted once.

The default fitting mode is ``reduced``: the likelihood and the least-squares
criteria depend on ``alpha`` and ``gamma`` only through
``theta = gamma * alpha**(-beta)``, so the four-parameter (``full``) mode sits
on a flat ridge and is offered only for comparison.  Every method solves the
reduced problem; full mode maps the optimum back through theta (the model's
fixed alpha or gamma, or alpha = 1 when both are free), and its information
follows by the chain rule, with an ill-conditioning warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtri

from . import distribution as dist
from .data import Dataset
from .params import (
    ReducedParams,
    SubModel,
    TgiwParams,
    expand_params,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "ObservedInformation",
    "log_likelihood",
    "score",
    "fit_mle",
    "fit_lse",
    "fit_wlse",
    "observed_information",
    "wald_intervals",
    "wlse_weights",
]

# |lam| beyond which an optimum is treated as pressing the [-1, 1] boundary
_LAM_BOUNDARY = 0.999
# condition-number thresholds for the observed information
_ILL_CONDITIONED = 1e6
_SINGULAR = 1e12
# transform coordinates are clamped to [-_Z_MAX, _Z_MAX] so exp(z) stays finite
_Z_MAX = 700.0
# Nelder-Mead xatol and fatol of the least-squares fits
_SIMPLEX_TOL = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Fitting request: model, parameterization mode, method and optimizer knobs.

    ``max_iter`` bounds the iterations of each optimizer run: the Newton
    iterations of an MLE solve, the simplex iterations of LSE/WLSE.
    """

    model: SubModel = SubModel.TGIW
    mode: str = "reduced"  # "reduced" | "full"
    method: str = "mle"  # "mle" | "lse" | "wlse"
    max_iter: int = 5000
    multistart: int = 1
    seed: int = 0
    delta: float = 0.05  # Wald interval miscoverage (level 1 - delta)

    def __post_init__(self) -> None:
        if self.mode not in ("reduced", "full"):
            raise ValueError(f"mode must be 'reduced' or 'full', got {self.mode!r}")
        if self.method not in ("mle", "lse", "wlse"):
            raise ValueError(f"method must be one of mle/lse/wlse, got {self.method!r}")
        if self.max_iter < 1 or self.multistart < 1:
            raise ValueError("max_iter and multistart must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class ObservedInformation:
    """Negative Hessian of the log-likelihood over a set of free parameters.

    ``ill_conditioned`` fires when the condition number exceeds 1e6 (the
    alpha-gamma ridge makes the four-parameter matrix singular wherever the
    theta-score vanishes).  ``singular`` (condition number above 1e12 or
    non-finite entries) refuses inversion outright.
    """

    matrix: np.ndarray
    names: tuple[str, ...]
    condition_number: float
    ill_conditioned: bool
    singular: bool

    def covariance(self) -> np.ndarray:
        if self.singular:
            raise ValueError("observed information is numerically singular")
        return np.linalg.inv(self.matrix)

    def std_errors(self) -> dict[str, float]:
        diag = np.diag(self.covariance())
        if np.any(diag < 0):
            raise ValueError("observed information is not positive definite")
        return {n: float(math.sqrt(v)) for n, v in zip(self.names, diag)}


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: estimates, diagnostics and (for MLE) inference."""

    model: SubModel
    mode: str
    method: str
    params: TgiwParams
    reduced: ReducedParams
    neg_log_lik: float
    objective: float
    converged: bool
    iterations: int
    gradient_norm: float
    free_names: tuple[str, ...]
    estimates: dict[str, float]
    n_obs: int
    boundary_lambda: bool = False
    std_errors: dict[str, float] | None = None
    conf_intervals: dict[str, tuple[float, float]] | None = None
    conf_level: float | None = None
    information: ObservedInformation | None = None
    message: str = ""


# ---------------------------------------------------------------------------
# likelihood kernel, score and the full-parameter chain rule


def _reduced_loglik(logx: np.ndarray, log_theta: float, beta: float, lam: float, derivatives: bool = True):
    """Log-likelihood in (theta, beta, lam) and, optionally, its gradient and Hessian.

    theta enters by its logarithm, so l stays defined wherever theta itself
    would overflow.  One vector pass over log t = log theta - beta log x gives
    t, u, w, the density factor B and log B from the distribution kernel.  Then

        l = n log(beta*theta) - (beta + 1) sum(log x) + sum(g),  g = -t + log B,

    and each g depends on (theta, beta) only through log t, whose derivatives
    are 1/theta and -log x.  Returns ``(l, gradient, Hessian)``; the derivatives
    divide by B and are None when not requested, l is not finite or a B is 0.
    """
    n = logx.size
    log_theta, beta, lam = np.float64(log_theta), np.float64(beta), np.float64(lam)
    with np.errstate(all="ignore"):
        log_t = log_theta - beta * logx
        t = np.exp(log_t)
        u, w = dist._kernel(t)
        B, log_B = dist._log_b(lam, t, log_t, u, w)
        sum_logx = logx.sum()
        ll = float(n * (math.log(beta) + log_theta) - (beta + 1.0) * sum_logx - t.sum() + log_B.sum())
        del log_t, log_B  # not live in the derivative pass: two more arrays there cost 0.7 ms at n = 1e5
        if not derivatives or not math.isfinite(ll) or not B.all():
            return ll, None, None
        theta = np.exp(log_theta)
        a = u / B
        r = 2.0 * lam * a  # d log B / dt
        q = (w - u) / B  # d log B / dlam
        g_t = r - 1.0
        g_tt = -r * (1.0 + r)
        tg = t * g_t  # dg / dlog t
        h = tg + t * t * g_tt  # d2g / dlog t^2
        c = t * (2.0 * a - r * q)  # d2g / dlog t dlam
        sum_tg = tg.sum()
        grad = np.array([(n + sum_tg) / theta, n / beta - sum_logx - logx @ tg, q.sum()])
        h_tt = (h.sum() - sum_tg - n) / theta / theta
        h_tb = -(logx @ h) / theta
        h_tl = c.sum() / theta
        h_bb = (logx * logx) @ h - n / (beta * beta)
        h_bl = -(logx @ c)
        h_ll = -(q @ q)
    hess = np.array([[h_tt, h_tb, h_tl], [h_tb, h_bb, h_bl], [h_tl, h_bl, h_ll]])
    return ll, grad, hess


def _full_chain(p: TgiwParams, grad: np.ndarray, hess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian in (alpha, beta, gamma, lam) from those in (theta, beta, lam).

    The likelihood depends on (alpha, gamma) only through
    theta = gamma * alpha**(-beta), so with J the Jacobian of
    (theta, beta, lam) and T the Hessian of theta, both over
    (alpha, beta, gamma, lam): gradient = J' g, Hessian = J' H J + g_theta T.
    """
    a, b, c = p.alpha, p.beta, p.gamma
    theta = c * a ** (-b)
    la = math.log(a)
    J = np.array([
        [-b * theta / a, -theta * la, theta / c, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    T = np.zeros((4, 4))
    T[0, 0] = b * (b + 1.0) * theta / (a * a)
    T[0, 1] = T[1, 0] = theta * (b * la - 1.0) / a
    T[0, 2] = T[2, 0] = -b * theta / (a * c)
    T[1, 1] = theta * la * la
    T[1, 2] = T[2, 1] = -theta * la / c
    full = J.T @ hess @ J + grad[0] * T
    return J.T @ grad, 0.5 * (full + full.T)


def _loglik_at(p: TgiwParams, d: Dataset, derivatives: bool = True):
    """The kernel at a four-parameter point: log theta = log gamma - beta log alpha."""
    log_theta = math.log(p.gamma) - p.beta * math.log(p.alpha)
    return _reduced_loglik(np.log(d.values), log_theta, p.beta, p.lam, derivatives)


def log_likelihood(p: TgiwParams, d: Dataset) -> float:
    """Sample log-likelihood; -inf when a term's density is zero (|lam| = 1 edge)."""
    return _loglik_at(p, d, derivatives=False)[0]


def score(p: TgiwParams, d: Dataset) -> np.ndarray:
    """Gradient of the log-likelihood in (alpha, beta, gamma, lam) order.

    The exact (theta, beta, lam) gradient carried through
    theta = gamma * alpha**(-beta); each component matches central finite
    differences (tested), which is the correctness oracle.
    """
    _, grad, hess = _loglik_at(p, d)
    if grad is None:
        raise ValueError("score undefined: the log-likelihood derivatives divide by a zero density factor B")
    return _full_chain(p, grad, hess)[0]


# ---------------------------------------------------------------------------
# free-parameter bookkeeping and transforms

_REDUCED_ORDER = ("theta", "beta", "lam")
_FULL_ORDER = ("alpha", "beta", "gamma", "lam")


def _free_names(model: SubModel) -> tuple[tuple[str, ...], dict[str, float]]:
    """Free (theta, beta, lam) names of a model and its fixed beta and lam.

    theta is always free: it absorbs any alpha or gamma constraint.
    """
    fixed = model.fixed
    names = tuple(n for n in _REDUCED_ORDER if n == "theta" or n not in fixed)
    return names, {k: v for k, v in fixed.items() if k in ("beta", "lam")}


def identifiable_k(model: SubModel) -> int:
    """Number of free parameters in the identifiable (reduced) parameterization."""
    return len(_free_names(model)[0])


def _to_z(name: str, value: float) -> float:
    if name == "lam":
        value = min(max(value, -1.0 + 1e-12), 1.0 - 1e-12)
        return math.atanh(value)
    return math.log(value)


def _from_z(name: str, z: float) -> float:
    if name == "lam":
        return math.tanh(z)
    return math.exp(min(z, _Z_MAX))


def _reduced_from_z(z: np.ndarray, names: tuple[str, ...], fixed: dict[str, float]) -> ReducedParams:
    values = {"lam": 0.0, **fixed}
    values.update((name, _from_z(name, float(zi))) for name, zi in zip(names, z))
    return ReducedParams(theta=values["theta"], beta=values["beta"], lam=values["lam"])


def _quantile_seed(x: np.ndarray, names: tuple[str, ...], fixed: dict[str, float]) -> np.ndarray:
    """Method-of-quantiles start: match the quartiles and median under lam = 0."""
    x25, x50, x75 = np.quantile(x, [0.25, 0.5, 0.75])
    if fixed.get("beta") is not None:
        beta0 = fixed["beta"]
    elif x75 > x25:
        beta0 = (math.log(-math.log(0.25)) - math.log(-math.log(0.75))) / (
            math.log(x75) - math.log(x25)
        )
        beta0 = min(max(beta0, 0.05), 50.0)
    else:
        beta0 = 1.0
    theta0 = math.log(2.0) * x50**beta0
    seed_values = {"theta": theta0, "beta": beta0, "lam": 0.0}
    return np.array([_to_z(n, seed_values[n]) for n in names])


def _full_point(model: SubModel, rp: ReducedParams) -> TgiwParams:
    """Four-parameter point of ``model`` at rp, through theta = gamma * alpha**(-beta).

    A fixed gamma determines alpha; otherwise alpha is the model's fixed
    value, or 1 when both are free.
    """
    fixed = model.fixed
    if "gamma" in fixed:
        gamma = fixed["gamma"]
        alpha = _from_z("alpha", (math.log(gamma) - math.log(rp.theta)) / rp.beta)
    else:
        alpha = fixed.get("alpha", 1.0)
        gamma = _from_z("gamma", math.log(rp.theta) + rp.beta * math.log(alpha))
    return TgiwParams(alpha=alpha, beta=rp.beta, gamma=gamma, lam=rp.lam)


# ---------------------------------------------------------------------------
# maximum likelihood: trust-region Newton in transform space


def _grad_tol(n: int) -> float:
    """Convergence bound on the largest transform-space score component.

    The z-space score is dimensionless; its sampling noise grows like sqrt(n).
    """
    return 1e-6 * max(1.0, math.sqrt(n))


def _z_derivatives(logx: np.ndarray, names: tuple[str, ...], fixed: dict[str, float], z: np.ndarray):
    """-l with its exact gradient and Hessian in z over ``names``: one kernel pass.

    z = log for theta and beta (dv/dz = d2v/dz2 = v) and atanh for lam
    (dv/dz = 1 - lam**2, d2v/dz2 = -2 lam (1 - lam**2)).  z is clamped to
    [-_Z_MAX, _Z_MAX]; a point where l or a derivative is not finite reads
    as +inf, which the trust region rejects.
    """
    k = len(names)
    values = {"lam": 0.0, **fixed}
    jac, curv = np.empty(k), np.empty(k)
    for i, (name, zi) in enumerate(zip(names, np.clip(z, -_Z_MAX, _Z_MAX))):
        v = _from_z(name, float(zi))
        values[name] = v
        jac[i] = 1.0 - v * v if name == "lam" else v
        curv[i] = -2.0 * v * jac[i] if name == "lam" else v
    ll, grad, hess = _reduced_loglik(logx, math.log(values["theta"]), values["beta"], values["lam"])
    if grad is None:
        return math.inf, np.zeros(k), np.zeros((k, k))
    free = [_REDUCED_ORDER.index(n) for n in names]
    with np.errstate(all="ignore"):
        g = grad[free] * jac
        H = hess[np.ix_(free, free)] * np.outer(jac, jac) + np.diag(grad[free] * curv)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
        return math.inf, np.zeros(k), np.zeros((k, k))
    return -ll, -g, -H


def _newton(logx: np.ndarray, names: tuple[str, ...], fixed: dict[str, float], z0: np.ndarray,
            max_iter: int, gtol: float):
    """One trust-exact solve over ``names``; returns (z, -l, z-gradient, iterations)."""
    last: dict = {}

    def derivatives(z: np.ndarray):
        if "z" not in last or not np.array_equal(z, last["z"]):
            last["z"], last["out"] = z.copy(), _z_derivatives(logx, names, fixed, z)
        return last["out"]

    res = minimize(
        lambda z: derivatives(z)[0],
        z0,
        jac=lambda z: derivatives(z)[1],
        hess=lambda z: derivatives(z)[2],
        method="trust-exact",
        options=dict(gtol=gtol, maxiter=max_iter),
    )
    z, f, g, nit = np.clip(res.x, -_Z_MAX, _Z_MAX), float(res.fun), res.jac, int(res.nit)
    if res.status == 2:
        # the solver stops once the predicted decrease is below the rounding
        # of -l (large n); the quadratic model is then exact, so take its
        # Newton step unless that raises -l by more than a few ulps
        try:
            z_new = z - np.linalg.solve(res.hess, g)
        except np.linalg.LinAlgError:
            z_new = z
        f_new, g_new, _ = derivatives(z_new)
        if f_new <= f + 4.0 * np.spacing(f):
            z, f, g, nit = z_new, f_new, g_new, nit + 1
    return z, f, np.asarray(g, dtype=float), nit


def _fit_mle(d: Dataset, cfg: FitConfig) -> tuple[ReducedParams, int, float]:
    """Reduced-mode MLE of cfg.model; returns (estimate, iterations, z-gradient norm)."""
    names, fixed = _free_names(cfg.model)
    k = len(names)
    # dividing by the median makes the fit in z free of the data's unit:
    # t = theta_s * (x/m)**-beta with theta = theta_s * m**beta
    m = float(np.median(d.values))
    xs = d.values / m
    logx = np.log(xs)
    gtol = _grad_tol(d.n)
    z0 = _quantile_seed(xs, names, fixed)

    first, sub_iterations = z0, 0
    if "lam" in names:
        # start from the lam = 0 sub-model's optimum (lam is the last name), lam released from 0
        sub = _newton(logx, names[:-1], {**fixed, "lam": 0.0}, z0[:-1], cfg.max_iter, gtol)
        first, sub_iterations = np.append(sub[0], 0.0), sub[3]

    rng = np.random.default_rng(cfg.seed)
    starts = [(first, sub_iterations)] + [
        (z0 + rng.uniform(-2.0, 2.0, size=k), 0) for _ in range(cfg.multistart - 1)
    ]
    best = None
    for start, prior in starts:
        z, f, g, nit = _newton(logx, names, fixed, start, cfg.max_iter, gtol)
        if math.isfinite(f) and (best is None or f < best[1]):
            best = (z, f, g, nit + prior)
    if best is None:
        raise ValueError("all optimizer starts produced non-finite objectives (degenerate data)")
    z, _, g, iterations = best
    rp = _reduced_from_z(z, names, fixed)
    rp = replace(rp, theta=_from_z("theta", math.log(rp.theta) + rp.beta * math.log(m)))
    return rp, iterations, float(np.max(np.abs(g)))


# ---------------------------------------------------------------------------
# least squares


def wlse_weights(n: int) -> np.ndarray:
    """Weights (n+1)^2 (n+2) / (j (n-j+1)) for the weighted least-squares criterion."""
    j = np.arange(1, n + 1, dtype=float)
    return (n + 1.0) ** 2 * (n + 2.0) / (j * (n - j + 1.0))


def _ls_objective(p: TgiwParams, x: np.ndarray, weights: np.ndarray | None) -> float:
    n = x.size
    F = np.asarray(dist.cdf(p, x))
    resid = F - np.arange(1, n + 1) / (n + 1.0)
    if weights is None:
        return float(np.sum(resid * resid))
    return float(np.sum(weights * resid * resid))


def _ls_gradient(rp: ReducedParams, names, x: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Exact z-gradient 2 J' W r of the least-squares criterion over ``names``.

    With t = theta * x**-beta, u, w and the density factor B from the kernel:
    dF/dlog t = -t u B (0 where t overflows and t u is inf * 0), dlog t/dlog theta = 1,
    dlog t/dlog beta = -beta log x and dF/datanh lam = u w (1 - lam**2).
    """
    n, lam, log_x = x.size, rp.lam, np.log(x)
    with np.errstate(all="ignore"):
        t, u, w = dist._terms(expand_params(rp), x)
        B, _ = dist._log_b(lam, t, math.log(rp.theta) - rp.beta * log_x, u, w)
        r = u * ((1.0 + lam) - lam * u) - np.arange(1, n + 1) / (n + 1.0)
        wr = r if weights is None else weights * r
        dF = -np.fmax(t * u * B, 0.0)
        columns = {"theta": dF, "beta": -rp.beta * log_x * dF, "lam": u * w * (1.0 - lam * lam)}
        return np.array([2.0 * (wr @ columns[name]) for name in names])


def _fit_ls(d: Dataset, cfg: FitConfig) -> tuple[ReducedParams, float, int, float, bool]:
    """Nelder-Mead LSE/WLSE in z; returns (estimate, objective, iterations, gradient norm, ok)."""
    names, fixed = _free_names(cfg.model)
    x = d.values
    weights = wlse_weights(x.size) if cfg.method == "wlse" else None

    def objective(z: np.ndarray) -> float:
        try:
            p = expand_params(_reduced_from_z(z, names, fixed))
        except ValueError:
            return math.inf
        return _ls_objective(p, x, weights)

    z0 = _quantile_seed(x, names, fixed)
    rng = np.random.default_rng(cfg.seed)
    starts = [z0] + [z0 + rng.uniform(-2.0, 2.0, size=len(names)) for _ in range(cfg.multistart - 1)]

    options = dict(xatol=_SIMPLEX_TOL, fatol=_SIMPLEX_TOL, maxiter=cfg.max_iter, maxfev=2 * cfg.max_iter)
    best = None
    for start in starts:
        res = minimize(objective, start, method="Nelder-Mead", options=options)
        if math.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise ValueError("all optimizer starts produced non-finite objectives (degenerate data)")

    iterations = int(best.nit)
    optimizer_ok = bool(best.success)
    z_hat, f_hat = np.asarray(best.x, dtype=float), float(best.fun)
    restart = minimize(objective, z_hat, method="Nelder-Mead", options=options)
    if math.isfinite(restart.fun) and restart.fun <= f_hat:
        improvement = f_hat - float(restart.fun)
        z_hat, f_hat = np.asarray(restart.x, dtype=float), float(restart.fun)
        iterations += int(restart.nit)
        optimizer_ok = optimizer_ok and improvement <= 1e-9 * (1.0 + abs(f_hat))
    rp = _reduced_from_z(z_hat, names, fixed)
    gradient_norm = float(np.max(np.abs(_ls_gradient(rp, names, x, weights))))
    return rp, f_hat, iterations, gradient_norm, optimizer_ok


# ---------------------------------------------------------------------------
# fit driver


def _fit(d: Dataset, cfg: FitConfig) -> FitResult:
    full = cfg.mode == "full"
    names = cfg.model.free if full else _free_names(cfg.model)[0]
    k = len(names)
    if d.n <= k:
        raise ValueError(
            f"dataset of size {d.n} cannot identify {k} free parameters (need n > k)"
        )
    if d.values[0] == d.values[-1]:
        raise ValueError("all observations are equal: degenerate data cannot be fitted")

    if cfg.method == "mle":
        reduced, iterations, gradient_norm = _fit_mle(d, cfg)
        converged = gradient_norm <= _grad_tol(d.n)
    else:
        reduced, ls_objective, iterations, gradient_norm, converged = _fit_ls(d, cfg)
    params = _full_point(cfg.model, reduced) if full else expand_params(reduced)
    estimates = _estimates_dict(params, reduced, names, cfg.mode)
    neg_ll = -_loglik_at(params, d, derivatives=False)[0]

    boundary = "lam" in names and abs(params.lam) > _LAM_BOUNDARY
    converged = converged and not boundary

    message = ""
    if boundary:
        message = (
            f"transmutation estimate lam = {params.lam:.6g} presses the [-1, 1] boundary; "
            "the fit is non-regular and Wald inference for lam is suppressed"
        )
    elif not converged:
        message = "optimizer did not meet the convergence tolerances"

    result = FitResult(
        model=cfg.model,
        mode=cfg.mode,
        method=cfg.method,
        params=params,
        reduced=reduced,
        neg_log_lik=neg_ll,
        objective=neg_ll if cfg.method == "mle" else ls_objective,
        converged=converged,
        iterations=iterations,
        gradient_norm=gradient_norm,
        free_names=names,
        estimates=estimates,
        n_obs=d.n,
        boundary_lambda=boundary,
        message=message,
    )
    if cfg.method == "mle":
        result = _attach_inference(result, d, cfg)
    return result


def _estimates_dict(params: TgiwParams, reduced: ReducedParams, names, mode) -> dict[str, float]:
    source = (
        {"alpha": params.alpha, "beta": params.beta, "gamma": params.gamma, "lam": params.lam}
        if mode == "full"
        else {"theta": reduced.theta, "beta": reduced.beta, "lam": reduced.lam}
    )
    return {n: float(source[n]) for n in names}


def _attach_inference(result: FitResult, d: Dataset, cfg: FitConfig) -> FitResult:
    """Fill std errors and Wald intervals from the observed information, when sane."""
    names = result.free_names
    if result.boundary_lambda:
        names = tuple(n for n in names if n != "lam")
    if not names:
        return result
    try:
        info = observed_information(result.params, d, mode=result.mode, names=names)
    except ValueError:
        return result
    result = replace(result, information=info)
    if info.singular:
        return result
    try:
        result = replace(result, std_errors=info.std_errors(), conf_level=1.0 - cfg.delta)
    except ValueError:
        return result
    return replace(result, conf_intervals=wald_intervals(result, cfg.delta))


def fit_mle(d: Dataset, cfg: FitConfig | None = None) -> FitResult:
    """Maximum-likelihood fit of cfg.model to the data (reduced mode by default)."""
    cfg = replace(cfg or FitConfig(), method="mle")
    return _fit(d, cfg)


def fit_lse(d: Dataset, cfg: FitConfig | None = None) -> FitResult:
    """Least-squares fit: minimize sum_j (F(x_(j)) - j/(n+1))**2."""
    cfg = replace(cfg or FitConfig(), method="lse")
    return _fit(d, cfg)


def fit_wlse(d: Dataset, cfg: FitConfig | None = None) -> FitResult:
    """Weighted least-squares fit with weights (n+1)^2 (n+2) / (j (n-j+1))."""
    cfg = replace(cfg or FitConfig(), method="wlse")
    return _fit(d, cfg)


# ---------------------------------------------------------------------------
# observed information and Wald intervals


def observed_information(
    p: TgiwParams,
    d: Dataset,
    mode: str = "reduced",
    names: tuple[str, ...] | None = None,
) -> ObservedInformation:
    """Exact negative Hessian of the log-likelihood at p.

    ``mode`` selects the coordinates: the identifiable (theta, beta, lam) or
    the four-parameter (alpha, beta, gamma, lam), reached by the chain rule
    through theta = gamma * alpha**(-beta); the latter is flagged
    ill-conditioned on the alpha-gamma ridge.  A lam past the boundary
    threshold used by the fits is refused: the fit there is non-regular.
    """
    if mode not in ("reduced", "full"):
        raise ValueError(f"mode must be 'reduced' or 'full', got {mode!r}")
    order = _FULL_ORDER if mode == "full" else _REDUCED_ORDER
    names = tuple(names) if names is not None else order
    unknown = [n for n in names if n not in order]
    if unknown:
        raise ValueError(f"names {unknown} not valid for mode {mode!r}")
    if "lam" in names and abs(p.lam) > _LAM_BOUNDARY:
        raise ValueError("lam is too close to the [-1, 1] boundary for interior curvature")

    _, grad, hess = _loglik_at(p, d)
    if hess is None:
        raise ValueError("information undefined: the derivatives divide by a zero density factor B")
    if mode == "full":
        hess = _full_chain(p, grad, hess)[1]
    idx = [order.index(n) for n in names]
    H = -hess[np.ix_(idx, idx)]

    if not np.all(np.isfinite(H)):
        cond = math.inf
    else:
        s = np.linalg.svd(H, compute_uv=False)
        cond = math.inf if s[-1] == 0.0 else float(s[0] / s[-1])
    return ObservedInformation(
        matrix=H,
        names=names,
        condition_number=cond,
        ill_conditioned=cond > _ILL_CONDITIONED,
        singular=(not math.isfinite(cond)) or cond > _SINGULAR,
    )


def wald_intervals(fr: FitResult, delta: float = 0.05) -> dict[str, tuple[float, float]]:
    """Wald intervals estimate +- z_(delta/2) * se at coverage 1 - delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if fr.std_errors is None:
        raise ValueError("fit carries no standard errors (information unavailable or singular)")
    z = float(ndtri(1.0 - delta / 2.0))
    return {
        name: (fr.estimates[name] - z * se, fr.estimates[name] + z * se)
        for name, se in fr.std_errors.items()
    }
