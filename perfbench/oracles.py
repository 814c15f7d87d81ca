"""Reference values the benchmark checks the program's outputs against.

These are written independently of ``tgiw``: tail-exact float64 forms of the
distribution functions (built on ``w = -expm1(-t)``, so ``1 - u`` never
cancels), a 50-digit ``mpmath`` oracle for the far right tail, and the
sampler's inverse transform.  Parameters are the identifiable
``(theta, beta, lam)`` with ``t = theta * x**-beta`` and ``u = exp(-t)``.
"""

from __future__ import annotations

import math

import numpy as np


def _t(theta: float, beta: float, x):
    return np.exp(math.log(theta) - beta * np.log(x))


def cdf(theta: float, beta: float, lam: float, x):
    t = _t(theta, beta, x)
    u = np.exp(-t)
    return u * (1.0 + lam * -np.expm1(-t))


def survival(theta: float, beta: float, lam: float, x):
    t = _t(theta, beta, x)
    return -np.expm1(-t) * (1.0 - lam * np.exp(-t))


def log_pdf(theta: float, beta: float, lam: float, x):
    t = _t(theta, beta, x)
    w = -np.expm1(-t)
    return math.log(beta * theta) - (beta + 1.0) * np.log(x) - t + np.log((1.0 - lam) + 2.0 * lam * w)


def pdf(theta: float, beta: float, lam: float, x):
    return np.exp(log_pdf(theta, beta, lam, x))


def hazard(theta: float, beta: float, lam: float, x):
    return pdf(theta, beta, lam, x) / survival(theta, beta, lam, x)


def quantile(theta: float, beta: float, lam: float, q):
    """Inverse cdf; the upper half is solved for w = 1 - u from the survival side."""
    q = np.asarray(q, dtype=float)
    s = 1.0 - q
    lower = q <= 0.5
    # F = q:  lam*u^2 - (1+lam)*u + q = 0;   S = s:  lam*w^2 + (1-lam)*w - s = 0
    u = 2.0 * q / ((1.0 + lam) + np.sqrt((1.0 + lam) ** 2 - 4.0 * lam * q))
    w = 2.0 * s / ((1.0 - lam) + np.sqrt((1.0 - lam) ** 2 + 4.0 * lam * s))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(lower, -np.log(u), -np.log1p(-w))
    return (theta / t) ** (1.0 / beta)


def neg_log_lik(theta: float, beta: float, lam: float, x: np.ndarray) -> float:
    return -float(np.sum(log_pdf(theta, beta, lam, x)))


def score(theta: float, beta: float, lam: float, x: np.ndarray) -> np.ndarray:
    """Log-likelihood gradient in (theta, beta, lam)."""
    logx = np.log(x)
    t = _t(theta, beta, x)
    u = np.exp(-t)
    b = 2.0 * lam * u / ((1.0 - lam) + 2.0 * lam * -np.expm1(-t))
    return np.array([
        np.sum(1.0 - t + b * t) / theta,
        np.sum(1.0 / beta - logx + t * logx - b * t * logx),
        np.sum((1.0 - 2.0 * u) / ((1.0 - lam) + 2.0 * lam * -np.expm1(-t))),
    ])


def ks_statistic(theta: float, beta: float, lam: float, x_sorted: np.ndarray) -> float:
    n = x_sorted.size
    F = cdf(theta, beta, lam, x_sorted)
    j = np.arange(1, n + 1)
    return float(max(np.max(j / n - F), np.max(F - (j - 1) / n)))


def sample(theta: float, beta: float, lam: float, n: int, seed: int) -> np.ndarray:
    """Inverse-transform draws from numpy's default generator, as documented."""
    q = np.random.default_rng(seed).random(n)
    q = np.where(q == 0.0, np.nextafter(0.0, 1.0), q)
    u = 2.0 * q / ((1.0 + lam) + np.sqrt((1.0 + lam) ** 2 - 4.0 * lam * q))
    return (theta / -np.log(u)) ** (1.0 / beta)


def tail_mp(theta: float, beta: float, lam: float, x: float) -> tuple[float, float]:
    """(survival, hazard) at x to 50 significant digits."""
    import mpmath as mp

    with mp.workdps(50):
        t = mp.mpf(theta) * mp.power(mp.mpf(x), -mp.mpf(beta))
        u = mp.exp(-t)
        s = (1 - u) * (1 - mp.mpf(lam) * u)
        f = mp.mpf(beta) * t / mp.mpf(x) * u * (1 + mp.mpf(lam) - 2 * mp.mpf(lam) * u)
        return float(s), float(f / s)


def rel_err(got, want) -> float:
    """Largest relative error; NaN counts as infinitely wrong."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        err = np.abs(got - want) / np.maximum(np.abs(want), np.finfo(float).tiny)
    return float(np.max(np.where(np.isnan(err), np.inf, err)))
