"""Exact distribution functions of the transmuted generalized inverse Weibull.

All functions accept a scalar or array ``x`` and return a matching scalar or
``ndarray``.  They are pure functions of their inputs and safe for concurrent
use; the sampler takes an explicit seed or generator rather than touching
global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import TgiwParams

__all__ = [
    "MomentNotDefinedError",
    "cdf",
    "pdf",
    "log_pdf",
    "survival",
    "hazard",
    "cumulative_hazard",
    "quantile",
    "median",
    "sample",
    "raw_moment",
    "coeff_of_variation",
    "skewness",
    "kurtosis",
    "ShapeStatistics",
    "shape_statistics",
    "mgf_partial_sum",
]


class MomentNotDefinedError(ValueError):
    """Raised when a requested moment order r satisfies r >= beta.

    The family is heavy tailed: E[X^r] is finite only for r < beta, where
    the closed form involves Gamma(1 - r/beta).
    """


def _check_x(x) -> np.ndarray:
    xa = np.asarray(x, dtype=float)
    if xa.size == 0:
        raise ValueError("x must be nonempty")
    if not np.all(np.isfinite(xa)) or np.any(xa <= 0.0):
        raise ValueError("x must be finite and strictly positive")
    return xa


def _scalar_or_array(x_in, out: np.ndarray):
    return float(out) if np.ndim(x_in) == 0 else out


def _exp_term(p: TgiwParams, x: np.ndarray) -> np.ndarray:
    """gamma * (alpha*x)**(-beta); may overflow to inf for very small x."""
    with np.errstate(over="ignore"):
        return p.gamma * (p.alpha * x) ** (-p.beta)


def _bracket(lam: float, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Density factor 1 + lam - 2*lam*u, as (1 - lam)*u + (1 + lam)*w with w = -expm1(-t).

    w = 1 - u without cancellation, and both terms are nonnegative, so the
    factor keeps its relative precision in both tails for every lam in [-1, 1].
    """
    return (1.0 - lam) * u + (1.0 + lam) * -np.expm1(-t)


def cdf(p: TgiwParams, x):
    """Distribution function F(x) = u*(1 + lam - lam*u), u = exp(-gamma*(alpha*x)**-beta)."""
    xa = _check_x(x)
    u = np.exp(-_exp_term(p, xa))
    return _scalar_or_array(x, u * (1.0 + p.lam - p.lam * u))


def pdf(p: TgiwParams, x):
    """Density f(x) = alpha*beta*gamma*(alpha*x)**(-beta-1) * u * (1 + lam - 2*lam*u).

    For x small enough that u underflows, the density is returned as exact 0
    rather than NaN (the factors overflow/underflow in opposite directions).
    """
    xa = _check_x(x)
    t = _exp_term(p, xa)
    u = np.exp(-t)
    with np.errstate(over="ignore", invalid="ignore"):
        base = p.alpha * p.beta * p.gamma * (p.alpha * xa) ** (-p.beta - 1.0)
        out = base * u * _bracket(p.lam, t, u)
    out = np.where(np.isnan(out), 0.0, out)
    return _scalar_or_array(x, out)


def log_pdf(p: TgiwParams, x):
    """Log-density, stable where pdf underflows; -inf where the density is 0."""
    xa = _check_x(x)
    t = _exp_term(p, xa)
    u = np.exp(-t)
    bracket = _bracket(p.lam, t, u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_bracket = np.where(bracket > 0.0, np.log(np.where(bracket > 0.0, bracket, 1.0)), -np.inf)
        out = (
            math.log(p.alpha * p.beta * p.gamma)
            - (p.beta + 1.0) * np.log(p.alpha * xa)
            - p.gamma * (p.alpha * xa) ** (-p.beta)
        ) + log_bracket
    out = np.where(np.isnan(out), -np.inf, out)
    return _scalar_or_array(x, out)


def survival(p: TgiwParams, x):
    """Reliability R(x) = 1 - F(x) = w * (1 - lam*u), with w = 1 - u = -expm1(-t).

    The second factor is written (1 - lam)*u + w, a sum of nonnegative terms,
    so R keeps full relative precision in the far right tail, where 1 - F
    would cancel.
    """
    xa = _check_x(x)
    t = _exp_term(p, xa)
    w = -np.expm1(-t)
    return _scalar_or_array(x, w * ((1.0 - p.lam) * np.exp(-t) + w))


def hazard(p: TgiwParams, x):
    """Failure rate h(x) = f(x) / R(x).

    Raises OverflowError when the survival probability underflows to zero
    (beyond the smallest float, in the far right tail), where the ratio is no
    longer representable.
    """
    xa = _check_x(x)
    s = np.asarray(survival(p, xa))
    if np.any(s <= 0.0):
        raise OverflowError("survival underflowed to 0; hazard not representable")
    out = np.asarray(pdf(p, xa)) / s
    return _scalar_or_array(x, out)


def cumulative_hazard(p: TgiwParams, x):
    """Cumulative hazard H(x) = -ln R(x).

    Taken as -log1p(-F) where F <= 1/2, so H keeps its relative precision in
    the left tail where R rounds to 1, and as -ln R elsewhere.
    """
    xa = _check_x(x)
    s = np.asarray(survival(p, xa))
    if np.any(s <= 0.0):
        raise OverflowError("survival underflowed to 0; cumulative hazard is infinite")
    F = np.asarray(cdf(p, xa))
    return _scalar_or_array(x, np.where(F <= 0.5, -np.log1p(-np.minimum(F, 0.5)), -np.log(s)))


def _check_q(q) -> np.ndarray:
    qa = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(qa)) or np.any(qa <= 0.0) or np.any(qa >= 1.0):
        raise ValueError("probability must lie strictly inside (0, 1)")
    return qa


def quantile(p: TgiwParams, q):
    """Inverse of the cdf.

    F(x) = q is quadratic in u = exp(-gamma*(alpha*x)**-beta):
    lam*u**2 - (1+lam)*u + q = 0.  The root in (0, 1) is the smaller one;
    it is evaluated in the cancellation-free conjugate form

        u = 2q / ((1+lam) + sqrt((1+lam)**2 - 4*lam*q)),

    which degenerates smoothly to u = q at lam = 0.  Then
    x = (gamma / (-ln u))**(1/beta) / alpha.
    """
    qa = _check_q(q)
    one_plus = 1.0 + p.lam
    disc = one_plus * one_plus - 4.0 * p.lam * qa
    u = 2.0 * qa / (one_plus + np.sqrt(disc))
    x = (p.gamma / (-np.log(u))) ** (1.0 / p.beta) / p.alpha
    return _scalar_or_array(q, x)


def median(p: TgiwParams) -> float:
    """Quantile at probability one half."""
    return quantile(p, 0.5)


def sample(p: TgiwParams, n: int, seed: int | None = None, rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw n variates by inverse-transform sampling.

    Uniform variates come from ``rng`` when given, otherwise from a fresh
    ``numpy.random.default_rng(seed)``; identical (p, n, seed) triples give
    identical output.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    gen = rng if rng is not None else np.random.default_rng(seed)
    u = gen.random(n)
    # guard against a uniform variate of exactly 0.0 (quantile needs (0,1))
    u = np.where(u == 0.0, np.nextafter(0.0, 1.0), u)
    return np.asarray(quantile(p, u))


def raw_moment(p: TgiwParams, r: int) -> float:
    """r-th raw moment E[X^r] for integer r >= 1.

    Closed form: gamma**(r/beta) * Gamma(1 - r/beta) / alpha**r
    * (1 + lam - lam * 2**(r/beta)).  Finite only for r < beta.
    """
    r = int(r)
    if r < 1:
        raise ValueError("moment order r must be a positive integer")
    if r >= p.beta:
        raise MomentNotDefinedError(
            f"moment of order {r} does not exist: requires r < beta (beta = {p.beta})"
        )
    ratio = r / p.beta
    return (
        p.gamma**ratio
        * math.gamma(1.0 - ratio)
        / p.alpha**r
        * (1.0 + p.lam - p.lam * 2.0**ratio)
    )


def _central(p: TgiwParams, order: int) -> tuple[float, ...]:
    return tuple(raw_moment(p, r) for r in range(1, order + 1))


def coeff_of_variation(p: TgiwParams) -> float:
    """sd/mean; requires beta > 2."""
    m1, m2 = _central(p, 2)
    return math.sqrt(m2 - m1 * m1) / m1


def skewness(p: TgiwParams) -> float:
    """Third standardized central moment; requires beta > 3."""
    m1, m2, m3 = _central(p, 3)
    var = m2 - m1 * m1
    return (m3 - 3.0 * m2 * m1 + 2.0 * m1**3) / var**1.5


def kurtosis(p: TgiwParams) -> float:
    """Fourth standardized central moment; requires beta > 4."""
    m1, m2, m3, m4 = _central(p, 4)
    var = m2 - m1 * m1
    return (m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1 * m1 - 3.0 * m1**4) / (var * var)


@dataclass(frozen=True)
class ShapeStatistics:
    """Shape summary; a field is None when beta is too small for it to exist."""

    cv: float | None
    skewness: float | None
    kurtosis: float | None


def shape_statistics(p: TgiwParams) -> ShapeStatistics:
    """Compute cv, skewness and kurtosis, each independently when it exists."""
    values = []
    for fn in (coeff_of_variation, skewness, kurtosis):
        try:
            values.append(fn(p))
        except MomentNotDefinedError:
            values.append(None)
    return ShapeStatistics(*values)


def mgf_partial_sum(p: TgiwParams, t: float, terms: int) -> float:
    """Partial sum of the formal moment generating series, sum t^r mu'_r / r!.

    The true mgf of this family diverges for t > 0 (heavy right tail), so
    only the truncated formal series is offered.  Every included order must
    have a finite moment, i.e. terms - 1 < beta.
    """
    terms = int(terms)
    if terms < 1:
        raise ValueError("terms must be a positive integer")
    if terms - 1 >= p.beta:
        raise MomentNotDefinedError(
            f"series order {terms - 1} has no finite moment (requires terms - 1 < beta = {p.beta})"
        )
    total = 1.0  # r = 0 term
    for r in range(1, terms):
        total += float(t) ** r * raw_moment(p, r) / math.factorial(r)
    return total
