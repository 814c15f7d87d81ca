"""Exact distribution functions of the transmuted generalized inverse Weibull.

All functions accept a scalar or array ``x`` and return a Python ``float``
or an ``ndarray`` to match.  A scalar runs the same code as an array, on
float64 scalars, without building an array.  They are pure functions of their
inputs and safe for concurrent use; the sampler takes an explicit seed or
generator rather than touching global state.
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


def _all_positive(v) -> bool:
    return v.min() > 0.0 if isinstance(v, np.ndarray) else v > 0.0


def _check(v, upper: float = math.inf, message: str = "x must be finite and strictly positive"):
    """v inside (0, upper): a float64 scalar, checked by comparisons alone, or a nonempty array.

    A scalar never builds an array: the functions run the same operators and
    ufuncs on float64 scalars as on arrays.
    """
    if isinstance(v, (float, int)):
        if 0.0 < v < upper:
            return np.float64(v)
    else:
        va = np.asarray(v, dtype=float)
        if va.size and _all_positive(va) and va.max() < upper:
            return va
    raise ValueError(message)


def _out(value):
    """A Python float for a scalar result, the array otherwise."""
    return value if isinstance(value, np.ndarray) and value.ndim else float(value)


def _kernel(t):
    """u = exp(-t) and w = 1 - u = -expm1(-t); w is exact as t -> 0, u as t -> oo.

    F = u ((1 + lam) - lam u), S = w ((1 - lam) u + w) and f = beta t u B / x
    with B = (1 - lam) u + (1 + lam) w keep their relative precision for every
    lam in [-1, 1]: no 1 - F or 1 - u is ever formed.
    """
    minus_t = -t
    w = np.expm1(minus_t)
    w *= -1.0
    return np.exp(minus_t), w


def _t(p: TgiwParams, x):
    """t = gamma * (alpha x)**-beta at a checked x.

    t is one pow, within an ulp or two (exp(log t) would carry 2.5e-14 at
    x = 1e12).  ``np.power`` gives a scalar the bits of a one-element array;
    the scalar ``**`` differs by an ulp in one case in twenty.
    """
    t = np.power(p.alpha * x, -p.beta)
    t *= p.gamma
    return t


def _terms(p: TgiwParams, x):
    """t, u and w at a checked x."""
    t = _t(p, x)
    return (t, *_kernel(t))


def _log_b(lam: float, t, log_t, u, w):
    """B = (1 - lam) u + (1 + lam) w and log B from one kernel pass; B >= 1 - |lam| at |lam| < 1.

    At lam = -1 and 1, B = 2u and 2w; below the smallest normal float, log B is
    log 2 - t and log 2 + log w, log w = log t + log(w/t) (5e-324 keeps w/t = 1 where t is 0).
    """
    b = (1.0 - lam) * u + (1.0 + lam) * w
    log_b = np.log(b)
    if abs(lam) == 1.0:
        log_edge = -t if lam == -1.0 else log_t + np.log((w + 5e-324) / (t + 5e-324))
        log_b = np.where(b < np.finfo(float).tiny, math.log(2.0) + log_edge, log_b)
    return b, log_b


def _log_terms(p: TgiwParams, x):
    """t, B, log F, log S and log f at a checked x, exact in both tails.

    log t = log gamma - beta log(alpha x) stays finite where t underflows.  At lam = -1,
    F = u**2 and log F = -2t; at lam = 1, S = w**2 and log S = 2 log w = 2 (log B - log 2).
    """
    t, u, w = _terms(p, x)
    lam = p.lam
    log_ax = np.log(p.alpha * x)
    log_t = math.log(p.gamma) - p.beta * log_ax
    b, log_b = _log_b(lam, t, log_t, u, w)
    log_f = math.log(p.alpha * p.beta) + log_t - log_ax - t + log_b
    log_F = -2.0 * t if lam == -1.0 else np.log((1.0 + lam) - lam * u) - t
    log_S = 2.0 * (log_b - math.log(2.0)) if lam == 1.0 else (
        log_t + np.log((w + 5e-324) / (t + 5e-324) * ((1.0 - lam) * u + w)))
    return t, b, log_F, log_S, log_f


def cdf(p: TgiwParams, x):
    """Distribution function F(x) = u*(1 + lam - lam*u), u = exp(-gamma*(alpha*x)**-beta)."""
    x = _check(x)
    with np.errstate(over="ignore"):
        u = np.exp(-_t(p, x))
        F = (1.0 + p.lam) - p.lam * u
        F *= u
        return _out(F)


def pdf(p: TgiwParams, x):
    """Density f(x) = alpha*beta*gamma*(alpha*x)**(-beta-1) * u * (1 + lam - 2*lam*u); 0 where u underflows."""
    x = _check(x)
    with np.errstate(over="ignore", invalid="ignore"):
        t, u, w = _terms(p, x)
        f = (1.0 - p.lam) * u
        f += (1.0 + p.lam) * w
        f *= u
        f *= t
        f /= x
        f *= p.beta
        return _out(np.fmax(f, 0.0))  # t * u is inf * 0 where t overflows (x -> 0); f is 0 there


def log_pdf(p: TgiwParams, x):
    """Log-density, stable where pdf underflows; -inf where the density is 0."""
    x = _check(x)
    with np.errstate(all="ignore"):
        return _out(_log_terms(p, x)[4])


def survival(p: TgiwParams, x):
    """Reliability R(x) = 1 - F(x) = w * ((1 - lam)*u + w), exact in the far right tail."""
    x = _check(x)
    with np.errstate(over="ignore"):
        _, u, w = _terms(p, x)
        u *= 1.0 - p.lam
        u += w
        u *= w
        return _out(u)


def hazard(p: TgiwParams, x):
    """Failure rate h(x) = f(x) / R(x) = beta (t/w) u B / (x ((1 - lam) u + w)), from one kernel pass.

    B / ((1 - lam) u + w) is the factor 1 + lam w / ((1 - lam) u + w), formed
    without cancellation at lam < 0.  The smallest subnormal added to w and t
    keeps t/w -> 1 and the factor -> 1 + lam where they underflow, so h stays
    finite where R underflows (2.0e-200 at (1, 2, 1, 0) and x = 1e200); h is
    0 where t overflows (x -> 0).
    """
    x = _check(x)
    with np.errstate(over="ignore", invalid="ignore"):
        h, u, w = _terms(p, x)
        w += 5e-324
        h += 5e-324
        h /= w
        h *= u
        u *= 1.0 - p.lam
        c = u + w
        w *= 1.0 + p.lam
        w += u
        w /= c
        h *= w
        h *= p.beta
        h /= x
        return _out(np.fmax(h, 0.0))


def cumulative_hazard(p: TgiwParams, x):
    """Cumulative hazard H(x) = -ln R(x).

    -log1p(-F) where F <= 1/2, exact as R -> 1; elsewhere -ln R from ln t,
    finite where R underflows (921.03 at (1, 2, 1, 0) and x = 1e200).
    """
    x = _check(x)
    with np.errstate(all="ignore"):
        _, _, log_F, log_S, _ = _log_terms(p, x)
        return _out(np.where(log_F <= -math.log(2.0), -np.log1p(-np.exp(log_F)), -log_S))


def _conjugate_root(b: float, c: float, s):
    """The root 2s / (b + sqrt(b*b + c*s)) of (c/4) v**2 - b v + s = 0, free of cancellation."""
    return 2.0 * s / (b + np.sqrt(b * b + c * s))


def _x_of_t(p: TgiwParams, t):
    return np.power(p.gamma / t, 1.0 / p.beta) / p.alpha


def quantile(p: TgiwParams, q):
    """Inverse of the cdf, exact in both tails.

    F = q is lam*u**2 - (1+lam)*u + q = 0 in u; R = s = 1 - q is
    lam*w**2 + (1-lam)*w - s = 0 in w = 1 - u.  Below the median t = -ln u;
    above it s is exact and t = -log1p(-w).  Both roots are in conjugate form
    (u = q, w = s at lam = 0).  Then x = (gamma / t)**(1/beta) / alpha.
    """
    q = _check(q, 1.0, "probability must lie strictly inside (0, 1)")
    lam = p.lam
    with np.errstate(all="ignore"):
        t = np.where(
            q <= 0.5,
            -np.log(_conjugate_root(1.0 + lam, -4.0 * lam, q)),
            -np.log1p(-_conjugate_root(1.0 - lam, 4.0 * lam, 1.0 - q)),
        )
        return _out(_x_of_t(p, t))


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
    # every draw takes the lower-side root, so a seed's draws never change;
    # above the median they differ from quantile's by up to about 1e-10
    return _x_of_t(p, -np.log(_conjugate_root(1.0 + p.lam, -4.0 * p.lam, u)))


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
