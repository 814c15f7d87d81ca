"""Order-statistic densities for i.i.d. samples from the family.

Every density here is composed from the distribution's F, S = 1 - F and f:

    f_(i:n)(x)       = F(x)**(i-1) * S(x)**(n-i) * f(x) / B(i, n-i+1)
    f_(i,j:n)(x, y)  = C * F(x)**(i-1) * (F(y)-F(x))**(j-i-1)
                         * S(y)**(n-j) * f(x) * f(y),   x < y,

with C = n! / ((i-1)! (j-i-1)! (n-j)!).  Minimum, maximum and (odd-n)
median are the i = 1, i = n and i = m+1 specializations.  Each density is
one sum of logarithms from one kernel pass per point, exponentiated once, so
it keeps its relative precision in both tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distribution as dist
from .params import TgiwParams

__all__ = ["OrderSpec", "os_density", "joint_os_density", "min_max_joint_density"]


@dataclass(frozen=True)
class OrderSpec:
    """Rank selector: i-th (and optionally j-th, i < j) of a sample of size n."""

    n: int
    i: int
    j: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("sample size n must be >= 1")
        if not 1 <= self.i <= self.n:
            raise ValueError(f"rank i must lie in [1, {self.n}], got {self.i}")
        if self.j is not None and not self.i < self.j <= self.n:
            raise ValueError(f"rank j must lie in ({self.i}, {self.n}], got {self.j}")

    @classmethod
    def minimum(cls, n: int) -> "OrderSpec":
        return cls(n=n, i=1)

    @classmethod
    def maximum(cls, n: int) -> "OrderSpec":
        return cls(n=n, i=n)

    @classmethod
    def median(cls, n: int) -> "OrderSpec":
        """Median rank m+1 of an odd sample size n = 2m+1."""
        if n % 2 == 0:
            raise ValueError("median order statistic requires an odd sample size")
        return cls(n=n, i=(n + 1) // 2)

    @classmethod
    def joint(cls, n: int, i: int, j: int) -> "OrderSpec":
        return cls(n=n, i=i, j=j)


def _exp_sum(log_c, *terms):
    """exp(log_c + sum of k * v over (k, v) in terms); a zero power adds nothing, even where v = -inf.

    Where t overflows at both points (x -> 0) the sum meets inf - inf; the density there is 0.
    """
    for k, v in terms:
        if k:
            log_c = log_c + k * v
    return np.fmax(np.exp(log_c), 0.0)


def os_density(p: TgiwParams, spec: OrderSpec, x):
    """Density of the i-th order statistic of a sample of size spec.n at x."""
    if spec.j is not None:
        raise ValueError("spec with a j rank describes a joint density; use joint_os_density")
    x = dist._check(x)
    i, n = spec.i, spec.n
    log_c = math.lgamma(n + 1) - math.lgamma(i) - math.lgamma(n - i + 1)
    with np.errstate(all="ignore"):
        _, _, log_F, log_S, log_f = dist._log_terms(p, x)
        return dist._out(_exp_sum(log_c + log_f, (i - 1, log_F), (n - i, log_S)))


def joint_os_density(p: TgiwParams, spec: OrderSpec, x_i, x_j):
    """Joint density of the (i, j) order-statistic pair at (x_i, x_j), x_i < x_j.

    The gap F(x_j) - F(x_i) is taken as u_j * (1 - exp(t_j - t_i)) * (B_i + B_j) / 2,
    a product of nonnegative factors that keeps its precision in both tails.
    """
    if spec.j is None:
        raise ValueError("spec must carry a j rank for a joint density")
    return _joint(p, spec.n, spec.i, spec.j, x_i, x_j)


def _joint(p: TgiwParams, n: int, i: int, j: int, x_i, x_j):
    x_i, x_j = dist._check(x_i), dist._check(x_j)
    if not dist._all_positive(x_j - x_i):
        raise ValueError("joint density requires x_i < x_j")
    log_c = math.lgamma(n + 1) - math.lgamma(i) - math.lgamma(j - i) - math.lgamma(n - j + 1)
    with np.errstate(all="ignore"):
        t_i, b_i, log_F, _, log_f_i = dist._log_terms(p, x_i)
        t_j, b_j, _, log_S, log_f_j = dist._log_terms(p, x_j)
        log_gap = np.log(-np.expm1(t_j - t_i)) - t_j + np.log(0.5 * (b_i + b_j))
        return dist._out(_exp_sum(log_c + log_f_i + log_f_j, (i - 1, log_F), (j - i - 1, log_gap), (n - j, log_S)))


def min_max_joint_density(p: TgiwParams, n: int, x_min, x_max):
    """Joint density of (minimum, maximum) of a sample of size n >= 2.

    Equals n*(n-1) * (F(x_max) - F(x_min))**(n-2) * f(x_min) * f(x_max),
    the i = 1, j = n case of :func:`joint_os_density`.
    """
    n = int(n)
    if n < 2:
        raise ValueError("min/max joint density requires n >= 2")
    return _joint(p, n, 1, n, x_min, x_max)
