"""Renyi-DP accounting for the subsampled Gaussian mechanism, sigma >= 0.

Per-order RDP values compose additively over steps; conversion to
(epsilon, delta) minimizes over a fixed order grid. A noiseless step
(sigma = 0) has RDP inf at every order, so its ledger's epsilon is inf.
The adjacency is add/remove of one row, priced by the Poisson bound at q = s.
A fixed-size batch's noise std sigma*C/floor(s*R) moves with R, so there a
run's epsilon understates the loss (exact 45.86 against a reported 31.45 on
the drift acceptance config; the xfail scale-pair test). The source's closed
forms are references, not bounds. Log-factorials use ``decimal``, not SciPy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import decimal
import functools
import itertools
import math
import numbers

import numpy as np

from .blocks import ConfigurationError


# The RDP orders every ledger is converted over.
DEFAULT_ORDER_GRID = (1.25, 1.5, 1.75, *range(2, 65), 128.0, 256.0, 512.0)


@functools.cache
def _log_factorials(size: int) -> np.ndarray:
    """Read-only log(n!) for n < size, each the double nearest the exact value.

    A running sum of ln k at 34 significant digits errs far less than half
    a double's ulp, so float() of each partial sum is correctly rounded.
    """
    ctx = decimal.Context(prec=34)
    sums = itertools.accumulate((ctx.ln(k) for k in range(2, size)), ctx.add,
                                initial=decimal.Decimal(0))
    table = np.array([0.0, *map(float, sums)])
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class Budget:
    epsilon: float
    delta: float

    def __post_init__(self):
        if not self.epsilon >= 0:  # NaN fails; inf is the vacuous bound
            raise ConfigurationError("epsilon must be >= 0")
        if not (0 < self.delta < 1):
            raise ConfigurationError("delta must lie in (0, 1)")


@dataclass
class PrivacyLedger:
    """Step counts per (sigma >= 0, sampling rate), in insertion order."""

    steps: dict[tuple[float, float], int] = field(default_factory=dict)

    def add_event(self, sigma: float, q: float, steps: int) -> None:
        if not sigma >= 0:  # NaN fails too
            raise ConfigurationError("accounted events need sigma >= 0")
        if not (0 < q <= 1):
            raise ConfigurationError("sampling rate must be in (0, 1]")
        # 2.5 or NaN must not be truncated to a smaller charge
        if not isinstance(steps, numbers.Integral) or steps < 0:
            raise ConfigurationError("steps must be an integer >= 0")
        if steps:
            key = (float(sigma), float(q))
            self.steps[key] = self.steps.get(key, 0) + int(steps)


@functools.cache
def _rdp_curve(sigma: float, q: float) -> np.ndarray:
    """Read-only per-step RDP of (sigma, q) at each order of the grid."""
    if q == 1.0:
        rdp = [gaussian_rdp(order, sigma) for order in DEFAULT_ORDER_GRID]
    else:
        # A fractional order takes the bound at the next integer order: RDP
        # curves are non-decreasing in the order, so this stays a bound.
        # Each distinct integer order is evaluated once.
        ceil = [max(2, math.ceil(order)) for order in DEFAULT_ORDER_GRID]
        value = {a: subsampled_gaussian_rdp(a, sigma, q) for a in set(ceil)}
        rdp = [value[a] for a in ceil]
    curve = np.array(rdp)
    curve.flags.writeable = False
    return curve


def gaussian_rdp(order: float, sigma: float) -> float:
    """RDP of the Gaussian mechanism with sensitivity 1: order / (2 sigma^2)."""
    if order <= 1:
        raise ConfigurationError("RDP order must be > 1")
    if not sigma >= 0:  # NaN fails too
        raise ConfigurationError("sigma must be >= 0")
    two_var = 2.0 * sigma * sigma
    return order / two_var if two_var else math.inf  # sigma = 0 or underflow


def subsampled_gaussian_rdp(order: int, sigma: float, q: float) -> float:
    """Upper bound on the RDP of the Poisson-subsampled Gaussian.

    Integer orders only; binomial expansion
    (1/(a-1)) * log sum_j C(a,j) (1-q)^(a-j) q^j exp(j(j-1)/(2 sigma^2)).
    At q = 1 this is exactly the full-batch Gaussian value.
    """
    if not (0 < q <= 1):
        raise ConfigurationError("q must be in (0, 1]")
    if not sigma >= 0:  # NaN fails too
        raise ConfigurationError("sigma must be >= 0")
    if not float(order).is_integer():
        raise ConfigurationError(f"RDP order {order} is not an integer")
    order = int(order)
    if order < 2:
        raise ConfigurationError("integer order must be >= 2")
    if q == 1.0:
        return gaussian_rdp(order, sigma)
    two_var = 2.0 * sigma * sigma
    # No finite bound if 2 sigma^2 is 0 (sigma = 0 or underflow) or the largest
    # exponent j(j-1)/(2 sigma^2) overflows; Python floats do not warn.
    if not two_var or order * (order - 1) / two_var == math.inf:
        return math.inf
    lf = _log_factorials(max(order, 512) + 1)  # one table serves the grid
    j = np.arange(order + 1)
    a = (lf[order] - lf[:order + 1] - lf[order::-1]
         + (order - j) * math.log1p(-q) + j * math.log(q)
         + j * (j - 1) / two_var)
    # log(sum(exp(a))) by the steps of scipy.special.logsumexp (SciPy 1.17),
    # bitwise the same without its per-call overhead: the m maximal terms
    # are split off from the shifted sum of the rest. An infinite maximum
    # gives inf, as SciPy's fallback does.
    a_max = a.max()
    top = a == a_max
    m = float(np.count_nonzero(top))
    a[top] = -np.inf
    s = np.sum(np.exp(a - a_max)) / m
    return float(np.log1p(s) + np.log(m) + a_max) / (order - 1)


def compose_and_convert(ledger: PrivacyLedger, delta: float) -> Budget:
    """Compose the ledger in RDP and convert to an (epsilon, delta) budget.

    The ledger sums integer step counts per (sigma, q) before scaling the
    key's per-step RDP curve, so composition is exactly additive.
    """
    if not (0 < delta < 1):
        raise ConfigurationError("delta must lie in (0, 1)")
    if not ledger.steps:
        return Budget(0.0, delta)
    with np.errstate(over="ignore"):  # a total past the float range is inf
        total = sum(n * _rdp_curve(*key) for key, n in ledger.steps.items())
    orders = np.asarray(DEFAULT_ORDER_GRID, dtype=np.float64)
    eps = total + math.log(1.0 / delta) / (orders - 1)
    return Budget(float(eps.min()), delta)


def third_party_epsilon(s: float, rounds: int, local_steps: int,
                        delta: float, sigma: float) -> float:
    """Closed-form third-party budget, asymptotic constant taken as 1.

    epsilon = s * sqrt(T K log(2/delta) log(2T/delta)) / sigma. It is an
    asymptotic reference, not a bound: it can understate the privacy loss
    (s = 0.01, sigma = 1, T = 10, K = 1, delta = 1e-5 give 0.421, the
    composed RDP bound 1.457). Only the RDP bound is a guarantee.
    """
    if sigma <= 0:
        raise ConfigurationError("sigma must be > 0")
    if not (0 < delta < 1):
        raise ConfigurationError("delta must lie in (0, 1)")
    tk = rounds * local_steps
    if tk == 0:
        return 0.0
    return (s * math.sqrt(tk * math.log(2.0 / delta)
                          * math.log(2.0 * rounds / delta)) / sigma)


def server_budget(epsilon: float, delta: float, num_clients: int,
                  participation: float) -> Budget:
    """Accumulative server-side budget (eps*sqrt(N/l), (delta/2)(1/l + 1))."""
    if not (0 < participation <= 1):
        raise ConfigurationError("participation rate must be in (0, 1]")
    eps_s = epsilon * math.sqrt(num_clients / participation)
    delta_s = (delta / 2.0) * (1.0 / participation + 1.0)
    return Budget(eps_s, delta_s)
