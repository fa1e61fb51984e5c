import decimal
import functools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln, logsumexp
from scipy.stats import norm

from dpfed import accounting
from dpfed.accounting import (DEFAULT_ORDER_GRID, Budget, PrivacyLedger,
                              compose_and_convert, gaussian_rdp,
                              server_budget, subsampled_gaussian_rdp,
                              third_party_epsilon)
from dpfed.blocks import ConfigurationError


@functools.cache
def reference_log_factorials(size):
    """log(n!) for n < size: ln of the exact integer n! at 60 digits."""
    ctx = decimal.Context(prec=60)
    return np.array([float(ctx.ln(math.factorial(n))) for n in range(size)])


def reference_subsampled_gaussian_rdp(order, sigma, q):
    """The binomial expansion reduced by scipy.special.logsumexp."""
    lf = reference_log_factorials(order + 1)
    j = np.arange(order + 1)
    log_terms = (lf[order] - lf[j] - lf[order - j]
                 + (order - j) * math.log1p(-q) + j * math.log(q)
                 + j * (j - 1) / (2.0 * sigma * sigma))
    return float(logsumexp(log_terms) / (order - 1))


def reference_event_rdp(order, sigma, q):
    if q == 1.0:
        return gaussian_rdp(order, sigma)
    return subsampled_gaussian_rdp(max(2, math.ceil(order)), sigma, q)


def reference_compose_and_convert(ledger, delta):
    """Per-order loop: rebuilds every key's RDP at every order, each call."""
    best = math.inf
    for order in DEFAULT_ORDER_GRID:
        total = sum(steps * reference_event_rdp(order, sigma, q)
                    for (sigma, q), steps in ledger.steps.items())
        best = min(best, total + math.log(1.0 / delta) / (order - 1))
    return best


def test_gaussian_rdp_values():
    assert gaussian_rdp(2, 1.0) == 1.0
    assert gaussian_rdp(2, 2.0) == 0.25


def test_gaussian_rdp_scaling_law():
    for zeta in (1.5, 2, 8, 64):
        assert gaussian_rdp(zeta, 2.0) == pytest.approx(
            gaussian_rdp(zeta, 1.0) / 4.0, rel=1e-12)


def test_gaussian_rdp_domain():
    with pytest.raises(ConfigurationError):
        gaussian_rdp(1.0, 1.0)
    # A noiseless step is priced, at inf; a negative sigma is rejected.
    assert gaussian_rdp(2.0, 0.0) == math.inf
    with pytest.raises(ConfigurationError, match="sigma"):
        gaussian_rdp(2.0, -1.0)


def test_nan_sigma_rejected():
    with pytest.raises(ConfigurationError, match="sigma"):
        gaussian_rdp(2, math.nan)
    with pytest.raises(ConfigurationError, match="sigma"):
        subsampled_gaussian_rdp(2, math.nan, 0.1)


def test_subsampled_rejects_fractional_order():
    # Truncating 2.9 to 2 would report order 2's value, 1.0, below the
    # order-2.9 Gaussian RDP of 1.45.
    for order, q in ((2.9, 1.0), (2.5, 0.1), (1.5, 0.1)):
        with pytest.raises(ConfigurationError, match="integer"):
            subsampled_gaussian_rdp(order, 1.0, q)
    assert subsampled_gaussian_rdp(3.0, 1.0, 0.1) == subsampled_gaussian_rdp(
        3, 1.0, 0.1)
    assert subsampled_gaussian_rdp(np.int64(3), 1.0, 0.1) == (
        subsampled_gaussian_rdp(3, 1.0, 0.1))


@pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0, 1.5, 4.0, 30.0])
def test_subsampled_matches_scipy_logsumexp_bitwise(sigma):
    for order in [*range(2, 65), 128, 256, 512]:
        for q in (1e-6, 1e-3, 0.01, 0.2, 0.5, 0.999):
            assert (subsampled_gaussian_rdp(order, sigma, q)
                    == reference_subsampled_gaussian_rdp(order, sigma, q))


def test_subsampled_beyond_default_grid_matches_scipy():
    for order in (513, 514, 700):
        assert (subsampled_gaussian_rdp(order, 8.0, 0.01)
                == reference_subsampled_gaussian_rdp(order, 8.0, 0.01))


def test_log_factorials_correctly_rounded():
    table = accounting._log_factorials(701)
    reference = reference_log_factorials(701)
    assert np.array_equal(table, reference)
    assert np.array_equal(accounting._log_factorials(513), reference[:513])
    assert not table.flags.writeable  # shared through the cache
    # SciPy's gammaln is not correctly rounded, but stays within 2 ulp.
    scipy_table = gammaln(np.arange(1.0, 702.0))
    ulp = np.spacing(np.maximum(reference, 1.0))
    assert np.all(np.abs(scipy_table - reference) <= 2 * ulp)


def test_order_above_default_table_builds_its_table_once(monkeypatch):
    builds = []
    build = accounting._log_factorials.__wrapped__

    def counted(size):
        builds.append(size)
        return build(size)

    monkeypatch.setattr(accounting, "_log_factorials", functools.cache(counted))
    first = subsampled_gaussian_rdp(600, 8.0, 0.01)
    assert subsampled_gaussian_rdp(600, 8.0, 0.01) == first
    subsampled_gaussian_rdp(512, 8.0, 0.01)  # builds the default table
    subsampled_gaussian_rdp(64, 8.0, 0.01)  # which every grid order reuses
    assert builds == [601, 513]


def test_subsampled_full_batch_equals_gaussian():
    for zeta in (2, 3, 16):
        assert subsampled_gaussian_rdp(zeta, 1.3, 1.0) == gaussian_rdp(zeta, 1.3)


def test_subsampled_vanishes_as_q_to_zero():
    assert subsampled_gaussian_rdp(2, 1.0, 1e-12) < 1e-20


def test_subsampled_below_full_batch():
    rng = np.random.default_rng(0)
    for _ in range(50):
        zeta = int(rng.integers(2, 40))
        sigma = float(rng.uniform(0.5, 5.0))
        q = float(rng.uniform(1e-4, 1.0))
        assert (subsampled_gaussian_rdp(zeta, sigma, q)
                <= gaussian_rdp(zeta, sigma) + 1e-15)


def test_subsampled_order2_matches_renyi_integral():
    # Numerical-integration oracle: at order 2 the Renyi divergence of the
    # mixture pair ((1-q)N(0,s^2)+qN(1,s^2), N(0,s^2)) is log E_Q[(P/Q)^2].
    sigma, q = 1.0, 0.01

    def integrand(x):
        p = (1 - q) * norm.pdf(x, 0, sigma) + q * norm.pdf(x, 1, sigma)
        return p * p / norm.pdf(x, 0, sigma)

    val, _ = integrate.quad(integrand, -30, 30, limit=200)
    exact = math.log(val)
    got = subsampled_gaussian_rdp(2, sigma, q)
    assert got == pytest.approx(exact, rel=0.10)


def test_composition_additivity_exact():
    delta = 1e-5
    split = PrivacyLedger()
    split.add_event(1.2, 0.05, 37)
    split.add_event(1.2, 0.05, 63)
    merged = PrivacyLedger()
    merged.add_event(1.2, 0.05, 100)
    assert (compose_and_convert(split, delta).epsilon
            == compose_and_convert(merged, delta).epsilon)


LEDGER_EVENTS = {
    "one_key": [(1.1, 0.05, 5)],
    "full_batch": [(2.0, 1.0, 3)],
    "repeated_key": [(0.9, 0.2, 4)] * 7,
    "multi_key": [(1.0, 0.1, 3), (2.0, 1.0, 1), (0.7, 0.01, 50),
                  (1.0, 0.1, 4), (3.0, 0.5, 2), (0.7, 0.01, 1)],
}


@pytest.mark.parametrize("events", LEDGER_EVENTS.values(), ids=LEDGER_EVENTS)
def test_compose_matches_reference_bitwise(events):
    ledger = PrivacyLedger()
    for sigma, q, steps in events:
        ledger.add_event(sigma, q, steps)
        for delta in (1e-5, 1e-3, 0.1):
            got = compose_and_convert(ledger, delta).epsilon
            assert got == reference_compose_and_convert(ledger, delta)
            assert type(got) is float


def test_rdp_curve_computed_once_per_key(monkeypatch):
    calls = []

    def counted(order, sigma, q):
        calls.append(order)
        return subsampled_gaussian_rdp(order, sigma, q)

    accounting._rdp_curve.cache_clear()
    monkeypatch.setattr(accounting, "subsampled_gaussian_rdp", counted)
    try:
        for _ in range(3):  # the curve is shared by every ledger
            ledger = PrivacyLedger()
            for _ in range(50):
                ledger.add_event(1.0, 0.1, 5)
                compose_and_convert(ledger, 1e-5)
        curve = accounting._rdp_curve(1.0, 0.1)
    finally:  # no later test may read a curve computed under the patch
        accounting._rdp_curve.cache_clear()
    # Orders 1.25, 1.5, 1.75 and 2 all take integer order 2's value, which
    # is computed once: 66 distinct orders of the 69 in the grid.
    assert len(DEFAULT_ORDER_GRID) == 69
    assert sorted(calls) == [*range(2, 65), 128, 256, 512]
    assert not curve.flags.writeable  # shared through the cache


def test_empty_ledger_zero_epsilon():
    assert compose_and_convert(PrivacyLedger(), 1e-5).epsilon == 0.0


def test_full_batch_conversion_matches_analytic_min():
    sigma, delta = 2.0, 1e-5
    ledger = PrivacyLedger()
    ledger.add_event(sigma, 1.0, 1)
    eps = compose_and_convert(ledger, delta).epsilon
    analytic = min(gaussian_rdp(z, sigma) + math.log(1 / delta) / (z - 1)
                   for z in DEFAULT_ORDER_GRID)
    assert eps == pytest.approx(analytic, rel=1e-12)
    # and it upper-bounds the continuum optimum restricted to the grid
    assert eps >= min(z / (2 * sigma**2) + math.log(1 / delta) / (z - 1)
                      for z in np.linspace(1.01, 512, 20000)) - 1e-9


def test_monotonicity_lattice():
    delta = 1e-5
    sigmas = [0.8, 1.0, 1.5]
    qs = [0.01, 0.1, 0.5]
    steps_list = [10, 100, 1000]

    def eps(sigma, q, steps):
        ledger = PrivacyLedger()
        ledger.add_event(sigma, q, steps)
        return compose_and_convert(ledger, delta).epsilon

    grid = {(s, q, n): eps(s, q, n)
            for s in sigmas for q in qs for n in steps_list}
    for s in sigmas:
        for q in qs:
            assert grid[(s, q, 10)] <= grid[(s, q, 100)] <= grid[(s, q, 1000)]
    for s in sigmas:
        for n in steps_list:
            assert grid[(s, 0.01, n)] <= grid[(s, 0.1, n)] <= grid[(s, 0.5, n)]
    for q in qs:
        for n in steps_list:
            assert grid[(1.5, q, n)] <= grid[(1.0, q, n)] <= grid[(0.8, q, n)]


def test_order_grid_span():
    assert len(DEFAULT_ORDER_GRID) >= 32
    assert DEFAULT_ORDER_GRID[0] == 1.25
    assert DEFAULT_ORDER_GRID[-1] == 512


def test_ledger_event_validation():
    ledger = PrivacyLedger()
    for sigma in (-1.0, math.nan):
        with pytest.raises(ConfigurationError, match="sigma"):
            ledger.add_event(sigma, 0.1, 10)
    noiseless = PrivacyLedger()  # sigma = 0 is charged, at inf
    noiseless.add_event(0.0, 0.1, 10)
    assert noiseless.steps == {(0.0, 0.1): 10}
    assert compose_and_convert(noiseless, 1e-5).epsilon == math.inf
    with pytest.raises(ConfigurationError):
        ledger.add_event(1.0, 1.5, 10)
    ledger.add_event(1.0, 0.1, 0)  # no-op
    assert ledger.steps == {}
    ledger.add_event(1.0, 0.1, 3)
    ledger.add_event(2.0, 0.1, 1)
    ledger.add_event(1.0, 0.1, np.int64(4))
    assert list(ledger.steps.items()) == [((1.0, 0.1), 7), ((2.0, 0.1), 1)]
    assert type(ledger.steps[(1.0, 0.1)]) is int
    # 2.5 must not be charged as 2 steps, understating epsilon
    for steps in (2.5, math.nan, -1, 3.0, "3"):
        with pytest.raises(ConfigurationError, match="integer"):
            ledger.add_event(1.0, 0.1, steps)
    assert list(ledger.steps.items()) == [((1.0, 0.1), 7), ((2.0, 0.1), 1)]


def test_third_party_epsilon_can_understate():
    # The closed form is an asymptotic reference with its constant set to
    # 1, not a bound: here it reports less than a third of the RDP bound.
    ledger = PrivacyLedger()
    for _ in range(10):
        ledger.add_event(1.0, 0.01, 1)
    eps_rdp = compose_and_convert(ledger, 1e-5).epsilon
    eps_ref = third_party_epsilon(0.01, 10, 1, 1e-5, 1.0)
    assert eps_ref == pytest.approx(0.4208, abs=1e-4)
    assert eps_rdp == pytest.approx(1.4569, abs=1e-4)
    assert eps_ref < eps_rdp / 3


def test_third_party_epsilon_structure():
    base = third_party_epsilon(0.01, 100, 20, 1e-5, 1.0)
    assert third_party_epsilon(0.02, 100, 20, 1e-5, 1.0) == pytest.approx(
        2 * base, rel=1e-12)
    assert third_party_epsilon(0.01, 100, 20, 1e-5, 2.0) == pytest.approx(
        base / 2, rel=1e-12)
    # T -> 4T grows by a bit more than 2 (sqrt(T) times sqrt(log T) growth)
    grown = third_party_epsilon(0.01, 400, 20, 1e-5, 1.0)
    assert 2.0 < grown / base < 2.5


def test_server_budget_instantiation():
    b = server_budget(1.0, 1e-5, 50, 0.1)
    assert b.epsilon == pytest.approx(math.sqrt(500), rel=1e-12)
    assert b.delta == pytest.approx((1e-5 / 2) * 11, rel=1e-12)


def test_server_budget_domain():
    with pytest.raises(ConfigurationError):
        server_budget(1.0, 1e-5, 50, 0.0)


def test_budget_validation():
    with pytest.raises(ConfigurationError):
        Budget(-1.0, 1e-5)
    with pytest.raises(ConfigurationError):
        Budget(1.0, 0.0)


@pytest.mark.parametrize("sigma", [1e-160, 1e-200, 0.0])
def test_tiny_sigma_has_no_finite_bound(sigma):
    # At 1e-160 the j(j-1)/(2 sigma^2) terms overflow; at 1e-200 2 sigma^2
    # itself underflows to 0. Either way the bound is inf, as at sigma = 0,
    # never NaN, a division error or a rejected epsilon.
    assert gaussian_rdp(2, sigma) == math.inf
    with np.errstate(over="ignore"):
        assert subsampled_gaussian_rdp(2, sigma, 0.2) == math.inf
        ledger = PrivacyLedger()
        ledger.add_event(sigma, 0.2, 10)
    assert compose_and_convert(ledger, 1e-5).epsilon == math.inf
    with pytest.raises(ConfigurationError):
        Budget(math.nan, 1e-5)


@pytest.mark.parametrize("sigma", [1e-152, 1e-154, 1e-160, 1e-200, 0.0])
def test_tiny_sigma_accounts_without_warnings(sigma):
    # Exponents or step totals past the float range give inf without a
    # RuntimeWarning. Down to 1e-154 the low orders stay finite, and every
    # value keeps the reference's bits (at 1e-200, 2 sigma^2 is 0 and the
    # reference divides 0 by 0).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        accounting._rdp_curve.cache_clear()  # computed under the filter
        ledger = PrivacyLedger()
        ledger.add_event(sigma, 0.2, 10)
        curve = accounting._rdp_curve(sigma, 0.2)
        eps = compose_and_convert(ledger, 1e-5).epsilon
    assert math.isfinite(curve[0]) == (sigma >= 1e-154)
    assert math.isfinite(eps) == (sigma == 1e-152)
    if 2.0 * sigma * sigma:
        with np.errstate(over="ignore"):
            expected = [reference_subsampled_gaussian_rdp(
                max(2, math.ceil(a)), sigma, 0.2) for a in DEFAULT_ORDER_GRID]
            assert eps == reference_compose_and_convert(ledger, 1e-5)
        assert np.array_equal(curve, expected)
    else:
        assert np.all(curve == math.inf)


def test_noiseless_event_makes_a_mixed_ledger_unbounded():
    # One round released without noise voids the guarantee of every other
    # round: the composed RDP is inf at every order, without a warning.
    ledger = PrivacyLedger()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ledger.add_event(1.0, 0.2, 10)
        assert math.isfinite(compose_and_convert(ledger, 1e-5).epsilon)
        ledger.add_event(0.0, 0.2, 1)
        ledger.add_event(1.0, 0.2, 10)
        assert np.all(accounting._rdp_curve(0.0, 0.2) == math.inf)
        assert gaussian_rdp(2, 0.0) == math.inf
        assert subsampled_gaussian_rdp(2, 0.0, 0.2) == math.inf
        assert compose_and_convert(ledger, 1e-5).epsilon == math.inf
