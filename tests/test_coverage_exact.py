"""Exactness of the vectorized coverage path against its scalar reference.

``coverage_rates`` draws its Bernoulli streams as uniforms against NumPy's
own inversion constant, compares integer running sums with integer exit
curves, and takes the kl envelopes from one array solve per side.  These
tests pin each of those steps to the straightforward implementation kept
below: the per-t scalar envelope loop, ``rng.binomial`` draws and float
exit curves.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilklucb.cli import _bernoulli_draws, coverage_rates
from lilklucb.confidence import (
    _FIRST_ARG_TOL,
    KL_TILTED,
    SG1,
    SG2,
    BoundScheme,
    _first_arg_inverse,
    _first_arg_inverses,
    coverage_envelope,
    sg1_radius,
    sg2_radius,
    threshold,
)

MUS = (0.0, 1e-9, 0.1, 1.0 / 3.0, 0.5, 0.5 + 1e-7, 2.0 / 3.0, 0.7, 0.9, 0.999, 1.0)


def _scalar_envelope(scheme, mu, t_max):
    """coverage_envelope as one scalar solve per t, each started at the root before."""
    low = np.empty(t_max)
    high = np.empty(t_max)
    tilt = scheme.tilt
    zu = zl = None
    for t in range(1, t_max + 1):
        if scheme.kind in (SG1, SG2):
            r = sg1_radius(scheme, t) if scheme.kind == SG1 else sg2_radius(t, scheme.delta)
            low[t - 1] = mu - r
            high[t - 1] = mu + r
            continue
        thr = threshold(scheme, t)
        zu = _first_arg_inverse(mu, thr, 1.0, start=zu)
        zl = _first_arg_inverse(mu, thr, 0.0, start=zl)
        if scheme.kind == KL_TILTED:
            high[t - 1] = mu + (tilt + 1.0) / tilt * (zu - mu)
            low[t - 1] = mu - (tilt + 1.0) / tilt * (mu - zl)
        else:
            high[t - 1] = zu
            low[t - 1] = zl
    return low, high


def _reference_rates(scheme, mu, t_max, trajectories, seed, batch_size=512):
    """coverage_rates with binomial draws, int64 sums and float exit curves."""
    low, high = _scalar_envelope(scheme, mu, t_max)
    t = np.arange(1, t_max + 1, dtype=np.float64)
    low_sum = low * t
    high_sum = high * t
    rng = np.random.default_rng(seed)
    below = above = joint = 0
    remaining = trajectories
    while remaining > 0:
        b = min(batch_size, remaining)
        remaining -= b
        sums = np.cumsum(rng.binomial(1, mu, size=(b, t_max)), axis=1)
        hit_high = (sums > high_sum).any(axis=1)
        hit_low = (sums < low_sum).any(axis=1)
        below += int(hit_high.sum())
        above += int(hit_low.sum())
        joint += int((hit_high | hit_low).sum())
    return {
        "true_mean_below_lower": below / trajectories,
        "true_mean_above_upper": above / trajectories,
        "joint": joint / trajectories,
    }


def _integer_curves(low, high):
    t = np.arange(1, low.size + 1, dtype=np.float64)
    return np.floor(high * t), np.ceil(low * t)


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_draws_equal_binomial_and_leave_the_same_state(seed):
    for mu in MUS:
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = _bernoulli_draws(ours, mu, (64, 2000))
        expected = theirs.binomial(1, mu, size=(64, 2000))
        assert np.array_equal(draws, expected == 1), mu
        assert ours.bit_generator.state == theirs.bit_generator.state, mu


@pytest.mark.parametrize("kind", ["kl", "kl-prime", "sg1", "sg2"])
def test_rates_equal_the_scalar_reference(kind):
    # delta = 0.9 makes misses common enough that a changed draw or curve
    # shows; 1300 trajectories leave a partial last batch.  The horizons
    # end a trajectory on, just before and just after a block edge of the
    # screen (64 steps), and 126/127 sit on either side of the switch from
    # int8 to int16 sums
    scheme = BoundScheme(kind, 8, 0.9)
    nonzero = 0
    for t_max in (1, 63, 64, 65, 126, 127, 600):
        for mu in (0.0, 0.1, 0.5, 0.7, 0.9, 0.99, 1.0):
            rates = coverage_rates(scheme, mu, t_max, 1300, seed=17)
            assert rates == _reference_rates(scheme, mu, t_max, 1300, seed=17), (t_max, mu)
            nonzero += rates["joint"] > 0.0
    assert nonzero >= 2


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
MU = st.one_of(st.floats(0.01, 0.99), st.sampled_from([1e-6, 1.0 - 1e-6]),
               st.floats(1e-6, 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-6))


@PROPERTY
@given(mu=MU, tilt=st.sampled_from([4, 8, 64, 1024]), upper=st.booleans(),
       kind=st.sampled_from(["kl", "kl-prime"]), delta=st.sampled_from([0.01, 0.05, 0.5]))
def test_array_inverse_matches_scalar_inverse(mu, tilt, upper, kind, delta):
    scheme = BoundScheme(kind, tilt, delta)
    t_max = 300
    edge = 1.0 if upper else 0.0
    bounds = np.array([threshold(scheme, t) for t in range(1, t_max + 1)])
    xs = _first_arg_inverses(mu, bounds, edge)
    scalar = np.array([_first_arg_inverse(mu, b, edge) for b in bounds])
    assert np.all(np.abs(xs - scalar) <= 2 * _FIRST_ARG_TOL)
    # feasible as the array solve's divergence computes it
    interior = (xs != edge) & (xs != mu)
    x = xs[interior]
    divergence = x * np.log(x / mu) + (1.0 - x) * np.log((1.0 - x) / (1.0 - mu))
    assert np.all(divergence <= bounds[interior])
    assert np.all((xs - mu) * (edge - mu) >= 0.0)
    # the integer exit curves are the scalar loop's
    ours = _integer_curves(*coverage_envelope(scheme, mu, t_max))
    reference = _integer_curves(*_scalar_envelope(scheme, mu, t_max))
    side = 0 if upper else 1
    assert np.array_equal(ours[side], reference[side])


def test_degenerate_and_saturated_entries_follow_the_scalar_rules():
    bounds = np.array([math.inf, 5.0, 0.3, 1e-3])
    for edge in (0.0, 1.0):
        for mu in (0.0, 1.0):
            assert np.array_equal(_first_arg_inverses(mu, bounds, edge), np.full(4, mu))
        xs = _first_arg_inverses(0.4, bounds, edge)
        assert xs[0] == xs[1] == edge
        assert np.all(np.abs(xs - [_first_arg_inverse(0.4, b, edge) for b in bounds])
                      <= 2 * _FIRST_ARG_TOL)
