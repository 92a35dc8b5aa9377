"""The exact coverage DP of ``exact_dp`` against enumeration of every path."""

from fractions import Fraction

import numpy as np
import pytest

from exact_dp import exact_rates
from lilklucb.confidence import SCHEME_KINDS, BoundScheme, coverage_envelope, integer_exit_curves


def _enumerated_rates(scheme, mu, t_max):
    """Each event's probability over all 2^t_max paths: hitting paths counted by their ones."""
    low_sum, high_sum = integer_exit_curves(*coverage_envelope(scheme, mu, t_max))
    sums = np.cumsum((np.arange(2**t_max)[:, None] >> np.arange(t_max)) & 1, axis=1)
    hit_high = (sums > high_sum).any(axis=1)
    hit_low = (sums < low_sum).any(axis=1)
    p = Fraction(mu)

    def rate(hit):
        counts = np.bincount(sums[hit, -1], minlength=t_max + 1).tolist()
        return float(sum(c * p**k * (1 - p) ** (t_max - k) for k, c in enumerate(counts)))

    return {
        "true_mean_below_lower": rate(hit_high),
        "true_mean_above_upper": rate(hit_low),
        "joint": rate(hit_high | hit_low),
    }


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_dp_is_the_enumeration_of_every_path(kind):
    nonzero = 0
    for mu in (0.05, 0.3, 0.5, 0.93):
        for delta in (0.05, 0.5):
            scheme = BoundScheme(kind, 8, delta)
            ours = exact_rates(scheme, mu, 14)
            enumerated = _enumerated_rates(scheme, mu, 14)
            assert ours.keys() == enumerated.keys()
            for event, rate in enumerated.items():
                assert abs(ours[event] - rate) <= 1e-15, (mu, delta, event, ours[event], rate)
            nonzero += ours["joint"] > 0.0
    assert nonzero > 0
