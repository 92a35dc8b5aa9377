"""Exact anytime miss rates of a Bernoulli stream, by a DP over its running sum.

``exact_rates(scheme, mu, t_max)`` is what ``cli.coverage_rates`` estimates
by Monte Carlo: for each event that ``coverage_rates`` names, the
probability that it happens at some t <= t_max to a stream of
Bernoulli(mu) rewards.  The law of the running sum steps as
p <- p (1 - mu) + shift(p) mu.  After each step the mass of the sums beyond
the exit curves of ``integer_exit_curves`` has exited: it is removed, and
all of it is added up at the end with ``math.fsum``.  Only the band of
sums between the curves is carried on.
"""

import math

import numpy as np

from lilklucb.confidence import coverage_envelope, integer_exit_curves


def exit_probability(mu: float, low_sum, high_sum) -> float:
    """P(s_t < low_sum[t-1] or s_t > high_sum[t-1] for some t), s_t a sum of t Bernoulli(mu)."""
    mass, first = np.ones(1), 0  # mass[i]: P(s_t = first + i and no exit so far)
    exited = []
    for low, high in zip(low_sum.tolist(), high_sum.tolist()):
        step = np.zeros(mass.size + 1)
        step[:-1] = mass * (1.0 - mu)
        step[1:] += mass * mu
        # the band keeps the sums in [low, high], entries [begin, end) of step
        begin = max(low - first, 0)
        end = max(min(high - first + 1, step.size), begin)
        exited += step[:begin].tolist() + step[end:].tolist()
        mass, first = step[begin:end], first + begin
        if mass.size == 0:
            break
    return math.fsum(exited)


def exact_rates(scheme, mu: float, t_max: int) -> dict:
    """``coverage_rates``' three events, exactly up to the floats' rounding."""
    low_sum, high_sum = integer_exit_curves(*coverage_envelope(scheme, mu, t_max))
    never_low, never_high = np.full(t_max, -1), np.full(t_max, t_max + 1)
    return {
        "true_mean_below_lower": exit_probability(mu, never_low, high_sum),
        "true_mean_above_upper": exit_probability(mu, low_sum, never_high),
        "joint": exit_probability(mu, low_sum, high_sum),
    }
