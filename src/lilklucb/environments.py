"""Reward-generating processes for simulation experiments.

Two arm families, both with support inside [0, 1]: parametric Bernoulli,
and bootstrap replay of an observed pool of contest ratings.  An
Environment bundles one distribution per arm, ordered by the arms'
analytic means so arm 0 is the unique best arm.  Arms draw through a
source's scalar ``random()`` and ``integers(m)``: a ``Draws``, the command
line's generator, or a NumPy Generator.
"""

from __future__ import annotations

import math
import random
from typing import Union

from . import Frozen, InputError
from .data_ingest import ContestDataset
from .kl_math import as_prob

# The reward of each star rating of a contest caption.
STAR_REWARDS = {1: 0.0, 2: 0.5, 3: 1.0}


class Bernoulli(Frozen):
    """Arm paying 1 with probability p, else 0."""

    _fields = ("p",)

    def __init__(self, p: float) -> None:
        as_prob(p, "p")
        object.__setattr__(self, "p", p)

    @property
    def mean(self) -> float:
        return self.p

    def draw(self, rng: Draws) -> float:
        return 1.0 if rng.random() < self.p else 0.0


class Bootstrap(Frozen):
    """Arm resampling uniformly with replacement from an observed pool."""

    _fields = ("pool",)

    def __init__(self, pool: tuple[float, ...]) -> None:
        if not pool:
            raise InputError("bootstrap pool must be non-empty")
        for v in pool:
            as_prob(v, "pool value")
        object.__setattr__(self, "pool", pool)

    @property
    def mean(self) -> float:
        return math.fsum(self.pool) / len(self.pool)

    def draw(self, rng: Draws) -> float:
        return self.pool[rng.integers(len(self.pool))]


ArmDistribution = Union[Bernoulli, Bootstrap]


class Draws(random.Random):
    """The standard library's Mersenne Twister (MT19937), plus ``integers(m)``.

    ``random()`` is ``random.Random``'s, whose stream for an int seed is
    stable across Python versions.  ``integers(m)`` is uniform on [0, m) by
    exact rejection: it draws ``getrandbits(m.bit_length())`` until a value
    falls below m, and returns 0 without drawing for m = 1.
    """

    def integers(self, m: int) -> int:
        if m == 1:
            return 0
        if m < 1:
            raise InputError(f"integers needs m >= 1, got {m!r}")
        bits = m.bit_length()
        x = self.getrandbits(bits)
        while x >= m:
            x = self.getrandbits(bits)
        return x


class Environment(Frozen):
    """At least 2 arms, arm 0 strictly best by its mean.

    Immutable; concurrent runs should not share one generator.
    """

    _fields = ("arms",)

    def __init__(self, arms: tuple[ArmDistribution, ...]) -> None:
        means = tuple(arm.mean for arm in arms)
        if len(means) < 2:
            raise InputError(f"need at least 2 arms, got {len(means)}")
        if not means[0] > means[1]:
            raise InputError("arm 0 must be the unique best arm")
        for a, b in zip(means, means[1:]):
            if b > a:
                raise InputError("true_means must be non-increasing")
        object.__setattr__(self, "arms", arms)

    @property
    def true_means(self) -> tuple[float, ...]:
        """Each arm's analytic mean, in arm order."""
        return tuple(arm.mean for arm in self.arms)

    @property
    def n_arms(self) -> int:
        return len(self.arms)


def sample(env: Environment, arm: int, rng: Draws) -> float:
    """Draw one reward from the given arm; ``rng`` may also be a NumPy Generator."""
    arms = env.arms
    if not 0 <= arm < len(arms):
        raise IndexError(f"arm index {arm} out of range for {len(arms)} arms")
    return arms[arm].draw(rng)


def parametric_means(n: int, alpha: float) -> tuple[float, ...]:
    """Mean profile 1 - ((i-1)/n)^alpha for i = 1..n; the best mean is exactly 1."""
    if n < 2:
        raise InputError(f"need at least 2 arms, got {n!r}")
    if not alpha > 0.0:
        raise InputError(f"alpha must be positive, got {alpha!r}")
    return tuple(1.0 - ((i - 1) / n) ** alpha for i in range(1, n + 1))


def gap_family(n: int, alpha: float) -> tuple[float, ...]:
    """Mean gaps (i/n)^alpha for i = 1..n, positive and strictly increasing.

    The gaps are taken below a best mean of 1, so every mean 1 - gap must
    also lie below 1.  Raises InputError where floats cannot hold that: a
    large alpha underflows the smallest gaps to 0 or leaves them under
    about 1.1e-16, where 1 - gap rounds to 1; a tiny one rounds them all
    to 1.
    """
    if n < 1:
        raise InputError(f"need at least 1 gap, got {n!r}")
    if not alpha > 0.0:
        raise InputError(f"alpha must be positive, got {alpha!r}")
    gaps = tuple((i / n) ** alpha for i in range(1, n + 1))
    if not gaps[0] > 0.0 or any(b <= a for a, b in zip(gaps, gaps[1:])):
        raise InputError(
            f"gaps (i/{n})^{alpha!r} are not positive and strictly increasing in floats")
    if not 1.0 - gaps[0] < 1.0:
        raise InputError(f"the mean 1 - (1/{n})^{alpha!r} rounds to the best mean 1")
    return gaps


def bernoulli_environment(means) -> Environment:
    """Environment of independent Bernoulli arms with the given mean profile."""
    return Environment(tuple(Bernoulli(float(m)) for m in means))


def from_contest(dataset: ContestDataset) -> Environment:
    """Bootstrap environment from contest vote counts.

    Each caption becomes one arm whose pool holds its observed ratings mapped
    through ``STAR_REWARDS``; arms are stably sorted by decreasing pool mean.
    A tie between the top two pool means is rejected (by Environment) rather
    than perturbed, since identification needs a unique best arm.
    """
    arms = []
    for cap in dataset.captions:
        pool = []
        for star, count in zip((1, 2, 3), cap.star_counts):
            pool.extend([STAR_REWARDS[star]] * count)
        arms.append(Bootstrap(tuple(pool)))
    return Environment(tuple(sorted(arms, key=lambda arm: -arm.mean)))
