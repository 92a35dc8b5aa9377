"""Sampling engine for best-arm identification with anytime confidence bounds.

Contains the adaptive identification loop (sample the empirical leader and
its strongest challenger until the leader's lower bound clears every rival's
upper bound), a fixed-budget UCB race used for scheme comparisons, and an
evaluator for the predicted sample-complexity of an instance.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import environments
from .confidence import BoundScheme, kappa, lower_bound, upper_bound
from .environments import Environment, gap_family
from .kl_math import chernoff_information


@dataclass
class ArmStats:
    """Pull count and running reward sum for one arm."""

    pulls: int = 0
    reward_sum: float = 0.0

    def update(self, reward: float) -> None:
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"rewards must lie in [0, 1], got {reward!r}")
        self.pulls += 1
        self.reward_sum += reward

    @property
    def mean(self) -> float:
        if self.pulls < 1:
            raise ValueError("mean undefined before the first pull")
        return self.reward_sum / self.pulls


@dataclass(frozen=True)
class RunRecord:
    """Full trace of one bandit run."""

    recommended: int
    total_samples: int
    per_arm_pulls: tuple[int, ...]
    stopped: bool
    snapshots: tuple[tuple[int, bool], ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_samples != sum(self.per_arm_pulls):
            raise ValueError("total_samples must equal the sum of per-arm pulls")
        counts = [s[0] for s in self.snapshots]
        if counts != sorted(counts):
            raise ValueError("snapshots must be sorted by total sample count")


def _argmax_random_tie(values: np.ndarray, rng: np.random.Generator) -> int:
    best = values.max()
    ties = np.flatnonzero(values == best)
    if ties.size == 1:
        return int(ties[0])
    return int(ties[rng.integers(ties.size)])


def top_index(stats, rng: np.random.Generator) -> int:
    """Index of the arm with the highest empirical mean, ties broken at random."""
    if not stats:
        raise ValueError("need at least one arm")
    if any(s.pulls < 1 for s in stats):
        raise ValueError("every arm needs at least one pull before ranking")
    means = np.array([s.mean for s in stats])
    return _argmax_random_tie(means, rng)


class _IncrementalMax:
    """Running maximum of per-arm values, picked with ``_argmax_random_tie``'s rule.

    ``holders`` maps each value some arm holds to the ascending list of those
    arms; ``heap`` holds negated values, and an entry whose value no arm holds
    any more is dropped once it reaches the top.  ``pick`` returns the single
    arm at the maximum or ``ties[rng.integers(len(ties))]``: the same arm,
    from the same generator draws, as ``np.flatnonzero(values == values.max())``
    would give.  Moving one arm costs O(log n) heap work.
    """

    def __init__(self, values):
        self.values = list(values)
        self.holders: dict[float, list[int]] = {}
        for arm, value in enumerate(self.values):
            self.holders.setdefault(value, []).append(arm)
        self.heap = [-value for value in self.holders]
        heapq.heapify(self.heap)

    def move(self, arm: int, value: float) -> None:
        old = self.values[arm]
        if value == old:
            return
        ties = self.holders[old]
        if len(ties) == 1:
            del self.holders[old]
        else:
            ties.remove(arm)
        self.values[arm] = value
        ties = self.holders.get(value)
        if ties is None:
            self.holders[value] = [arm]
            heapq.heappush(self.heap, -value)
        else:
            bisect.insort(ties, arm)

    def pick(self, rng: np.random.Generator) -> int:
        heap, holders = self.heap, self.holders
        while -heap[0] not in holders:
            heapq.heappop(heap)
        ties = holders[-heap[0]]
        if len(ties) == 1:
            return ties[0]
        return ties[rng.integers(len(ties))]


def _bound_table(cache: dict, side: str, scheme: BoundScheme) -> dict:
    """The (pulls, reward_sum) -> bound table of one side ("u"/"l") and scheme."""
    return cache.setdefault((side, scheme), {})


def _puller(env: Environment, scheme: BoundScheme, rng: np.random.Generator,
            cache: dict, pulls: list, sums: list):
    """A function that pulls arm i once and returns its new upper bound.

    Per-arm pull counts and reward sums live in the flat lists ``pulls`` and
    ``sums``; upper bounds are looked up in the scheme's table in ``cache``.
    """
    table = _bound_table(cache, "u", scheme)

    def pull(i: int) -> float:
        reward = environments.sample(env, i, rng)
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"rewards must lie in [0, 1], got {reward!r}")
        pulls[i] += 1
        sums[i] += reward
        key = (pulls[i], sums[i])
        ucb = table.get(key)
        if ucb is None:
            ucb = table[key] = upper_bound(scheme, ArmStats(*key))
        return ucb

    return pull


def lil_klucb(
    env: Environment,
    scheme: BoundScheme,
    budget: int | None,
    rng: np.random.Generator,
    seed: int = 0,
    bound_cache: dict | None = None,
) -> RunRecord:
    """Adaptive identification run; returns the recommended arm and its trace.

    Initializes with one pull per arm, then repeats: rank arms by empirical
    mean (random tie-break), test whether the leader's lower bound at
    confidence delta/(n-1) exceeds every rival's upper bound at delta, and
    if not, pull the leader and the rival with the highest upper bound
    (lowest index on ties).  Stops with ``stopped=False`` once another round
    would exceed ``budget``.

    ``bound_cache`` may be shared across runs to reuse bound inversions; it
    holds one table per (side, scheme) keyed by (pulls, reward_sum).
    """
    n = env.n_arms
    if n < 2:
        raise ValueError("identification needs at least 2 arms")
    if budget is not None and budget < n:
        raise ValueError("budget must cover one initialization pull per arm")
    leader_scheme = scheme.with_delta(scheme.delta / (n - 1))
    cache = {} if bound_cache is None else bound_cache
    lcb_table = _bound_table(cache, "l", leader_scheme)
    pulls = [0] * n
    sums = [0.0] * n
    pull = _puller(env, scheme, rng, cache, pulls, sums)
    ucbs = [pull(i) for i in range(n)]
    total = n
    while True:
        top = _argmax_random_tie(np.divide(sums, pulls), rng)
        key = (pulls[top], sums[top])
        leader_lcb = lcb_table.get(key)
        if leader_lcb is None:
            leader_lcb = lcb_table[key] = lower_bound(leader_scheme, ArmStats(*key))
        rivals = ucbs.copy()
        rivals[top] = -math.inf
        challenger = max(range(n), key=rivals.__getitem__)  # first index on ties
        if leader_lcb > rivals[challenger]:
            stopped = True
            break
        if budget is not None and total + 2 > budget:
            stopped = False
            break
        ucbs[top] = pull(top)
        ucbs[challenger] = pull(challenger)
        total += 2
    return RunRecord(
        recommended=top,
        total_samples=total,
        per_arm_pulls=tuple(pulls),
        stopped=stopped,
        snapshots=(),
        seed=seed,
    )


def _best_arm_in_top_k(means: np.ndarray, k: int, rng: np.random.Generator) -> bool:
    """Whether arm 0 ranks in the top k by empirical mean, ties broken at random."""
    order = np.lexsort((rng.random(means.size), -means))
    return bool(np.any(order[:k] == 0))


def ucb_race(
    env: Environment,
    scheme: BoundScheme,
    budget: int,
    snapshot_every: int,
    k: int,
    rng: np.random.Generator,
    seed: int = 0,
    bound_cache: dict | None = None,
) -> RunRecord:
    """Fixed-budget UCB loop recording top-k membership of the true best arm.

    After one initialization pull per arm, every step pulls the arm with the
    highest upper bound.  Ties are broken uniformly at random: with m > 1
    arms at the maximum, the ``rng.integers(m)``-th of them in index order
    is pulled, and a unique maximum draws nothing.  Only the pulled arm's
    bound changes, so the maximum is kept incrementally at O(log n) per pull.
    A snapshot is recorded at initialization and every ``snapshot_every``
    samples thereafter (plus at the final budget), flagging whether arm 0
    currently sits among the k highest empirical means.
    """
    n = env.n_arms
    if k < 1 or k > n:
        raise ValueError(f"k must lie in [1, {n}], got {k!r}")
    if budget < n:
        raise ValueError("budget must cover one initialization pull per arm")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    cache = {} if bound_cache is None else bound_cache
    pulls = [0] * n
    sums = [0.0] * n
    pull = _puller(env, scheme, rng, cache, pulls, sums)
    best = _IncrementalMax([pull(i) for i in range(n)])
    total = n
    snapshots = [(total, _best_arm_in_top_k(np.divide(sums, pulls), k, rng))]
    while total < budget:
        arm = best.pick(rng)
        best.move(arm, pull(arm))
        total += 1
        if (total - n) % snapshot_every == 0 or total == budget:
            snapshots.append((total, _best_arm_in_top_k(np.divide(sums, pulls), k, rng)))
    return RunRecord(
        recommended=_argmax_random_tie(np.divide(sums, pulls), rng),
        total_samples=total,
        per_arm_pulls=tuple(pulls),
        stopped=False,
        snapshots=tuple(snapshots),
        seed=seed,
    )


@dataclass(frozen=True)
class ComplexityBound:
    """Predicted sample-complexity decomposition for one instance.

    ``total`` adds the best-arm term and one term per suboptimal arm, all up
    to the universal constant (reported with that constant set to 1).
    ``crossing_indices`` holds, for each suboptimal arm, the first sample
    size at which the threshold schedule at confidence delta^2 drops below
    the arm's Chernoff separation from its witness.
    """

    per_arm_terms: tuple[float, ...]
    best_arm_term: float
    total: float
    witness_mus: tuple[float, ...]
    crossing_indices: tuple[int, ...]
    best_arm_crossing: int

    def __post_init__(self) -> None:
        if self.best_arm_term <= 0 or any(t <= 0 for t in self.per_arm_terms):
            raise ValueError("all bound terms must be positive")
        expected = self.best_arm_term + math.fsum(self.per_arm_terms)
        if not math.isclose(self.total, expected, rel_tol=1e-9):
            raise ValueError("total must equal the sum of its terms")


def _schedule(tilt: int, delta: float):
    """Threshold schedule t -> ln(kappa * log2(2t) / delta) / t at one confidence."""
    kap = kappa(tilt, delta)
    return lambda t: max(0.0, math.log(kap * math.log2(2.0 * t) / delta) / t)


def _first_crossing(f, target: float) -> int:
    """Smallest t with f(t) < target; f is decreasing for t >= 2."""
    if f(1) < target:
        return 1
    hi = 2
    while f(hi) >= target:
        hi *= 2
        if hi > 2**62:
            raise OverflowError("threshold schedule never crosses the target")
    lo = hi // 2  # f(lo) >= target
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) < target:
            hi = mid
        else:
            lo = mid
    return hi


def _bound_term(div: float, log_factor: float) -> float:
    """ln(log_factor * max(1, ln(1/div))) / div, the shape of one bound term.

    The iterated logarithm is floored at 1 so the term stays positive and
    finite when the separation exceeds 1/e.
    """
    if div <= 0.0:
        return math.inf
    if math.isinf(div):
        return 0.0
    return math.log(log_factor * max(1.0, math.log(1.0 / div))) / div


def predicted_complexity(
    mus, delta: float, grid_points: int, tilt: int = 8
) -> ComplexityBound:
    """Evaluate the predicted sample-complexity bound for a mean profile.

    ``mus`` must be sorted descending with a strict gap at the top.  The
    witnesses separating each suboptimal arm from the best are searched on a
    grid: every per-arm term decreases as its witness rises while the
    best-arm term depends only on the largest witness, so the minimizing
    configuration places all witnesses at one common value, scanned over
    ``grid_points`` interior points of (mu_2, mu_1).
    """
    mus = tuple(float(m) for m in mus)
    if len(mus) < 2:
        raise ValueError("need at least 2 arms")
    if any(b > a for a, b in zip(mus, mus[1:])):
        raise ValueError("means must be sorted in descending order")
    if not mus[0] > mus[1]:
        raise ValueError("the top two means must be strictly separated")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")

    n = len(mus)
    candidates = np.linspace(mus[1], mus[0], grid_points + 2)[1:-1]
    best = None
    for v in candidates:
        d_best = chernoff_information(mus[0], v)
        total = _bound_term(d_best, (n - 1) / delta)
        arm_terms = []
        for mu_i in mus[1:]:
            term = _bound_term(chernoff_information(mu_i, v), 1.0 / delta)
            arm_terms.append(term)
            total += term
        if best is None or total < best[0]:
            best = (total, float(v), _bound_term(d_best, (n - 1) / delta), tuple(arm_terms))
    total, witness, best_term, arm_terms = best

    pair_schedule = _schedule(tilt, delta * delta)
    leader_schedule = _schedule(tilt, delta / (n - 1))
    crossings = tuple(
        _first_crossing(pair_schedule, chernoff_information(mu_i, witness))
        for mu_i in mus[1:]
    )
    best_crossing = _first_crossing(
        leader_schedule, chernoff_information(mus[0], witness)
    )
    return ComplexityBound(
        per_arm_terms=arm_terms,
        best_arm_term=best_term,
        total=total,
        witness_mus=tuple(witness for _ in mus[1:]),
        crossing_indices=crossings,
        best_arm_crossing=best_crossing,
    )


def hardness_sums(n: int, alpha: float) -> tuple[float, float]:
    """Instance-hardness sums for the gap family (i/n)^alpha with best mean 1.

    Returns (kl_sum, sg_sum): the sum over suboptimal arms of the reciprocal
    Chernoff separation from the best arm, and of the reciprocal squared gap.
    Arms whose mean hits 0 contribute nothing to the KL sum (their separation
    from a sure-success arm is infinite).
    """
    if n < 2:
        raise ValueError("need at least 2 arms")
    gaps = gap_family(n, alpha)
    kl_sum = 0.0
    sg_sum = 0.0
    for gap in gaps[1:]:
        sg_sum += 1.0 / (gap * gap)
        div = chernoff_information(1.0 - gap, 1.0)
        if not math.isinf(div):
            kl_sum += 1.0 / div
    return kl_sum, sg_sum
