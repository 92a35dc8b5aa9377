"""Sampling engine for best-arm identification with anytime confidence bounds.

Contains the adaptive identification loop (sample the empirical leader and
its strongest challenger until the leader's lower bound clears every rival's
upper bound), a fixed-budget UCB race used for scheme comparisons, and an
evaluator for the predicted sample-complexity of an instance.
"""

from __future__ import annotations

import math
from bisect import insort
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from . import Frozen, InputError, environments
from .confidence import (
    KL_TILTED,
    BoundScheme,
    _check_delta,
    _schedule,
    bound_side,
    lower_bound,
    upper_bound,
)
from .environments import Draws, Environment, gap_family
from .kl_math import chernoff_information


class RunRecord(Frozen):
    """Full trace of one bandit run."""

    _fields = ("recommended", "total_samples", "per_arm_pulls", "stopped", "snapshots")

    def __init__(self, recommended: int, total_samples: int, per_arm_pulls: tuple[int, ...],
                 stopped: bool, snapshots: tuple[tuple[int, bool], ...]) -> None:
        if total_samples != sum(per_arm_pulls):
            raise ValueError("total_samples must equal the sum of per-arm pulls")
        counts = [s[0] for s in snapshots]
        if counts != sorted(counts):
            raise ValueError("snapshots must be sorted by total sample count")
        object.__setattr__(self, "recommended", recommended)
        object.__setattr__(self, "total_samples", total_samples)
        object.__setattr__(self, "per_arm_pulls", per_arm_pulls)
        object.__setattr__(self, "stopped", stopped)
        object.__setattr__(self, "snapshots", snapshots)


def _argmax_random_tie(values: list, rng: Draws) -> int:
    """Index of the largest value in the list, ties broken at random.

    With m values at the maximum, the ``rng.integers(m)``-th of them in
    index order is returned; a unique maximum (``integers(1)``) draws nothing.
    """
    best = max(values)
    ties = [i for i, value in enumerate(values) if value == best]
    return ties[rng.integers(len(ties))]


def _reward_error(reward) -> InputError:
    """The loops' error for a reward outside [0, 1]."""
    return InputError(f"rewards must lie in [0, 1], got {reward!r}")


def _first_pulls(env: Environment, rng: Draws, scheme: BoundScheme, table: dict):
    """Pull each arm once, in index order; returns the pull counts, reward sums and upper bounds.

    Rewards outside [0, 1] are rejected.  Each upper bound is read from
    ``table`` under its key (pulls, reward_sum) and inverted on a miss.
    """
    n = env.n_arms
    pulls, sums, ucbs = [1] * n, [0.0] * n, [0.0] * n
    for i in range(n):
        reward = environments.sample(env, i, rng)
        if not 0.0 <= reward <= 1.0:
            raise _reward_error(reward)
        sums[i] += reward
        key = (1, sums[i])
        ucb = table.get(key)
        if ucb is None:
            ucb = table[key] = upper_bound(scheme, *key)
        ucbs[i] = ucb
    return pulls, sums, ucbs


def _check_identify(n_arms: int, budget: int | None) -> None:
    """``lil_klucb``'s argument rules."""
    if budget is not None and budget < n_arms:
        raise InputError("budget must cover one initialization pull per arm")


def lil_klucb(
    env: Environment,
    scheme: BoundScheme,
    budget: int | None,
    rng: Draws,
    bound_cache: dict | None = None,
) -> RunRecord:
    """Adaptive identification run; returns the recommended arm and its trace.

    Initializes with one pull per arm, then repeats: rank arms by empirical
    mean (random tie-break), test whether the leader's lower bound at
    confidence delta/(n-1) exceeds every rival's upper bound at delta, and
    if not, pull the leader and the rival with the highest upper bound
    (lowest index on ties).  Stops with ``stopped=False`` once another round
    would exceed ``budget``.

    A round evaluates only the bounds a decision needs.  An arm's upper
    bound goes stale when it is pulled.  Each round, every stale rival but
    the newest table miss s gets its bound, and ``bound_side`` places s's
    upper bound against u2, the highest bound of the other rivals: short of
    it, u2's first holder is the challenger; beyond it, s is, and s is
    inverted only if a stop is still possible (u2 below the leader's mean
    and the leader's lower bound not certainly beyond u2); if the
    certificate cannot tell, s is inverted.  The leader's lower bound
    (never above its mean) is inverted only if every rival's upper bound
    is below that mean and ``bound_side`` does not place it beyond them.
    Bounds are pure in their key and the certificate is sound, so record
    and generator state equal those of evaluating them all.

    ``bound_cache`` may be shared across runs to reuse bound inversions; it
    holds one upper-bound table per scheme, keyed by (pulls, reward_sum),
    and under the key (scheme, n) the leader's scheme at delta/(n-1), so
    runs that share the cache share that scheme's threshold table too.
    The leader's lower bound is inverted uncached: the certificate passes
    about one round per run, so its keys would almost never repeat.

    Rewards and tie-breaks are drawn by ``rng``'s scalar ``random()`` and
    ``integers(m)``, so a NumPy Generator serves as well as a ``Draws``.
    """
    n = env.n_arms
    _check_identify(n, budget)
    cache = {} if bound_cache is None else bound_cache
    table = cache.setdefault(scheme, {})
    leader_scheme = cache.get((scheme, n))
    if leader_scheme is None:
        leader_scheme = cache[scheme, n] = scheme.with_delta(scheme.delta / (n - 1))
    sample, upper, side_of = environments.sample, upper_bound, bound_side
    pulls, sums, ucbs = _first_pulls(env, rng, scheme, table)
    means = [s / p for s, p in zip(sums, pulls)]
    stale = []  # arms whose bound predates their last pull, newest last; their ucbs entry is -inf
    total = n
    while True:
        best = max(means)
        top = means.index(best) if means.count(best) == 1 else _argmax_random_tie(means, rng)
        s = None  # the newest stale rival without a table entry
        for arm in reversed(stale):
            if arm != top:
                key = (pulls[arm], sums[arm])
                ucb = table.get(key)
                if ucb is None:
                    if s is None:
                        s = arm
                        continue
                    ucb = table[key] = upper(scheme, *key)
                ucbs[arm] = ucb
        held = ucbs[top]
        ucbs[top] = -math.inf
        level = max(ucbs)  # over the rivals with a bound
        challenger = ucbs.index(level)  # first index on ties
        key = (pulls[top], sums[top])
        if s is not None:
            side = side_of(scheme, pulls[s], sums[s], level, 1.0)
            if side > 0 and (level >= means[top] or side_of(leader_scheme, *key, level, 0.0) > 0):
                challenger, level = s, math.inf  # s leads the rivals; no stop
            elif side >= 0:
                s_key = (pulls[s], sums[s])
                ucbs[s] = table[s_key] = upper(scheme, *s_key)
                s = None
                level = max(ucbs)
                challenger = ucbs.index(level)
        ucbs[top] = held
        if (level < means[top] and side_of(leader_scheme, *key, level, 0.0) < 1
                and lower_bound(leader_scheme, *key) > level):
            stopped = True
            break
        if budget is not None and total + 2 > budget:
            stopped = False
            break
        for arm in (top, challenger):
            reward = sample(env, arm, rng)
            if not 0.0 <= reward <= 1.0:
                raise _reward_error(reward)
            pulls[arm] += 1
            sums[arm] += reward
            means[arm] = sums[arm] / pulls[arm]
            ucbs[arm] = -math.inf
        stale = [top, challenger] if s is None or s == challenger else [top, s, challenger]
        total += 2
    return RunRecord(
        recommended=top,
        total_samples=total,
        per_arm_pulls=tuple(pulls),
        stopped=stopped,
        snapshots=(),
    )


def _best_arm_in_top_k(sums: list, pulls: list, k: int, rng: Draws) -> bool:
    """Whether arm 0 ranks in the top k by empirical mean, ties broken at random.

    Each arm draws one tie-break key ``rng.random()``, in arm order, and the
    arms rank by larger mean, then by smaller key (arm 0 first on an equal
    key).  Arm 0's rank is the number of arms with a larger mean, plus those
    with an equal mean and a smaller key; no arm is sorted.
    """
    random = rng.random
    best, mine = sums[0] / pulls[0], random()
    rank = 0
    for i in range(1, len(sums)):
        mean, key = sums[i] / pulls[i], random()
        if mean > best or mean == best and key < mine:
            rank += 1
    return rank < k


def _check_race(n_arms: int, budget: int, snapshot_every: int, k: int) -> None:
    """``ucb_race``'s argument rules."""
    if k < 1 or k > n_arms:
        raise InputError(f"k must lie in [1, {n_arms}], got {k!r}")
    if budget < n_arms:
        raise InputError("budget must cover one initialization pull per arm")
    if snapshot_every < 1:
        raise InputError("snapshot_every must be >= 1")


def ucb_race(
    env: Environment,
    scheme: BoundScheme,
    budget: int,
    snapshot_every: int,
    k: int,
    rng: Draws,
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

    A pulled arm whose reward sum equals its pull count has mean exactly 1,
    where every scheme's upper bound is 1, so its bound is neither read
    from nor stored in the table: rewards lie in [0, 1] and are summed
    left to right, so a sum never exceeds its count, and below 2^53 pulls
    sum / pulls == 1.0 holds exactly when sum == pulls.

    Rewards, tie-breaks and snapshot keys are drawn by ``rng``'s scalar
    ``random()`` and ``integers(m)`` in one stream, so a NumPy Generator
    serves as well as a ``Draws``.
    """
    n = env.n_arms
    _check_race(n, budget, snapshot_every, k)
    cache = {} if bound_cache is None else bound_cache
    table = cache.setdefault(scheme, {})
    sample, upper, integers = environments.sample, upper_bound, rng.integers
    pulls, sums, ucbs = _first_pulls(env, rng, scheme, table)
    # The running maximum: each upper bound some arm holds maps to the
    # ascending list of its holders, and the heap holds exactly those
    # values, negated.  Only the pulled arm moves, and it holds the top
    # value, so a value that loses its last holder is the heap's top, and
    # the top and its holders change only when the pulled arm's bound does.
    holders: dict[float, list[int]] = {}
    for arm, ucb in enumerate(ucbs):
        holders.setdefault(ucb, []).append(arm)
    heap = [-ucb for ucb in holders]
    heapify(heap)
    top = -heap[0]
    ties = holders[top]
    total = n
    snapshots = [(total, _best_arm_in_top_k(sums, pulls, k, rng))]
    while total < budget:
        due = min(total + snapshot_every, budget)  # the sample count of the next snapshot
        for _ in range(due - total):
            i = 0 if len(ties) == 1 else integers(len(ties))
            arm = ties[i]
            reward = sample(env, arm, rng)
            if not 0.0 <= reward <= 1.0:
                raise _reward_error(reward)
            p = pulls[arm] = pulls[arm] + 1
            s = sums[arm] = sums[arm] + reward
            if s == p:
                ucb = 1.0
            else:
                key = (p, s)
                ucb = table.get(key)
                if ucb is None:
                    ucb = table[key] = upper(scheme, p, s)
            if ucb != top:
                if len(ties) > 1:
                    del ties[i]
                else:
                    del holders[top]
                    heappop(heap)
                others = holders.get(ucb)
                if others is None:
                    holders[ucb] = [arm]
                    heappush(heap, -ucb)
                else:
                    insort(others, arm)
                top = -heap[0]
                ties = holders[top]
        total = due
        snapshots.append((total, _best_arm_in_top_k(sums, pulls, k, rng)))
    return RunRecord(
        recommended=_argmax_random_tie([s / p for s, p in zip(sums, pulls)], rng),
        total_samples=total,
        per_arm_pulls=tuple(pulls),
        stopped=False,
        snapshots=tuple(snapshots),
    )


class ComplexityBound(NamedTuple):
    """Predicted sample complexity of one instance.

    ``total`` adds the best-arm term and one term per suboptimal arm, all up
    to the universal constant (reported with that constant set to 1).
    ``witness`` is the mean separating every suboptimal arm from the best.
    ``crossing_indices`` holds, for each suboptimal arm, the first sample
    size at which the threshold schedule at confidence delta^2 drops below
    the arm's Chernoff separation from the witness; ``best_arm_crossing``
    is the best arm's, at confidence delta/(n-1).
    """

    total: float
    witness: float
    crossing_indices: tuple[int, ...]
    best_arm_crossing: int


class UnresolvedSeparation(InputError):
    """A crossing target that no threshold up to 2^1022 samples falls below.

    A Chernoff separation rounds to zero or below when the top two means
    are closer than ``chernoff_information`` resolves (at 0.5, a gap of
    5e-9 or less), and a positive one can sit below the schedule's floor
    (about 1e-306, as for means 1e-310 and 0); either way the instance, not
    the program, is at fault.
    """


def _first_crossing(scheme: BoundScheme, target: float) -> int:
    """Smallest t with threshold(scheme, t) < target; the schedule decreases for t >= 2.

    ``_schedule`` is read one t at a time: at t = 2^0, 2^1, ... up to the
    first power of two below the target, or to 2^1022, the last power of
    two at which the schedule is finite (2.0 * t overflows at 2^1023), and
    then at each step of the bisection down from it.  The scheme's
    threshold table is neither read nor grown.  A target that no power of
    two crosses, including every target that is not positive (the schedule
    is clamped at 0), raises ``UnresolvedSeparation``.
    """
    for level in range(1023):
        if _schedule(scheme, (1 << level,))[0] < target:
            break
    else:
        raise UnresolvedSeparation(
            f"threshold schedule never falls below {target!r} within 2^1022 samples: "
            "the top two means are too close to separate")
    hi = 1 << level
    lo = hi // 2  # at 0 when hi = 1; otherwise the schedule at lo is >= target
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _schedule(scheme, (mid,))[0] < target:
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


def _check_complexity(mus, delta: float, grid_points: int, tilt: int):
    """``predicted_complexity``'s argument rules.

    ``mus`` must make a Bernoulli ``Environment``.  Returns them as floats
    and the ``kl`` schemes of the crossing schedules: delta^2 for the
    suboptimal arms, delta/(n-1) for the best.  Below delta of about
    1.6e-162, delta^2 underflows to 0; the error names the delta given.
    """
    mus = environments.bernoulli_environment(mus).true_means
    if grid_points < 3:
        raise InputError("grid_points must be >= 3")
    _check_delta(delta)
    if delta * delta == 0.0:
        raise InputError(f"delta^2 rounds to 0 below delta of about 1.6e-162, got {delta!r}")
    return (mus, BoundScheme(KL_TILTED, tilt, delta * delta),
            BoundScheme(KL_TILTED, tilt, delta / (len(mus) - 1)))


# Witness grid of ``identify``'s prediction.
GRID_POINTS = 65


def predicted_complexity(
    mus, delta: float, grid_points: int, tilt: int = 8
) -> ComplexityBound:
    """Evaluate the predicted sample-complexity bound for a mean profile.

    ``mus`` must be sorted descending with a strict gap at the top.  The
    witnesses separating each suboptimal arm from the best are searched on a
    grid: every per-arm term decreases as its witness rises while the
    best-arm term depends only on the largest witness, so the minimizing
    configuration places all witnesses at one common value, scanned over
    ``grid_points`` interior points of (mu_2, mu_1): those of
    np.linspace(mu_2, mu_1, grid_points + 2), in its operations.
    """
    mus, pair_scheme, leader_scheme = _check_complexity(mus, delta, grid_points, tilt)
    n = len(mus)
    gap, parts = mus[0] - mus[1], grid_points + 1
    step = gap / parts
    best = None
    for i in range(1, parts):
        # where the step underflows to 0, linspace scales i / parts by the gap instead
        v = (i * step if step else i / parts * gap) + mus[1]
        total = _bound_term(chernoff_information(mus[0], v), (n - 1) / delta)
        for mu_i in mus[1:]:
            total += _bound_term(chernoff_information(mu_i, v), 1.0 / delta)
        if best is None or total < best[0]:
            best = (total, v)
    total, witness = best

    crossings = tuple(
        _first_crossing(pair_scheme, chernoff_information(mu_i, witness))
        for mu_i in mus[1:]
    )
    best_crossing = _first_crossing(leader_scheme, chernoff_information(mus[0], witness))
    return ComplexityBound(
        total=total,
        witness=witness,
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
        raise InputError("need at least 2 arms")
    gaps = gap_family(n, alpha)
    kl_sum = 0.0
    sg_sum = 0.0
    for gap in gaps[1:]:
        sg_sum += 1.0 / (gap * gap)
        div = chernoff_information(1.0 - gap, 1.0)
        if not math.isinf(div):
            kl_sum += 1.0 / div
    return kl_sum, sg_sum
