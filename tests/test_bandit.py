"""Tests for the identification engine, the UCB race, and the complexity evaluator."""

import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilklucb import bandit, confidence
from lilklucb.bandit import (
    RunRecord,
    UnresolvedSeparation,
    _argmax_random_tie,
    _first_crossing,
    hardness_sums,
    lil_klucb,
    predicted_complexity,
    ucb_race,
)
from lilklucb.cli import derive_seed
from lilklucb.confidence import (
    BoundScheme,
    _schedule,
    full_sum,
    lower_bound,
    threshold,
    upper_bound,
)
from lilklucb.data_ingest import Caption, ContestDataset
from lilklucb.environments import (
    Bernoulli,
    Bootstrap,
    Draws,
    Environment,
    bernoulli_environment,
    from_contest,
    parametric_means,
    sample,
)
from lilklucb.kl_math import (
    chernoff_information,
    tilted_kl_lower_inverse,
    tilted_kl_upper_inverse,
)


def _state(rng):
    """The full state of a ``Draws`` or of a NumPy Generator's bit generator."""
    return rng.getstate() if isinstance(rng, Draws) else rng.bit_generator.state


class TestRunRecord:
    def test_conservation_enforced(self):
        with pytest.raises(ValueError):
            RunRecord(0, 5, (1, 2), True, ())

    def test_snapshots_must_be_sorted(self):
        with pytest.raises(ValueError):
            RunRecord(0, 3, (2, 1), True, ((10, True), (5, False)))


def top_index(stats, rng: np.random.Generator) -> int:
    """Index of the (pulls, reward_sum) key with the highest empirical mean, ties broken at random."""
    if not stats:
        raise ValueError("need at least one arm")
    if any(pulls < 1 for pulls, _ in stats):
        raise ValueError("every arm needs at least one pull before ranking")
    return _argmax_random_tie([reward_sum / pulls for pulls, reward_sum in stats], rng)


class TestTopIndex:
    def test_strict_argmax(self):
        stats = [(1, 0.9), (1, 0.1), (1, 0.5)]
        assert top_index(stats, np.random.default_rng(0)) == 0

    def test_single_arm(self):
        assert top_index([(1, 0.3)], np.random.default_rng(0)) == 0

    def test_rejects_unsampled_arm(self):
        with pytest.raises(ValueError):
            top_index([(1, 0.5), (0, 0.0)], np.random.default_rng(0))

    @pytest.mark.parametrize("make", [Draws, np.random.default_rng], ids=["draws", "generator"])
    def test_a_unique_maximum_draws_nothing(self, make):
        # one holder calls integers(1), which leaves either generator as it was
        rng = make(7)
        state = _state(rng)
        for values in ([0.3], [0.9, 0.1, 0.5], [0.1, 0.5, 0.5, 0.7]):
            assert _argmax_random_tie(values, rng) == values.index(max(values))
        assert _state(rng) == state

    def test_ties_split_uniformly(self):
        stats = [(2, 1.0), (2, 1.0)]
        rng = np.random.default_rng(123)
        picks = [top_index(stats, rng) for _ in range(10_000)]
        freq = sum(picks) / len(picks)
        assert abs(freq - 0.5) <= 0.02


class TestLilKlucb:
    def test_deterministic_arms_match_threshold_scan_oracle(self):
        # constant rewards make the whole trajectory deterministic, so the
        # first t where the bounds separate can be found independently by
        # scanning the threshold schedules
        scheme = BoundScheme("kl", 8, 0.05)
        leader = scheme.with_delta(0.05)  # n = 2 keeps delta/(n-1) = delta
        t = 1
        while True:
            lcb = tilted_kl_lower_inverse(1.0, threshold(leader, t), 8)
            ucb = tilted_kl_upper_inverse(0.0, threshold(scheme, t), 8)
            if lcb > ucb:
                break
            t += 1
        env = bernoulli_environment((1.0, 0.0))
        record = lil_klucb(env, scheme, None, np.random.default_rng(0))
        assert record.stopped
        assert record.recommended == 0
        assert record.total_samples == 2 * t
        assert record.per_arm_pulls == (t, t)

    def test_budget_equal_to_arm_count(self):
        env = bernoulli_environment((0.9, 0.5, 0.1))
        record = lil_klucb(env, BoundScheme("kl", 8, 0.01), 3, np.random.default_rng(0))
        assert not record.stopped
        assert record.per_arm_pulls == (1, 1, 1)
        assert record.total_samples == 3

    def test_budget_below_arm_count_rejected(self):
        env = bernoulli_environment((0.9, 0.1))
        with pytest.raises(ValueError):
            lil_klucb(env, BoundScheme("kl", 8, 0.01), 1, np.random.default_rng(0))

    def test_single_arm_rejected(self):
        # the environment owns the arm count: a one-arm instance is never built
        with pytest.raises(ValueError, match="at least 2 arms"):
            env = bernoulli_environment((0.9,))
            lil_klucb(env, BoundScheme("kl", 8, 0.01), None, np.random.default_rng(0))

    def test_rounds_add_two_pulls(self):
        env = bernoulli_environment((0.8, 0.4, 0.2))
        record = lil_klucb(env, BoundScheme("kl", 8, 0.05), 101, np.random.default_rng(5))
        assert (record.total_samples - 3) % 2 == 0
        assert record.total_samples == sum(record.per_arm_pulls)

    def test_bit_for_bit_determinism(self):
        env = bernoulli_environment((0.8, 0.5, 0.3))
        scheme = BoundScheme("kl", 8, 0.05)
        a = lil_klucb(env, scheme, 2000, np.random.default_rng(31))
        b = lil_klucb(env, scheme, 2000, np.random.default_rng(31))
        assert a == b

    def test_far_apart_arms_are_identified_reliably(self):
        # empirical check of the 2*delta guarantee on an easy instance
        env = bernoulli_environment((0.9, 0.1))
        scheme = BoundScheme("kl", 8, 0.01)
        cache = {}
        errors = 0
        for rep in range(250):
            rng = np.random.default_rng(1000 + rep)
            record = lil_klucb(env, scheme, None, rng, bound_cache=cache)
            assert record.stopped
            errors += record.recommended != 0
        assert errors / 250 <= 0.02

    def test_works_with_every_scheme(self):
        env = bernoulli_environment((0.95, 0.05))
        for kind in ("kl", "kl-prime", "sg1", "sg2"):
            record = lil_klucb(env, BoundScheme(kind, 8, 0.05), 50_000, np.random.default_rng(2))
            assert record.recommended == 0


def _eager_lil_klucb(env, scheme, budget, rng, cache):
    """The identification loop evaluating every bound it keeps, every round.

    Reference for ``lil_klucb``, which skips the bounds no decision reads:
    after each pull it looks up the arm's upper bound, and each round it
    looks up the leader's lower bound before the stopping test.
    """
    n = env.n_arms
    leader_scheme = scheme.with_delta(scheme.delta / (n - 1))

    def cached(side, bound, bscheme, i):
        key = (pulls[i], sums[i])
        table = cache.setdefault((side, bscheme), {})
        if key not in table:
            table[key] = bound(bscheme, *key)
        return table[key]

    def pull(i):
        reward = sample(env, i, rng)
        pulls[i] += 1
        sums[i] += reward
        return cached("u", upper_bound, scheme, i)

    pulls = [0] * n
    sums = [0.0] * n
    ucbs = [pull(i) for i in range(n)]
    total = n
    while True:
        top = _argmax_random_tie([s / p for s, p in zip(sums, pulls)], rng)
        leader_lcb = cached("l", lower_bound, leader_scheme, top)
        rivals = ucbs.copy()
        rivals[top] = -math.inf
        challenger = max(range(n), key=rivals.__getitem__)
        if leader_lcb > rivals[challenger]:
            stopped = True
            break
        if budget is not None and total + 2 > budget:
            stopped = False
            break
        ucbs[top] = pull(top)
        ucbs[challenger] = pull(challenger)
        total += 2
    return RunRecord(top, total, tuple(pulls), stopped, ())


class TestLazyBounds:
    # near ties with frequent leader changes and budget stops, a sure
    # success against a near-sure one, tied rivals, and an instance every
    # scheme separates within its budget
    INSTANCES = (
        ((0.5, 0.48, 0.47), 3000),
        ((1.0, 0.99, 0.0), 4000),
        ((0.55, 0.5, 0.5, 0.45, 0.2), 5000),
        ((0.9, 0.6, 0.3), 3000),
    )
    # For the runs that stop by confidence: far above every total they stop
    # at, so that a loop that cannot stop fails instead of hanging
    NO_STOP = 10**6

    @pytest.mark.parametrize("kind", ["kl", "kl-prime", "sg1", "sg2"])
    def test_matches_the_eager_loop(self, kind):
        scheme = BoundScheme(kind, 8, 0.05)
        shared, reference_cache = {}, {}
        stops = []
        for means, budget in self.INSTANCES:
            env = bernoulli_environment(means)
            for seed in range(10):
                rng = np.random.default_rng(seed)
                reference_rng = np.random.default_rng(seed)
                record = lil_klucb(env, scheme, budget, rng, bound_cache=shared)
                expected = _eager_lil_klucb(env, scheme, budget, reference_rng, reference_cache)
                assert record == expected, (means, seed)
                assert rng.bit_generator.state == reference_rng.bit_generator.state
                stops.append(record.stopped)
        assert stops.count(False) >= 10 and stops.count(True) >= 10

    def test_leader_upper_bound_is_not_evaluated(self, monkeypatch):
        # sure success against sure failure: arm 0 leads every round, so only
        # its initial upper bound is needed, and no two keys ever coincide
        calls = []

        def counted(scheme, pulls, reward_sum):
            calls.append(pulls)
            return upper_bound(scheme, pulls, reward_sum)

        monkeypatch.setattr(bandit, "upper_bound", counted)
        env = bernoulli_environment((1.0, 0.0))
        record = lil_klucb(env, BoundScheme("kl", 8, 0.05), self.NO_STOP, np.random.default_rng(0))
        assert record.stopped and record.total_samples > 10
        assert len(calls) < record.total_samples
        assert len(calls) == record.per_arm_pulls[1] + 1

    def test_leader_lower_bound_is_inverted_only_where_a_stop_is_possible(self, monkeypatch):
        # criterion 2's instance: the eager loop inverts hundreds of leader
        # lower bounds per repetition, nearly all in rounds that do not stop
        calls = []

        def counted(scheme, pulls, reward_sum):
            calls.append(pulls)
            return lower_bound(scheme, pulls, reward_sum)

        monkeypatch.setattr(bandit, "lower_bound", counted)
        env = bernoulli_environment((0.8, 0.6, 0.4, 0.2))
        scheme = BoundScheme("kl", 8, 0.05)
        shared, reference_cache = {}, {}
        seeds = range(12)
        for seed in seeds:
            record = lil_klucb(env, scheme, self.NO_STOP, np.random.default_rng(seed),
                               bound_cache=shared)
            expected = _eager_lil_klucb(
                env, scheme, self.NO_STOP, np.random.default_rng(seed), reference_cache)
            assert record == expected, seed
        assert len(calls) <= 2 * len(seeds)

    def test_rival_upper_bounds_are_inverted_only_where_a_decision_needs_them(self, monkeypatch):
        # criterion 2's instance: the eager loop inverts the challenger's
        # upper bound after nearly every pull (4917 calls over these seeds)
        calls = []

        def counted(scheme, pulls, reward_sum):
            calls.append(pulls)
            return upper_bound(scheme, pulls, reward_sum)

        monkeypatch.setattr(bandit, "upper_bound", counted)
        env = bernoulli_environment((0.8, 0.6, 0.4, 0.2))
        scheme = BoundScheme("kl", 8, 0.05)
        shared = {}
        for seed in range(12):
            lil_klucb(env, scheme, self.NO_STOP, np.random.default_rng(seed), bound_cache=shared)
        assert len(calls) <= 1500

    def test_leader_scheme_fills_its_threshold_table_once_per_block(self, monkeypatch):
        # identify-interior4's block at command-line seed 12: the leader's
        # scheme at delta/(n-1) lives in the shared cache, so its table is
        # refilled only at each power of two that a leader's pulls reach
        fills = []
        real = confidence._schedule

        def counted(scheme, t):
            fills.append(scheme.delta)
            return real(scheme, t)

        monkeypatch.setattr(confidence, "_schedule", counted)
        env = bernoulli_environment((0.8, 0.6, 0.4, 0.2))
        scheme = BoundScheme("kl", 8, 0.05)
        shared = {}
        records = [lil_klucb(env, scheme, None, Draws(derive_seed(12, rep)), bound_cache=shared)
                   for rep in range(12)]
        assert all(record.stopped for record in records)
        most = max(max(record.per_arm_pulls) for record in records)
        leader_fills = fills.count(0.05 / 3)
        assert 1 <= leader_fills <= math.ceil(math.log2(most)) + 1, (leader_fills, most)

    def test_matches_the_eager_loop_on_tied_instances(self):
        # 2-6 arms from a few means, so rivals often tie in mean and bound;
        # each instance runs every scheme at a budget that usually stops it
        # by confidence and one that stops it first, over seeds sharing a
        # cache, under a NumPy Generator and under the command line's Draws
        stops = {np.random.default_rng: [], Draws: []}

        @settings(max_examples=12, derandomize=True, deadline=None, database=None)
        @given(means=st.lists(st.sampled_from((1.0, 0.9, 0.75, 0.6, 0.5, 0.4, 0.25, 0.0)),
                              min_size=2, max_size=6)
               .map(lambda m: sorted(m, reverse=True)).filter(lambda m: m[0] > m[1]))
        def check(means):
            env = bernoulli_environment(means)
            for kind in ("kl", "kl-prime", "sg1", "sg2"):
                scheme = BoundScheme(kind, 8, 0.05)
                for generator, generator_stops in stops.items():
                    shared, reference_cache = {}, {}
                    for seed, budget in ((0, 40), (1, 600), (2, 600)):
                        rng, reference_rng = generator(seed), generator(seed)
                        record = lil_klucb(env, scheme, budget, rng, bound_cache=shared)
                        expected = _eager_lil_klucb(
                            env, scheme, budget, reference_rng, reference_cache)
                        assert record == expected, (means, kind, generator, seed)
                        assert _state(rng) == _state(reference_rng)
                        generator_stops.append(record.stopped)

        check()
        for generator_stops in stops.values():
            assert generator_stops.count(False) >= 20 and generator_stops.count(True) >= 20


class _FixedArm:
    """An arm whose every draw is ``reward``, whatever mean it declares."""

    def __init__(self, reward: float, mean: float):
        self.reward = reward
        self.mean = mean

    def draw(self, rng: np.random.Generator) -> float:
        return self.reward


class TestRewardRange:
    @pytest.mark.parametrize("reward", [1.2, -0.1])
    def test_loops_reject_out_of_range_rewards(self, reward):
        # without the loops' own check the bad reward would still fail, later
        # and with another message, when the mean reaches the KL inverse
        env = Environment((Bernoulli(0.9), _FixedArm(reward, 0.5)))
        scheme = BoundScheme("kl", 8, 0.05)
        with pytest.raises(ValueError, match="rewards must lie in"):
            ucb_race(env, scheme, 100, 10, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="rewards must lie in"):
            lil_klucb(env, scheme, 100, np.random.default_rng(0))


class TestUcbRace:
    def test_k_equal_n_membership_always_true(self):
        env = bernoulli_environment((0.6, 0.4))
        record = ucb_race(env, BoundScheme("kl", 8, 0.01), 300, 10, 2, np.random.default_rng(0))
        assert all(flag for _, flag in record.snapshots)

    def test_budget_equal_to_arm_count_single_snapshot(self):
        env = bernoulli_environment((0.6, 0.4, 0.2))
        record = ucb_race(env, BoundScheme("kl", 8, 0.01), 3, 5, 1, np.random.default_rng(0))
        assert len(record.snapshots) == 1
        assert record.snapshots[0][0] == 3
        assert record.per_arm_pulls == (1, 1, 1)

    def test_rejects_k_above_n(self):
        env = bernoulli_environment((0.6, 0.4))
        with pytest.raises(ValueError):
            ucb_race(env, BoundScheme("kl", 8, 0.01), 100, 5, 3, np.random.default_rng(0))

    def test_snapshot_counts_follow_cadence(self):
        env = bernoulli_environment((0.6, 0.4))
        record = ucb_race(env, BoundScheme("kl", 8, 0.01), 21, 4, 1, np.random.default_rng(1))
        assert [c for c, _ in record.snapshots] == [2, 6, 10, 14, 18, 21]

    def test_determinism(self):
        env = bernoulli_environment((0.7, 0.5, 0.2))
        scheme = BoundScheme("sg1", 8, 0.01)
        a = ucb_race(env, scheme, 500, 20, 2, np.random.default_rng(11))
        b = ucb_race(env, scheme, 500, 20, 2, np.random.default_rng(11))
        assert a == b

    def test_membership_curve_rises_to_a_confident_finish(self):
        # aggregate curve on a mid-size instance climbs (within Monte-Carlo
        # noise) and ends above 0.95
        means = tuple(1.0 - (i / 100.0) for i in range(100))
        env = bernoulli_environment(means)
        scheme = BoundScheme("kl", 8, 0.01)
        cache = {}
        flags = []
        for rep in range(60):
            rng = np.random.default_rng(500 + rep)
            record = ucb_race(env, scheme, 5000, 200, 5, rng, bound_cache=cache)
            flags.append([f for _, f in record.snapshots])
        curve = np.mean(np.array(flags, dtype=float), axis=0)
        assert curve[-1] >= 0.95
        assert all(b >= a - 0.15 for a, b in zip(curve, curve[1:]))


def _lexsort_top_k(sums, pulls, k, rng) -> bool:
    """Whether arm 0 is among the first k arms sorted by ``np.lexsort``, the rank's reference.

    The arms sort by mean descending, then by a key ``rng.random()`` drawn
    per arm in arm order; the sort is stable, so arm 0 leads on an equal key.
    """
    means = np.divide(sums, pulls)
    order = np.lexsort(([rng.random() for _ in range(means.size)], -means))
    return bool(np.any(order[:k] == 0))


class TestTopKRank:
    # a mean is a fraction num/den, stored as (num * c, den * c) so that
    # equal means come from different keys; the fractions 1/3 and 2/3 are
    # inexact, and each equal pair still divides to equal floats
    FRACTIONS = ((0, 1), (1, 3), (1, 2), (2, 3), (1, 1))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_one_pass_rank_matches_the_sort(self, data, n, seed):
        picks = data.draw(st.lists(st.integers(0, len(self.FRACTIONS) - 1), min_size=n, max_size=n))
        if n > 1:  # arm 0 shares its mean with at least one other arm
            picks[0] = picks[data.draw(st.integers(1, n - 1))]
        scales = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        sums = [float(self.FRACTIONS[j][0] * c) for j, c in zip(picks, scales)]
        pulls = [self.FRACTIONS[j][1] * c for j, c in zip(picks, scales)]
        k = data.draw(st.integers(1, n))
        for generator in (np.random.default_rng, Draws):
            rng, reference_rng = generator(seed), generator(seed)
            assert (bandit._best_arm_in_top_k(sums, pulls, k, rng)
                    == _lexsort_top_k(sums, pulls, k, reference_rng))
            assert _state(rng) == _state(reference_rng)


def _generator_ucb_race(env, scheme, budget, snapshot_every, k, rng):
    """``ucb_race`` drawing every scalar from the Generator, scanning all bounds per pull.

    Returns the record and the number of picks that broke a tie.
    """
    n = env.n_arms
    cache = {}
    pulls, sums, ucbs = [0] * n, [0.0] * n, [0.0] * n

    def pull(i):
        pulls[i] += 1
        sums[i] += env.arms[i].draw(rng)
        key = (pulls[i], sums[i])
        if key not in cache:
            cache[key] = upper_bound(scheme, *key)
        ucbs[i] = cache[key]

    def pick(values):
        top = np.flatnonzero(values == values.max())
        return int(top[rng.integers(len(top))]) if len(top) > 1 else int(top[0]), len(top) > 1

    for i in range(n):
        pull(i)
    total, ties = n, 0
    snapshots = [(total, _lexsort_top_k(sums, pulls, k, rng))]
    while total < budget:
        arm, tied = pick(np.array(ucbs))
        ties += tied
        pull(arm)
        total += 1
        if (total - n) % snapshot_every == 0 or total == budget:
            snapshots.append((total, _lexsort_top_k(sums, pulls, k, rng)))
    recommended, _ = pick(np.divide(sums, pulls))
    return RunRecord(recommended, total, tuple(pulls), False, tuple(snapshots)), ties


SCHEMES = ("kl", "kl-prime", "sg1", "sg2")


class TestRaceDraws:
    def _assert_matches_generator_draws(self, env, kinds, budget, seeds, snapshot_every=50, k=5,
                                        generator=np.random.default_rng):
        picks = ties = 0
        for kind in kinds:
            scheme = BoundScheme(kind, 8, 0.05)
            for seed in seeds:
                rng, reference_rng = generator(seed), generator(seed)
                record = ucb_race(env, scheme, budget, snapshot_every, k, rng)
                expected, tied = _generator_ucb_race(
                    env, scheme, budget, snapshot_every, k, reference_rng)
                assert record == expected, (kind, seed)
                assert _state(rng) == _state(reference_rng)
                picks += budget - env.n_arms
                ties += tied
        return picks, ties

    def test_many_ties_match_the_generator(self):
        # most picks break a tie: every sg1 bound of a high arm is clamped at 1
        env = bernoulli_environment(parametric_means(50, 1.0))
        picks, ties = self._assert_matches_generator_draws(env, SCHEMES, 1000, range(10))
        assert ties > picks / 2

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        means=st.lists(st.sampled_from([1.0, 0.9, 0.75, 0.5, 0.25, 0.0]), min_size=2, max_size=8)
        .map(lambda means: sorted(means, reverse=True))
        .filter(lambda means: means[0] > means[1]),
        extra=st.integers(0, 80),
        snapshot_every=st.integers(1, 20),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tie_heavy_instances_match_the_generator(self, means, extra, snapshot_every, k, seed):
        # few distinct means and bounds clamped at 1 make most picks ties,
        # and every tie set changes as the picked arm leaves it; under a
        # NumPy Generator and under the command line's Draws
        for generator in (np.random.default_rng, Draws):
            self._assert_matches_generator_draws(
                bernoulli_environment(means), SCHEMES, len(means) + extra, [seed],
                snapshot_every, min(k, len(means)), generator)

    def test_bootstrap_arms_match_the_generator(self):
        # pools of 1 (no draw), 6, 57 and 200 ratings
        votes = [(0, 0, 1), (1, 2, 3), (10, 20, 27), (50, 100, 50), (30, 20, 7)]
        dataset = ContestDataset(7, tuple(Caption(str(i), v) for i, v in enumerate(votes)))
        env = from_contest(dataset)
        picks, ties = self._assert_matches_generator_draws(env, ("kl",), 1000, range(10))
        assert ties > 0

    @pytest.mark.parametrize("pools", [
        ((1.0,), (1.0, 0.5), (1.0, 1 - 2**-53, 0.0), (0.5,)),
        # 1 + (1 - 2^-53) rounds to 2: a sum that reaches its count without all rewards at 1
        ((1.0, 1 - 2**-53), (1.0, 0.5), (1.0, 0.5), (0.0,)),
    ])
    @pytest.mark.parametrize("generator", [np.random.default_rng, Draws])
    def test_saturated_pools_match_the_generator(self, pools, generator):
        # arms whose mean sits at or just below 1 take the loop's
        # saturated rule; the reference reads every bound from upper_bound
        env = Environment(tuple(Bootstrap(pool) for pool in pools))
        self._assert_matches_generator_draws(env, SCHEMES, 300, range(4), 7, 2, generator)


SATURATING = [0.0, 0.5, 1 - 2**-53, 1.0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    ones=st.one_of(st.integers(0, 8), st.integers(0, 2**53 - 200)),
    rewards=st.lists(st.one_of(st.sampled_from(SATURATING), st.floats(0.0, 1.0)), max_size=100),
)
def test_a_sum_reaches_its_count_exactly_when_its_mean_is_one(ones, rewards):
    # ucb_race's saturated rule: after ``ones`` rewards of 1, each further
    # prefix sum, added left to right, never exceeds its count, and equals it
    # exactly where the mean is 1.0, where every scheme's upper bound is 1
    s, p = float(ones), ones
    for reward in rewards:
        s += reward
        p += 1
        assert s <= p
        assert (s == p) == (s / p == 1.0)
        if s == p:
            assert all(upper_bound(BoundScheme(kind, 8, 0.05), p, s) == 1.0 for kind in SCHEMES)


@pytest.mark.parametrize("kind", SCHEMES)
def test_a_race_stores_no_saturated_bound(kind, monkeypatch):
    # the best arm's mean is exactly 1, and the sub-Gaussian bounds stay
    # clamped at 1 for the first pulls of every arm; only the first pulls'
    # keys (1, 0.0) and (1, 1.0) are looked up at 1.0.  A sub-Gaussian
    # count's full sum is searched once, when an arm first reaches it
    calls, searched = [], []

    def recorded(scheme, pulls, reward_sum):
        ucb = upper_bound(scheme, pulls, reward_sum)
        calls.append(((pulls, reward_sum), ucb))
        return ucb

    def counted(scheme, pulls):
        searched.append(pulls)
        return full_sum(scheme, pulls)

    monkeypatch.setattr(bandit, "upper_bound", recorded)
    monkeypatch.setattr(confidence, "full_sum", counted)
    scheme, cache = BoundScheme(kind, 8, 0.05), {}
    record = ucb_race(bernoulli_environment(parametric_means(20, 1.0)), scheme, 2000, 100, 3,
                      Draws(7), bound_cache=cache)
    first = {(1, 0.0), (1, 1.0)}
    assert record.per_arm_pulls[0] > 100
    assert {key for key, ucb in cache[scheme].items() if ucb == 1.0} <= first
    assert {key for key, ucb in calls if ucb == 1.0} <= first
    assert len(searched) == len(set(searched)) <= max(record.per_arm_pulls)
    assert not searched if kind in ("kl", "kl-prime") else searched


def _reference_crossing(scheme: BoundScheme, target: float) -> int:
    """Smallest t with threshold(scheme, t) < target, by doubling and bisection.

    The schedule is read one t at a time, with ``threshold``'s bits: doubling
    through ``threshold`` itself would grow the scheme's table to 2^20 entries.
    """
    def f(t):
        return _schedule(scheme, (t,))[0]

    if f(1) < target:
        return 1
    hi = 2
    while f(hi) >= target:
        if hi == 2**1022:
            raise ValueError(f"threshold schedule never falls below {target!r}")
        hi *= 2
    lo = hi // 2  # f(lo) >= target
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) < target:
            hi = mid
        else:
            lo = mid
    return hi


class TestPredictedComplexity:
    def test_two_arm_bound_is_finite_and_monotone_in_delta(self):
        loose = predicted_complexity((0.9, 0.1), 0.1, 33)
        tight = predicted_complexity((0.9, 0.1), 0.01, 33)
        assert math.isfinite(loose.total)
        assert loose.total < tight.total

    def test_crossing_indices_are_exact(self):
        bound = predicted_complexity((0.9, 0.4, 0.2), 0.05, 33)
        f = partial(threshold, BoundScheme("kl", 8, 0.05 * 0.05))
        for mu_i, xi in zip((0.4, 0.2), bound.crossing_indices):
            target = chernoff_information(mu_i, bound.witness)
            assert f(xi) < target
            if xi > 1:
                assert f(xi - 1) >= target
        g = partial(threshold, BoundScheme("kl", 8, 0.05 / 2.0))
        target = chernoff_information(0.9, bound.witness)
        assert g(bound.best_arm_crossing) < target
        if bound.best_arm_crossing > 1:
            assert g(bound.best_arm_crossing - 1) >= target

    def test_wider_gaps_shrink_the_bound(self):
        wide = predicted_complexity((0.9, 0.5), 0.05, 33)
        narrow = predicted_complexity((0.9, 0.7), 0.05, 33)
        assert wide.total < narrow.total

    def test_witnesses_sit_strictly_between_the_means(self):
        bound = predicted_complexity((0.8, 0.6, 0.3), 0.05, 17)
        for mu_i in (0.6, 0.3):
            assert mu_i < bound.witness < 0.8

    def test_witness_grid_is_numpys_linspace(self, monkeypatch):
        # every grid point the scan evaluates, bit for bit, over random mean
        # pairs, near ties, the edges and gaps whose step underflows to 0
        grid = []

        def recorded(x, y):
            grid.append((x, y))
            return chernoff_information(x, y)

        monkeypatch.setattr(bandit, "chernoff_information", recorded)
        rng = np.random.default_rng(65)
        pairs = [tuple(sorted(rng.uniform(size=2).tolist(), reverse=True)) for _ in range(40)]
        pairs += [(1.0, 0.0), (0.5 + 1e-12, 0.5), (1.0, 1.0 - 2.0**-53), (0.9, 1e-300),
                  (1e-300, 0.0), (2.0**-1060, 0.0), (5e-322, 0.0), (5e-324, 0.0), (0.7, 0.3)]
        for mu1, mu2 in pairs:
            for g in (3, 17, 64, 65, 100, 1000):
                grid.clear()
                try:
                    predicted_complexity((mu1, mu2), 0.05, g)
                except UnresolvedSeparation:  # raised after the scan, at the crossings
                    pass
                ours = [y for x, y in grid if x == mu1][:g]
                assert ours == np.linspace(mu2, mu1, g + 2)[1:-1].tolist(), (mu1, mu2, g)

    def test_crossing_beyond_int64_is_exact(self):
        scheme = BoundScheme("kl", 8, 0.01)
        f = partial(threshold, scheme)
        target = f(2**70)
        t = _first_crossing(scheme, target)
        assert t > 2**62
        assert f(t) < target <= f(t - 1)

    @pytest.mark.parametrize("target", [0.0, 1e-310, -5.0e-21])
    def test_target_never_crossed_is_named(self, target):
        # threshold stays positive, and above 1e-310 up to 2^1022 samples
        with pytest.raises(UnresolvedSeparation, match=re.escape(repr(target))):
            _first_crossing(BoundScheme("kl", 8, 0.01), target)

    @pytest.mark.parametrize("kind", ["kl", "kl-prime"])
    @pytest.mark.parametrize("tilt", [4, 8, 64])
    def test_crossing_matches_the_reference_search(self, kind, tilt):
        # identify's delta^2 and delta/(n-1) at delta 0.05 and n = 4, and
        # targets from 1 down past the crossings beyond 2^62
        targets = [10.0 ** (-k / 2) for k in range(41)]
        for delta in (0.05**2, 0.05 / 3, 0.05, 0.5):
            scheme = BoundScheme(kind, tilt, delta)
            for target in targets + [threshold(scheme, 2**70)]:
                assert _first_crossing(scheme, target) == _reference_crossing(scheme, target)

    def test_validation(self):
        with pytest.raises(ValueError):
            predicted_complexity((0.5, 0.9), 0.05, 17)
        with pytest.raises(ValueError):
            predicted_complexity((0.9, 0.9), 0.05, 17)
        with pytest.raises(ValueError):
            predicted_complexity((0.9, 0.5), 0.05, 2)


class TestHardnessSums:
    def test_two_arm_sums_have_a_single_term(self):
        kl_sum, sg_sum = hardness_sums(2, 1.0)
        assert sg_sum == pytest.approx(1.0)  # gap 2/2 = 1
        assert kl_sum == pytest.approx(0.0)  # mean 0 vs sure success
        kl_sum, sg_sum = hardness_sums(2, 2.0)
        assert sg_sum == pytest.approx(1.0)

    def test_sub_gaussian_sum_closed_form_linear_gaps(self):
        n = 40
        _, sg_sum = hardness_sums(n, 1.0)
        assert sg_sum == pytest.approx(sum((n / i) ** 2 for i in range(2, n + 1)))

    def test_kl_sum_uses_log_inverse_mean(self):
        n = 10
        kl_sum, _ = hardness_sums(n, 1.0)
        expected = sum(
            1.0 / -math.log(1.0 - (i / n))
            for i in range(2, n)  # i = n has mean zero and drops out
        )
        assert kl_sum == pytest.approx(expected, rel=1e-12)
