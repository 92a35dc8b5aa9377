"""Tests for the identification engine, the UCB race, and the complexity evaluator."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilklucb.bandit import (
    ArmStats,
    ComplexityBound,
    RunRecord,
    _argmax_random_tie,
    _IncrementalMax,
    _schedule,
    hardness_sums,
    lil_klucb,
    predicted_complexity,
    top_index,
    ucb_race,
)
from lilklucb.confidence import BoundScheme, threshold
from lilklucb.environments import bernoulli_environment
from lilklucb.kl_math import (
    chernoff_information,
    tilted_kl_lower_inverse,
    tilted_kl_upper_inverse,
)


class TestArmStats:
    def test_running_mean(self):
        s = ArmStats()
        s.update(1.0)
        s.update(0.0)
        s.update(0.5)
        assert s.pulls == 3
        assert s.mean == pytest.approx(0.5)

    def test_rejects_out_of_range_reward(self):
        s = ArmStats()
        with pytest.raises(ValueError):
            s.update(1.2)

    def test_mean_requires_a_pull(self):
        with pytest.raises(ValueError):
            ArmStats().mean


class TestRunRecord:
    def test_conservation_enforced(self):
        with pytest.raises(ValueError):
            RunRecord(0, 5, (1, 2), True, ())

    def test_snapshots_must_be_sorted(self):
        with pytest.raises(ValueError):
            RunRecord(0, 3, (2, 1), True, ((10, True), (5, False)))


class TestTopIndex:
    def test_strict_argmax(self):
        stats = [ArmStats(1, 0.9), ArmStats(1, 0.1), ArmStats(1, 0.5)]
        assert top_index(stats, np.random.default_rng(0)) == 0

    def test_single_arm(self):
        assert top_index([ArmStats(1, 0.3)], np.random.default_rng(0)) == 0

    def test_rejects_unsampled_arm(self):
        with pytest.raises(ValueError):
            top_index([ArmStats(1, 0.5), ArmStats()], np.random.default_rng(0))

    def test_ties_split_uniformly(self):
        stats = [ArmStats(2, 1.0), ArmStats(2, 1.0)]
        rng = np.random.default_rng(123)
        picks = [top_index(stats, rng) for _ in range(10_000)]
        freq = sum(picks) / len(picks)
        assert abs(freq - 0.5) <= 0.02


# A few values, 1.0 (the saturated upper bound) among them, so ties are common.
TIE_VALUES = st.sampled_from([0.25, 0.5, 0.75, 0.9, 1.0])


class TestIncrementalMax:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        initial=st.lists(TIE_VALUES, min_size=1, max_size=12),
        updates=st.lists(st.tuples(st.integers(0, 11), TIE_VALUES), max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pick_matches_argmax_random_tie(self, initial, updates, seed):
        values = list(initial)
        best = _IncrementalMax(values)
        rng = np.random.default_rng(seed)
        for arm, value in [(None, None)] + updates:
            if arm is not None:
                arm %= len(values)
                values[arm] = value
                best.move(arm, value)
            reference = copy.deepcopy(rng)
            assert best.pick(rng) == _argmax_random_tie(np.array(values), reference)
            assert rng.bit_generator.state == reference.bit_generator.state


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
        env = bernoulli_environment((0.9,), seed=0)
        with pytest.raises(ValueError):
            lil_klucb(env, BoundScheme("kl", 8, 0.01), None, np.random.default_rng(0))

    def test_rounds_add_two_pulls(self):
        env = bernoulli_environment((0.8, 0.4, 0.2))
        record = lil_klucb(env, BoundScheme("kl", 8, 0.05), 101, np.random.default_rng(5))
        assert (record.total_samples - 3) % 2 == 0
        assert record.total_samples == sum(record.per_arm_pulls)

    def test_bit_for_bit_determinism(self):
        env = bernoulli_environment((0.8, 0.5, 0.3), seed=9)
        scheme = BoundScheme("kl", 8, 0.05)
        a = lil_klucb(env, scheme, 2000, np.random.default_rng(31), seed=31)
        b = lil_klucb(env, scheme, 2000, np.random.default_rng(31), seed=31)
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
        env = bernoulli_environment((0.7, 0.5, 0.2), seed=4)
        scheme = BoundScheme("sg1", 8, 0.01)
        a = ucb_race(env, scheme, 500, 20, 2, np.random.default_rng(11), seed=11)
        b = ucb_race(env, scheme, 500, 20, 2, np.random.default_rng(11), seed=11)
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


class TestPredictedComplexity:
    def test_two_arm_bound_is_finite_and_monotone_in_delta(self):
        loose = predicted_complexity((0.9, 0.1), 0.1, 33)
        tight = predicted_complexity((0.9, 0.1), 0.01, 33)
        assert math.isfinite(loose.total)
        assert loose.total < tight.total

    def test_crossing_indices_are_exact(self):
        bound = predicted_complexity((0.9, 0.4, 0.2), 0.05, 33)
        f = _schedule(8, 0.05 * 0.05)
        for mu_i, xi in zip((0.4, 0.2), bound.crossing_indices):
            target = chernoff_information(mu_i, bound.witness_mus[0])
            assert f(xi) < target
            if xi > 1:
                assert f(xi - 1) >= target
        g = _schedule(8, 0.05 / 2.0)
        target = chernoff_information(0.9, bound.witness_mus[0])
        assert g(bound.best_arm_crossing) < target
        if bound.best_arm_crossing > 1:
            assert g(bound.best_arm_crossing - 1) >= target

    def test_wider_gaps_shrink_the_bound(self):
        wide = predicted_complexity((0.9, 0.5), 0.05, 33)
        narrow = predicted_complexity((0.9, 0.7), 0.05, 33)
        assert wide.total < narrow.total

    def test_witnesses_sit_strictly_between_the_means(self):
        bound = predicted_complexity((0.8, 0.6, 0.3), 0.05, 17)
        for mu_i, w in zip((0.6, 0.3), bound.witness_mus):
            assert mu_i < w < 0.8

    def test_total_decomposes(self):
        bound = predicted_complexity((0.8, 0.6, 0.3), 0.05, 17)
        assert bound.total == pytest.approx(
            bound.best_arm_term + sum(bound.per_arm_terms)
        )

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
