"""Tests for the reward processes and environment construction."""

import math
import random

import numpy as np
import pytest

from lilklucb.data_ingest import Caption, ContestDataset
from lilklucb.environments import (
    Bernoulli,
    Bootstrap,
    Draws,
    Environment,
    bernoulli_environment,
    from_contest,
    gap_family,
    parametric_means,
    sample,
)

# A 1-, 2- and 3-star rating pool in proportions 0.2, 0.3, 0.5: the shape of a contest arm
_STAR_POOL = (0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0)


class TestParametricFamilies:
    def test_linear_profile(self):
        assert parametric_means(4, 1.0) == (1.0, 0.75, 0.5, 0.25)

    def test_best_mean_is_exactly_one(self):
        for n, alpha in ((2, 0.5), (10, 1.0), (313, 2.3)):
            assert parametric_means(n, alpha)[0] == 1.0

    def test_second_mean_large_instance(self):
        means = parametric_means(1000, 0.5)
        assert means[1] == pytest.approx(1.0 - 0.001**0.5, abs=1e-12)

    def test_strictly_decreasing(self):
        means = parametric_means(50, 0.7)
        assert all(b < a for a, b in zip(means, means[1:]))

    def test_linear_gaps(self):
        assert gap_family(4, 1.0) == (0.25, 0.5, 0.75, 1.0)

    def test_gap_alpha_limit(self):
        # alpha -> 0 pushes every gap toward 1
        gaps = gap_family(10, 1e-9)
        assert all(abs(g - 1.0) < 1e-7 for g in gaps)

    def test_tiny_gap_value(self):
        assert gap_family(1000, 2.0)[1] == pytest.approx(4e-6, rel=1e-12)

    def test_strictly_increasing(self):
        gaps = gap_family(30, 1.3)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("alpha", [1000.0, 1e-17])
    def test_gaps_not_representable_as_increasing_floats_raise(self, alpha):
        # 1000: (1/8)^1000 underflows to 0; 1e-17: every gap rounds to 1
        with pytest.raises(ValueError, match="strictly increasing"):
            gap_family(8, alpha)

    def test_gap_whose_mean_rounds_to_one_raises(self):
        # (1/6)^35 = 5e-28 is positive, but 1 - 5e-28 is 1.0
        with pytest.raises(ValueError, match="rounds to the best mean 1"):
            gap_family(6, 35.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            parametric_means(1, 1.0)
        with pytest.raises(ValueError):
            parametric_means(5, 0.0)
        with pytest.raises(ValueError):
            gap_family(3, -1.0)


class TestDistributions:
    def test_degenerate_bernoulli(self):
        rng = np.random.default_rng(0)
        env = Environment((Bernoulli(1.0), Bernoulli(0.0)))
        assert all(sample(env, 0, rng) == 1.0 for _ in range(20))
        assert all(sample(env, 1, rng) == 0.0 for _ in range(20))

    def test_bernoulli_monte_carlo_mean(self):
        rng = np.random.default_rng(42)
        arm = Bernoulli(0.3)
        draws = [arm.draw(rng) for _ in range(100_000)]
        assert abs(np.mean(draws) - 0.3) < 0.005

    @pytest.mark.parametrize(
        "arm",
        [
            Bernoulli(0.62),
            Bootstrap(_STAR_POOL),
            Bootstrap((0.0, 0.0, 0.5, 1.0, 1.0, 1.0)),
        ],
    )
    def test_sampled_mean_matches_analytic_mean(self, arm):
        rng = np.random.default_rng(7)
        draws = np.array([arm.draw(rng) for _ in range(100_000)])
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - arm.mean) <= 5 * max(se, 1e-4)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            Bernoulli(1.5)
        with pytest.raises(ValueError):
            Bootstrap(())


class TestEnvironment:
    def test_requires_unique_best_arm(self):
        with pytest.raises(ValueError):
            bernoulli_environment((0.5, 0.5))

    def test_requires_descending_means(self):
        with pytest.raises(ValueError):
            bernoulli_environment((0.9, 0.2, 0.4))

    def test_out_of_range_arm_index(self):
        env = bernoulli_environment((0.9, 0.1))
        with pytest.raises(IndexError):
            sample(env, 2, np.random.default_rng(0))


def _dataset(rows):
    return ContestDataset(
        contest_id=1,
        captions=tuple(Caption(text=t, star_counts=c) for t, c in rows),
    )


class TestFromContest:
    def test_all_one_star_pool_is_zero(self):
        ds = _dataset([("dull", (10, 0, 0)), ("ok", (0, 10, 0))])
        env = from_contest(ds)
        assert env.true_means == (0.5, 0.0)
        assert set(env.arms[1].pool) == {0.0}

    def test_uniform_votes_give_half(self):
        ds = _dataset([("mid", (1, 1, 1)), ("bad", (5, 0, 0))])
        env = from_contest(ds)
        assert env.true_means[0] == pytest.approx(0.5, abs=1e-15)

    def test_reorders_by_pool_mean(self):
        ds = _dataset([("bad", (8, 2, 0)), ("good", (0, 2, 8)), ("mid", (2, 6, 2))])
        env = from_contest(ds)
        assert env.true_means == tuple(sorted(env.true_means, reverse=True))
        assert env.true_means[0] == pytest.approx(0.9)

    def test_equal_means_keep_file_order(self):
        ds = _dataset([("a", (1, 0, 0)), ("top", (0, 0, 5)), ("b", (3, 0, 0))])
        env = from_contest(ds)
        assert [len(arm.pool) for arm in env.arms] == [5, 1, 3]
        assert env.true_means == (1.0, 0.0, 0.0)

    def test_rejects_top_tie(self):
        ds = _dataset([("a", (0, 0, 5)), ("b", (0, 0, 5)), ("c", (5, 0, 0))])
        with pytest.raises(ValueError):
            from_contest(ds)

    def test_deterministic_given_dataset(self):
        ds = _dataset([("a", (3, 4, 5)), ("b", (9, 1, 2)), ("c", (2, 2, 2))])
        assert from_contest(ds).true_means == from_contest(ds).true_means

    def test_bootstrap_draws_come_from_pool(self):
        ds = _dataset([("a", (1, 2, 3)), ("b", (6, 0, 0))])
        env = from_contest(ds)
        rng = np.random.default_rng(3)
        draws = {sample(env, 0, rng) for _ in range(200)}
        assert draws <= {0.0, 0.5, 1.0}


def _rejection_integers(rng: random.Random, m: int) -> int:
    """Uniform on [0, m): getrandbits(m.bit_length()) until below m, no draw for m = 1."""
    if m == 1:
        return 0
    while True:
        x = rng.getrandbits(m.bit_length())
        if x < m:
            return x


class TestDraws:
    # small ranges, powers of two (half of all draws rejected), and 2**31 + 1
    # and 2**40, which span more than one 32-bit word of the twister
    @pytest.mark.parametrize("m", [*range(2, 34), 2**31 + 1, 2**40])
    def test_integers_follow_the_rejection_definition(self, m):
        draws, reference = Draws(5), random.Random(5)
        for _ in range(300):
            got = draws.integers(m)
            assert type(got) is int and 0 <= got < m
            assert got == _rejection_integers(reference, m)
            assert draws.random() == reference.random()
        assert draws.getstate() == reference.getstate()

    def test_integers_of_one_draws_nothing(self):
        draws = Draws(5)
        state = draws.getstate()
        assert draws.integers(1) == 0
        assert draws.getstate() == state

    def test_invalid_range_raises(self):
        draws = Draws(0)
        for m in (0, -3):
            with pytest.raises(ValueError):
                draws.integers(m)

    @pytest.mark.parametrize(
        "arm",
        [
            Bernoulli(0.3),
            Bootstrap(_STAR_POOL),
            Bootstrap((0.7,)),
            Bootstrap(tuple(i / 56 for i in range(57))),
        ],
    )
    def test_arms_draw_the_same_rewards(self, arm):
        draws, reference = Draws(9), random.Random(9)
        if isinstance(arm, Bernoulli):
            want = [1.0 if reference.random() < arm.p else 0.0 for _ in range(500)]
        else:
            want = [arm.pool[_rejection_integers(reference, len(arm.pool))] for _ in range(500)]
        assert [arm.draw(draws) for _ in range(500)] == want
        assert draws.getstate() == reference.getstate()
