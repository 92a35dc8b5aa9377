"""Tests for the anytime confidence sequences and their constants."""

import math
import random
import tracemalloc
import warnings
from array import array

import mpmath
import numpy as np
import pytest

from lilklucb import bandit, confidence
from lilklucb.bandit import _first_crossing, ucb_race
from lilklucb.confidence import (
    _TABLE_CAP,
    KL_PRIME,
    KL_TILTED,
    MAX_TILT,
    SG1,
    SG2,
    BoundScheme,
    _kappa_series,
    _schedule,
    bound_side,
    coverage_envelope,
    full_sum,
    grow_full_sums,
    kappa,
    lower_bound,
    sg_radius,
    threshold,
    untilt_factor,
    upper_bound,
)
from lilklucb.environments import bernoulli_environment
from lilklucb.kl_math import (
    NEWTON_TOL,
    _kl,
    kl_lower_inverse,
    kl_upper_inverse,
)


def _deviations(scheme: BoundScheme, mu: float, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The deviation budgets z_t, t = 1..t_max, of a ``kl`` scheme around a known mean, per side.

    z_t solves D(mu + tilt/(tilt+1) * z, mu) = threshold(t) (upper side;
    the lower side mirrors), capped at the distance to the boundary: the
    exit curves of ``coverage_envelope`` less mu.
    """
    low, high = coverage_envelope(scheme, mu, t_max)
    return np.minimum(1.0 - mu, high - mu), np.minimum(mu, mu - low)


def _exact_series(tilt: int) -> mpmath.mpf:
    """The series inside kappa at the working precision: S1 + tilt * zeta(s, log2(tilt) + 1).

    S1 sums log2(2t)^-s, s = (tilt+1)/tilt, over t in 1..tilt (none at
    tilt 1) in mpmath up to tilt 2^12; above that it is the math.fsum of
    its float64 terms, since mpmath would take minutes over 10^6 terms.
    """
    level = tilt.bit_length() - 1
    s = mpmath.mpf(tilt + 1) / tilt
    if level == 0:
        s1 = mpmath.mpf(0)
    elif tilt <= 2**12:
        s1 = mpmath.fsum(mpmath.log(2 * t, 2) ** -s for t in range(1, tilt + 1))
    else:
        t = np.arange(1, tilt + 1, dtype=np.float64)
        s1 = mpmath.mpf(math.fsum(np.log2(2.0 * t) ** -((tilt + 1.0) / tilt)))
    return s1 + tilt * mpmath.zeta(s, level + 1)


def _stats(pulls: int, mean: float) -> tuple[int, float]:
    """The (pulls, reward_sum) key of ``pulls`` rewards averaging ``mean``."""
    return pulls, mean * pulls


class TestKappa:
    def test_tilt_one_matches_zeta_closed_form(self):
        # with tilt 1 the first sum vanishes and the series is zeta(2)
        for delta in (0.01, 0.1, 0.5):
            expected = math.sqrt(delta * math.pi**2 / 6.0)
            assert kappa(1, delta) == pytest.approx(expected, rel=1e-9)

    def test_strictly_increasing_in_delta(self):
        for tilt in (1, 8, 64):
            values = [kappa(tilt, d) for d in (0.001, 0.01, 0.1, 0.5, 0.9)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_resubstitution_keeps_union_bound_below_delta(self):
        # plug the computed constant back into the stitched union bound,
        # summed with the exact series
        tilt, delta = 8, 0.01
        kap = kappa(tilt, delta)
        with mpmath.workdps(40):
            s = mpmath.mpf(tilt + 1) / tilt
            total = mpmath.mpf(delta) ** s * mpmath.mpf(kap) ** -s * _exact_series(tilt)
            assert total <= delta * (1.0 + 1e-12)

    def test_series_matches_hurwitz_zeta(self):
        # never below the exact series, and at most a relative 1e-14 above it
        with mpmath.workdps(40):
            for j in range(21):
                exact = _exact_series(2**j)
                assert exact <= _kappa_series(2**j) <= exact * (1 + mpmath.mpf("1e-14")), j

    @pytest.mark.parametrize("tilt", [8, MAX_TILT])
    def test_series_is_summed_in_bounded_memory(self, tilt):
        # the whole tail series as one array would take 8 MB
        tracemalloc.start()
        try:
            _kappa_series.__wrapped__(tilt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            kappa(3, 0.1)
        with pytest.raises(ValueError):
            kappa(0, 0.1)


class TestUntiltFactor:
    def test_known_values(self):
        assert untilt_factor(8) == pytest.approx(9.0 / (8.0 - math.log(9.0)), rel=1e-14)
        assert untilt_factor(1) == pytest.approx(2.0 / (1.0 - math.log(2.0)), rel=1e-14)

    def test_matches_mixing_weight_form(self):
        # same constant written as 1/(a + (1-a) ln(1-a)) with a = tilt/(tilt+1)
        for tilt in (1, 2, 8, 64):
            a = tilt / (tilt + 1.0)
            alt = 1.0 / (a + (1.0 - a) * math.log(1.0 - a))
            assert untilt_factor(tilt) == pytest.approx(alt, rel=1e-12)

    def test_decreases_toward_one(self):
        values = [untilt_factor(t) for t in (2, 8, 64, 1024)]
        assert all(v > 1.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))


class TestBoundScheme:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BoundScheme("nope", 8, 0.01)
        with pytest.raises(ValueError):
            BoundScheme(KL_TILTED, 6, 0.01)
        with pytest.raises(ValueError, match="power of two in"):
            BoundScheme(KL_TILTED, 2 * MAX_TILT, 0.01)
        with pytest.raises(ValueError):
            BoundScheme(KL_TILTED, 8, 0.0)
        with pytest.raises(ValueError):
            BoundScheme(KL_TILTED, 8, 1.0)
        with pytest.raises(ValueError):
            BoundScheme(KL_PRIME, 2, 0.01)  # needs tilt > e

    def test_immutable_with_cached_constants(self):
        scheme = BoundScheme(KL_PRIME, 8, 0.01)
        assert scheme.kappa_cache == pytest.approx(kappa(8, 0.01))
        assert scheme.c_cache == pytest.approx(untilt_factor(8))
        with pytest.raises(AttributeError):
            scheme.delta = 0.5

    def test_with_delta(self):
        scheme = BoundScheme(KL_TILTED, 8, 0.01)
        derived = scheme.with_delta(0.0025)
        assert derived.kind == scheme.kind and derived.tilt == scheme.tilt
        assert derived.delta == 0.0025
        assert derived.kappa_cache == pytest.approx(kappa(8, 0.0025))


class TestThreshold:
    def test_first_sample_value(self):
        for kind, extra in ((KL_TILTED, 1.0), (KL_PRIME, untilt_factor(8))):
            scheme = BoundScheme(kind, 8, 0.01)
            expected = extra * math.log(scheme.kappa_cache / 0.01)
            assert threshold(scheme, 1) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing_from_two(self):
        scheme = BoundScheme(KL_TILTED, 8, 0.01)
        prev = threshold(scheme, 2)
        for t in range(3, 100_001):
            cur = threshold(scheme, t)
            assert cur < prev
            prev = cur
        # spot-check consecutive pairs out to 10^6
        for t in (10**5, 2 * 10**5, 5 * 10**5, 10**6 - 1):
            assert threshold(scheme, t + 1) < threshold(scheme, t)

    def test_larger_delta_lowers_threshold_everywhere(self):
        lo = BoundScheme(KL_TILTED, 8, 0.02)
        hi = BoundScheme(KL_TILTED, 8, 0.04)
        for t in (1, 2, 5, 17, 100, 10_000, 999_983):
            assert threshold(hi, t) < threshold(lo, t)

    def test_clamped_at_zero_for_delta_near_one(self):
        scheme = BoundScheme(KL_TILTED, 1, 0.999999)
        assert threshold(scheme, 1) >= 0.0

    def test_rejects_bad_t(self):
        scheme = BoundScheme(KL_TILTED, 8, 0.01)
        with pytest.raises(ValueError):
            threshold(scheme, 0)


def _libm_threshold(scheme: BoundScheme, t: int) -> float:
    """The schedule through libm's ``math.log`` and ``math.log2``, the reference for its bits."""
    if scheme.kind == SG2:
        base = math.log(math.pi * math.pi * t * t / (6.0 * scheme.delta)) / t
    else:
        base = math.log(scheme.kappa_cache * math.log2(2.0 * t) / scheme.delta) / t
    return max(0.0, scheme.c_cache * base)


class TestScheduleBits:
    """``_schedule`` is the one source of the schedule's bits."""

    SCHEMES = [BoundScheme(kind, 8, 0.05) for kind in (KL_TILTED, KL_PRIME, SG1, SG2)]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
    def test_table_entries_equal_one_element_evaluations(self, scheme):
        scheme = scheme.with_delta(scheme.delta)  # a fresh, empty table
        full = _schedule(scheme, range(1, 10_001))
        for t in range(1, 10_001):
            assert threshold(scheme, t) == full[t - 1]
            if t % 7 == 0:
                assert full[t - 1] == _schedule(scheme, [t])[0]
        assert len(scheme.threshold_table) == 16384
        for t in (_TABLE_CAP + 1, 2**40 + 3, 2**1022):
            assert threshold(scheme, t) == _schedule(scheme, [t])[0]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
    def test_bits_do_not_depend_on_the_batch(self, scheme):
        t = np.arange(1, 20_001, dtype=np.float64)
        full = np.asarray(_schedule(scheme, t))
        assert full.tobytes() == _schedule(scheme, range(1, 20_001)).tobytes()
        order = np.random.default_rng(3).permutation(t.size)
        assert np.array_equal(_schedule(scheme, t[order]), full[order])
        assert np.array_equal(_schedule(scheme, t[::7]), full[::7])  # strided view
        for start in range(0, t.size, 7):
            assert np.array_equal(_schedule(scheme, t[start:start + 7]), full[start:start + 7])
        for i in range(0, t.size, 97):
            assert _schedule(scheme, t[i:i + 1])[0] == full[i]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
    def test_is_the_libm_formula_bit_for_bit(self, scheme):
        ts = list(range(1, 2**16 + 1)) + [2**k for k in range(17, 1023)]
        ours = _schedule(scheme, ts)
        assert ours.tobytes() == array("d", [_libm_threshold(scheme, t) for t in ts]).tobytes()

    @staticmethod
    def _counted_reads(scheme, ts) -> list:
        """(first t, length) of each ``_schedule`` call while ``threshold`` reads ``ts``."""
        calls = []

        def counted(scheme, ts):
            calls.append((ts[0], len(ts)))
            return _schedule(scheme, ts)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(confidence, "_schedule", counted)
            for t in ts:
                assert threshold(scheme, t) == _schedule(scheme, [t])[0]
        return calls

    def test_a_far_jump_grows_the_table_once_and_is_evaluated_alone(self):
        # a read past the end grows the table to t's power of two, but at
        # most to twice its length (or 1024); a t still missed, or past 2^20,
        # is evaluated alone
        scheme = BoundScheme(KL_TILTED, 8, 0.05)
        ts = (1025, 1000, 1024, 2048, 4097, 3000, 2**20, 2**20 + 1)
        assert self._counted_reads(scheme, ts) == [
            (1, 1024), (1025, 1), (1025, 1024), (2049, 2048), (4097, 1), (4097, 4096),
            (2**20, 1), (2**20 + 1, 1)]
        assert len(scheme.threshold_table) == 8192

    def test_far_reads_that_keep_coming_double_the_table_per_read(self):
        # an early read leaves 8 entries; reads from t = 3000 on double the
        # table (the first to 1024) until it holds them
        scheme = BoundScheme(KL_TILTED, 8, 0.05)
        assert self._counted_reads(scheme, (5, *range(3000, 8193))) == [
            (1, 8), (9, 1016), (3000, 1), (1025, 1024), (3001, 1), (2049, 2048), (4097, 4096)]
        assert scheme.threshold_table.tobytes() == _schedule(scheme, range(1, 8193)).tobytes()

    def test_domain_edges(self):
        scheme = BoundScheme(KL_TILTED, 8, 0.01)
        threshold(scheme, 10)  # a filled table must not admit t < 1
        for t in (0, -1):
            with pytest.raises(ValueError):
                threshold(scheme, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert threshold(scheme, 2**1023) == math.inf
        with pytest.raises(OverflowError):
            threshold(scheme, 2**1024)

    def test_sg2_budget_is_inf_once_t_squared_overflows(self):
        scheme = BoundScheme(SG2, 8, 0.05)
        t = [2.0**500, 2.0**520, 2.0**1022]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            budget = np.asarray(_schedule(scheme, t))
            assert threshold(scheme, 2**520) == math.inf
        assert math.isfinite(budget[0]) and budget[0] > 0.0
        assert np.all(budget[1:] == math.inf)

    def test_sg1_budget_is_the_squared_ratio_times_kl(self):
        # sg_radius(sg1) = sqrt(0.5 * ratio^2 * threshold(kl)), bit for bit
        for tilt in (1, 2, 8, 64, 2**20):
            ratio = (tilt + 1.0) / tilt
            kl, sg1 = BoundScheme(KL_TILTED, tilt, 0.05), BoundScheme(SG1, tilt, 0.05)
            for t in (1, 2, 3, 1000, 12_345, 2**40 + 7):
                assert sg_radius(sg1, t) == math.sqrt(0.5 * ratio * ratio * threshold(kl, t))


class TestScheduleWork:
    """Counted, not timed: how often the schedule is evaluated."""

    @staticmethod
    def _count_evaluations(monkeypatch) -> list:
        calls = []

        def counted(scheme, t):
            calls.append((scheme.kind, len(t)))
            return schedule(scheme, t)

        schedule = confidence._schedule
        monkeypatch.setattr(confidence, "_schedule", counted)
        return calls

    @pytest.mark.parametrize("kind", [KL_TILTED, KL_PRIME, SG1, SG2])
    def test_race_fills_the_table_at_most_log2_budget_plus_one_times(self, monkeypatch, kind):
        calls = self._count_evaluations(monkeypatch)
        budget = 3000
        env = bernoulli_environment((0.9, 0.5, 0.4, 0.2))
        ucb_race(env, BoundScheme(kind, 8, 0.05), budget, 100, 1, np.random.default_rng(0))
        assert 0 < len(calls) <= math.ceil(math.log2(budget)) + 1

    def test_saturated_upper_bound_is_one_through_the_full_path(self):
        # a mean of exactly 1 reads the threshold and inverts (or adds the
        # radius) like any other; every scheme's bound there is 1
        ts = (1, 2, 1000, _TABLE_CAP + 1)
        for kind in (KL_TILTED, KL_PRIME, SG1, SG2):
            scheme = BoundScheme(kind, 8, 0.05)
            assert [upper_bound(scheme, t, float(t)) for t in ts] == [1.0] * len(ts), kind

    @pytest.mark.parametrize("kind", [KL_TILTED, KL_PRIME, SG1, SG2])
    def test_coverage_envelope_makes_one_evaluation_and_no_scalar_call(self, monkeypatch, kind):
        calls = self._count_evaluations(monkeypatch)

        def scalar(*args):
            raise AssertionError("coverage_envelope read the scalar threshold")

        monkeypatch.setattr(confidence, "threshold", scalar)
        coverage_envelope(BoundScheme(kind, 8, 0.05), 0.4, 5000)
        assert calls == [(kind, 5000)]

    def test_crossing_search_reads_the_schedule_and_not_the_table(self, monkeypatch):
        # one-element evaluations: at 2^0 up to the first power of two below
        # the target, then one per bisection step; a target never crossed
        # costs the 1023 powers of two 2^0..2^1022
        calls = self._count_evaluations(monkeypatch)
        monkeypatch.setattr(bandit, "_schedule", confidence._schedule)
        for target, crossing in ((0.05, 223), (1e-3, 11_606), (1e-4, 118_128), (1e-5, 1_198_438),
                                 (1e-7, 122_582_389), (1e-20, 1_319_565_617_029_786_501_121)):
            scheme = BoundScheme(KL_TILTED, 8, 0.0025)
            calls.clear()
            assert _first_crossing(scheme, target) == crossing
            level = (crossing - 1).bit_length()  # the first power of two below is 2^level
            assert calls == [(KL_TILTED, 1)] * (level + 1 + max(0, level - 1))
            assert len(scheme.threshold_table) == 0
        calls.clear()
        with pytest.raises(ValueError):
            _first_crossing(scheme, 1e-310)
        assert calls == [(KL_TILTED, 1)] * 1023
        assert len(scheme.threshold_table) == 0


class TestDeviationEnvelope:
    def test_boundary_when_threshold_too_large(self):
        # at t = 1 the budget exceeds every achievable divergence, so the
        # sequence sits at its boundary
        scheme = BoundScheme(KL_TILTED, 8, 0.01)
        for mu in (0.1, 0.5, 0.9):
            upper, lower = _deviations(scheme, mu, 1)
            assert upper[0] == 1.0 - mu
            assert lower[0] == mu

    def test_decays_monotonically_once_solvable(self):
        zs, _ = _deviations(BoundScheme(KL_TILTED, 8, 0.01), 0.5, 5000)
        assert np.all(zs[1:] <= zs[:-1] + 1e-12)
        assert zs[-1] < 0.05

    def test_solves_the_defining_equation(self):
        scheme = BoundScheme(KL_TILTED, 8, 0.05)
        mu, t = 0.3, 400
        z = _deviations(scheme, mu, t)[0][t - 1]
        assert 0.0 < z < 1.0 - mu
        lhs = _kl(mu + 8.0 / 9.0 * z, mu)
        assert lhs == pytest.approx(threshold(scheme, t), abs=1e-9)

    def test_scaled_deviation_is_nondecreasing(self):
        # t * z_t never decreases, for every tested mean and both sides
        scheme = BoundScheme(KL_TILTED, 8, 0.01)
        t = np.arange(1, 20_001)
        for mu in np.round(np.arange(0.1, 0.91, 0.1), 2):
            for side, z in zip(("upper", "lower"), _deviations(scheme, mu, t.size)):
                tz = t * z
                drops = np.flatnonzero(tz[1:] < tz[:-1] - 1e-12)
                assert drops.size == 0, (mu, side, t[drops[:1] + 1])

    def test_scaled_deviation_long_horizon(self):
        t = np.arange(1, 100_001)
        tz = t * _deviations(BoundScheme(KL_TILTED, 8, 0.01), 0.3, t.size)[0]
        drops = np.flatnonzero(tz[1:] < tz[:-1] - 1e-12)
        assert drops.size == 0, t[drops[:1] + 1]


class TestThresholdDomination:
    def test_tilted_threshold_dominates_plain_divergence(self):
        # D(mu + x, mu) <= c * D(mu + tilt/(tilt+1) x, mu) on a dense grid
        for tilt in (1, 2, 8, 64):
            c = untilt_factor(tilt)
            w = tilt / (tilt + 1.0)
            for mu in np.round(np.arange(0.01, 1.0, 0.01), 2):
                for x in np.linspace(1e-6, 1.0 - mu, 25):
                    lhs = _kl(mu + x, mu)
                    rhs = c * _kl(mu + w * x, mu)
                    assert lhs <= rhs + 1e-10, (tilt, mu, x)


class TestBounds:
    def test_saturation_at_first_sample(self):
        # huge budget at t = 1: SG radii clamp exactly, KL inverses saturate
        # within solver tolerance of the endpoints
        for kind in (SG1, SG2):
            scheme = BoundScheme(kind, 8, 0.01)
            assert upper_bound(scheme, *_stats(1, 0.3)) == 1.0
            assert lower_bound(scheme, *_stats(1, 0.3)) == 0.0
        for kind in (KL_TILTED, KL_PRIME):
            scheme = BoundScheme(kind, 8, 0.01)
            assert upper_bound(scheme, *_stats(1, 0.3)) >= 1.0 - 1e-5
            assert lower_bound(scheme, *_stats(1, 0.3)) <= 1e-5

    def test_rejects_unsampled_arm(self):
        scheme = BoundScheme(KL_TILTED, 8, 0.01)
        with pytest.raises(ValueError):
            upper_bound(scheme, 0, 0.0)
        with pytest.raises(ValueError):
            lower_bound(scheme, 0, 0.0)

    def test_bound_side_rejects_unsampled_arm(self):
        for kind in (KL_TILTED, KL_PRIME, SG1, SG2):
            for edge in (0.0, 1.0):
                with pytest.raises(ValueError):
                    bound_side(BoundScheme(kind, 8, 0.01), edge)(0, 0.0, 0.5)

    def test_lower_bound_certificate_distrusts_tiny_budgets(self):
        # a budget of 4.3e-10, where _kl's rounding noise exceeds its change
        # over one tolerance: the divergence a tolerance below this level
        # reads within the budget, yet the lower bound lies above the level
        scheme = BoundScheme(KL_TILTED, 8, 0.05)
        key = (22925133017, 17005565399.0)
        level = 0.7417725669981757
        assert threshold(scheme, key[0]) < 1e-9
        assert lower_bound(scheme, *key) > level
        assert bound_side(scheme, 0.0)(*key, level) == 0

    @pytest.mark.parametrize("kind", [KL_TILTED, KL_PRIME])
    @pytest.mark.parametrize("x, lower_side, upper_side", [
        (-math.inf, -1, 1), (-0.5, -1, 1), (1.5, 1, -1), (math.inf, 1, -1)])
    def test_bound_side_outside_the_unit_interval(self, kind, x, lower_side, upper_side):
        # every bound lies in [0, 1]; at x = -inf the tilted divergence's
        # mixture point is -inf too, where _kl reads 0 through p == q
        for pulls, reward_sum in ((1, 0.0), (1, 1.0), (100, 37.0)):
            scheme = BoundScheme(kind, 8, 0.01)
            assert bound_side(scheme, 0.0)(pulls, reward_sum, x) == lower_side
            assert bound_side(scheme, 1.0)(pulls, reward_sum, x) == upper_side

    @pytest.mark.parametrize("kind", [KL_TILTED, KL_PRIME])
    def test_bound_side_at_a_mean_on_the_edge(self, kind):
        # a budget below the floor, and the point one step short of x landing
        # on the mean at 0 or 1: outside (0, 1), but no divergence over the
        # budget lies there, so the side is not certain
        scheme = BoundScheme(kind, 8, 0.05)
        pulls = 10**12
        assert threshold(scheme, pulls) < 1e-7
        assert upper_bound(scheme, pulls, 0.0) > NEWTON_TOL
        assert bound_side(scheme, 1.0)(pulls, 0.0, NEWTON_TOL) == 0
        x = 1.0 - NEWTON_TOL
        assert x + NEWTON_TOL == 1.0 and lower_bound(scheme, pulls, float(pulls)) < x
        assert bound_side(scheme, 0.0)(pulls, float(pulls), x) == 0

    def test_kl_prime_composes_documented_primitives(self):
        scheme = BoundScheme(KL_PRIME, 8, 0.01)
        stats = _stats(1000, 0.5)
        budget = untilt_factor(8) * math.log(
            kappa(8, 0.01) * math.log2(2000.0) / 0.01
        ) / 1000.0
        assert upper_bound(scheme, *stats) == pytest.approx(
            kl_upper_inverse(0.5, budget), abs=1e-12
        )
        assert lower_bound(scheme, *stats) == pytest.approx(
            kl_lower_inverse(0.5, budget), abs=1e-12
        )

    def test_nesting_around_empirical_mean(self):
        rng = np.random.default_rng(5)
        for kind in (KL_TILTED, KL_PRIME, SG1, SG2):
            scheme = BoundScheme(kind, 8, 0.01)
            for _ in range(60):
                t = int(rng.integers(1, 5000))
                mean = float(rng.uniform(0, 1))
                stats = _stats(t, mean)
                lo, hi = lower_bound(scheme, *stats), upper_bound(scheme, *stats)
                assert 0.0 <= lo <= mean <= hi <= 1.0

    def test_widths_shrink_in_t(self):
        for kind in (KL_TILTED, KL_PRIME, SG1, SG2):
            scheme = BoundScheme(kind, 8, 0.01)
            for mean in (0.0, 0.37, 1.0):
                prev = None
                for t in range(2, 500):
                    stats = _stats(t, mean)
                    width = upper_bound(scheme, *stats) - lower_bound(scheme, *stats)
                    if prev is not None:
                        assert width <= prev + 1e-12
                    prev = width

    def test_sg1_wider_than_kl_prime_at_extreme_means(self):
        sg = BoundScheme(SG1, 8, 0.01)
        prime = BoundScheme(KL_PRIME, 8, 0.01)
        for t in (100, 1000, 10_000, 100_000):
            for mean in (0.02, 0.98):
                stats = _stats(t, mean)
                sg_width = upper_bound(sg, *stats) - lower_bound(sg, *stats)
                prime_width = upper_bound(prime, *stats) - lower_bound(prime, *stats)
                assert sg_width > prime_width, (t, mean)

    def test_kl_prime_interval_nests_inside_sg1_for_extreme_means(self):
        # holds on the test grid once t clears the very-small-sample regime
        sg = BoundScheme(SG1, 8, 0.01)
        prime = BoundScheme(KL_PRIME, 8, 0.01)
        means = np.round(
            np.concatenate([np.arange(0.02, 0.20, 0.02), np.arange(0.82, 1.0, 0.02)]), 2
        )
        for t in (400, 1000, 10_000, 100_000):
            for mean in means:
                stats = _stats(t, float(mean))
                assert lower_bound(sg, *stats) <= lower_bound(prime, *stats) + 1e-12
                assert upper_bound(prime, *stats) <= upper_bound(sg, *stats) + 1e-12


class TestFullSum:
    COUNTS = (*range(1, 4097), 10**7, 2**40, 2**53)  # the large ones past the table cap

    @staticmethod
    def _sums(scheme: BoundScheme, p: int, full: float, draw: random.Random) -> list:
        """One float below the full sum, and an integer, a half-unit and an arbitrary float sum.

        A kl sum below the count costs an inversion, so only every 16th
        count takes the three; at an infinite kl budget every bound is 1.0,
        so none is taken there.
        """
        if scheme.kind in (KL_TILTED, KL_PRIME):
            if math.isinf(threshold(scheme, p)):
                return []
            if p % 16:
                return [math.nextafter(full, 0.0)]
        sums = [math.floor(p * draw.random()), math.floor(p * draw.random()) + 0.5,
                p * draw.random()]
        return sums + [math.nextafter(full, 0.0)] * (full > 0.0)

    @pytest.mark.parametrize("kind", [KL_TILTED, KL_PRIME, SG1, SG2])
    def test_is_the_smallest_sum_whose_upper_bound_is_one(self, kind):
        # at counts 1..4096, as the race's list holds them, and at a few
        # large counts: upper_bound is 1.0 at the full sum, and a sum at or
        # below the count reaches 1.0 exactly when it reaches the full sum.
        # The kl kinds give the count itself.  sg2 ignores the tilt.
        draw = random.Random(0)
        for tilt in (8,) if kind == SG2 else (1, 8, MAX_TILT):
            for delta in (1e-300, 0.05, 0.999999):
                if kind == KL_PRIME and tilt == 1:
                    continue
                scheme = BoundScheme(kind, tilt, delta)
                full = [math.inf]
                grow_full_sums(scheme, full, 4096)
                fulls = full[1:] + [full_sum(scheme, p) for p in self.COUNTS[4096:]]
                bounds = [upper_bound(scheme, p, f) for p, f in zip(self.COUNTS, fulls)]
                assert bounds == [1.0] * len(self.COUNTS)
                if kind in (KL_TILTED, KL_PRIME):
                    assert fulls == list(self.COUNTS)
                wrong = [(p, s) for p, f in zip(self.COUNTS, fulls)
                         for s in self._sums(scheme, p, f, draw)
                         if (upper_bound(scheme, p, s) == 1.0) != (s >= f)]
                assert wrong == [], (tilt, delta)


class TestSg2Radius:
    def test_strictly_decreasing_in_t_from_two(self):
        scheme = BoundScheme(SG2, 8, 0.05)
        prev = sg_radius(scheme, 2)
        for t in range(3, 100_001):
            cur = sg_radius(scheme, t)
            assert cur < prev
            prev = cur

    def test_strictly_decreasing_in_delta(self):
        for t in (1, 10, 1000):
            values = [sg_radius(BoundScheme(SG2, 8, d), t) for d in (0.001, 0.01, 0.1, 0.5)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_anytime_coverage_monte_carlo(self):
        # one-sided deviations of Bernoulli(0.5) streams beyond the radius
        delta, t_max, trajectories = 0.05, 10_000, 10_000
        scheme = BoundScheme(SG2, 8, delta)
        radii = np.array([sg_radius(scheme, t) for t in range(1, t_max + 1)])
        t = np.arange(1, t_max + 1, dtype=float)
        limit = (0.5 + radii) * t
        rng = np.random.default_rng(99)
        violations = 0
        done = 0
        while done < trajectories:
            b = min(1000, trajectories - done)
            done += b
            sums = np.cumsum(rng.binomial(1, 0.5, size=(b, t_max)), axis=1)
            violations += int((sums > limit).any(axis=1).sum())
        assert violations / trajectories <= delta


class TestCoverageEnvelope:
    def test_matches_direct_bound_inversion(self):
        # crossing the curve is exactly the event that the true mean leaves
        # the interval, checked against the bound functions themselves
        mu, t = 0.4, 50
        for kind in (KL_TILTED, KL_PRIME, SG1, SG2):
            scheme = BoundScheme(kind, 8, 0.05)
            low, high = coverage_envelope(scheme, mu, t)
            eps = 1e-6
            hi = high[t - 1]
            if hi + eps <= 1.0:
                assert lower_bound(scheme, *_stats(t, hi + eps)) > mu
                assert lower_bound(scheme, *_stats(t, hi - eps)) <= mu
            lo = low[t - 1]
            if lo - eps >= 0.0:
                assert upper_bound(scheme, *_stats(t, lo - eps)) < mu
                assert upper_bound(scheme, *_stats(t, lo + eps)) >= mu

    def test_degenerate_streams_never_exit(self):
        for kind in (KL_TILTED, KL_PRIME, SG1, SG2):
            scheme = BoundScheme(kind, 8, 0.05)
            for mu in (0.0, 1.0):
                low, high = coverage_envelope(scheme, mu, 200)
                t = np.arange(1, 201, dtype=float)
                sums = t * mu  # the only possible trajectory
                assert not (sums > high * t).any()
                assert not (sums < low * t).any()
