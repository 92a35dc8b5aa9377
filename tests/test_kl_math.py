"""Unit and property tests for the Bernoulli divergence primitives."""

import math

import mpmath
import numpy as np
import pytest

from lilklucb.kl_math import (
    _chernoff_crossing,
    _kl,
    as_divergence,
    as_prob,
    chernoff_information,
    kl_lower_inverse,
    kl_upper_inverse,
    tilted_kl_lower_inverse,
    tilted_kl_upper_inverse,
)

# Frozen from an independent 40-digit evaluation of the closed form
# (0.3*ln(0.3/0.7) + 0.7*ln(0.7/0.3) on the float64 inputs).
KL_03_07 = 0.33891914415488137971

PROB_GRID = np.round(np.arange(0.01, 1.0, 0.01), 2)


def chernoff_floor(mu: float, delta_gap: float) -> float:
    """Closed-form lower bound on chernoff_information(mu, mu + delta_gap).

    Evaluates -log(sqrt(mu*(mu+gap)) + sqrt((1-mu)*(1-mu-gap))); a test
    oracle bounding the Chernoff information from below.
    """
    mu = as_prob(mu, "mu")
    delta_gap = float(delta_gap)
    if math.isnan(delta_gap) or delta_gap < 0.0:
        raise ValueError(f"delta_gap must be >= 0, got {delta_gap!r}")
    if mu + delta_gap > 1.0:
        raise ValueError(f"mu + delta_gap must not exceed 1, got {mu + delta_gap!r}")
    upper = mu + delta_gap
    s = math.sqrt(mu * upper) + math.sqrt(max(0.0, (1.0 - mu) * (1.0 - upper)))
    if s == 0.0:
        return math.inf
    return -math.log(s)


class TestValidation:
    def test_prob_accepts_endpoints(self):
        assert as_prob(0.0) == 0.0
        assert as_prob(1.0) == 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_prob_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            as_prob(bad)

    def test_divergence_allows_inf_rejects_nan(self):
        assert as_divergence(math.inf) == math.inf
        with pytest.raises(ValueError):
            as_divergence(float("nan"))
        with pytest.raises(ValueError):
            as_divergence(-1e-9)


class TestBernoulliKl:
    def test_zero_on_diagonal(self):
        for p in PROB_GRID:
            assert _kl(p, p) == 0.0

    def test_max_deviation_is_log_inverse_mean(self):
        # D(1, mu) = ln(1/mu)
        assert _kl(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)
        for mu in (0.1, 0.25, 0.9):
            assert _kl(1.0, mu) == pytest.approx(-math.log(mu), abs=1e-14)

    def test_interior_value_against_high_precision_oracle(self):
        assert _kl(0.3, 0.7) == pytest.approx(KL_03_07, abs=1e-15)

    def test_degenerate_conventions(self):
        assert _kl(0.0, 0.0) == 0.0
        assert _kl(1.0, 1.0) == 0.0
        assert _kl(0.5, 0.0) == math.inf
        assert _kl(0.5, 1.0) == math.inf
        assert _kl(0.0, 1.0) == math.inf
        assert _kl(1.0, 0.0) == math.inf
        assert _kl(0.0, 0.3) == pytest.approx(-math.log(0.7), abs=1e-15)

    def test_strictly_increasing_in_second_arg_above_p(self):
        for p in (0.0, 0.2, 0.5, 0.9):
            ms = np.linspace(p, 0.999, 60)
            vals = [_kl(p, m) for m in ms]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestInverses:
    def test_zero_budget_returns_p(self):
        assert kl_upper_inverse(0.5, 0.0) == 0.5
        assert kl_lower_inverse(0.5, 0.0) == 0.5
        assert tilted_kl_upper_inverse(0.5, 0.0, 8) == 0.5
        assert tilted_kl_lower_inverse(0.5, 0.0, 8) == 0.5

    def test_unbounded_budget_saturates(self):
        for p in (0.0, 0.3, 1.0):
            assert kl_upper_inverse(p, math.inf) == 1.0
            assert kl_lower_inverse(p, math.inf) == 0.0
            assert tilted_kl_upper_inverse(p, math.inf, 8) == 1.0
            assert tilted_kl_lower_inverse(p, math.inf, 8) == 0.0

    def test_plain_roundtrip_at_example_point(self):
        m = kl_upper_inverse(0.5, 0.1)
        assert abs(_kl(0.5, m) - 0.1) <= 1e-9
        m = kl_lower_inverse(0.5, 0.1)
        assert abs(_kl(0.5, m) - 0.1) <= 1e-9

    def test_tilted_roundtrip_at_example_point(self):
        m = tilted_kl_upper_inverse(0.3, 0.05, 8)
        assert abs(_kl((8 * 0.3 + m) / 9.0, m) - 0.05) <= 1e-9
        m = tilted_kl_lower_inverse(0.3, 0.05, 8)
        assert abs(_kl((8 * 0.3 + m) / 9.0, m) - 0.05) <= 1e-9

    def test_roundtrip_grid_all_four_solvers(self):
        # Budgets stay below the divergence at m = 0.995 / 0.005 so the
        # solution is interior and the solver's 1e-12 step keeps the
        # divergence within 1e-9 of the request.
        rng = np.random.default_rng(20240811)
        for _ in range(300):
            p = rng.uniform(0.01, 0.99)
            for tilt in (1, 8):
                cap = _kl((tilt * p + 0.995) / (tilt + 1.0), 0.995)
                b = rng.uniform(1e-6, 0.95 * cap)
                m = tilted_kl_upper_inverse(p, b, tilt)
                got = _kl((tilt * p + m) / (tilt + 1.0), m)
                assert b - 1e-9 <= got <= b
                cap = _kl((tilt * p + 0.005) / (tilt + 1.0), 0.005)
                b = rng.uniform(1e-6, 0.95 * cap)
                m = tilted_kl_lower_inverse(p, b, tilt)
                got = _kl((tilt * p + m) / (tilt + 1.0), m)
                assert b - 1e-9 <= got <= b
            b = rng.uniform(1e-6, 0.95 * _kl(p, 0.995))
            got = _kl(p, kl_upper_inverse(p, b))
            assert b - 1e-9 <= got <= b
            b = rng.uniform(1e-6, 0.95 * _kl(p, 0.005))
            got = _kl(p, kl_lower_inverse(p, b))
            assert b - 1e-9 <= got <= b

    def test_upper_inverse_nondecreasing_in_bound(self):
        for p in (0.1, 0.5, 0.9):
            bounds = np.linspace(0.0, 2.0, 80)
            vals = [kl_upper_inverse(p, b) for b in bounds]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_inverse_stays_feasible_side(self):
        # the returned point never overshoots the requested budget
        for p in (0.05, 0.4, 0.75):
            for b in (1e-8, 1e-4, 0.02, 0.4):
                assert _kl(p, kl_upper_inverse(p, b)) <= b
                assert _kl(p, kl_lower_inverse(p, b)) <= b

    def test_tilt_validation(self):
        # None too: the shared solver reads a tilt of None as the plain divergence
        for inverse in (tilted_kl_upper_inverse, tilted_kl_lower_inverse):
            for tilt in (None, 0, -3, 2.5):
                with pytest.raises(ValueError, match="tilt must be a positive integer"):
                    inverse(0.5, 0.1, tilt)

    def test_numpy_arguments_give_python_floats(self):
        # every return path, at the early returns and after a solve
        for p, bound in ((0.3, 0.05), (0.3, 0.0), (0.3, math.inf), (0.0, 0.05), (1.0, 0.05)):
            args = (np.float64(p), np.float64(bound))
            for value in (kl_upper_inverse(*args), kl_lower_inverse(*args),
                          tilted_kl_upper_inverse(*args, 8), tilted_kl_lower_inverse(*args, 8)):
                assert type(value) is float, (p, bound)


class TestChernoff:
    def test_zero_on_diagonal(self):
        for mu in (0.0, 0.3, 1.0):
            assert chernoff_information(mu, mu) == 0.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = rng.uniform(0.01, 0.99, size=2)
            assert chernoff_information(x, y) == chernoff_information(y, x)

    def test_symmetric_pair_pins_the_crossing(self):
        # x = 1 - y forces the crossing to 1/2, so the value collapses to
        # a plain divergence evaluation
        assert _chernoff_crossing(0.25, 0.75) == pytest.approx(0.5, abs=1e-9)
        assert chernoff_information(0.25, 0.75) == pytest.approx(
            _kl(0.5, 0.25), abs=1e-9
        )

    def test_defining_fixed_point(self):
        z = _chernoff_crossing(0.3, 0.8)
        assert abs(_kl(z, 0.3) - _kl(z, 0.8)) <= 1e-10

    def test_degenerate_endpoints(self):
        assert chernoff_information(0.0, 1.0) == math.inf
        assert chernoff_information(0.0, 0.4) == pytest.approx(-math.log(0.6), abs=1e-14)
        assert chernoff_information(0.3, 1.0) == pytest.approx(-math.log(0.3), abs=1e-14)

    def test_pinsker_and_closed_form_floors_on_grid(self):
        # two lower bounds at once: half the squared gap, and the
        # closed-form floor from chernoff_floor
        for x in PROB_GRID:
            for y in PROB_GRID:
                if y < x:
                    continue
                d = chernoff_information(x, y)
                assert d >= 0.5 * (x - y) ** 2 - 1e-12
                assert d >= chernoff_floor(x, y - x) - 1e-12

    def test_crossing_matches_a_60_digit_oracle(self):
        # the crossing u / (u + w), u = log1p((b-a)/(1-b)), w = log(b/a), on
        # the float inputs at 60 digits: random pairs, relative gaps
        # 1e-12..1e-2, neighbouring floats (where rounding alone would leave
        # [a, b]), subnormal and tiny a, and the largest b below 1
        rng = np.random.default_rng(2024)
        pairs = [tuple(rng.uniform(0.0, 1.0, size=2)) for _ in range(300)]
        for gap in np.logspace(-12, -2, 11):
            for a in rng.uniform(1e-3, 0.99, size=20):
                pairs.append((a, a * (1.0 + gap)))
        for a in rng.uniform(0.0, 1.0, size=100):
            pairs.append((a, math.nextafter(math.nextafter(a, 1.0), 1.0)))
        top = 1.0 - 2.0**-53
        for a in (5e-324, 1e-320, 1e-300):
            pairs += [(a, b) for b in (1e-3, 0.1, 0.5, 0.9, top)]
        pairs += [(a, top) for a in (1e-6, 0.1, 0.5, 0.9, 1.0 - 2.0**-52)]
        with mpmath.workdps(60):
            for x, y in pairs:
                a, b = sorted((float(x), float(y)))
                ma, mb = mpmath.mpf(a), mpmath.mpf(b)
                u = mpmath.log1p((mb - ma) / (1 - mb))
                w = mpmath.log(mb / ma)
                expected = u / (u + w)
                z = _chernoff_crossing(a, b)
                assert a <= z <= b, (x, y, z)
                assert abs(z - expected) <= 1e-15 * expected, (x, y, z)


class TestChernoffFloor:
    def test_zero_gap_gives_zero(self):
        for mu in (0.0, 0.3, 0.8):
            assert chernoff_floor(mu, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_mu_zero_closed_form(self):
        for gap in (0.1, 0.5, 0.9):
            assert chernoff_floor(0.0, gap) == pytest.approx(
                -0.5 * math.log1p(-gap), abs=1e-14
            )

    def test_example_point_bounds_the_information(self):
        assert chernoff_floor(0.2, 0.3) <= chernoff_information(0.2, 0.5)

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            chernoff_floor(0.6, 0.5)
