"""Exactness and law of the coverage path against plain references.

``coverage_rates`` draws each 64-step block's count by inverting the
binomial CDF, arranges the steps of only the blocks that can cross an exit
curve, takes every uniform from splitmix64 at its own counter, compares
integer running sums with integer exit curves, and takes the kl envelopes
from one array solve per side.  These tests pin each of those steps to the
straightforward implementation kept below: the scalar first-argument
inverse and the per-t envelope loop built on it, every block's count and
steps drawn and joined, float exit curves, exact rational CDFs, and
NumPy's own per-step Bernoulli sampler for the law.  The generic scalar
bracketed-Newton solver behind the first-argument inverse is also the
reference of ``kl_math._invert``, and the generic array solver, with the
plain divergence as its function, the reference of
``kl_math._first_arg_inverses``; each must return its reference's bits.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilklucb import coverage
from lilklucb.cli import coverage_rates
from lilklucb.coverage import (
    _GUIDE_BITS,
    _arrange,
    _binomial_cdf,
    _count_table,
    _counts,
    _splitmix64_array,
    _uniforms,
    splitmix64,
)
from lilklucb.confidence import (
    KL_PRIME,
    KL_TILTED,
    SG1,
    SG2,
    BoundScheme,
    _schedule,
    coverage_envelope,
    integer_exit_curves,
    sg_radius,
    threshold,
)
from lilklucb.kl_math import (
    _FIRST_ARG_TOL,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    _first_arg_inverses,
    _invert,
    _kl,
)

MUS = (0.0, 1e-9, 0.1, 1.0 / 3.0, 0.5, 0.5 + 1e-7, 2.0 / 3.0, 0.7, 0.9, 0.999, 1.0)
GAMMA = 0x9E3779B97F4A7C15
# delta = 0.9 makes misses common enough that a changed draw or curve
# shows.  The horizons end a trajectory on, just before and just after a
# block edge (64 steps), and 126/127 sit on either side of the switch from
# int8 to int16 sums
T_MAXES = (1, 63, 64, 65, 126, 127, 600)
RATE_MUS = (0.0, 0.1, 0.5, 0.7, 0.9, 0.99, 1.0)


def _bracketed_newton(f, bound: float, feasible: float, infeasible: float,
                      start: float, tol: float = NEWTON_TOL) -> float:
    """Feasible point within ``tol`` of the root of f(x) = bound between two ends.

    ``f(x)`` returns (value, slope); f is monotone between the ends with
    f(feasible) <= bound < f(infeasible), and is evaluated only strictly
    inside them.  Each evaluated point replaces the end on its side, so the
    bracket always holds the root.  The next point is a Newton step in
    log|infeasible - x|, where a divergence with its log singularity at that
    end is nearly linear and no step crosses the end; it is the midpoint
    instead when the slope is not finite or points the wrong way, or the
    step leaves the bracket or exceeds half the step before last.  Points
    stay tol/2 inside the bracket, so iterates closing in from one side end
    with a point on the other.  Returns the feasible end once the ends are
    within ``tol``; ``start`` is the first point if it lies inside the
    bracket.
    """
    # Work in y = d*x so that the bracket is ordered lo < hi; negation is
    # exact, so the mirror adds no rounding.
    d = 1.0 if infeasible > feasible else -1.0
    lo, hi = d * feasible, d * infeasible
    edge = hi
    half = 0.5 * tol
    y = d * start if lo < d * start < hi else 0.5 * (lo + hi)
    step = step_before = hi - lo
    for _ in range(NEWTON_MAX_ITER):
        if hi - lo <= tol:
            break
        if y < lo + half:
            y = lo + half
        elif y > hi - half:
            y = hi - half
        value, slope = f(d * y)
        if value <= bound:
            lo = y
        else:
            hi = y
        gap = edge - y
        scale = d * slope * gap
        nxt = math.nan
        if 0.0 < scale < math.inf:
            ratio = (value - bound) / scale
            if ratio < 50.0:  # beyond it the point leaves [0, 1] anyway
                nxt = edge - gap * math.exp(ratio)
        if not (lo <= nxt <= hi and abs(nxt - y) <= 0.5 * step_before):
            nxt = 0.5 * (lo + hi)
        step_before, step = step, abs(nxt - y)
        y = nxt
    return d * lo


def _expansion_root(p: float, bound: float, edge: float, stretch: float, skew: float) -> float:
    """Where a divergence at p reaches ``bound`` toward ``edge``, by its Taylor expansion.

    The divergence is taken as r^2 / (2 v s^2) - skew (1 - 2p) r^3 / (v s)^2
    in r = m - p, with v = p (1 - p) and s = ``stretch``; the root is solved
    to first order in the cubic term.
    """
    r = math.copysign(stretch * math.sqrt(2.0 * bound * p * (1.0 - p)), edge - p)
    return p + r + 2.0 * skew * stretch * stretch * bound * (1.0 - 2.0 * p)


def _first_arg_inverse(mu: float, bound: float, edge: float, start: float | None = None) -> float:
    """Farthest x from mu toward ``edge`` (0 or 1) with D(x, mu) <= bound.

    This inverts D in its first argument.  D(x, mu) is convex in x and 0 at
    x = mu, so the feasible set is an interval.  ``start`` is the first
    Newton point; by default it is the root of the expansion
    D(mu + r, mu) = r^2 / (2v) - (1 - 2 mu) r^3 / (6 v^2), v = mu (1 - mu).
    A degenerate mu (0 or 1) is returned as is: D(x, mu) is infinite at
    every other x.
    """
    if mu == 0.0 or mu == 1.0:
        return mu
    if _kl(edge, mu) <= bound:
        return edge
    if start is None:
        start = _expansion_root(mu, bound, edge, 1.0, 1.0 / 6.0)
    # slope of D(x, mu) in x; x / mu overflows to +inf for a subnormal mu,
    # and the solver bisects on an infinite slope
    return _bracketed_newton(
        lambda x: (_kl(x, mu), math.log(x / mu) - math.log((1.0 - x) / (1.0 - mu))),
        bound, mu, edge, start=start, tol=_FIRST_ARG_TOL)


def _scalar_envelope(scheme, mu, t_max):
    """coverage_envelope as one scalar solve per t, each started at the root before."""
    low = np.empty(t_max)
    high = np.empty(t_max)
    tilt = scheme.tilt
    zu = zl = None
    for t in range(1, t_max + 1):
        if scheme.kind in (SG1, SG2):
            # sg2's radius through math.log, independent of the schedule
            r = (sg_radius(scheme, t) if scheme.kind == SG1 else
                 math.sqrt(math.log(math.pi * math.pi * t * t / (6.0 * scheme.delta)) / (2.0 * t)))
            low[t - 1] = mu - r
            high[t - 1] = mu + r
            continue
        thr = threshold(scheme, t)
        zu = _first_arg_inverse(mu, thr, 1.0, start=zu)
        zl = _first_arg_inverse(mu, thr, 0.0, start=zl)
        if scheme.kind == KL_TILTED:
            high[t - 1] = mu + (tilt + 1.0) / tilt * (zu - mu)
            low[t - 1] = mu - (tilt + 1.0) / tilt * (mu - zl)
        else:
            high[t - 1] = zu
            low[t - 1] = zl
    return low, high


@lru_cache(maxsize=None)
def _powers(mu):
    """mu**c and (1 - mu)**c for c = 0..64, as exact fractions."""
    p = Fraction(mu)
    return [p**c for c in range(65)], [(1 - p) ** c for c in range(65)]


@lru_cache(maxsize=None)
def _exact_cdf(mu, width):
    """P(Binomial(width, mu) <= c) for c = 0..width, as exact fractions."""
    ones, zeros = _powers(mu)
    total, cdf = Fraction(0), []
    for c in range(width + 1):
        total += math.comb(width, c) * ones[c] * zeros[width - c]
        cdf.append(total)
    return tuple(cdf)


def _rates(hit_high, hit_low):
    n = hit_high.size
    return {
        "true_mean_below_lower": int(hit_high.sum()) / n,
        "true_mean_above_upper": int(hit_low.sum()) / n,
        "joint": int((hit_high | hit_low).sum()) / n,
    }


def _block_reference_rates(scheme, mu, t_max, trajectories, seed):
    """coverage_rates with every block drawn, joined steps and float exit curves.

    Block b of trajectory i reads the uniforms of counters
    (i * blocks + b) * 65 + slot: slot 0 picks the count by inverting the
    exact CDF, rounded to floats, and slot 1 + j decides step j.
    """
    low, high = _scalar_envelope(scheme, mu, t_max)
    t = np.arange(1, t_max + 1)
    blocks = -(-t_max // 64)
    key = np.uint64(seed % 2**64)
    trajectory = np.arange(trajectories, dtype=np.uint64)[:, None]
    steps = np.zeros((trajectories, t_max), dtype=np.int64)
    for block in range(blocks):
        width = min(64, t_max - 64 * block)
        counter = ((trajectory * np.uint64(blocks) + np.uint64(block)) * np.uint64(65)
                   + np.arange(width + 1, dtype=np.uint64))
        u = _uniforms(_splitmix64_array(counter * np.uint64(GAMMA) + key))
        cdf = np.array([float(c) for c in _exact_cdf(mu, width)])
        left = (u[:, :1] >= cdf).sum(axis=1)  # the count: CDF entries at or below u
        for j in range(width):
            one = u[:, 1 + j] < left / (width - j)
            steps[:, 64 * block + j] = one
            left -= one
        assert (left == 0).all()
    sums = np.cumsum(steps, axis=1)
    return _rates((sums > high * t).any(axis=1), (sums < low * t).any(axis=1))


def _per_step_reference_rates(scheme, mu, t_max, trajectories, seed, batch_size=512):
    """The per-step sampler: rng.binomial draws, int64 sums and float exit curves."""
    low, high = _scalar_envelope(scheme, mu, t_max)
    t = np.arange(1, t_max + 1)
    rng = np.random.default_rng(seed)
    hits = []
    for start in range(0, trajectories, batch_size):
        b = min(batch_size, trajectories - start)
        sums = np.cumsum(rng.binomial(1, mu, size=(b, t_max)), axis=1)
        hits.append(((sums > high * t).any(axis=1), (sums < low * t).any(axis=1)))
    return _rates(*(np.concatenate(side) for side in zip(*hits)))


def _integer_curves(low, high):
    t = np.arange(1, low.size + 1, dtype=np.float64)
    return np.floor(high * t), np.ceil(low * t)


def test_vectorized_splitmix64_matches_the_scalar_one():
    xs = [0, 1, GAMMA, 2**63 - 1, 2**63, 2**64 - 1]
    for _ in range(2000):
        xs.append(splitmix64(xs[-1]))
    ours = _splitmix64_array(np.array(xs, dtype=np.uint64))
    assert ours.tolist() == [splitmix64(x) for x in xs]


def test_block_cdf_is_the_binomial_cdf():
    tolerance = Fraction(1, 2**50)
    for mu in MUS:
        for width in range(1, 65):
            cdf = _binomial_cdf(mu, width)
            exact = _exact_cdf(mu, width)
            assert cdf.shape == (width + 1,) and cdf[-1] == 1.0
            assert np.all(np.diff(cdf) >= 0.0), (mu, width)
            assert all(abs(Fraction(x) - e) <= tolerance for x, e in zip(cdf, exact)), (mu, width)


def test_guided_counts_equal_the_searched_counts():
    # at random outputs, and at outputs whose uniforms sit on the guide's bin
    # edges and on either side of the CDF's own values, whatever their low bits
    random = _splitmix64_array(np.arange(20_000, dtype=np.uint64))
    for mu in MUS:
        for width in (1, 7, 63, 64):
            cdf = _binomial_cdf(mu, width)
            marks = np.concatenate([np.arange(2**_GUIDE_BITS) * 2.0 ** (53 - _GUIDE_BITS),
                                    cdf[cdf < 1.0] * 2.0**53, [2.0**53 - 1]])
            top = np.concatenate([np.floor(marks), np.ceil(marks),
                                  np.maximum(np.floor(marks) - 1, 0)]).astype(np.uint64)
            top <<= np.uint64(11)
            outputs = np.concatenate([random, top, top | np.uint64(0x7FF)])
            searched = np.searchsorted(cdf, _uniforms(outputs.copy()), side="right")
            assert np.array_equal(_counts(_count_table(cdf), outputs), searched), (mu, width)


def test_every_arrangement_is_equally_likely():
    # Upper 1e-6 quantile of chi-square with df degrees of freedom, by the
    # Wilson-Hilferty approximation; 25 cells are tested
    def bound(df):
        return df * (1 - 2 / (9 * df) + 4.753 * math.sqrt(2 / (9 * df))) ** 3

    for width in range(1, 7):
        for ones in range(width + 1):
            patterns = math.comb(width, ones)
            n = 2000 * patterns
            counter = np.arange(64 * n, dtype=np.uint64).reshape(64, n)
            u = _uniforms(_splitmix64_array(counter * np.uint64(GAMMA)
                                            + np.uint64(100 * width + ones)))
            steps = _arrange(np.full(n, ones), np.full(n, width), u, np.empty_like(u))
            assert not steps[width:].any()
            assert (steps.sum(axis=0) == ones).all()
            code = (steps[:width].T * (1 << np.arange(width))).sum(axis=1)
            observed = np.unique(code, return_counts=True)[1]
            assert observed.size == patterns, (width, ones)
            if patterns > 1:
                expected = n / patterns
                chi2 = float(((observed - expected) ** 2 / expected).sum())
                assert chi2 <= bound(patterns - 1), (width, ones, chi2)


@pytest.mark.parametrize("kind", ["kl", "kl-prime", "sg1", "sg2"])
def test_rates_equal_the_scalar_reference(kind):
    # one batch at these horizons; test_rates_do_not_depend_on_the_batch splits them
    scheme = BoundScheme(kind, 8, 0.9)
    nonzero = 0
    for t_max in T_MAXES:
        for mu in RATE_MUS:
            rates = coverage_rates(scheme, mu, t_max, 1300, seed=17)
            assert rates == _block_reference_rates(scheme, mu, t_max, 1300, seed=17), (t_max, mu)
            nonzero += rates["joint"] > 0.0
    assert nonzero >= 2


def test_rates_do_not_depend_on_the_batch(monkeypatch):
    scheme = BoundScheme("kl", 8, 0.9)
    cells = [(mu, t_max) for mu in (0.1, 0.5, 0.9) for t_max in (65, 600)]
    default = [coverage_rates(scheme, mu, t_max, 1300, seed=5) for mu, t_max in cells]
    monkeypatch.setattr(coverage, "_BATCH_BLOCKS", 23)
    monkeypatch.setattr(coverage, "_CHUNK_BLOCKS", 5)
    assert [coverage_rates(scheme, mu, t_max, 1300, seed=5) for mu, t_max in cells] == default
    assert any(rates["joint"] > 0.0 for rates in default)


def test_rates_agree_with_the_per_step_sampler():
    # Independent estimates of the same probabilities: each rate within 4
    # standard deviations of their difference
    scheme, n = BoundScheme("kl", 8, 0.9), 20_000
    ours = coverage_rates(scheme, 0.5, 600, n, seed=3)
    theirs = _per_step_reference_rates(scheme, 0.5, 600, n, seed=3)
    for event, p in ours.items():
        q = theirs[event]
        sigma = math.sqrt((p * (1 - p) + q * (1 - q)) / n)
        assert abs(p - q) <= 4 * sigma, (event, p, q)
    assert ours["joint"] > 0.0 and theirs["joint"] > 0.0


@pytest.mark.parametrize("kind", ["kl", "kl-prime", "sg1", "sg2"])
def test_integer_exit_curves_are_the_clipped_float_curves(kind):
    scheme = BoundScheme(kind, 8, 0.9)
    for t_max in T_MAXES:
        for mu in MUS:
            low, high = coverage_envelope(scheme, mu, t_max)
            low_sum, high_sum = integer_exit_curves(low, high)
            floor_high, ceil_low = _integer_curves(low, high)
            assert np.array_equal(high_sum, np.clip(floor_high, -1, t_max + 1)), (t_max, mu)
            assert np.array_equal(low_sum, np.clip(ceil_low, -1, t_max + 1)), (t_max, mu)
            dtype = np.int8 if t_max < 127 else np.int16
            assert low_sum.dtype == high_sum.dtype == dtype


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
MU = st.one_of(st.floats(0.01, 0.99), st.sampled_from([1e-6, 1.0 - 1e-6]),
               st.floats(1e-6, 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-6))


@PROPERTY
@given(mu=MU, tilt=st.sampled_from([4, 8, 64, 1024]), upper=st.booleans(),
       kind=st.sampled_from(["kl", "kl-prime"]), delta=st.sampled_from([0.01, 0.05, 0.5]))
def test_array_inverse_matches_scalar_inverse(mu, tilt, upper, kind, delta):
    scheme = BoundScheme(kind, tilt, delta)
    t_max = 300
    edge = 1.0 if upper else 0.0
    bounds = np.array([threshold(scheme, t) for t in range(1, t_max + 1)])
    xs = _first_arg_inverses(mu, bounds, edge)
    scalar = np.array([_first_arg_inverse(mu, b, edge) for b in bounds])
    assert np.all(np.abs(xs - scalar) <= 2 * _FIRST_ARG_TOL)
    # feasible as the array solve's divergence computes it
    interior = (xs != edge) & (xs != mu)
    x = xs[interior]
    divergence = x * np.log(x / mu) + (1.0 - x) * np.log((1.0 - x) / (1.0 - mu))
    assert np.all(divergence <= bounds[interior])
    assert np.all((xs - mu) * (edge - mu) >= 0.0)
    # the integer exit curves are the scalar loop's
    ours = _integer_curves(*coverage_envelope(scheme, mu, t_max))
    reference = _integer_curves(*_scalar_envelope(scheme, mu, t_max))
    side = 0 if upper else 1
    assert np.array_equal(ours[side], reference[side])


def test_degenerate_and_saturated_entries_follow_the_scalar_rules():
    bounds = np.array([math.inf, 5.0, 0.3, 1e-3])
    for edge in (0.0, 1.0):
        for mu in (0.0, 1.0):
            assert np.array_equal(_first_arg_inverses(mu, bounds, edge), np.full(4, mu))
        xs = _first_arg_inverses(0.4, bounds, edge)
        assert xs[0] == xs[1] == edge
        assert np.all(np.abs(xs - [_first_arg_inverse(0.4, b, edge) for b in bounds])
                      <= 2 * _FIRST_ARG_TOL)


def _tilted_div_and_slope(p: float, m: float, tilt: int) -> tuple[float, float]:
    """D(q, m) at the mixture q = (tilt*p + m)/(tilt+1), and its derivative in m.

    With dq/dm = 1/(tilt+1), the chain rule gives
    (log(q(1-m) / (m(1-q))) + tilt (m-p) / (m(1-m))) / (tilt+1); the slope is
    NaN (so the solver bisects) if q rounds onto 0 or 1.  Requires 0 < m < 1.
    """
    q = (tilt * p + m) / (tilt + 1.0)
    if not 0.0 < q < 1.0:
        return _kl(q, m), math.nan
    # the two logs of _kl's interior branch, in its order, so the value is
    # bit-identical to _kl(q, m)
    up = math.log(q / m)
    down = math.log((1.0 - q) / (1.0 - m))
    value = q * up + (1.0 - q) * down
    return value, (up - down + tilt * (m - p) / (m * (1.0 - m))) / (tilt + 1.0)


def _reference_invert(p, bound, edge, tilt=None):
    """``_invert`` on checked arguments, as the generic solver ran it, with its closures."""
    if math.isinf(bound):
        return edge
    if bound == 0.0 or p == edge:
        return p
    if tilt is None:
        stretch, skew = 1.0, 1.0 / 3.0
        f = lambda m: (_kl(p, m), (m - p) / (m * (1.0 - m)))  # D(p, m) and its slope in m
    else:
        stretch, skew = (tilt + 1.0) / tilt, (2.0 * tilt + 3.0) / (6.0 * (tilt + 1.0))
        f = lambda m: _tilted_div_and_slope(p, m, tilt)
    return _bracketed_newton(f, bound, p, edge,
                             start=_expansion_root(p, bound, edge, stretch, skew))


INVERT_PROBS = (0.0, 5e-324, 1e-300, 0.3, 1.0 - 2.0**-53, 1.0)
INVERT_TILTS = (None, 1, 2, 8, 64, 2**20)


def _assert_invert_is_the_reference(p, bound, edge, tilt):
    assert _invert(p, bound, edge, tilt).hex() == _reference_invert(p, bound, edge, tilt).hex(), (
        p, bound, edge, tilt)


def test_invert_is_the_generic_solver_bit_for_bit():
    # the kl schedule every 25th t up to 1e4, between budgets that reach
    # each early return and the edges of the bracket
    scheme = BoundScheme(KL_TILTED, 8, 0.05)
    schedule = [threshold(scheme, t) for t in range(1, 10**4 + 1, 25)]
    for bound in (0.0, 1e-300, 1e-12, 1e-7, *schedule, 0.3, 5.0, 800.0, math.inf):
        for p in INVERT_PROBS:
            for tilt in INVERT_TILTS:
                for edge in (0.0, 1.0):
                    _assert_invert_is_the_reference(p, bound, edge, tilt)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(p=st.one_of(st.floats(0.0, 1.0), st.sampled_from(INVERT_PROBS)),
       bound=st.one_of(st.floats(0.0, 1e-6), st.floats(1e-6, 1e3), st.just(math.inf)),
       edge=st.sampled_from([0.0, 1.0]), tilt=st.sampled_from(INVERT_TILTS))
def test_invert_is_the_generic_solver_on_random_arguments(p, bound, edge, tilt):
    _assert_invert_is_the_reference(p, bound, edge, tilt)


def _bracketed_newton_array(f, bounds, feasible: float, infeasible: float,
                            start, tol: float) -> np.ndarray:
    """Feasible point within ``tol`` of the root of f(x) = b, for every b in ``bounds``.

    One function f, mapping an array of points to arrays of (value, slope),
    and one pair of ends serve every entry; f is monotone between the ends
    with f(feasible) <= b < f(infeasible), and each entry keeps its own
    bracket and step history.  The rules are ``_invert``'s: the Newton step
    in log|infeasible - x|, the midpoint on an unsafe step, points tol/2
    inside the bracket, and the feasible end once the ends are within
    ``tol``.  ``start`` (broadcast against ``bounds``) is each entry's first
    point if it lies inside the bracket.  Entries leave the iteration as
    they finish.  An iteration works in place, in buffers cut to the live
    entries, and only f and the removal of finished entries allocate; f
    must return fresh arrays, which the solver overwrites.
    """
    bounds = np.asarray(bounds, dtype=float)
    d = 1.0 if infeasible > feasible else -1.0
    edge = d * infeasible
    half = 0.5 * tol
    lo = np.full(bounds.shape, d * feasible)
    hi = np.full(bounds.shape, edge)
    y = np.broadcast_to(d * np.asarray(start, dtype=float), bounds.shape)
    y = np.where((lo < y) & (y < hi), y, 0.5 * (lo + hi))
    step = hi - lo
    step_before = step.copy()
    out = np.empty(bounds.shape)
    live = np.arange(bounds.size)
    scratch = np.empty((3, bounds.size))
    flags = np.empty((2, bounds.size), dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            width = np.subtract(hi, lo, out=scratch[0, :live.size])
            done = np.less_equal(width, tol, out=flags[0, :live.size])
            if done.any():
                out[live[done]] = d * lo[done]
                keep = ~done
                live, lo, hi, y, step, step_before, bounds = (
                    x[keep] for x in (live, lo, hi, y, step, step_before, bounds))
            if live.size == 0:
                break
            a, b, c = scratch[:, :live.size]
            p, q = flags[:, :live.size]
            # y = lo + half if y < lo + half, else hi - half if y > hi - half
            np.less(y, np.add(lo, half, out=a), out=p)
            np.greater(y, np.subtract(hi, half, out=b), out=q)
            np.copyto(y, b, where=q)
            np.copyto(y, a, where=p)
            value, slope = f(np.multiply(y, d, out=c))
            below = np.less_equal(value, bounds, out=p)
            np.copyto(lo, y, where=below)
            np.copyto(hi, y, where=np.logical_not(below, out=q))
            gap = np.subtract(edge, y, out=a)
            scale = np.multiply(np.multiply(slope, d, out=slope), gap, out=slope)
            ratio = np.divide(np.subtract(value, bounds, out=value), scale, out=value)
            newton = np.greater(scale, 0.0, out=p)
            newton &= np.less(scale, math.inf, out=q)
            newton &= np.less(ratio, 50.0, out=q)
            off = np.logical_not(newton, out=q)
            np.copyto(ratio, 0.0, where=off)
            nxt = np.subtract(edge, np.multiply(gap, np.exp(ratio, out=ratio), out=ratio), out=ratio)
            np.copyto(nxt, math.nan, where=off)
            safe = np.less_equal(lo, nxt, out=p)
            safe &= np.less_equal(nxt, hi, out=q)
            moved = np.abs(np.subtract(nxt, y, out=b), out=b)
            safe &= np.less_equal(moved, np.multiply(step_before, 0.5, out=a), out=q)
            midpoint = np.multiply(np.add(lo, hi, out=a), 0.5, out=a)
            np.copyto(nxt, midpoint, where=np.logical_not(safe, out=q))
            step_before, step = step, step_before
            np.abs(np.subtract(nxt, y, out=step), out=step)
            y = nxt
    out[live] = d * lo
    return out


def _reference_first_arg_inverses(mu: float, bounds: np.ndarray, edge: float) -> np.ndarray:
    """``_first_arg_inverses`` as the generic array solver ran it, with the plain ``f``."""
    if mu == 0.0 or mu == 1.0:
        return np.full(bounds.shape, mu)
    out = np.full(bounds.shape, edge)
    solve = ~(_kl(edge, mu) <= bounds)
    b = bounds[solve]
    start = (mu + math.copysign(1.0, edge - mu) * np.sqrt(2.0 * b * mu * (1.0 - mu))
             + b * (1.0 - 2.0 * mu) / 3.0)

    def f(x):
        up = np.log(x / mu)
        down = np.log((1.0 - x) / (1.0 - mu))
        return x * up + (1.0 - x) * down, up - down

    out[solve] = _bracketed_newton_array(f, b, mu, edge, start, tol=_FIRST_ARG_TOL)
    return out


FIRST_ARG_MUS = (5e-324, 1e-320, 1e-300, 1e-9, 1e-6, 0.01, 0.1, 1.0 / 3.0, 0.5, 0.5 + 1e-7,
                 0.7, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 2.0**-53, 0.0, 1.0)


def _assert_first_arg_inverses_are_the_reference(mu, bounds, edge):
    ours = _first_arg_inverses(mu, bounds, edge)
    assert ours.tobytes() == _reference_first_arg_inverses(mu, bounds, edge).tobytes(), (
        mu, edge, bounds.size)


def test_first_arg_inverses_are_the_generic_solver_bit_for_bit():
    # the kl schedule every 25th t up to 1e4, budgets that reach each early
    # return and the edges of the bracket, and many small and large budgets
    rng = np.random.default_rng(28)
    scheme = BoundScheme(KL_TILTED, 8, 0.05)
    budgets = (
        np.asarray(_schedule(scheme, range(1, 10**4 + 1, 25))),
        np.array([0.0, 1e-300, 1e-12, 1e-7, 0.3, 5.0, 800.0, math.inf]),
        rng.exponential(0.01, 5000),
        rng.uniform(0.0, 3.0, 5000),
    )
    for mu in FIRST_ARG_MUS + tuple(rng.uniform(size=40).tolist()):
        for bounds in budgets:
            for edge in (0.0, 1.0):
                _assert_first_arg_inverses_are_the_reference(mu, bounds, edge)


@PROPERTY
@given(mu=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 2.0**-1022),
                    st.sampled_from(FIRST_ARG_MUS)),
       bounds=st.lists(st.one_of(st.floats(0.0, 1e-6), st.floats(1e-6, 1e3),
                                 st.sampled_from([0.0, math.inf])), max_size=40),
       edge=st.sampled_from([0.0, 1.0]))
def test_first_arg_inverses_are_the_generic_solver_on_random_arguments(mu, bounds, edge):
    _assert_first_arg_inverses_are_the_reference(mu, np.array(bounds, dtype=np.float64), edge)


def test_first_arg_inverse_bits_do_not_depend_on_the_batch():
    # the kl and kl-prime schedules every 50th t up to 1e4, budgets at and
    # near 0, and budgets that give the edge
    t = range(1, 10**4 + 1, 50)
    bounds = np.concatenate([_schedule(BoundScheme(KL_TILTED, 8, 0.05), t),
                             _schedule(BoundScheme(KL_PRIME, 8, 0.05), t),
                             [0.0, 1e-300, 5.0, math.inf]])
    order = np.random.default_rng(3).permutation(bounds.size)
    for mu in (1e-320, 1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-6):
        for edge in (0.0, 1.0):
            full = _first_arg_inverses(mu, bounds, edge)
            cases = [(_first_arg_inverses(mu, bounds[order], edge), full[order]),
                     (_first_arg_inverses(mu, bounds[::7], edge), full[::7])]  # strided view
            for size, every in ((1, 9), (7, 7), (64, 64)):
                cases += [(_first_arg_inverses(mu, bounds[i:i + size], edge), full[i:i + size])
                          for i in range(0, bounds.size, every)]
            assert all(ours.tobytes() == whole.tobytes() for ours, whole in cases), (mu, edge)
