"""Anytime confidence sequences for means of [0, 1]-valued reward streams.

Four interchangeable schemes sit behind one interface:

* ``kl``        tilted-KL intervals: invert D((tilt*mu_hat + m)/(tilt+1), m)
                against the iterated-logarithm threshold schedule.
* ``kl-prime``  plain-KL intervals: invert D(mu_hat, m) against the same
                schedule inflated by untilt_factor(tilt).
* ``sg1``       sub-Gaussian analogue of ``kl`` with the matching schedule.
* ``sg2``       baseline sub-Gaussian radius from a per-time union bound.

Every scheme reads its budget b_t from one schedule (see _schedule); the
sub-Gaussian radius is sqrt(b_t / 2).

A scheme's parameters are immutable after construction (its normalization
constants are precomputed) and all operations are pure; its threshold table
is only ever replaced whole, so schemes are safe to share across threads.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable
from functools import lru_cache
from itertools import chain, count, islice, repeat

from . import Frozen, InputError, load_numpy
from .kl_math import (
    NEWTON_TOL,
    _check_tilt,
    _first_arg_inverses,
    _kl,
    as_prob,
    kl_lower_inverse,
    kl_upper_inverse,
    tilted_kl_lower_inverse,
    tilted_kl_upper_inverse,
)

KL_TILTED = "kl"
KL_PRIME = "kl-prime"
SG1 = "sg1"
SG2 = "sg2"
SCHEME_KINDS = (KL_TILTED, KL_PRIME, SG1, SG2)

# Largest tilt accepted.  The first series inside kappa has one term per
# t in 1..tilt, so its time grows with the tilt (0.01 ms at tilt 8, 0.1 s at
# 2**20); its memory does not: its terms are summed as they are made.
MAX_TILT = 2**20

# Most entries a scheme's threshold table holds (8 bytes each), and the
# most its first growth adds; a later growth at most doubles it, and
# ``threshold`` evaluates a t past the grown table, or past the cap, alone.
_TABLE_CAP = 2**20
_TABLE_START = 1024


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if math.isnan(delta) or not 0.0 < delta < 1.0:
        raise InputError(f"delta must lie in (0, 1), got {delta!r}")
    return delta


def _check_tilt_pow2(tilt: int) -> int:
    if not isinstance(tilt, int) or not 1 <= tilt <= MAX_TILT or tilt & (tilt - 1):
        raise InputError(f"tilt must be a power of two in [1, {MAX_TILT}], got {tilt!r}")
    return tilt


@lru_cache(maxsize=None)
def _kappa_series(tilt: int) -> float:
    """The delta-free series inside kappa, S1 + tilt * S2, from above.

    With s = (tilt+1)/tilt, S1 sums log2(2t)^-s over t in 1..tilt (dropped
    entirely when tilt == 1).  S2 is the Hurwitz zeta(s, log2(tilt) + 1):
    32 explicit terms, then the Euler-Maclaurin tail at x past them,
    tilt * x^(-1/tilt) + x^-s / 2 plus the B2, B4 and B6 corrections.  The
    first correction left out (B8) is negative, so the tail is an upper
    bound; all is summed by one math.fsum, as the terms are made, and
    raised by 2^-50 for the rounding, which leaves the series at most a
    relative 1e-14 above the exact one.
    """
    level = tilt.bit_length() - 1
    s = (tilt + 1.0) / tilt
    # 2t counted in floats, each exact, so no int is made per term
    s1 = map(pow, map(math.log2, islice(count(2.0, 2.0), tilt if level else 0)), repeat(-s))
    x = level + 33.0
    s3 = s * (s + 1.0) * (s + 2.0)
    tail = [k**-s for k in range(level + 1, level + 33)]
    tail += [tilt * x ** (-1.0 / tilt), x**-s / 2.0, s / 12.0 * x ** (-s - 1.0)]
    tail += [-s3 / 720.0 * x ** (-s - 3.0), s3 * (s + 3.0) * (s + 4.0) / 30240.0 * x ** (-s - 5.0)]
    return math.fsum(chain(s1, (tilt * v for v in tail))) * (1.0 + 2.0**-50)


def kappa(tilt: int, delta: float) -> float:
    """Union-bound normalizer: delta^(1/(tilt+1)) * series^(tilt/(tilt+1)).

    Defined so that the stitched union bound over all sample sizes sums to
    at most delta; strictly increasing in delta.
    """
    _check_tilt_pow2(tilt)
    _check_delta(delta)
    s = _kappa_series(tilt)
    return delta ** (1.0 / (tilt + 1.0)) * s ** (tilt / (tilt + 1.0))


def untilt_factor(tilt: int) -> float:
    """(tilt+1)/(tilt - ln(tilt+1)).

    Inflation applied to the divergence threshold so the plain-KL interval
    dominates the tilted one; > 1 for every tilt >= 1 and decreases to 1.
    """
    _check_tilt(tilt)
    return (tilt + 1.0) / (tilt - math.log(tilt + 1.0))


class BoundScheme(Frozen):
    """Which anytime confidence sequence is in force, plus its parameters.

    ``tilt`` is the mixing weight of the tilted divergence (the empirical
    mean receives weight tilt/(tilt+1)); it must be a power of two.  ``sg2``
    ignores it.  ``kappa_cache`` and ``c_cache`` are precomputed at
    construction so bound evaluations stay cheap; ``c_cache`` scales the
    schedule: untilt_factor(tilt) for ``kl-prime``, ((tilt+1)/tilt)^2 for
    ``sg1`` and 1 otherwise.  ``threshold_table`` holds the schedule at
    t = 1..len, starts empty and is filled by ``threshold``.  Schemes
    compare and hash by (kind, tilt, delta) alone.
    """

    _fields = ("kind", "tilt", "delta")

    def __init__(self, kind: str, tilt: int = 8, delta: float = 0.01) -> None:
        if kind not in SCHEME_KINDS:
            raise InputError(f"unknown scheme kind {kind!r}; choose from {SCHEME_KINDS}")
        # kappa checks the tilt, before its series is summed, and then delta
        kappa_cache = kappa(tilt, delta)
        if kind == KL_PRIME and tilt <= math.e:
            raise InputError("kl-prime requires tilt > e (use tilt >= 4)")
        c = 1.0
        if kind == KL_PRIME:
            c = untilt_factor(tilt)
        elif kind == SG1:
            ratio = (tilt + 1.0) / tilt
            c = ratio * ratio
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "tilt", tilt)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "kappa_cache", kappa_cache)
        object.__setattr__(self, "c_cache", c)
        object.__setattr__(self, "threshold_table", array("d"))

    def with_delta(self, delta: float) -> "BoundScheme":
        """Same scheme at a different confidence level."""
        return BoundScheme(self.kind, self.tilt, delta)


def _schedule(scheme: BoundScheme, ts) -> array:
    """Budget after t samples, c * ln(kappa * log2(2t) / delta) / t, at every t of ``ts``.

    ``ts`` is a sized sequence of t (a range, a list or an array) and c is
    the scheme's ``c_cache``.  ``sg2`` spends a per-time union bound
    instead, ln(pi^2 t^2 / (6 delta)) / t: a Hoeffding tail at level
    6 delta / (pi^2 t^2) at every t sums to delta.  The budget is clamped
    below at zero, which can only engage for delta pathologically close to
    1.  Every path reads the schedule through this function, which takes
    each entry alone in float64 with libm's ``math.log2`` and ``math.log``
    (2t, log2, times kappa, over delta, log, over t, times c; for ``sg2``
    t pi^2 t / (6 delta), log, over t, times c), so an entry's bits depend
    on neither the batch nor the CPU.  The budget is inf once the log's
    argument overflows: at t = 2^1023 (2t), and for ``sg2`` from t near
    1e154 (t^2).
    """
    log, c, delta = math.log, scheme.c_cache, scheme.delta
    if scheme.kind == SG2:
        pi2, scale = math.pi * math.pi, 6.0 * delta
        return array("d", [b if (b := log(t * pi2 * t / scale) / t * c) > 0.0 else 0.0
                           for t in map(float, ts)])
    log2, kappa = math.log2, scheme.kappa_cache
    return array("d", [b if (b := log(log2(2.0 * t) * kappa / delta) / t * c) > 0.0 else 0.0
                       for t in map(float, ts)])


def threshold(scheme: BoundScheme, t: int) -> float:
    """``_schedule`` at one integer t >= 1, read from the scheme's table.

    A t past the table's end, up to _TABLE_CAP, replaces it with one that
    reaches t's power of two, but no more than twice its length (or
    _TABLE_START), computing only the new entries; a t the new table still
    misses, and every t past _TABLE_CAP, is evaluated alone.  So a far jump
    costs one entry and at most one doubling, and reads that keep coming
    there double the table once per read.  A table is never extended in
    place, so a reader always sees a complete one.
    """
    table = scheme.threshold_table
    n = len(table)
    if 0 < t <= n:
        return table[t - 1]
    if t < 1:
        raise InputError(f"t must be >= 1, got {t!r}")
    if t > _TABLE_CAP:
        return _schedule(scheme, (t,))[0]
    size = min(1 << int(t - 1).bit_length(), max(2 * n, _TABLE_START))
    table = table + _schedule(scheme, range(n + 1, size + 1))
    object.__setattr__(scheme, "threshold_table", table)
    return table[t - 1] if t <= size else _schedule(scheme, (t,))[0]


def sg_radius(scheme: BoundScheme, t: int) -> float:
    """Sub-Gaussian deviation radius sqrt(b_t / 2) of an ``sg1`` or ``sg2`` budget b_t."""
    return math.sqrt(0.5 * threshold(scheme, t))


def upper_bound(scheme: BoundScheme, pulls: int, reward_sum: float) -> float:
    """Anytime upper confidence limit for the mean reward_sum / pulls of a key with pulls >= 1."""
    if pulls < 1:
        raise InputError("upper_bound requires at least one sample")
    mu_hat = reward_sum / pulls
    if scheme.kind == KL_TILTED:
        return tilted_kl_upper_inverse(mu_hat, threshold(scheme, pulls), scheme.tilt)
    if scheme.kind == KL_PRIME:
        return kl_upper_inverse(mu_hat, threshold(scheme, pulls))
    return min(1.0, mu_hat + sg_radius(scheme, pulls))


def full_sum(scheme: BoundScheme, pulls: int) -> float:
    """The smallest reward sum whose ``upper_bound`` at ``pulls`` is exactly 1.0.

    For ``kl`` and ``kl-prime`` it is pulls: a smaller sum's mean is below
    1 and inverts below 1 at a finite budget (an infinite one, where every
    bound is 1, still gives pulls).  The sub-Gaussian min(1, s / pulls + r)
    is nondecreasing in s, as float division, addition and min round
    monotonically; so, with ``upper_bound`` as the test, steps doubling
    from one float spacing at pulls * (1 - r) straddle the full sum, and
    halving closes on it.
    """
    p = float(pulls)
    if scheme.kind in (KL_TILTED, KL_PRIME):
        return p

    def is_one(s: float) -> bool:
        return upper_bound(scheme, pulls, s) == 1.0

    if is_one(0.0):
        return 0.0
    lo = hi = max(0.0, p * (1.0 - sg_radius(scheme, pulls)))
    step = math.ulp(lo)
    while is_one(lo):  # then lo moves down, and 0.0 stops it
        hi, lo, step = lo, max(0.0, lo - step), 2.0 * step
    while not is_one(hi):  # pulls itself has the bound 1
        lo, hi, step = hi, min(p, hi + step), 2.0 * step
    while (mid := 0.5 * (lo + hi)) != lo and mid != hi:
        lo, hi = (lo, mid) if is_one(mid) else (mid, hi)
    return hi


def grow_full_sums(scheme: BoundScheme, full: list, pulls: int) -> float:
    """Extend ``full`` (entry t >= 1: ``full_sum`` at t) through ``pulls``; returns that entry.

    Sub-Gaussian counts are searched one by one; kl counts are laid down
    1024 at a time, as floats counted by 1.0 (exact below 2^53).
    """
    n = len(full)
    if scheme.kind in (KL_TILTED, KL_PRIME):
        full.extend(islice(count(float(n)), max(pulls + 1 - n, 1024)))
    else:
        full.extend(full_sum(scheme, t) for t in range(n, pulls + 1))
    return full[pulls]


def lower_bound(scheme: BoundScheme, pulls: int, reward_sum: float) -> float:
    """Mirror of upper_bound, clamped at 0; never above the empirical mean, exactly as floats."""
    if pulls < 1:
        raise InputError("lower_bound requires at least one sample")
    mu_hat = reward_sum / pulls
    if scheme.kind == KL_TILTED:
        return tilted_kl_lower_inverse(mu_hat, threshold(scheme, pulls), scheme.tilt)
    if scheme.kind == KL_PRIME:
        return kl_lower_inverse(mu_hat, threshold(scheme, pulls))
    return max(0.0, mu_hat - sg_radius(scheme, pulls))


# Smallest budget ``bound_side`` trusts.  _kl's rounding noise near a
# bound (a few 1e-16) outgrows the divergence's change over one NEWTON_TOL,
# about NEWTON_TOL * sqrt(2 budget / (p (1 - p))), from budgets near 1e-9 down.
_CERTIFICATE_FLOOR = 1e-7


def bound_side(scheme: BoundScheme, edge: float) -> Callable[[int, float, float], int]:
    """The certificate of the bound toward ``edge``, as side(pulls, reward_sum, x).

    ``edge`` is 1.0 for ``upper_bound`` and 0.0 for ``lower_bound``.  side
    gives +1 if the bound lies certainly beyond x, -1 if short of it, else
    0; "beyond" means farther from p = reward_sum / pulls toward the edge.
    For ``kl`` and ``kl-prime`` the bound m* inverts a divergence that is
    monotone from p to the edge, and ``kl_math._invert`` returns a feasible
    point it evaluated (or p), with an evaluated infeasible point (or the
    edge, where the divergence is infinite) at most NEWTON_TOL beyond it.  So x
    short of p gives +1 (m* is p or beyond); with step = NEWTON_TOL toward
    the edge, a divergence within the budget at x + step puts that
    infeasible point beyond it, so m* lies beyond x; and a divergence over
    the budget at x - step, beyond p, puts the feasible m* short of x.
    The point one step off x keeps _kl's rounding noise from deciding: at
    x itself, a point one float inside m* can read over the budget.  The
    divergence is computed as the inverses compute it (at x + step inline,
    as ``_invert`` does, where the mixture point lies in (0, 1) apart from
    the point; through ``_kl`` elsewhere), a point outside (0, 1) is over
    the budget (no bound lies past 0 or 1), and the budget is read at most
    once per call, at call time (straight from the threshold table the
    scheme then holds when pulls lies in it, through ``threshold`` past its
    end), and trusted from _CERTIFICATE_FLOOR up, short of inf.  What
    depends on the scheme and the edge alone is worked out once, here.  As
    in ``_invert``, d = +1 toward 1 and -1 toward 0 mirrors each
    comparison.  ``sg1`` and ``sg2`` give 0: their bound is a table read
    and a square root.
    """
    if scheme.kind in (SG1, SG2):
        def side(pulls: int, reward_sum: float, x: float) -> int:
            if pulls < 1:
                raise InputError("bound_side requires at least one sample")
            return 0
        return side
    tilt = float(scheme.tilt) if scheme.kind == KL_TILTED else 0.0  # 0: the plain D(p, m)
    total = tilt + 1.0
    d = 1.0 if edge else -1.0
    step = d * NEWTON_TOL
    floor, inf, log, kl = _CERTIFICATE_FLOOR, math.inf, math.log, _kl

    def side(pulls: int, reward_sum: float, x: float) -> int:
        if pulls < 1:
            raise InputError("bound_side requires at least one sample")
        mu_hat = reward_sum / pulls
        if d * x < d * mu_hat:
            return 1
        table = scheme.threshold_table
        budget = None
        m = x + step
        if 0.0 < m < 1.0:
            budget = table[pulls - 1] if pulls <= len(table) else threshold(scheme, pulls)
            if floor <= budget < inf:
                q = (tilt * mu_hat + m) / total if tilt else mu_hat
                if 0.0 < q < 1.0 and q != m:  # _kl's last branch, its two logs in its order
                    value = q * log(q / m) + (1.0 - q) * log((1.0 - q) / (1.0 - m))
                else:
                    value = kl(q, m)
                if not value > budget:
                    return 1
        m = x - step
        if d * m <= d * mu_hat:
            return 0
        if not 0.0 < m < 1.0:
            return -1
        if budget is None:
            budget = table[pulls - 1] if pulls <= len(table) else threshold(scheme, pulls)
        if (floor <= budget < inf
                and kl((tilt * mu_hat + m) / total if tilt else mu_hat, m) > budget):
            return -1
        return 0

    return side


def _check_coverage(mu: float, t_max: int) -> float:
    """``coverage_envelope``'s argument rules; returns mu as a float."""
    mu = as_prob(mu, "mu")
    if t_max < 1:
        raise InputError(f"t_max must be >= 1, got {t_max!r}")
    return mu


def coverage_envelope(scheme: BoundScheme, mu: float, t_max: int):
    """Exact per-t exit thresholds for the empirical mean of a known stream.

    Returns arrays (low, high) of length t_max such that, at sample size t,
    the true mean mu falls outside [lower_bound, upper_bound] computed from
    the empirical mean m exactly when m < low[t-1] (mu above the interval)
    or m > high[t-1] (mu below the interval).  This reduces Monte-Carlo
    coverage checks to comparing running sums against precomputed curves
    instead of inverting bounds along every trajectory.

    The budgets come from one ``_schedule`` call, so they and the
    sub-Gaussian radii carry the scalar functions' bits; the kl schemes
    invert D(., mu) at all t_max budgets per side in one array solve
    (``kl_math._first_arg_inverses``), each within its tolerance, 1e-13.
    """
    np = load_numpy()
    mu = _check_coverage(mu, t_max)
    thr = np.frombuffer(_schedule(scheme, range(1, t_max + 1)))
    if scheme.kind in (SG1, SG2):
        r = np.sqrt(0.5 * thr)  # sg_radius's operations
        return mu - r, mu + r
    zu = _first_arg_inverses(mu, thr, 1.0)
    zl = _first_arg_inverses(mu, thr, 0.0)
    if scheme.kind == KL_TILTED:
        # m exits when the tilted divergence at the true mean exceeds the
        # budget: D((tilt*m + mu)/(tilt+1), mu) > thr, and the mixture point
        # (tilt*m + mu)/(tilt+1) is the first-argument inverse.
        stretch = (scheme.tilt + 1.0) / scheme.tilt
        return mu - stretch * (mu - zl), mu + stretch * (zu - mu)
    return zl, zu  # KL_PRIME: exit when D(m, mu) > thr on the matching side


def integer_exit_curves(low, high):
    """``coverage_envelope``'s (low, high) as exit curves for integer sums.

    A sum s of t rewards in {0, 1} exceeds high[t-1]*t exactly when
    s > floor(high[t-1]*t), and falls below low[t-1]*t exactly when
    s < ceil(low[t-1]*t).  With t_max = len(low), no such sum lies outside
    [0, t_max], so the curves are clipped to [-1, t_max + 1] and returned
    as (low_sum, high_sum) of the smallest integer type that holds t_max + 1.
    """
    np = load_numpy()
    t_max = len(low)
    dtype = next(d for d in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(d).max > t_max)
    t = np.arange(1, t_max + 1, dtype=np.float64)
    return (np.clip(np.ceil(low * t), -1, t_max + 1).astype(dtype),
            np.clip(np.floor(high * t), -1, t_max + 1).astype(dtype))
