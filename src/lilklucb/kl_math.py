"""Bernoulli information-theoretic primitives.

Exact binary KL divergence, numerical inverses of the divergence in its
second argument (plain and tilted variants), and Chernoff information at
the equal-divergence crossing point, which has a closed form.

Two inversions, one per shape, each self-contained with its own
tolerance: ``_invert`` for one budget, behind every scalar inverse, within
NEWTON_TOL, and ``_first_arg_inverses`` for a whole array of budgets,
behind the coverage envelope, within _FIRST_ARG_TOL.  Both run the same
bracketed Newton rules: a bracket with the root inside, Newton steps from
the analytic derivative and a bisection whenever a step is unsafe.
Contract: the returned point is feasible (its divergence, as the inversion
computes it, is within the budget) and lies within the tolerance of the
point where that divergence crosses the budget.

All logarithms are natural.  Inputs are validated on entry; degenerate
cases follow the conventions 0*log(0) = 0 and D(p, q) = +inf exactly when
q is degenerate and p disagrees with it.  All functions are pure and safe
for concurrent use.
"""

from __future__ import annotations

import math

from . import InputError, load_numpy

# Absolute tolerance on the probability argument of every inverse, with a
# hard iteration cap so the cost is bounded.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200


def as_prob(value: float, name: str = "probability") -> float:
    """Validate that ``value`` is a probability; rejects NaN and out-of-range."""
    value = float(value)
    if math.isnan(value) or value < 0.0 or value > 1.0:
        raise InputError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def as_divergence(value: float, name: str = "divergence") -> float:
    """Validate a divergence value: non-negative real, +inf allowed, NaN rejected."""
    value = float(value)
    if math.isnan(value) or value < 0.0:
        raise InputError(f"{name} must be a non-negative real, got {value!r}")
    return value


def _kl(p: float, q: float) -> float:
    """D(p, q) without input validation (hot path)."""
    if p == q:
        return 0.0
    if q <= 0.0 or q >= 1.0:
        return math.inf
    if p == 0.0:
        return -math.log1p(-q)
    if p == 1.0:
        return -math.log(q)
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def _invert(p: float, bound: float, edge: float, tilt: int | None = None) -> float:
    """Farthest m from p toward ``edge`` (0 or 1) with divergence within ``bound``.

    Checks p and the budget; a tilt comes checked.  The divergence is the
    tilted D(q, m) at q = (tilt*p + m)/(tilt+1), or the plain D(p, m) for
    tilt None (its limit as tilt grows), with _kl's values, and monotone
    from p to the edge.  The solve keeps the bracket [p, edge] around the
    root, and each evaluated point replaces the end on its side.  The next
    point is a Newton step in log|edge - m|, where a divergence with its
    log singularity at the edge is nearly linear and no step crosses the
    edge; it is the midpoint instead when the slope is not finite or points
    the wrong way, or the step leaves the bracket or exceeds half the step
    before last.  Points stay NEWTON_TOL/2 inside the bracket, so iterates
    closing in from one side end with a point on the other.  Returns the
    feasible end once the ends are within NEWTON_TOL.  The first point is
    the root of the divergence's expansion at p,
    r^2 / (2 v s^2) - skew (1 - 2p) r^3 / (v s)^2 in r = m - p with
    v = p (1 - p), to first order in the cubic term: stretch
    s = (tilt+1)/tilt and skew (2 tilt + 3) / (6 (tilt+1)), from
    q - p = r/(tilt+1) and m - q = r tilt/(tilt+1); plain: 1 and 1/3.
    """
    p = as_prob(p, "p")
    bound = as_divergence(bound, "bound")
    if math.isinf(bound):
        return edge
    if bound == 0.0 or p == edge:
        return p
    if tilt is None:
        stretch, skew = 1.0, 1.0 / 3.0
    else:
        stretch, skew = (tilt + 1.0) / tilt, (2.0 * tilt + 3.0) / (6.0 * (tilt + 1.0))
        weighted, total = tilt * p, tilt + 1.0
    r = math.copysign(stretch * math.sqrt(2.0 * bound * p * (1.0 - p)), edge - p)
    start = p + r + 2.0 * skew * stretch * stretch * bound * (1.0 - 2.0 * p)
    # Work in y = d*m so that the bracket is ordered lo < hi; negation is
    # exact, so the mirror adds no rounding.
    d = 1.0 if edge else -1.0
    far = d * edge
    lo, hi = d * p, far
    half = 0.5 * NEWTON_TOL
    y = d * start if lo < d * start < hi else 0.5 * (lo + hi)
    step = step_before = hi - lo
    for _ in range(NEWTON_MAX_ITER):
        if hi - lo <= NEWTON_TOL:
            break
        if y < lo + half:
            y = lo + half
        elif y > hi - half:
            y = hi - half
        m = d * y
        if tilt is None:
            value, slope = _kl(p, m), (m - p) / (m * (1.0 - m))
        else:
            q = (weighted + m) / total
            if 0.0 < q < 1.0:
                # _kl's two logs in its order, so the value is _kl(q, m);
                # the slope is d/dm by the chain rule, with dq/dm = 1/(tilt+1)
                up = math.log(q / m)
                down = math.log((1.0 - q) / (1.0 - m))
                value = q * up + (1.0 - q) * down
                slope = (up - down + tilt * (m - p) / (m * (1.0 - m))) / total
            else:  # q rounded onto 0 or 1: a NaN slope bisects
                value, slope = _kl(q, m), math.nan
        if value <= bound:
            lo = y
        else:
            hi = y
        gap = far - y
        scale = d * slope * gap
        nxt = math.nan
        if 0.0 < scale < math.inf:
            ratio = (value - bound) / scale
            if ratio < 50.0:  # beyond it the point leaves [0, 1] anyway
                nxt = far - gap * math.exp(ratio)
        if not (lo <= nxt <= hi and abs(nxt - y) <= 0.5 * step_before):
            nxt = 0.5 * (lo + hi)
        step_before, step = step, abs(nxt - y)
        y = nxt
    return d * lo


# Absolute tolerance of the array inversion behind the coverage envelope;
# finer than NEWTON_TOL because the envelope is scaled by t.
_FIRST_ARG_TOL = 1e-13


def _first_arg_inverses(mu: float, bounds, edge: float):
    """Farthest x from mu toward ``edge`` (0 or 1) with D(x, mu) <= b, for every b in ``bounds``.

    This inverts D in its first argument, for a 1-D array of budgets.
    D(x, mu) is convex in x and 0 at x = mu, so each feasible set is an
    interval.  A degenerate mu (0 or 1) is returned as is, since D(x, mu)
    is infinite at every other x; a budget with D(edge, mu) within it gives
    ``edge``.  Every other budget is solved by ``_invert``'s rules, with
    _FIRST_ARG_TOL for NEWTON_TOL, each entry in its own bracket [mu, edge]
    and from the root of the expansion
    D(mu + r, mu) = r^2 / (2v) - (1 - 2 mu) r^3 / (6 v^2), v = mu (1 - mu).
    Entries leave the iteration as they finish; an iteration works in
    place, in buffers cut to the live entries, and only the removal of
    finished entries allocates.  The result lies within _FIRST_ARG_TOL of
    where D(x, mu), as computed here with NumPy's logs, crosses its budget.
    """
    np = load_numpy()
    if mu == 0.0 or mu == 1.0:
        return np.full(bounds.shape, mu)
    out = np.full(bounds.shape, edge)
    live = np.flatnonzero(~(_kl(edge, mu) <= bounds))
    bounds = bounds[live]
    start = (mu + math.copysign(1.0, edge - mu) * np.sqrt(2.0 * bounds * mu * (1.0 - mu))
             + bounds * (1.0 - 2.0 * mu) / 3.0)
    # Work in y = d*x, as _invert does
    d = 1.0 if edge else -1.0
    far = d * edge
    half = 0.5 * _FIRST_ARG_TOL
    lo = np.full(live.size, d * mu)
    hi = np.full(live.size, far)
    y = d * start
    y = np.where((lo < y) & (y < hi), y, 0.5 * (lo + hi))
    step = hi - lo
    step_before = step.copy()
    scratch = np.empty((4, live.size))
    flags = np.empty((2, live.size), dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            width = np.subtract(hi, lo, out=scratch[0, :live.size])
            done = np.less_equal(width, _FIRST_ARG_TOL, out=flags[0, :live.size])
            if done.any():
                out[live[done]] = d * lo[done]
                keep = ~done
                live, lo, hi, y, step, step_before, bounds = (
                    v[keep] for v in (live, lo, hi, y, step, step_before, bounds))
            if live.size == 0:
                break
            a, b, up, down = scratch[:, :live.size]
            p, q = flags[:, :live.size]
            # y = lo + half if y < lo + half, else hi - half if y > hi - half
            np.less(y, np.add(lo, half, out=a), out=p)
            np.greater(y, np.subtract(hi, half, out=b), out=q)
            np.copyto(y, b, where=q)
            np.copyto(y, a, where=p)
            # D(x, mu) = x up + (1 - x) down and its slope up - down, with
            # up = log(x / mu) and down = log((1 - x) / (1 - mu))
            x = np.multiply(y, d, out=b)
            np.log(np.divide(x, mu, out=up), out=up)
            np.log(np.divide(np.subtract(1.0, x, out=a), 1.0 - mu, out=down), out=down)
            value = np.add(np.multiply(x, up, out=x), np.multiply(a, down, out=a), out=x)
            slope = np.subtract(up, down, out=up)
            below = np.less_equal(value, bounds, out=p)
            np.copyto(lo, y, where=below)
            np.copyto(hi, y, where=np.logical_not(below, out=q))
            gap = np.subtract(far, y, out=a)
            scale = np.multiply(np.multiply(slope, d, out=slope), gap, out=slope)
            ratio = np.divide(np.subtract(value, bounds, out=value), scale, out=value)
            newton = np.greater(scale, 0.0, out=p)
            newton &= np.less(scale, math.inf, out=q)
            newton &= np.less(ratio, 50.0, out=q)
            off = np.logical_not(newton, out=q)
            np.copyto(ratio, 0.0, where=off)
            nxt = np.subtract(far, np.multiply(gap, np.exp(ratio, out=ratio), out=ratio), out=ratio)
            np.copyto(nxt, math.nan, where=off)
            safe = np.less_equal(lo, nxt, out=p)
            safe &= np.less_equal(nxt, hi, out=q)
            moved = np.abs(np.subtract(nxt, y, out=down), out=down)
            safe &= np.less_equal(moved, np.multiply(step_before, 0.5, out=a), out=q)
            midpoint = np.multiply(np.add(lo, hi, out=a), 0.5, out=a)
            np.copyto(nxt, midpoint, where=np.logical_not(safe, out=q))
            step_before, step = step, step_before
            np.abs(np.subtract(nxt, y, out=step), out=step)
            np.copyto(y, nxt)  # nxt is a scratch row, which the next step overwrites
    out[live] = d * lo
    return out


def kl_upper_inverse(p: float, bound: float) -> float:
    """Largest m >= p with D(p, m) <= bound.

    D(p, m) is continuous and strictly increasing in m on [p, 1], so the
    feasible set is an interval [p, m*]; the bracketed Newton solve returns
    a feasible point within NEWTON_TOL of m*.  Returns 1.0 for an
    infinite budget.
    """
    return _invert(p, bound, 1.0)


def kl_lower_inverse(p: float, bound: float) -> float:
    """Smallest m <= p with D(p, m) <= bound; mirror of kl_upper_inverse on [0, p]."""
    return _invert(p, bound, 0.0)


def _check_tilt(tilt: int) -> int:
    if not isinstance(tilt, int) or tilt < 1:
        raise InputError(f"tilt must be a positive integer, got {tilt!r}")
    return tilt


def tilted_kl_upper_inverse(p: float, bound: float, tilt: int) -> float:
    """Largest m >= p with D((tilt*p + m)/(tilt+1), m) <= bound.

    The map m -> D((tilt*p + m)/(tilt+1), m) is monotone on each side of p:
    the divergence is jointly convex and m -> ((tilt*p + m)/(tilt+1), m) is
    affine, so the map is convex in m; it is 0 at m = p and nonnegative,
    hence nondecreasing on [p, 1] and nonincreasing on [0, p].  The feasible
    set on [p, 1] is therefore an interval [p, m*], and the bracketed Newton
    solve returns a feasible point within NEWTON_TOL of m*.
    """
    return _invert(p, bound, 1.0, _check_tilt(tilt))


def tilted_kl_lower_inverse(p: float, bound: float, tilt: int) -> float:
    """Smallest m <= p with D((tilt*p + m)/(tilt+1), m) <= bound; mirror on [0, p]."""
    return _invert(p, bound, 0.0, _check_tilt(tilt))


def _chernoff_crossing(a: float, b: float) -> float:
    """The unique z in [a, b] with D(z, a) = D(z, b), for 0 < a < b < 1.

    D(z, a) - D(z, b) = z log(b/a) + (1 - z) log((1-b)/(1-a)) is linear in
    z, with root z = u / (u + w) for u = log1p((b-a)/(1-b)) and
    w = log1p((b-a)/a); log1p keeps full relative accuracy for b near a.
    Where (b-a)/a overflows (a subnormal), w = log b - log a.  The result is
    clamped to [a, b].
    """
    u = math.log1p((b - a) / (1.0 - b))
    ratio = (b - a) / a
    w = math.log1p(ratio) if ratio < math.inf else math.log(b) - math.log(a)
    return min(max(u / (u + w), a), b)


def chernoff_information(x: float, y: float) -> float:
    """Chernoff information between Bernoulli(x) and Bernoulli(y).

    For interior x != y this is D(z*, x) at the crossing z* with
    D(z*, x) = D(z*, y); the result is symmetric in its arguments because
    they are normalized before solving.  Degenerate cases: 0 when x == y,
    D(x, y) evaluated at the degenerate endpoint when exactly one of the
    two is 0 or 1, and +inf for the pair (0, 1).
    """
    x = as_prob(x, "x")
    y = as_prob(y, "y")
    a, b = (x, y) if x <= y else (y, x)
    if a == b:
        return 0.0
    if a == 0.0:
        return _kl(0.0, b)
    if b == 1.0:
        return _kl(1.0, a)
    z = _chernoff_crossing(a, b)
    return 0.5 * (_kl(z, a) + _kl(z, b))
