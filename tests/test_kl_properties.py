"""Property tests for the divergence maps the inverses rely on, for the
tolerance contract every inverse keeps, for the bounds never crossing
the empirical mean, and for the answers of the bound certificate.

The contract, for each of the six inverses (plain and tilted kl_math
inverses upward and downward, and the array first-argument inverse behind
the coverage envelope toward either edge, called on one budget):
the result is feasible as ``_kl`` computes it, the budget is exceeded one
tolerance beyond it on the outer side, and inside the region criterion 6
samples the divergence at the result is within 1e-9 of the budget.

The certificate, ``confidence.bound_side``, must also give the answers of
a reference kept below, which runs each probe through a helper of its own.
"""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilklucb import confidence
from lilklucb.kl_math import (
    _FIRST_ARG_TOL,
    NEWTON_TOL,
    _first_arg_inverses,
    _kl,
    kl_lower_inverse,
    kl_upper_inverse,
    tilted_kl_lower_inverse,
    tilted_kl_upper_inverse,
)

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)

TILTS = st.sampled_from([1, 2, 8, 64, 1024])
UNIT = st.floats(0.0, 1.0)
# interior p, and p within 1e-6 of either edge (both edges included)
PROBS = st.one_of(st.floats(0.01, 0.99), st.floats(0.0, 1e-6), st.floats(1.0 - 1e-6, 1.0))
# From criterion 6's smallest budget up.  Far below it the rounding noise of
# _kl near the root (~1e-16) exceeds its change over one tolerance, so no
# solver that evaluates _kl could place the outer point.
BUDGETS = st.one_of(st.floats(1e-6, 1e-3), st.floats(1e-3, 50.0))


def _tilted(p, m, tilt):
    return _kl((tilt * p + m) / (tilt + 1.0), m)


def _first_arg(mu, budget, edge):
    """The coverage envelope's first-argument inverse at one budget, as a float."""
    return float(_first_arg_inverses(mu, np.array([budget]), edge)[0])


# name -> (inverse(p, budget, tilt), divergence(p, m, tilt), outer direction, tolerance)
INVERSES = {
    "kl_upper": (lambda p, b, tilt: kl_upper_inverse(p, b),
                 lambda p, m, tilt: _kl(p, m), 1.0, NEWTON_TOL),
    "kl_lower": (lambda p, b, tilt: kl_lower_inverse(p, b),
                 lambda p, m, tilt: _kl(p, m), -1.0, NEWTON_TOL),
    "tilted_upper": (tilted_kl_upper_inverse, _tilted, 1.0, NEWTON_TOL),
    "tilted_lower": (tilted_kl_lower_inverse, _tilted, -1.0, NEWTON_TOL),
    "first_arg_upper": (lambda mu, b, tilt: _first_arg(mu, b, 1.0),
                        lambda mu, x, tilt: _kl(x, mu), 1.0, _FIRST_ARG_TOL),
    "first_arg_lower": (lambda mu, b, tilt: _first_arg(mu, b, 0.0),
                        lambda mu, x, tilt: _kl(x, mu), -1.0, _FIRST_ARG_TOL),
}
NAMES = st.sampled_from(sorted(INVERSES))


@PROPERTY
@given(p=UNIT, tilt=TILTS, upper=st.booleans(), u=UNIT, v=UNIT)
def test_tilted_map_is_monotone_on_each_side(p, tilt, upper, u, v):
    # m -> D((tilt*p + m)/(tilt+1), m) is nondecreasing on [p, 1] and
    # nonincreasing on [0, p]: moving away from p never lowers it
    near, far = sorted((u, v))
    if upper:
        m_near, m_far = p + near * (1.0 - p), p + far * (1.0 - p)
    else:
        m_near, m_far = p - near * p, p - far * p
    d_near = _tilted(p, min(m_near, 1.0), tilt)
    d_far = _tilted(p, min(m_far, 1.0), tilt)
    assert d_near <= d_far + 1e-12 * (1.0 + d_far)


@PROPERTY
@given(name=NAMES, p=PROBS, budget=BUDGETS, tilt=TILTS)
def test_inverse_is_feasible_and_tight(name, p, budget, tilt):
    inverse, div, outward, tol = INVERSES[name]
    m = inverse(p, budget, tilt)
    assert 0.0 <= m <= 1.0
    assert (m - p) * outward >= 0.0
    assert div(p, m, tilt) <= budget
    beyond = m + outward * tol
    if 0.0 <= beyond <= 1.0:
        assert div(p, beyond, tilt) > budget


@PROPERTY
@given(name=NAMES, p=st.floats(0.01, 0.99), frac=st.floats(0.0, 0.95), tilt=TILTS)
def test_inverse_hits_budget_where_criterion_6_samples(name, p, frac, tilt):
    inverse, div, outward, _ = INVERSES[name]
    cap = div(p, 0.995 if outward > 0 else 0.005, tilt)
    budget = max(1e-6, frac * cap)
    assert math.isclose(div(p, inverse(p, budget, tilt), tilt), budget, rel_tol=0.0, abs_tol=1e-9)


@PROPERTY
@given(
    kind=st.sampled_from(confidence.SCHEME_KINDS),
    tilt=st.sampled_from([4, 8, 64]),
    delta=st.sampled_from([0.001, 0.05, 0.5]),
    pulls=st.integers(1, 10**6),
    share=st.one_of(st.just(0.0), st.just(1.0), UNIT),
)
def test_bounds_bracket_the_empirical_mean(kind, tilt, delta, pulls, share):
    # exact as floats: lil_klucb skips the leader's lower bound whenever a
    # rival's upper bound is at least the leader's mean
    reward_sum = float(round(share * pulls))
    scheme = confidence.BoundScheme(kind, tilt, delta)
    mean = reward_sum / pulls
    assert (confidence.lower_bound(scheme, pulls, reward_sum) <= mean
            <= confidence.upper_bound(scheme, pulls, reward_sum))


@pytest.mark.parametrize("edge", [0.0, 1.0])
@PROPERTY
@given(
    kind_tilt=st.sampled_from([("kl", t) for t in (1, 2, 8, 64, 1024)]
                              + [("kl-prime", t) for t in (4, 8, 64)]),
    delta=st.sampled_from([0.001, 0.05, 0.5]),
    pulls=st.one_of(st.integers(1, 10**6), st.integers(10**6, 10**12)),
    share=st.one_of(st.just(0.0), st.just(1.0), UNIT),
    where=st.one_of(st.just("uniform"), st.just("inside"), st.just("ulp below"),
                    st.just("ulp above"), st.sampled_from([j / 2.0 for j in range(-6, 7)])),
    u=UNIT,
)
def test_bound_side_is_sound(edge, kind_tilt, delta, pulls, share, where, u):
    # lil_klucb picks the challenger, and rules out a stop, from the sides
    # the certificate gives.  Points: uniform in [0, 1], uniform between
    # the mean and the edge, one float either side of the bound, or within
    # three tolerances of it in half-tolerance steps.  Pulls reach 1e12,
    # where the budget falls below the floor.
    kind, tilt = kind_tilt
    reward_sum = float(round(share * pulls))
    scheme = confidence.BoundScheme(kind, tilt, delta)
    bound = (confidence.upper_bound if edge else confidence.lower_bound)(scheme, pulls, reward_sum)
    mean = reward_sum / pulls
    if where == "uniform":
        x = u
    elif where == "inside":
        x = mean + u * (edge - mean)
    elif where == "ulp below":
        x = math.nextafter(bound, -math.inf)
    elif where == "ulp above":
        x = math.nextafter(bound, math.inf)
    else:
        x = bound + where * NEWTON_TOL
    side = confidence.bound_side(scheme, edge)(pulls, reward_sum, x)
    if side > 0:
        assert bound > x if edge else bound < x
    elif side < 0:
        assert bound < x if edge else bound > x
    elif confidence.threshold(scheme, pulls) >= confidence._CERTIFICATE_FLOOR:
        assert abs(bound - x) <= 2 * NEWTON_TOL


def _reference_over_budget(scheme, pulls, mu_hat, m):
    """Whether the divergence at m is over the budget; None for an untrusted budget."""
    if not 0.0 < m < 1.0:
        return True
    budget = confidence.threshold(scheme, pulls)
    if not confidence._CERTIFICATE_FLOOR <= budget < math.inf:
        return None
    if scheme.kind == confidence.KL_TILTED:
        return _kl((scheme.tilt * mu_hat + m) / (scheme.tilt + 1.0), m) > budget
    return _kl(mu_hat, m) > budget


def _reference_bound_side(scheme, pulls, reward_sum, x, edge):
    """The certificate with one ``_reference_over_budget`` call, and budget read, per probe."""
    if pulls < 1:
        raise ValueError("bound_side requires at least one sample")
    if scheme.kind in (confidence.SG1, confidence.SG2):
        return 0
    mu_hat = reward_sum / pulls
    step = NEWTON_TOL if edge else -NEWTON_TOL
    if ((x < mu_hat if edge else x > mu_hat)
            or _reference_over_budget(scheme, pulls, mu_hat, x + step) is False):
        return 1
    short = x - step
    if ((short <= mu_hat if edge else short >= mu_hat)
            or not _reference_over_budget(scheme, pulls, mu_hat, short)):
        return 0
    return -1


# Every kind at tilts 4, 8 and 64 and three deltas; pulls from 1 to 1e12,
# where the kl budgets fall below the certificate's floor, and 2^1023, where
# the budget is infinite; rewards at 0, inside and at the top.  No pulls lie
# between 2^14 and the table's cap, so no scheme keeps a table over 128 kB.
REFERENCE_SCHEMES = [confidence.BoundScheme(kind, tilt, delta)
                     for kind in confidence.SCHEME_KINDS for tilt in (4, 8, 64)
                     for delta in (0.05, 0.5, 1e-10)]
REFERENCE_PULLS = (1, 2, 7, 100, 10**4, 10**7, 10**9, 10**12, 2**1023)


def _reference_grid():
    """(scheme, pulls, reward_sum, x, edge): x near the bound, the mean, 0 and 1, and past them."""
    for scheme in REFERENCE_SCHEMES:
        for pulls in REFERENCE_PULLS:
            for reward_sum in (0.0, float(round(0.3 * pulls)), float(pulls)):
                mean = reward_sum / pulls
                for edge in (0.0, 1.0):
                    bound = (confidence.upper_bound if edge else confidence.lower_bound)(
                        scheme, pulls, reward_sum)
                    xs = [bound + j / 2.0 * NEWTON_TOL for j in range(-4, 5)]
                    xs += [math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
                    xs += [mean, math.nextafter(mean, -math.inf), math.nextafter(mean, math.inf),
                           0.5 * (mean + bound)]
                    xs += [0.0, 1.0, NEWTON_TOL, 1.0 - NEWTON_TOL, -0.5, 1.5, -math.inf, math.inf]
                    for x in xs:
                        yield scheme, pulls, reward_sum, x, edge


def _sides():
    """Each reference scheme's certificate toward each edge, built once, as ``lil_klucb`` does."""
    return {(scheme, edge): confidence.bound_side(scheme, edge)
            for scheme in REFERENCE_SCHEMES for edge in (0.0, 1.0)}


def test_bound_side_is_the_reference_on_a_grid():
    # every certificate is built on an empty table, before the first case,
    # and the cases grow each kl table past 10**4 entries (a captured table
    # would still answer right, through ``threshold``: the reads test below
    # catches one)
    cases = list(_reference_grid())
    assert len(cases) == 44712
    for scheme in REFERENCE_SCHEMES:
        object.__setattr__(scheme, "threshold_table", array("d"))
    sides = _sides()
    for scheme, pulls, reward_sum, x, edge in cases:
        assert (sides[scheme, edge](pulls, reward_sum, x)
                == _reference_bound_side(scheme, pulls, reward_sum, x, edge)), (
            scheme, pulls, reward_sum, x, edge)
    assert all(len(scheme.threshold_table) > 10**4 for scheme in REFERENCE_SCHEMES
               if scheme.kind in (confidence.KL_TILTED, confidence.KL_PRIME))


def _answer(side, *args):
    """``side``'s answer, or the type of the error it raises (a mean past 1 leaves _kl's domain)."""
    try:
        return side(*args)
    except ValueError as exc:
        return type(exc)


@PROPERTY
@given(
    scheme=st.sampled_from(REFERENCE_SCHEMES),
    pulls=st.one_of(st.integers(1, 2**14), st.integers(2**20 + 1, 10**13),
                    st.sampled_from(REFERENCE_PULLS)),
    share=st.one_of(st.just(0.0), st.just(1.0), UNIT, st.floats(-1.0, 2.0)),
    x=st.one_of(UNIT, st.floats()),
    offset=st.integers(-8, 8),
    edge=st.sampled_from([0.0, 1.0]),
)
def test_bound_side_is_the_reference_on_random_arguments(scheme, pulls, share, x, offset, edge):
    # x anywhere, NaN and the infinities included, and near the bound in
    # half-tolerance steps; reward sums also outside [0, pulls]
    reward_sum = share * pulls
    if offset and 0.0 <= share <= 1.0:
        bound = (confidence.upper_bound if edge else confidence.lower_bound)(
            scheme, pulls, reward_sum)
        x = bound + offset / 2.0 * NEWTON_TOL
    assert (_answer(confidence.bound_side(scheme, edge), pulls, reward_sum, x)
            == _answer(_reference_bound_side, scheme, pulls, reward_sum, x, edge))


def test_bound_side_reads_the_budget_at_most_once(monkeypatch):
    # a read is a call of ``threshold`` or an index into the threshold table
    # the scheme holds at call time
    reads = []
    real = confidence.threshold

    def counted(scheme, t):
        reads.append(t)
        return real(scheme, t)

    class CountedTable(array):
        def __getitem__(self, i):
            reads.append(i + 1)
            return super().__getitem__(i)

    cases = list(_reference_grid())
    # the grid has filled every table the cases read: t <= 10**4
    assert all(len(scheme.threshold_table) >= 10**4 for scheme in REFERENCE_SCHEMES)
    # built before the counted tables replace the scheme's own, so a
    # certificate that kept the table it was built on reads it uncounted
    sides = _sides()
    monkeypatch.setattr(confidence, "threshold", counted)
    tables = [scheme.threshold_table for scheme in REFERENCE_SCHEMES]
    try:
        for scheme, table in zip(REFERENCE_SCHEMES, tables):
            object.__setattr__(scheme, "threshold_table", CountedTable("d", table))
        for scheme, pulls, reward_sum, x, edge in cases:
            reads.clear()
            sides[scheme, edge](pulls, reward_sum, x)
            read = len(reads)
            # the reference reads (once per probe it evaluates) exactly when a budget is needed
            reads.clear()
            _reference_bound_side(scheme, pulls, reward_sum, x, edge)
            assert read == min(1, len(reads)), (scheme, pulls, reward_sum, x, edge)
        assert all(type(scheme.threshold_table) is CountedTable for scheme in REFERENCE_SCHEMES)
        # past the edge both probes lie outside (0, 1): -1 with no read
        reads.clear()
        assert sides[REFERENCE_SCHEMES[0], 1.0](100, 37.0, 1.5) == -1
        assert sides[REFERENCE_SCHEMES[0], 0.0](100, 37.0, -0.5) == -1
        assert reads == []
    finally:
        for scheme, table in zip(REFERENCE_SCHEMES, tables):
            object.__setattr__(scheme, "threshold_table", table)


@pytest.mark.parametrize("edge", [0.0, 1.0])
@PROPERTY
@given(
    kind=st.sampled_from([confidence.SG1, confidence.SG2]),
    pulls=st.integers(1, 10**6),
    share=st.one_of(st.just(0.0), st.just(1.0), UNIT),
    x=UNIT,
)
def test_sub_gaussian_bounds_are_never_certified(edge, kind, pulls, share, x):
    scheme = confidence.BoundScheme(kind, 8, 0.05)
    assert confidence.bound_side(scheme, edge)(pulls, float(round(share * pulls)), x) == 0
