"""The coverage Monte Carlo: Bernoulli(mu) streams against integer exit curves."""

from __future__ import annotations

import itertools
import math

from . import InputError, load_numpy

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment


def splitmix64(x: int) -> int:
    """The splitmix64 output after state x: per-repetition seeds, and coverage's uniforms."""
    x = (x + _GAMMA) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


_SCREEN = 64  # steps per block of exit_rates
_STRIDE = _SCREEN + 1  # counters per block: its count, then one per step
_BATCH_BLOCKS = 2**14  # blocks whose counts exit_rates draws at once
_CHUNK_BLOCKS = 2**11  # blocks whose steps it draws at once
_GUIDE_BITS = 12  # bins of the guide that inverts a block's CDF, as a power of two


def _check_counters(trajectories: int, t_max: int) -> None:
    """exit_rates' rule: every (trajectory, block, slot) counter lies below 2**64."""
    if trajectories * -(-t_max // _SCREEN) * _STRIDE > 1 << 64:
        raise InputError(f"{trajectories} trajectories of {t_max} steps need more than "
                         f"2**64 random counters, so their draws would repeat")


def _splitmix64_array(x, scratch=None):
    """``splitmix64`` of every entry of a uint64 array, in place; ``scratch`` is x's shape."""
    np = load_numpy()
    x += np.uint64(_GAMMA)
    shifted = np.right_shift(x, np.uint64(30), out=scratch)
    x ^= shifted
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=shifted)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    return x


def _uniforms(outputs, out=None):
    """The uniforms in [0, 1) of splitmix64 outputs: their top 53 bits, shifted in place."""
    np = load_numpy()
    outputs >>= np.uint64(11)
    return np.multiply(outputs, 2.0**-53, out=out)


def _binomial_cdf(mu: float, width: int):
    """P(Binomial(width, mu) <= c) for c = 0..width, each correctly rounded.

    A float mu is exactly n/d, so every entry is an integer over d**width,
    and Python's integer division rounds it once; the last entry is 1.
    """
    np = load_numpy()
    n, d = float(mu).as_integer_ratio()
    terms = (math.comb(width, c) * n**c * (d - n) ** (width - c) for c in range(width + 1))
    scale = d**width
    return np.array([total / scale for total in itertools.accumulate(terms)])


def _count_table(cdf) -> tuple:
    """``_counts``' table for a CDF: its guide over 2**_GUIDE_BITS equal bins of [0, 1]."""
    np = load_numpy()
    edges = np.searchsorted(cdf, np.arange(2**_GUIDE_BITS + 1) * 2.0**-_GUIDE_BITS, side="right")
    return cdf, edges[:-1], edges[:-1] != edges[1:]


def _counts(table: tuple, outputs):
    """The CDF's inverse at each output's uniform: the number of its entries <= the uniform.

    That number is nondecreasing in the uniform, so where the guide gives one
    number at both edges of a bin (the top bits of an output) it holds in the
    whole bin; only the uniforms in the other bins, at most one per CDF
    entry, search the CDF.
    """
    np = load_numpy()
    cdf, edges, mixed = table
    bins = (outputs >> np.uint64(64 - _GUIDE_BITS)).view(np.int64)
    counts = edges[bins]
    search = mixed[bins]
    counts[search] = np.searchsorted(cdf, _uniforms(outputs[search]), side="right")
    return counts


def _arrange(ones, widths, u, slots):
    """Steps of blocks holding ``ones`` ones in ``widths`` slots, from uniforms u (slots, blocks).

    Slot j of a block is a one when u[j] < ones left / slots left, so given
    its count every arrangement of a block is equally likely; slots past a
    block's width stay 0, since no ones are left for them.  ``slots``, shaped
    like u, receives the slots left.
    """
    np = load_numpy()
    left = ones.astype(np.float64)
    slots = np.subtract(widths, np.arange(len(u), dtype=np.float64)[:, None], out=slots)
    np.maximum(slots, 1.0, out=slots)
    steps = np.empty(u.shape, dtype=bool)
    for j in range(len(u)):
        np.less(u[j], left / slots[j], out=steps[j])
        left -= steps[j]
    return steps


def exit_rates(mu: float, low_sum, high_sum, trajectories: int, seed: int) -> dict[str, float]:
    """Shares of Bernoulli(mu) trajectories whose running sum ever crosses an exit curve.

    A stream is cut into blocks of _SCREEN steps (the last one shorter when
    _SCREEN does not divide t_max).  A block of width w holds
    Binomial(w, mu) ones, and given that count its steps are a uniformly
    random arrangement; so each block's count is drawn first, by inverting
    the binomial CDF at one uniform, and steps only where needed.  With a
    the sum before a block and e the sum at its end, j steps into the block
    the sum lies in [a, a + j] and in [e - (_SCREEN - j), e].  The block can
    cross high only if e > min high and a > min (high - j), and low only if
    a < max low and e < max (low + _SCREEN - j).  Those four constants per
    block are taken once per call, and only the blocks that pass get steps
    (``_arrange``) and an exact running sum.

    Every uniform is splitmix64 at its own counter: output number
    (trajectory * blocks + block) * _STRIDE + slot of the splitmix64 stream
    seeded with seed mod 2**64, where slot 0 draws the block's count and
    slot 1 + j its step j.  A trajectory is thus a pure function of the
    seed: neither the screen nor the batches (the counts of _BATCH_BLOCKS
    blocks, then the steps of _CHUNK_BLOCKS blocks, at a time) change a
    rate, and every scheme sees the same trajectories at one seed.
    """
    np = load_numpy()
    t_max = len(high_sum)
    blocks = -(-t_max // _SCREEN)
    widths = np.full(blocks, _SCREEN)
    widths[-1] = t_max - _SCREEN * (blocks - 1)
    table = _count_table(_binomial_cdf(mu, _SCREEN))
    last_table = _count_table(_binomial_cdf(mu, int(widths[-1])))
    # Curves as (_SCREEN, blocks); the entries past t_max are never crossed
    # and can only loosen the last block's screen.
    pad = (0, blocks * _SCREEN - t_max)
    high_sum = np.pad(high_sum, pad, constant_values=t_max + 1).reshape(blocks, -1).T
    low_sum = np.pad(low_sum, pad, constant_values=-1).reshape(blocks, -1).T
    j = np.arange(1, _SCREEN + 1)[:, None]  # int64: low + _SCREEN - j overflows int8 at t_max 126
    high_min, high_reach = high_sum.min(axis=0), (high_sum - j).min(axis=0)
    low_max, low_reach = low_sum.max(axis=0), (low_sum + (_SCREEN - j)).max(axis=0)

    # The state at counter c is seed + c * _GAMMA (mod 2**64), split into
    # the parts of the trajectory, the block and the slot.
    block_states = (np.arange(blocks, dtype=np.uint64) * np.uint64(_STRIDE * _GAMMA & _MASK64)
                    + np.uint64(seed & _MASK64))
    width = min(t_max, _SCREEN)
    step_states = np.arange(1, width + 1, dtype=np.uint64)[:, None] * np.uint64(_GAMMA)
    # A fresh array costs a page fault per page touched, so the steps of a
    # chunk of blocks are drawn in buffers that every chunk reuses.
    buffers = [np.empty(width * _CHUNK_BLOCKS, dtype)
               for dtype in (np.uint64, np.uint64, np.float64, np.float64)]
    trajectory_gap = np.uint64(blocks * _STRIDE * _GAMMA & _MASK64)
    rows = max(1, _BATCH_BLOCKS // blocks)
    below = above = joint = 0
    for start in range(0, trajectories, rows):
        b = min(rows, trajectories - start)
        trajectory_states = np.arange(start, start + b, dtype=np.uint64) * trajectory_gap
        outputs = _splitmix64_array(trajectory_states[:, None] + block_states)
        counts = _counts(table, outputs)
        counts[:, -1] = _counts(last_table, outputs[:, -1])
        ends = np.cumsum(counts, axis=1)
        begins = ends - counts
        near = (((ends > high_min) & (begins > high_reach))
                | ((begins < low_max) & (ends < low_reach)))
        hit_high = np.zeros(b, dtype=bool)  # mu fell below its lower bound
        hit_low = np.zeros(b, dtype=bool)   # mu rose above its upper bound
        near_r, near_k = np.nonzero(near)
        for lo in range(0, len(near_r), _CHUNK_BLOCKS):
            r, k = near_r[lo:lo + _CHUNK_BLOCKS], near_k[lo:lo + _CHUNK_BLOCKS]
            states, scratch, u, slots = (buffer[:width * len(r)].reshape(width, len(r))
                                         for buffer in buffers)
            np.add(step_states, trajectory_states[r] + block_states[k], out=states)
            _uniforms(_splitmix64_array(states, scratch), out=u)
            sums = np.cumsum(_arrange(counts[r, k], widths[k], u, slots), axis=0,
                             dtype=low_sum.dtype)
            sums += begins[r, k]
            hit_high[r[(sums > high_sum[:width, k]).any(axis=0)]] = True
            hit_low[r[(sums < low_sum[:width, k]).any(axis=0)]] = True
        below += int(hit_high.sum())
        above += int(hit_low.sum())
        joint += int((hit_high | hit_low).sum())
    return {
        "true_mean_below_lower": below / trajectories,
        "true_mean_above_upper": above / trajectories,
        "joint": joint / trajectories,
    }
