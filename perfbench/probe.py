"""Layer probes run after a traced invocation.

``kernel_probe`` times single layers directly on fixed inputs drawn from the
benchmark seed: every kl_math inverse at interior and saturated p, Chernoff
information, ``coverage_envelope`` per scheme, and contest-CSV parsing plus
bootstrap draws on a CSV the probe writes itself (no contest data ships with
the repository).

``companion`` runs one small instance of each entry point through the traced
names, so that a layer a workload never reaches still has a measured time in
that workload's traced run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from lilklucb import confidence, data_ingest, environments, kl_math

from workloads import IDENTIFY_DELTA, IDENTIFY_MEANS, TILT

GRID = 100
PASSES = 5
ENVELOPE_T_MAX = 10_000


def _us_per_call(fn, args) -> float:
    """Median over passes of the mean time per call over the grid, in us."""
    passes = []
    for _ in range(PASSES):
        start = time.perf_counter()
        for a in args:
            fn(*a)
        passes.append((time.perf_counter() - start) / len(args) * 1e6)
    return statistics.median(passes)


def _kl_grids(rng):
    """(p, budget) pairs: interior p, and p whose inverse lands on the boundary."""
    scheme = confidence.BoundScheme("kl", TILT, IDENTIFY_DELTA)
    t = rng.integers(10, 2000, size=GRID)
    budgets = [confidence.threshold(scheme, int(ti)) for ti in t]
    interior = rng.uniform(0.2, 0.8, size=GRID)
    near_edge = rng.integers(1, 4, size=GRID) / t  # p within 3/t of the edge
    return {
        "interior": (list(zip(interior, budgets)), list(zip(interior, budgets))),
        "saturated": (list(zip(1.0 - near_edge, budgets)), list(zip(near_edge, budgets))),
    }


def _contest_csv(path, rng, captions: int = 100) -> None:
    counts = rng.integers(20, 400, size=(captions, 3))
    counts[0, 2] += 2000  # a clear best caption, so from_contest sees no tie at the top
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("caption,unfunny,somewhat_funny,funny\n")
        for i, (one, two, three) in enumerate(counts):
            fh.write(f"caption {i},{one},{two},{three}\n")


def kernel_probe(seed: int, workdir) -> dict[str, tuple]:
    rng = np.random.default_rng(seed)
    metrics = {}
    for regime, (upper_args, lower_args) in _kl_grids(rng).items():
        for name, fn, args in (
            ("tilted_upper", kl_math.tilted_kl_upper_inverse, [(p, b, TILT) for p, b in upper_args]),
            ("tilted_lower", kl_math.tilted_kl_lower_inverse, [(p, b, TILT) for p, b in lower_args]),
            ("kl_upper", kl_math.kl_upper_inverse, upper_args),
            ("kl_lower", kl_math.kl_lower_inverse, lower_args),
        ):
            metrics[f"probe.kl_math.{name}.{regime}_us"] = (_us_per_call(fn, args), "us")
    x = rng.uniform(0.5, 0.95, size=GRID)
    y = x - rng.uniform(0.05, 0.45, size=GRID)
    metrics["probe.kl_math.chernoff_us"] = (
        _us_per_call(kl_math.chernoff_information, list(zip(x, y))), "us")

    for kind in ("kl", "kl-prime", "sg1"):
        scheme = confidence.BoundScheme(kind, TILT, IDENTIFY_DELTA)
        start = time.perf_counter()
        confidence.coverage_envelope(scheme, 0.5, ENVELOPE_T_MAX)
        metrics[f"probe.coverage_envelope.{kind}_s"] = (time.perf_counter() - start, "s")

    csv_path = workdir / "contest_probe.csv"
    _contest_csv(csv_path, rng)
    parse_ms = []
    for _ in range(PASSES):
        start = time.perf_counter()
        dataset = data_ingest.parse_contest_csv(csv_path)
        parse_ms.append((time.perf_counter() - start) * 1e3)
    metrics["probe.data_ingest.parse_contest_csv_ms"] = (statistics.median(parse_ms), "ms")
    env = environments.from_contest(dataset)
    arms = [(env, int(a), rng) for a in rng.integers(env.n_arms, size=2000)]
    metrics["probe.environments.bootstrap_draw_us"] = (
        _us_per_call(environments.sample, arms), "us")
    return metrics


def companion(cli, seed: int) -> None:
    """One small instance of each traced entry point, called by its traced name."""
    identify_env = environments.bernoulli_environment(IDENTIFY_MEANS)
    scheme = cli.BoundScheme("kl", TILT, IDENTIFY_DELTA)
    cache: dict = {}
    for rep in range(2):
        cli.lil_klucb(identify_env, scheme, None, np.random.default_rng([seed, rep]),
                      bound_cache=cache)
    cli.predicted_complexity(IDENTIFY_MEANS, IDENTIFY_DELTA, 65, TILT)
    race_env = environments.bernoulli_environment(environments.parametric_means(200, 1.0))
    cli.ucb_race(race_env, cli.BoundScheme("kl", TILT, 0.01), 2000, 400, 5,
                 np.random.default_rng(seed))
    cli.coverage_rates(scheme, 0.5, ENVELOPE_T_MAX, 256, seed)
