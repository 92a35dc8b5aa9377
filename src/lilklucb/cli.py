"""Experiment command line: emits plot-ready tables, never plots.

Subcommands: simulate | replay | identify | table1 | coverage.  Every
command is deterministic given --seed (repetition r gets its own generator
seeded with seed XOR splitmix64(r)); --parallel only changes wall time.
Exit codes: 0 success, 1 configuration error (flags, config file, or the
contest CSV's contents), 2 I/O error, 3 internal error (with a traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bandit import hardness_sums, lil_klucb, predicted_complexity, ucb_race
from .confidence import KL_PRIME, SCHEME_KINDS, BoundScheme, coverage_envelope
from .data_ingest import ExperimentOutput, parse_contest_csv, write_output
from .environments import bernoulli_environment, from_contest, parametric_means

SEED_ENV_VAR = "LILKLUCB_SEED"

_MASK64 = (1 << 64) - 1

DEFAULTS = {
    "scheme": "kl",
    "n": "100",
    "alpha": "1.0",
    "budget": None,
    "reps": 250,
    "delta": 0.01,
    "bound_n": 8,
    "k": 5,
    "seed": None,
    "parallel": 1,
    "input": None,
    "output": None,
    "format": "csv",
    "mu": 0.5,
    "t_max": 10000,
    "snapshot_every": None,
    "means": None,
    "grid_points": 65,
}


class ConfigError(ValueError):
    """Invalid configuration; mapped to exit code 1."""


def splitmix64(x: int) -> int:
    """One splitmix64 step; used to derive independent per-repetition seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base: int, rep: int) -> int:
    return (base & _MASK64) ^ splitmix64(rep)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters for one command invocation."""

    command: str
    schemes: tuple[str, ...]
    n_values: tuple[int, ...]
    alpha_values: tuple[float, ...]
    budget: int | None
    reps: int
    delta: float
    tilt: int
    k: int
    seed: int
    parallel: int
    input: str | None
    output: str | None
    format: str
    mu: float
    t_max: int
    snapshot_every: int | None
    means: tuple[float, ...] | None
    grid_points: int

    @property
    def n(self) -> int:
        return self.n_values[0]

    @property
    def alpha(self) -> float:
        return self.alpha_values[0]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 on flag errors, not argparse's 2
        raise ConfigError(message)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    s = argparse.SUPPRESS
    p.add_argument("--scheme", default=s, help="comma-separated bound schemes: kl,kl-prime,sg1,sg2")
    p.add_argument("--n", default=s, help="number of arms (comma-separated list for table1)")
    p.add_argument("--alpha", default=s, help="gap exponent (comma-separated list for table1)")
    p.add_argument("--budget", type=int, default=s, help="total sampling budget")
    p.add_argument("--reps", type=int, default=s, help="repetitions / trajectories")
    p.add_argument("--delta", type=float, default=s, help="confidence level in (0,1)")
    p.add_argument("--bound-n", dest="bound_n", type=int, default=s,
                   help="tilt parameter of the confidence sequences (power of two)")
    p.add_argument("--k", type=int, default=s, help="top-k membership target")
    p.add_argument("--seed", type=int, default=s, help=f"base seed (falls back to ${SEED_ENV_VAR})")
    p.add_argument("--parallel", type=int, default=s, help="worker processes for repetitions")
    p.add_argument("--input", default=s, help="input CSV path (replay)")
    p.add_argument("--output", default=s, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default=s, help="output format")
    p.add_argument("--config", default=s, help="JSON file overriding flag defaults")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lilklucb", description="Best-arm identification experiments")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    descriptions = {
        "simulate": "UCB race on a parametric Bernoulli instance; one output per scheme",
        "replay": "UCB race on bootstrapped contest vote data; one output per scheme",
        "identify": "adaptive identification runs with the stopping rule",
        "table1": "hardness sums and their growth slopes over an (n, alpha) grid",
        "coverage": "Monte-Carlo anytime coverage of one confidence sequence",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, description=desc)
        _add_common_flags(p)
        if name == "coverage":
            p.add_argument("--mu", type=float, default=argparse.SUPPRESS,
                           help="true Bernoulli mean of the simulated stream")
            p.add_argument("--t-max", dest="t_max", type=int, default=argparse.SUPPRESS,
                           help="trajectory length")
    return parser


def _parse_int_list(value, flag: str) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    try:
        return tuple(int(part) for part in str(value).split(","))
    except ValueError:
        raise ConfigError(f"{flag} must be an integer or comma-separated integers") from None


def _parse_float_list(value, flag: str) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    try:
        return tuple(float(part) for part in str(value).split(","))
    except ValueError:
        raise ConfigError(f"{flag} must be a number or comma-separated numbers") from None


def build_config(argv=None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    raw = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON in {config_path}: {e}") from None
        if not isinstance(overrides, dict):
            raise ConfigError(f"{config_path} must hold a JSON object")
        unknown = set(overrides) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        raw.update(overrides)
    for key, value in vars(args).items():
        if key not in ("command", "config"):
            raw[key] = value

    seed = raw["seed"]
    if seed is None:
        env_seed = os.environ.get(SEED_ENV_VAR)
        try:
            seed = int(env_seed) if env_seed is not None else 0
        except ValueError:
            raise ConfigError(f"${SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None

    schemes = raw["scheme"]
    if isinstance(schemes, str):
        schemes = tuple(s.strip() for s in schemes.split(","))
    else:
        schemes = tuple(schemes)
    means = raw["means"]
    try:
        config = RunConfig(
            command=args.command,
            schemes=schemes,
            n_values=_parse_int_list(raw["n"], "--n"),
            alpha_values=_parse_float_list(raw["alpha"], "--alpha"),
            budget=raw["budget"],
            reps=int(raw["reps"]),
            delta=float(raw["delta"]),
            tilt=int(raw["bound_n"]),
            k=int(raw["k"]),
            seed=int(seed),
            parallel=int(raw["parallel"]),
            input=raw["input"],
            output=raw["output"],
            format=raw["format"],
            mu=float(raw["mu"]),
            t_max=int(raw["t_max"]),
            snapshot_every=raw["snapshot_every"],
            means=tuple(float(m) for m in means) if means is not None else None,
            grid_points=int(raw["grid_points"]),
        )
        validate_config(config)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # a config-file value of the wrong type
        raise ConfigError(f"invalid configuration value: {exc}") from None
    return config


def validate_config(config: RunConfig) -> None:
    """Reject invalid parameters before any computation starts."""
    bad = [s for s in config.schemes if s not in SCHEME_KINDS]
    if bad or not config.schemes:
        raise ConfigError(f"unknown scheme(s) {bad}; choose from {', '.join(SCHEME_KINDS)}")
    if not 0.0 < config.delta < 1.0:
        raise ConfigError(f"--delta must lie in (0, 1), got {config.delta}")
    if config.tilt < 1 or config.tilt & (config.tilt - 1):
        raise ConfigError(f"--bound-n must be a power of two >= 1, got {config.tilt}")
    if KL_PRIME in config.schemes and config.tilt <= math.e:
        raise ConfigError(f"{KL_PRIME} requires --bound-n > e (use >= 4), got {config.tilt}")
    if config.reps < 1:
        raise ConfigError("--reps must be >= 1")
    if config.parallel < 1:
        raise ConfigError("--parallel must be >= 1")
    if config.format not in ("csv", "json"):
        raise ConfigError(f"--format must be csv or json, got {config.format}")
    if config.output is None:
        raise ConfigError("--output is required")
    if config.snapshot_every is not None and config.snapshot_every < 1:
        raise ConfigError("snapshot_every must be >= 1")
    if any(a <= 0 for a in config.alpha_values):
        raise ConfigError("--alpha values must be positive")

    cmd = config.command
    if cmd in ("simulate", "identify"):
        if len(config.n_values) != 1 or len(config.alpha_values) != 1:
            raise ConfigError(f"{cmd} takes a single --n and --alpha")
        if config.means is None and config.n < 2:
            raise ConfigError("--n must be >= 2")
    if cmd in ("simulate", "replay"):
        if len(config.schemes) != len(set(config.schemes)):
            raise ConfigError("duplicate schemes requested")
        if config.budget is None:
            raise ConfigError(f"{cmd} requires --budget")
        if config.k < 1:
            raise ConfigError("--k must be >= 1")
    if cmd == "replay" and config.input is None:
        raise ConfigError("replay requires --input")
    if cmd == "identify":
        if config.means is not None and len(config.means) < 2:
            raise ConfigError("means must list at least 2 arms")
        if config.grid_points < 3:
            raise ConfigError("grid_points must be >= 3")
    if cmd in ("identify", "coverage") and len(config.schemes) != 1:
        raise ConfigError(f"{cmd} takes a single --scheme")
    if cmd == "table1":
        if len(config.n_values) < 4:
            raise ConfigError("table1 needs at least 4 values of --n to fit slopes")
        if any(n < 2 for n in config.n_values):
            raise ConfigError("--n values must be >= 2")
    if cmd == "coverage":
        if not 0.0 <= config.mu <= 1.0:
            raise ConfigError(f"--mu must lie in [0, 1], got {config.mu}")
        if config.t_max < 1:
            raise ConfigError("--t-max must be >= 1")


# Bound tables of the process running repetitions (see _map_tasks).
_bound_cache: dict = {}


def _reset_bound_cache() -> None:
    global _bound_cache
    _bound_cache = {}


def _run_task(task):
    """Run one repetition with this process's bound cache.

    A task ("race", env, scheme, budget, snapshot_every, k, seed) returns the
    race's snapshots; ("identify", env, scheme, budget, seed) returns the
    identification run's record.
    """
    loop, *args, rep_seed = task
    rng = np.random.default_rng(rep_seed)
    if loop == "race":
        return ucb_race(*args, rng, seed=rep_seed, bound_cache=_bound_cache).snapshots
    return lil_klucb(*args, rng, seed=rep_seed, bound_cache=_bound_cache)


def _map_tasks(tasks, parallel: int):
    """Run tasks in repetition order, optionally across processes.

    Every process running tasks starts one fresh bound cache, shared by the
    tasks it runs: the pool initializer gives each worker its own.
    """
    if parallel > 1:
        chunk = max(1, len(tasks) // (parallel * 4))
        with ProcessPoolExecutor(max_workers=parallel, initializer=_reset_bound_cache) as pool:
            return list(pool.map(_run_task, tasks, chunksize=chunk))
    _reset_bound_cache()
    return [_run_task(task) for task in tasks]


def _race_experiment(env, kind: str, config: RunConfig, extra_meta: dict) -> ExperimentOutput:
    scheme = BoundScheme(kind, config.tilt, config.delta)
    snapshot_every = config.snapshot_every or 2 * env.n_arms
    if config.budget < env.n_arms:
        raise ConfigError(f"--budget must be >= the number of arms ({env.n_arms})")
    if config.k > env.n_arms:
        raise ConfigError(f"--k must be <= the number of arms ({env.n_arms})")
    tasks = [
        ("race", env, scheme, config.budget, snapshot_every, config.k,
         derive_seed(config.seed, r))
        for r in range(config.reps)
    ]
    all_snapshots = _map_tasks(tasks, config.parallel)
    counts = [c for c, _ in all_snapshots[0]]
    flags = np.array([[flag for _, flag in snaps] for snaps in all_snapshots], dtype=float)
    probs = flags.mean(axis=0)
    rows = tuple((int(c), float(p)) for c, p in zip(counts, probs))
    metadata = {
        "command": config.command,
        "scheme": kind,
        "bound_n": config.tilt,
        "delta": config.delta,
        "k": config.k,
        "budget": config.budget,
        "snapshot_every": snapshot_every,
        "repetitions": config.reps,
        "seed": config.seed,
        **extra_meta,
    }
    return ExperimentOutput(metadata, ("samples", "membership_probability"), rows)


def _config_environment(config: RunConfig):
    """(means, environment) of simulate/identify; bad config means are a ConfigError."""
    means = config.means or parametric_means(config.n, config.alpha)
    try:
        return means, bernoulli_environment(means, seed=config.seed)
    except ValueError as exc:
        raise ConfigError(f"means: {exc}") from None


def cmd_simulate(config: RunConfig) -> dict[str, ExperimentOutput]:
    """UCB race on the parametric instance; one membership curve per scheme."""
    _, env = _config_environment(config)
    extra = {"n": env.n_arms, "alpha": config.alpha}
    return {kind: _race_experiment(env, kind, config, extra) for kind in config.schemes}


def cmd_replay(config: RunConfig) -> dict[str, ExperimentOutput]:
    """UCB race on bootstrap replay of contest votes; one curve per scheme."""
    try:
        dataset = parse_contest_csv(config.input)
        env = from_contest(dataset, seed=config.seed)
    except (ValueError, csv.Error) as exc:  # the file's contents, not an I/O failure
        raise ConfigError(f"contest data: {exc}") from None
    extra = {
        "n": env.n_arms,
        "contest_id": dataset.contest_id,
        "top_mean": env.true_means[0],
    }
    return {kind: _race_experiment(env, kind, config, extra) for kind in config.schemes}


def cmd_identify(config: RunConfig) -> ExperimentOutput:
    """Repeated adaptive identification; error rate, sample costs, predicted bound."""
    means, env = _config_environment(config)
    scheme = BoundScheme(config.schemes[0], config.tilt, config.delta)
    if config.budget is not None and config.budget < env.n_arms:
        raise ConfigError(f"--budget must be >= the number of arms ({env.n_arms})")
    tasks = [
        ("identify", env, scheme, config.budget, derive_seed(config.seed, r))
        for r in range(config.reps)
    ]
    records = _map_tasks(tasks, config.parallel)
    totals = [rec.total_samples for rec in records]
    errors = sum(1 for rec in records if rec.recommended != 0)
    pulls = np.array([rec.per_arm_pulls for rec in records], dtype=float)
    predicted = predicted_complexity(means, config.delta, config.grid_points, config.tilt)
    metadata = {
        "command": "identify",
        "scheme": scheme.kind,
        "bound_n": config.tilt,
        "delta": config.delta,
        "n": env.n_arms,
        "means": list(means),
        "budget": config.budget,
        "repetitions": config.reps,
        "seed": config.seed,
        "error_rate": errors / config.reps,
        "stopped_fraction": sum(rec.stopped for rec in records) / config.reps,
        "mean_total_samples": float(np.mean(totals)),
        "median_total_samples": float(statistics.median(totals)),
        "predicted_total": predicted.total,
        "predicted_witness": predicted.witness_mus[0],
        "predicted_crossings": list(predicted.crossing_indices),
        "predicted_best_arm_crossing": predicted.best_arm_crossing,
        "empirical_over_predicted": float(np.mean(totals)) / predicted.total,
    }
    rows = tuple((arm, float(pulls[:, arm].mean())) for arm in range(env.n_arms))
    return ExperimentOutput(metadata, ("arm", "mean_pulls"), rows)


def _loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def cmd_table1(config: RunConfig) -> ExperimentOutput:
    """Hardness sums over an (n, alpha) grid, plus fitted log-log growth slopes."""
    ns = tuple(sorted(config.n_values))
    rows = []
    sums: dict[float, list[tuple[float, float]]] = {a: [] for a in config.alpha_values}
    for n in ns:
        for alpha in config.alpha_values:
            kl_sum, sg_sum = hardness_sums(n, alpha)
            rows.append((n, alpha, kl_sum, sg_sum))
            sums[alpha].append((kl_sum, sg_sum))
    slopes = {}
    for alpha in config.alpha_values:
        kl_vals = [s[0] for s in sums[alpha]]
        sg_vals = [s[1] for s in sums[alpha]]
        log_adjusted = [v / math.log(n) for v, n in zip(kl_vals, ns)]
        slopes[str(alpha)] = {
            "kl": _loglog_slope(ns, kl_vals),
            "sg": _loglog_slope(ns, sg_vals),
            "kl_over_logn": _loglog_slope(ns, log_adjusted),
            "kl_over_nlogn_spread": max(v / n for v, n in zip(log_adjusted, ns))
            / min(v / n for v, n in zip(log_adjusted, ns)),
        }
    metadata = {
        "command": "table1",
        "n_values": list(ns),
        "alpha_values": list(config.alpha_values),
        "slopes": slopes,
    }
    return ExperimentOutput(metadata, ("n", "alpha", "kl_sum", "sg_sum"), tuple(rows))


def coverage_rates(
    scheme: BoundScheme,
    mu: float,
    t_max: int,
    trajectories: int,
    seed: int,
    batch_size: int = 512,
) -> dict[str, float]:
    """Monte-Carlo anytime miss rates of [lower_bound, upper_bound] around mu.

    Simulates iid Bernoulli(mu) streams and counts trajectories whose
    empirical mean ever crosses the precomputed exit curves within t_max
    samples, which is exactly the event that mu leaves the interval.
    """
    low, high = coverage_envelope(scheme, mu, t_max)
    t = np.arange(1, t_max + 1, dtype=np.float64)
    low_sum = low * t
    high_sum = high * t
    rng = np.random.default_rng(seed)
    below = above = joint = 0
    remaining = trajectories
    while remaining > 0:
        b = min(batch_size, remaining)
        remaining -= b
        sums = np.cumsum(rng.binomial(1, mu, size=(b, t_max)), axis=1)
        hit_high = (sums > high_sum).any(axis=1)  # mu fell below its lower bound
        hit_low = (sums < low_sum).any(axis=1)    # mu rose above its upper bound
        below += int(hit_high.sum())
        above += int(hit_low.sum())
        joint += int((hit_high | hit_low).sum())
    return {
        "true_mean_below_lower": below / trajectories,
        "true_mean_above_upper": above / trajectories,
        "joint": joint / trajectories,
    }


def cmd_coverage(config: RunConfig) -> ExperimentOutput:
    """Monte-Carlo estimate of the anytime coverage guarantee."""
    scheme = BoundScheme(config.schemes[0], config.tilt, config.delta)
    rates = coverage_rates(scheme, config.mu, config.t_max, config.reps, config.seed)
    metadata = {
        "command": "coverage",
        "scheme": scheme.kind,
        "bound_n": config.tilt,
        "delta": config.delta,
        "mu": config.mu,
        "t_max": config.t_max,
        "trajectories": config.reps,
        "seed": config.seed,
        **rates,
    }
    rows = tuple(sorted((event, rate) for event, rate in rates.items()))
    return ExperimentOutput(metadata, ("event", "frequency"), rows)


def _output_path(base: str, kind: str, multiple: bool) -> Path:
    path = Path(base)
    if not multiple:
        return path
    return path.with_name(f"{path.stem}_{kind}{path.suffix}")


def run(config: RunConfig) -> list[Path]:
    """Execute one command and write its output file(s)."""
    written = []
    if config.command in ("simulate", "replay"):
        cmd = cmd_simulate if config.command == "simulate" else cmd_replay
        outputs = cmd(config)
        multiple = len(outputs) > 1
        for kind, out in outputs.items():
            path = _output_path(config.output, kind, multiple)
            write_output(out, path, config.format)
            written.append(path)
        return written
    if config.command == "identify":
        out = cmd_identify(config)
    elif config.command == "table1":
        out = cmd_table1(config)
    elif config.command == "coverage":
        out = cmd_coverage(config)
    else:  # pragma: no cover - argparse restricts the choices
        raise ConfigError(f"unknown command {config.command!r}")
    path = Path(config.output)
    write_output(out, path, config.format)
    written.append(path)
    return written


def main(argv=None) -> int:
    try:
        config = build_config(argv)
        paths = run(config)
    except ConfigError as exc:
        print(f"lilklucb: configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"lilklucb: i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # anything else is a fault of the program, not of its input
        traceback.print_exc()
        print("lilklucb: internal error", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
