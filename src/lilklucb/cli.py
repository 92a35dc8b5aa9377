"""Experiment command line: emits plot-ready tables, never plots.

Subcommands: simulate | replay | identify | table1 | coverage.  Every
command is deterministic given --seed, read modulo 2**64: a repetition r of
simulate, replay or identify draws from its own Mersenne Twister
(``environments.Draws``) seeded with seed XOR splitmix64(r), and coverage
takes each uniform from splitmix64 at a counter of its own (the counter law
is in ``coverage``); --parallel only changes wall time.
Exit codes: 0 success, 1 configuration error (flags, config file, or the
contest CSV's contents), 2 I/O error, 3 internal error (with a traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import InputError, load_numpy
from .bandit import _check_complexity, _check_identify, _check_race, hardness_sums
from .bandit import GRID_POINTS, lil_klucb, predicted_complexity, ucb_race
from .confidence import BoundScheme, _check_coverage, coverage_envelope, integer_exit_curves
from .coverage import _MASK64, _check_counters, exit_rates, splitmix64
from .data_ingest import ExperimentOutput, _check_format, parse_contest_csv, write_output
from .environments import Draws, bernoulli_environment, from_contest, gap_family, parametric_means


class ConfigError(ValueError):
    """Invalid configuration; mapped to exit code 1."""


def derive_seed(base: int, rep: int) -> int:
    return (base & _MASK64) ^ splitmix64(rep)


class RunConfig(NamedTuple):
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
    means: tuple[float, ...] | None

    @property
    def n(self) -> int:
        return self.n_values[0]

    @property
    def alpha(self) -> float:
        return self.alpha_values[0]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 on flag errors, not argparse's 2
        raise ConfigError(message)


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _convert(value, kind, key: str):
    """``value`` as ``kind``, strictly; anything else is a ConfigError naming ``key``.

    A scalar kind is int (a count), float or str: an integral float passes as
    an int and an int as a float, and any other type, a bool too, fails.  A
    list kind [k] takes a comma-separated string (each part read by k), a
    JSON list or one value, and gives a non-empty tuple of k.
    """
    if isinstance(kind, list):
        (item,) = kind
        if isinstance(value, str):
            try:
                value = [item(part.strip()) for part in value.split(",")]
            except ValueError:
                raise ConfigError(f"{key} must be comma-separated values, each "
                                  f"{_KIND_NAMES[item]}, got {value!r}") from None
        elif not isinstance(value, list):
            value = [value]
        if not value:
            raise ConfigError(f"{key} must list at least one value")
        return tuple(_convert(v, item, key) for v in value)
    if kind is int and type(value) is float and value.is_integer():
        value = int(value)
    elif kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{key} is out of range, got {value!r}") from None
    if type(value) is not kind:
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


# Each setting: its default, the kind its value must have (from a flag or
# the --config file; see _convert) and the help of its flag --key (None: set
# only in the --config file).  A None default may stay None.
SETTINGS = {
    "scheme": ("kl", [str], "comma-separated bound schemes: kl,kl-prime,sg1,sg2"),
    "n": ("100", [int], "number of arms (comma-separated list for table1)"),
    "alpha": ("1.0", [float], "gap exponent (comma-separated list for table1)"),
    "budget": (None, int, "total sampling budget"),
    "reps": (250, int, "repetitions / trajectories"),
    "delta": (0.01, float, "confidence level in (0,1)"),
    "bound_n": (8, int, "tilt parameter of the confidence sequences (power of two)"),
    "k": (5, int, "top-k membership target"),
    "seed": (0, int, "base seed"),
    "parallel": (1, int, "worker processes for repetitions"),
    "input": (None, str, "input CSV path (replay)"),
    "output": (None, str, "output file path"),
    "format": ("csv", str, "output format: csv or json"),
    "mu": (0.5, float, "true Bernoulli mean of the simulated stream"),
    "t_max": (10000, int, "trajectory length"),
    "means": (None, [float], None),
}


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
        for key, (_, kind, flag_help) in SETTINGS.items():
            if flag_help is not None and (name == "coverage" or key not in ("mu", "t_max")):
                # argparse reads a scalar; a list's text goes to _convert whole
                p.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS,
                               type=None if isinstance(kind, list) else kind, help=flag_help)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="JSON file overriding flag defaults")
    return parser


def build_config(argv=None) -> RunConfig:
    """Flags over the --config file over the defaults, each value converted, then validated."""
    args = _build_parser().parse_args(argv)
    raw = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except ValueError as e:  # not UTF-8, or not JSON
            raise ConfigError(f"invalid JSON in {config_path}: {e}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{config_path} must hold a JSON object")
        unknown = set(raw) - set(SETTINGS)
        if unknown:
            raise ConfigError(f"{config_path}: unknown config keys: {', '.join(sorted(unknown))}")
    raw.update((key, value) for key, value in vars(args).items()
               if key not in ("command", "config"))

    values = {}
    for key, (default, kind, _) in SETTINGS.items():
        value = raw.get(key, default)
        values[key] = None if value is None and default is None else _convert(value, kind, key)

    values["seed"] &= _MASK64  # a seed is read modulo 2**64, as derive_seed reads it
    config = RunConfig(
        command=args.command,
        schemes=values.pop("scheme"),
        n_values=values.pop("n"),
        alpha_values=values.pop("alpha"),
        tilt=values.pop("bound_n"),
        **values,
    )
    validate_config(config)
    return config


@contextmanager
def _flags(names: str):
    """Report a library rule's ``InputError`` as a ConfigError naming the flags it read."""
    try:
        yield
    except InputError as exc:
        raise ConfigError(f"{names}: {exc}") from None


def _instance_flags(config: RunConfig) -> str:
    """The flags that set a simulate or identify instance."""
    return "means" if config.means is not None else "--n, --alpha"


def validate_config(config: RunConfig) -> None:
    """Reject invalid parameters before any computation starts.

    A command checks only the inputs it reads; a library rule, by calling its
    owner's check, with ``_flags`` naming the flags behind it.  ``coverage``
    and ``table1``, the two commands that compute on arrays, load numpy here,
    while being configured; the other three never load it.
    """
    if config.reps < 1:
        raise ConfigError("--reps must be >= 1")
    if config.parallel < 1:
        raise ConfigError("--parallel must be >= 1")
    with _flags("--format"):
        _check_format(config.format)
    if config.output is None:
        raise ConfigError("--output is required")

    cmd = config.command
    if cmd != "table1":
        with _flags("--scheme, --bound-n, --delta"):
            for kind in config.schemes:
                BoundScheme(kind, config.tilt, config.delta)
    if cmd in ("simulate", "replay"):
        if len(config.schemes) != len(set(config.schemes)):
            raise ConfigError("--scheme: duplicate schemes requested")
        if config.budget is None:
            raise ConfigError(f"{cmd} requires --budget")
    if cmd == "replay" and config.input is None:
        raise ConfigError("replay requires --input")
    if cmd in ("table1", "coverage") and config.parallel > 1:
        raise ConfigError(f"{cmd} runs in one process; --parallel must be 1")
    if cmd in ("identify", "coverage") and len(config.schemes) != 1:
        raise ConfigError(f"{cmd} takes a single --scheme")
    if cmd in ("simulate", "identify"):
        if len(config.n_values) != 1 or len(config.alpha_values) != 1:
            raise ConfigError(f"{cmd} takes a single --n and --alpha")
        instance = _instance_flags(config)
        with _flags(instance):
            env = _config_environment(config)
        if cmd == "simulate":
            _race_cadence(config, env.n_arms)
        else:
            with _flags(f"{instance}, --budget"):
                _check_identify(env.n_arms, config.budget)
            with _flags(f"{instance}, --delta, --bound-n"):
                _check_complexity(env.true_means, config.delta, GRID_POINTS, config.tilt)
    if cmd == "table1":
        if len(config.n_values) < 4:
            raise ConfigError("table1 needs at least 4 values of --n to fit slopes")
        if any(n < 3 for n in config.n_values):
            raise ConfigError("table1 --n values must be >= 3: at n = 2 the KL hardness sum is 0")
        for flag, values in (("--n", config.n_values), ("--alpha", config.alpha_values)):
            if len(set(values)) != len(values):  # a repeated point would skew the slope fits
                raise ConfigError(f"table1 {flag} values must be distinct")
        with _flags("--n, --alpha"):
            for n in config.n_values:
                for alpha in config.alpha_values:
                    gap_family(n, alpha)
    if cmd in ("coverage", "table1"):
        load_numpy()
    if cmd == "coverage":
        with _flags("--mu, --t-max"):
            _check_coverage(config.mu, config.t_max)
        with _flags("--reps, --t-max"):
            _check_counters(config.reps, config.t_max)


def _run_block(loop: str, args: tuple, seeds) -> list:
    """Records of ``loop(*args, rng)`` for each seed in order, with one bound cache.

    ``loop`` names ``ucb_race`` or ``lil_klucb`` and is looked up in this
    module when the block runs, so a wrapper installed there is called; a
    wrapper may be a closure, which could not be pickled to a worker.
    """
    run = globals()[loop]
    bound_cache = {}
    return [run(*args, Draws(seed), bound_cache=bound_cache) for seed in seeds]


def _repetitions(config: RunConfig, loop: str, *args) -> list:
    """The records of ``config.reps`` repetitions of ``loop``, in repetition order.

    Repetition r draws from its own ``Draws`` seeded with derive_seed(seed, r).
    The seeds are split into contiguous blocks of ceil(reps / parallel), run
    by at most os.cpu_count() worker processes at once; a single block runs
    in this process.  Each block owns a fresh bound cache.  A bound is
    pure in its key, so a cache changes no value, and no record depends on
    how the repetitions are split.
    """
    seeds = [derive_seed(config.seed, r) for r in range(config.reps)]
    size = -(-config.reps // config.parallel)
    blocks = [seeds[i:i + size] for i in range(0, config.reps, size)]
    if len(blocks) == 1:
        return _run_block(loop, args, seeds)
    from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it
    with ProcessPoolExecutor(max_workers=min(len(blocks), os.cpu_count() or 1)) as pool:
        done = pool.map(partial(_run_block, loop, args), blocks)
        return [record for block in done for record in block]


def _race_cadence(config: RunConfig, n_arms: int) -> int:
    """A race's snapshot_every, 2 * n_arms, once ucb_race's check passes its flags."""
    snapshot_every = 2 * n_arms
    with _flags("--budget, --k"):
        _check_race(n_arms, config.budget, snapshot_every, config.k)
    return snapshot_every


def _race_experiment(env, kind: str, config: RunConfig, extra_meta: dict) -> ExperimentOutput:
    scheme = BoundScheme(kind, config.tilt, config.delta)
    snapshot_every = _race_cadence(config, env.n_arms)
    records = _repetitions(config, "ucb_race", env, scheme, config.budget, snapshot_every,
                           config.k)
    counts = [c for c, _ in records[0].snapshots]
    # each snapshot's share of repetitions with the flag set: an exact count over reps
    hits = [sum(flags) for flags in zip(*([flag for _, flag in rec.snapshots] for rec in records))]
    rows = tuple((c, hit / config.reps) for c, hit in zip(counts, hits))
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
    """The environment of simulate/identify: the config's means, or the --n/--alpha family."""
    if config.means is not None:
        return bernoulli_environment(config.means)
    return bernoulli_environment(parametric_means(config.n, config.alpha))


def cmd_simulate(config: RunConfig) -> dict[str, ExperimentOutput]:
    """UCB race on the parametric instance; one membership curve per scheme."""
    env = _config_environment(config)
    instance = {"alpha": config.alpha} if config.means is None else {"means": list(env.true_means)}
    extra = {"n": env.n_arms, **instance}
    return {kind: _race_experiment(env, kind, config, extra) for kind in config.schemes}


def cmd_replay(config: RunConfig) -> dict[str, ExperimentOutput]:
    """UCB race on bootstrap replay of contest votes; one curve per scheme."""
    try:
        dataset = parse_contest_csv(config.input)
        env = from_contest(dataset)
    except (InputError, csv.Error) as exc:  # the file's contents, not an I/O failure
        raise ConfigError(f"contest data: {exc}") from None
    extra = {
        "n": env.n_arms,
        "contest_id": dataset.contest_id,
        "top_mean": env.true_means[0],
    }
    return {kind: _race_experiment(env, kind, config, extra) for kind in config.schemes}


# Predicted pulls per repetition past which an uncapped ``identify`` says so on stderr.
LONG_RUN_PULLS = 1e7


def cmd_identify(config: RunConfig) -> ExperimentOutput:
    """Repeated adaptive identification; error rate, sample costs, predicted bound."""
    env = _config_environment(config)
    scheme = BoundScheme(config.schemes[0], config.tilt, config.delta)
    # a top gap below the divergence's rounding is known only once the witness is found
    with _flags(_instance_flags(config)):
        predicted = predicted_complexity(env.true_means, config.delta, GRID_POINTS, config.tilt)
    if config.budget is None and predicted.total > LONG_RUN_PULLS:
        print(f"lilklucb: identify predicts {predicted.total:.2g} pulls per repetition, up to "
              "a constant, and no --budget caps them; set --budget to bound each run",
              file=sys.stderr)
    records = _repetitions(config, "lil_klucb", env, scheme, config.budget)
    # exact integer sums over their count, each rounded once, as np.mean and
    # np.median round them: the median is the mean of the middle one or two
    totals = sorted(rec.total_samples for rec in records)
    mean_total = sum(totals) / config.reps
    median_total = (totals[(config.reps - 1) // 2] + totals[config.reps // 2]) / 2
    errors = sum(1 for rec in records if rec.recommended != 0)
    metadata = {
        "command": "identify",
        "scheme": scheme.kind,
        "bound_n": config.tilt,
        "delta": config.delta,
        "n": env.n_arms,
        "means": list(env.true_means),
        "budget": config.budget,
        "repetitions": config.reps,
        "seed": config.seed,
        "error_rate": errors / config.reps,
        "stopped_fraction": sum(rec.stopped for rec in records) / config.reps,
        "mean_total_samples": mean_total,
        "median_total_samples": median_total,
        "predicted_total": predicted.total,
        "predicted_witness": predicted.witness,
        "predicted_crossings": list(predicted.crossing_indices),
        "predicted_best_arm_crossing": predicted.best_arm_crossing,
        "empirical_over_predicted": mean_total / predicted.total,
    }
    arm_pulls = zip(*(rec.per_arm_pulls for rec in records))
    rows = tuple((arm, sum(pulls) / config.reps) for arm, pulls in enumerate(arm_pulls))
    return ExperimentOutput(metadata, ("arm", "mean_pulls"), rows)


def _loglog_slope(xs, ys) -> float:
    np = load_numpy()
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
) -> dict[str, float]:
    """Monte-Carlo anytime miss rates of [lower_bound, upper_bound] around mu.

    Simulates iid Bernoulli(mu) streams (``coverage.exit_rates``) and counts
    those whose running sum ever crosses the exit curves of
    ``coverage_envelope`` within t_max samples, which is exactly the event
    that mu leaves the interval.  The sums are compared with
    ``integer_exit_curves``, so the test is exact; an infinite sub-Gaussian
    radius (its budget's log overflows at a tiny delta) is never crossed.
    """
    np = load_numpy()
    _check_counters(trajectories, t_max)
    low, high = coverage_envelope(scheme, mu, t_max)
    if np.isnan(low).any() or np.isnan(high).any():
        raise RuntimeError(f"coverage envelope of {scheme.kind} at mu={mu} is NaN")
    return exit_rates(mu, *integer_exit_curves(low, high), trajectories, seed)


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
    if config.command == "simulate":
        outputs = cmd_simulate(config)
    elif config.command == "replay":
        outputs = cmd_replay(config)
    else:
        cmd = {"identify": cmd_identify, "table1": cmd_table1, "coverage": cmd_coverage}
        outputs = {config.command: cmd[config.command](config)}
    written = []
    for kind, out in outputs.items():
        path = _output_path(config.output, kind, len(outputs) > 1)
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
        import traceback  # only a fault pays for its import

        traceback.print_exc()
        print("lilklucb: internal error", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
