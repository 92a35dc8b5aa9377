"""One lilklucb invocation in a fresh interpreter, timed from the outside.

Usage: python3 perfbench/runner.py '<json spec>'

The spec gives the checkout root, the ``lilklucb`` argument list, the
workload kind and whether to trace.  The last line of standard output is one
JSON object with the timings, the pulls read back from the output, the output
digest and any validation failures.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

def _kl(p: float, q: float) -> float:
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def _bisect(p: float, budget: float) -> float:
    lo, hi = p, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _kl(p, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def spin_ms() -> float:
    """Fixed pure-Python work: an integer loop, then cached float bisections.

    These are the two kinds of interpreter work lilklucb's layers do; the
    spin's time moves with the host, never with lilklucb.  On a shared host
    the bisection half tracked the identify and coverage slowdowns best and
    the integer half the race's, so both are timed together.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    cache = {}
    for i in range(1500):
        key = (0.1 + 0.8 * (i * 7919 % 1000) / 1000.0, i % 50)
        if key not in cache:
            cache[key] = _bisect(key[0], 0.01 + 0.001 * key[1])
    return (time.perf_counter() - start) * 1e3


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)  # reaped pool workers
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _validate(kind, outputs, delta) -> tuple[int, list[str]]:
    """Checks that hold for any random stream; returns (pulls, failures)."""
    failures = []
    pulls = 0
    for out in outputs:
        meta = out.metadata
        if kind == "race":
            n, every, budget = meta["n"], meta["snapshot_every"], meta["budget"]
            samples = [row[0] for row in out.rows]
            grid = list(range(n, budget, every)) + [budget]
            if samples != grid:
                failures.append(f"{meta['scheme']}: snapshot grid differs from n + k*{every}")
            if not all(0.0 <= row[1] <= 1.0 for row in out.rows):
                failures.append(f"{meta['scheme']}: membership outside [0, 1]")
            pulls += meta["repetitions"] * budget
        elif kind == "identify":
            reps = meta["repetitions"]
            sigma = math.sqrt(2 * delta * (1 - 2 * delta) / reps)
            if meta["error_rate"] > 2 * delta + 3 * sigma:
                failures.append(f"error_rate {meta['error_rate']} > 2*delta + 3*sigma")
            if meta["stopped_fraction"] != 1.0:
                failures.append(f"stopped_fraction {meta['stopped_fraction']} != 1")
            total = meta["mean_total_samples"]
            if not math.isclose(math.fsum(row[1] for row in out.rows), total, rel_tol=1e-9):
                failures.append("per-arm mean_pulls do not sum to mean_total_samples")
            pulls += round(reps * total)
        else:
            trajectories = meta["trajectories"]
            limit = delta + 3 * math.sqrt(delta * (1 - delta) / trajectories)
            for event in ("true_mean_below_lower", "true_mean_above_upper"):
                if meta[event] > limit:
                    failures.append(f"{event} {meta[event]} > delta + 3*sigma")
            pulls += trajectories * meta["t_max"]
    return pulls, failures


def main() -> int:
    spin_before = spin_ms()
    start = time.perf_counter()
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    from lilklucb import bandit, cli, confidence, data_ingest, environments

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"lilklucb imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, wrap_points

        tracer = Tracer()
        tracer.install(wrap_points(cli, bandit, confidence, environments))

    config = cli.build_config(spec["argv"])
    cli.BoundScheme(config.schemes[0], config.tilt, config.delta)
    if config.command != "coverage":
        environments.bernoulli_environment(
            config.means or environments.parametric_means(config.n, config.alpha))
    setup_s = time.perf_counter() - start

    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    paths = cli.run(config)
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spin = (spin_before + spin_ms()) / 2

    paths = sorted(paths)
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    outputs = [data_ingest.read_output(path) for path in paths]
    pulls, failures = _validate(spec["kind"], outputs, config.delta)

    import numpy

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "pulls": pulls,
        "spin_ms": spin,
        "digest": digest.hexdigest(),
        "bytes_written": sum(os.path.getsize(p) for p in paths),
        "failures": failures,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        from probe import companion, kernel_probe
        from tracer import layer_metrics

        tracer.dump(spec["spans_path"])
        layers = layer_metrics(tracer.spans)
        tracer.reset()
        companion(cli, config.seed)
        tracer.uninstall()
        fallback = layer_metrics(tracer.spans)
        result["filled"] = sorted(k for k, (v, _) in layers.items() if v is None)
        layers = {k: (fallback[k] if v is None else (v, unit)) for k, (v, unit) in layers.items()}
        layers["data_ingest.bytes_written"] = (result["bytes_written"], "bytes")
        layers.update(kernel_probe(config.seed, Path(spec["workdir"])))
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
