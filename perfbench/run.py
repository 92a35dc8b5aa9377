"""Outside-in benchmark of the lilklucb command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured invocation is one ``lilklucb`` command (``cli.build_config`` and
``cli.run``) in a fresh interpreter (``runner.py``).  Invocations of one
workload repeat until ``--seconds`` have passed, cycling over the command-line
seeds derived from ``--seed``; the end-to-end metrics are their medians.
With ``--trace 1`` one more invocation runs with the tracer and the layer
probes, and the per-layer metrics are printed instead.  Every invocation's
output is validated and its digest compared with the others at the same
seed.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, cli_argv, cli_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INVOCATION_TIMEOUT_S = 150

# Times are reported in reference seconds: each invocation's times are scaled
# by REFERENCE_SPIN_MS over the time of runner.spin_ms() measured around it.
# On a shared host the same invocation ran 0.6-1.2 s within minutes, with CPU
# time tracking wall time, so raw times drift with the host far more than
# with lilklucb.  Raw medians are printed in the summary and reported by the
# traced run.
REFERENCE_SPIN_MS = 50.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "pulls_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def host_record() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "load_1m": os.getloadavg()[0],
    }


def invoke(spec: dict) -> tuple[dict | None, str]:
    """Run one invocation; returns (result, error message)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "runner.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # so a timeout can stop the pool workers too
    )
    try:
        out, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {INVOCATION_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {err.strip()[-2000:]}"
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"no result line: {out[-500:]!r}"
    if result["failures"]:
        return None, "; ".join(result["failures"])
    return result, ""


def end_to_end(results: list[dict], scaled: bool) -> dict[str, list[float]]:
    """Per-invocation end-to-end values, in reference seconds when ``scaled``."""
    scale = [REFERENCE_SPIN_MS / r["spin_ms"] if scaled else 1.0 for r in results]
    return {
        "wall_s": [r["wall_s"] * k for r, k in zip(results, scale)],
        "pulls_per_s": [r["pulls"] / (r["wall_s"] * k) for r, k in zip(results, scale)],
        "cpu_s": [r["cpu_s"] * k for r, k in zip(results, scale)],
        "setup_s": [r["setup_s"] * k for r, k in zip(results, scale)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the maximum."""
    ordered = sorted(values)
    for q in (99, 90, 75, 50):
        if len(ordered) * (100 - q) / 100 >= 10:
            return f"p{q}", ordered[math.ceil(len(ordered) * q / 100) - 1]
    return "max", ordered[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lilklucb" / "cli.py").is_file():
        print(f"run.py: no lilklucb source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = ROOT / ".perfbench_run"
    workdir = run_dir / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(workload, args, run_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args, run_dir: Path, workdir: Path) -> int:
    host = host_record()
    seeds = cli_seeds(args.seed)
    specs = [
        {"root": str(ROOT), "kind": workload.kind, "trace": False, "workdir": str(workdir),
         "argv": cli_argv(workload, seed, workdir)}
        for seed in seeds
    ]

    results, errors = [], []
    digests = [set() for _ in specs]
    attempted = 0
    start = time.perf_counter()
    # every seed runs at least once and the first one twice, so determinism is
    # always checked; seeds that come round again within the time are checked too
    while attempted <= len(specs) or time.perf_counter() - start < args.seconds:
        result, error = invoke(specs[attempted % len(specs)])
        if result is None:
            errors.append(error)
        else:
            results.append(dict(result, seed_index=attempted % len(specs)))
            digests[attempted % len(specs)].add(result["digest"])
        attempted += 1
    if any(len(d) > 1 for d in digests):
        errors.append("different output digests from one commit and seed")

    traced = None
    if args.trace:
        spans_path = run_dir / f"spans-{workload.name}-s{args.seed}.jsonl"
        traced, error = invoke(dict(specs[0], trace=True, spans_path=str(spans_path)))
        attempted += 1
        if traced is None:
            errors.append(f"traced: {error}")
        elif traced["digest"] not in digests[0]:
            errors.append("traced output differs from untraced output")
    host["load_1m_end"] = os.getloadavg()[0]

    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    if not results or (args.trace and traced is None):
        return 1

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in bench["workloads"] if w["name"] == workload.name)
    spins = [r["spin_ms"] for r in results]
    print(f"workload {workload.name}: {why}")
    print(f"host: {json.dumps(host)} numpy {results[0]['numpy']} "
          f"spin_ms median {statistics.median(spins):.2f} (reference {REFERENCE_SPIN_MS})")
    print(f"command-line seeds {seeds}  invocations {len(results)}  "
          f"failed_frac {len(errors) / attempted:.4f} ({len(errors)}/{attempted})")
    per_run = end_to_end(results, scaled=True)
    raw = end_to_end(results, scaled=False)
    for name, values in per_run.items():
        label, high = high_percentile(values)
        unit = END_TO_END_UNITS[name]
        print(f"  {name:<12} median {statistics.median(values):<12.6g} {label} {high:<12.6g} "
              f"{unit:<4} n={len(values)}   raw median {statistics.median(raw[name]):.6g}")

    if args.trace:
        layers = traced["layers"]
        same_seed = end_to_end([r for r in results if r["seed_index"] == 0], scaled=True)
        layers["trace.overhead_frac"] = (
            end_to_end([traced], scaled=True)["wall_s"][0] / statistics.median(same_seed["wall_s"])
            - 1.0, "frac")
        layers["host.spin_ms"] = (statistics.median(spins), "ms")
        layers["host.load_1m"] = (host["load_1m"], "load")
        for name in ("wall_s", "cpu_s", "setup_s"):
            layers[f"raw.{name}"] = (statistics.median(raw[name]), "s")
        for name, (value, unit) in sorted(layers.items()):
            note = "  (companion)" if name in traced["filled"] else ""
            print(f"  {name:<44} {value:<14.6g} {unit}{note}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
                   for name, values in per_run.items()}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
