"""Run every workload over several seeds, interleaved, and report the spreads.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs are interleaved (seed 1 of every workload, then seed 2, ...), so slow
drift of a shared host spreads over all workloads alike.  For each workload
and metric it prints the median over seeds, the quartiles, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.  All raw
results go to --out as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_run" / "steady.json"))
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(runs, indent=1))

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    for workload, results in runs.items():
        print(f"\n{workload}  ({len(results)} runs)")
        for spec in specs:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            median = statistics.median(values)
            line = f"  {spec['name']:<44} median {median:<12.6g} {spec['unit']:<6}"
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(median)
                line += f" q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
                if "bound" in spec:
                    steady = spread < spec["bound"] / 3
                    ok &= steady or spec["name"] == "setup_s"
                    line += f" bound {spec['bound']} {'ok' if steady else 'WIDE'}"
            print(line)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
