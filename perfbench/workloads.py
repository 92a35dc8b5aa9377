"""The benchmark's workloads: one ``lilklucb`` command line each.

Why each workload is there is recorded in BENCHMARK.json.

Every workload uses tilt 8 and takes its ``--seed`` from the benchmark's own
seed argument, so one seed fixes every input.  ``reps`` is sized so that one
invocation takes about one second on a 2-core host; the counts a traced run
reports depend on it, so it must not change between commits that are
compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

TILT = 8
IDENTIFY_MEANS = (0.8, 0.6, 0.4, 0.2)
IDENTIFY_DELTA = 0.05
# Invocations cycle over this many command-line seeds derived from the
# benchmark seed, so a run's medians average over several draws of the
# instance's random work (identify's pull count varies ~28% per repetition).
SEEDS_PER_RUN = 12


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "race" | "identify" | "coverage"
    argv: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "race-linear200",
            "race",
            ("simulate", "--n", "200", "--alpha", "1", "--budget", "12000", "--k", "5",
             "--scheme", "kl,sg1", "--reps", "4"),
        ),
        Workload(
            "identify-interior4",
            "identify",
            ("identify", "--delta", str(IDENTIFY_DELTA), "--scheme", "kl", "--reps", "12"),
        ),
        Workload(
            "coverage-kl",
            "coverage",
            ("coverage", "--scheme", "kl", "--mu", "0.5", "--delta", "0.05",
             "--t-max", "10000", "--reps", "1000"),
        ),
    )
}


def cli_seeds(seed: int) -> list[int]:
    """The command-line seeds one benchmark seed stands for; the first one is traced."""
    return [seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]


def cli_argv(workload: Workload, seed: int, workdir: Path) -> list[str]:
    """The ``lilklucb`` argument list for one invocation of ``workload``."""
    argv = list(workload.argv) + ["--bound-n", str(TILT), "--seed", str(seed),
                                  "--output", str(workdir / "out.csv")]
    if workload.kind == "identify":
        config = workdir / "identify_config.json"
        config.write_text(json.dumps({"means": list(IDENTIFY_MEANS)}))
        argv += ["--config", str(config)]
    return argv
