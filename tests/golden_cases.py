"""The golden cases: small seeded runs of every subcommand, and a checker that needs no test tools.

Each case is a command line without --format/--output; ``_run_case`` runs
it in csv or json and returns the files it writes, each named like its
fixture under ``tests/golden/``.  This module imports only the standard
library and ``lilklucb``, so

    PYTHONPATH=src python tests/golden_cases.py --check simulate replay

checks cases byte for byte against their fixtures where nothing else is
installed (the scalar commands load no NumPy).  It exits 1 if any file
differs or is missing.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from lilklucb.cli import build_config, run

GOLDEN = Path(__file__).parent / "golden"
MEANS = (0.8, 0.6, 0.4, 0.2)

CONTEST_CSV = (
    "caption,unfunny,somewhat_funny,funny\n"
    "sharp,1,3,16\n"
    "fine,4,8,8\n"
    "meh,10,8,2\n"
    "flat,16,3,1\n"
)


def _contest_file(tmp_path):
    path = tmp_path / "contest_42.csv"
    path.write_text(CONTEST_CSV, encoding="utf-8")
    return path


# name -> argv without --format/--output; "{contest}" is replaced by the
# path of the contest CSV written by _contest_file, "{means}" by a
# --config file holding MEANS.
CASES = {
    "simulate": ["simulate", "--n", "8", "--alpha", "1", "--budget", "200",
                 "--reps", "4", "--k", "2", "--seed", "5",
                 "--scheme", "kl,kl-prime,sg1,sg2"],
    "replay": ["replay", "--input", "{contest}", "--budget", "150", "--reps", "3",
               "--k", "1", "--seed", "6", "--scheme", "kl,sg1"],
    "identify-kl": ["identify", "--config", "{means}", "--delta", "0.05",
                    "--budget", "4000", "--reps", "6", "--seed", "3"],
    "identify-kl-prime": ["identify", "--config", "{means}", "--delta", "0.05",
                          "--budget", "4000", "--reps", "6", "--seed", "3",
                          "--scheme", "kl-prime"],
    # the sub-Gaussian branches of lower_bound
    "identify-sg1": ["identify", "--config", "{means}", "--delta", "0.05",
                     "--budget", "4000", "--reps", "6", "--seed", "3", "--scheme", "sg1"],
    "identify-sg2": ["identify", "--config", "{means}", "--delta", "0.05",
                     "--budget", "4000", "--reps", "6", "--seed", "3", "--scheme", "sg2"],
    "table1": ["table1", "--n", "8,16,32,64", "--alpha", "0.5,1"],
    "coverage-kl": ["coverage", "--scheme", "kl", "--mu", "0.3", "--t-max", "400",
                    "--reps", "300", "--delta", "0.05", "--seed", "4"],
    "coverage-kl-prime": ["coverage", "--scheme", "kl-prime", "--mu", "0.7",
                          "--t-max", "400", "--reps", "300", "--delta", "0.05",
                          "--seed", "4"],
    # every miss rate nonzero (see test_nonzero_coverage_goldens), so a
    # changed draw or exit curve shows; mu = 0.6 takes the mu > 1/2 branch of
    # the Bernoulli draw
    "coverage-kl-nonzero": ["coverage", "--scheme", "kl", "--mu", "0.5",
                            "--delta", "0.5", "--t-max", "1000", "--reps", "4000"],
    "coverage-sg1-nonzero": ["coverage", "--scheme", "sg1", "--mu", "0.6",
                             "--delta", "0.9", "--t-max", "1000", "--reps", "4000"],
    "coverage-sg2-nonzero": ["coverage", "--scheme", "sg2", "--mu", "0.5",
                             "--delta", "0.99", "--t-max", "1000", "--reps", "4000"],
}


def _run_case(name: str, fmt: str, workdir: Path, *extra: str) -> list[Path]:
    """Run case ``name`` in ``fmt`` under ``workdir``, with ``extra`` flags appended."""
    contest = _contest_file(workdir)
    means = workdir / "means.json"
    means.write_text(json.dumps({"means": list(MEANS)}), encoding="utf-8")
    argv = [arg.replace("{contest}", str(contest)).replace("{means}", str(means))
            for arg in CASES[name]]
    return run(build_config(
        argv + ["--format", fmt, "--output", str(workdir / f"{name}.{fmt}"), *extra]))


def _differences(name: str) -> list[str]:
    """The files of case ``name``, in csv and json, that are not byte-identical to their fixtures."""
    found = []
    for fmt in ("csv", "json"):
        with tempfile.TemporaryDirectory() as tmp:
            for path in _run_case(name, fmt, Path(tmp)):
                golden = GOLDEN / path.name
                if not golden.is_file() or path.read_bytes() != golden.read_bytes():
                    found.append(path.name)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare golden cases with their fixtures.")
    parser.add_argument("--check", nargs="+", required=True, choices=sorted(CASES),
                        metavar="NAME", help="cases to run and compare")
    names = parser.parse_args(argv).check
    failed = 0
    for name in names:
        differing = _differences(name)
        print(f"{name}: {'differs: ' + ', '.join(differing) if differing else 'identical'}")
        failed += bool(differing)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
