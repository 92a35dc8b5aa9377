"""Golden outputs: small seeded runs of every subcommand, compared byte for byte.

Each case runs the command line in csv and in json and compares every file
it writes with the fixture of the same name under ``tests/golden/``.  A
change that alters any output number, however slightly, fails here.  When a
change alters the random streams on purpose, regenerate the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and say why in CHANGES.md.
"""

import json
import tempfile
from pathlib import Path

import pytest

from lilklucb.cli import build_config, run
from test_cli import _contest_file

GOLDEN = Path(__file__).parent / "golden"
MEANS = (0.8, 0.6, 0.4, 0.2)

# name -> argv without --format/--output; "{contest}" is replaced by the
# path of the contest CSV written by test_cli._contest_file, "{means}" by a
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


def _run_case(name: str, fmt: str, workdir: Path) -> list[Path]:
    contest = _contest_file(workdir)
    means = workdir / "means.json"
    means.write_text(json.dumps({"means": list(MEANS)}), encoding="utf-8")
    argv = [arg.replace("{contest}", str(contest)).replace("{means}", str(means))
            for arg in CASES[name]]
    return run(build_config(argv + ["--format", fmt, "--output", str(workdir / f"{name}.{fmt}")]))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, fmt, tmp_path, capsys):
    for path in _run_case(name, fmt, tmp_path):
        golden = GOLDEN / path.name
        assert golden.is_file(), f"no golden fixture {golden.name}"
        assert path.read_bytes() == golden.read_bytes(), f"{path.name} differs from its golden"
    assert capsys.readouterr().err == ""  # nothing is said beside the data


@pytest.mark.parametrize("name", ["coverage-kl-nonzero", "coverage-sg1-nonzero",
                                  "coverage-sg2-nonzero"])
def test_nonzero_coverage_goldens(name):
    metadata = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))["metadata"]
    rates = [metadata[event] for event in
             ("true_mean_below_lower", "true_mean_above_upper", "joint")]
    assert all(rate > 0.0 for rate in rates), rates


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        for fmt in ("csv", "json"):
            with tempfile.TemporaryDirectory() as tmp:
                for path in _run_case(name, fmt, Path(tmp)):
                    (GOLDEN / path.name).write_bytes(path.read_bytes())
                    print(GOLDEN / path.name)


if __name__ == "__main__":
    _regenerate()
