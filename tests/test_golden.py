"""Golden outputs: small seeded runs of every subcommand, compared byte for byte.

Each case of ``golden_cases.CASES`` runs the command line in csv and in json
and compares every file it writes with the fixture of the same name under
``tests/golden/``.  A change that alters any output number, however
slightly, fails here.  When a change alters the random streams on purpose,
regenerate the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and say why in CHANGES.md.
"""

import json
import tempfile
from pathlib import Path

import pytest

from golden_cases import CASES, GOLDEN, _run_case


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, fmt, tmp_path, capsys):
    for path in _run_case(name, fmt, tmp_path):
        golden = GOLDEN / path.name
        assert golden.is_file(), f"no golden fixture {golden.name}"
        assert path.read_bytes() == golden.read_bytes(), f"{path.name} differs from its golden"
    assert capsys.readouterr().err == ""  # nothing is said beside the data


@pytest.mark.parametrize("name", ["simulate", "identify-kl"])
def test_parallel_workers_write_the_serial_bytes(name, tmp_path):
    # the workers receive pickled environments and schemes, rebuilt there
    # through each record's own __init__
    for path in _run_case(name, "csv", tmp_path, "--parallel", "2"):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


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
