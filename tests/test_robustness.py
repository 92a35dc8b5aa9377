"""Generated command lines: every run exits 0, 1 or 2, never 3.

Exit 3 is an internal error, a fault of the program whatever its input.
The generator draws each command's flags, and a ``--config`` file, from
edge values: delta down to 1e-320, non-power-of-two and maximal tilts, mu
of 0, 1 and subnormal, tied, saturated and subnormal means, tiny budgets
and values of the wrong type.  An exit 3 found here is mended in the
program, never by narrowing these values.

Two inputs are left out on purpose:

- ``--parallel`` above 1, in a flag or in the config file.  Each example
  would fork worker processes from the test process, which costs more
  than the whole test and makes its time depend on the host's cores.
  ``--parallel`` changes no output byte, which ``test_cli.py`` checks.
- unbounded runs.  Every ``identify`` gets a ``--budget`` (a flag wins
  over the config file), every command a small ``--reps`` and ``coverage``
  a small ``--t-max``, so no example runs long.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lilklucb.cli import main
from lilklucb.data_ingest import read_output

from golden_cases import _contest_file

# Each flag's values, as command-line text, valid ones first (None leaves
# the flag out) and then invalid ones.  An example draws every flag from its
# valid values and breaks one of them in about half the examples.
COMMON = {
    "--delta": ([None, "1e-320", "1e-200", "1e-12", "0.05", "0.5", "0.999999"],
                ["0", "1", "-0.5", "nan", "x"]),
    "--bound-n": ([None, "1", "2", "8", "1048576"], ["3", "1000", "1048577", "0", "2.5"]),
    "--scheme": ([None, "kl", "kl-prime", "sg1", "sg2"], ["kl,kl", "gauss", ""]),
    "--seed": ([None, "0", "-1", "18446744073709551616", "7"], ["x", "1.5"]),
    "--format": ([None, "csv", "json"], ["xml"]),
    "--reps": (["1", "2", "3"], ["0", "-1"]),
}
N = (["2", "3", "4", "10"], [None, "1", "0", "-3"])
ALPHA = ([None, "0.5", "1", "2"], ["0", "-1", "1e-300", "inf", "nan"])
BUDGET = (["2", "3", "10", "40", "300"], ["1", "0", "-5"])
K = (["1", "2"], [None, "0", "5", "-1"])
FLAGS = {
    "simulate": {"--n": N, "--alpha": ALPHA, "--budget": BUDGET, "--k": K},
    "replay": {"--budget": BUDGET, "--k": K,
               "--scheme": ([None, "kl", "sg1", "kl,sg1,sg2"], ["kl,kl", "gauss"])},
    "identify": {"--n": N, "--alpha": ALPHA, "--budget": BUDGET},
    "table1": {"--n": (["3,4,5,6", "4,8,16,32,64", "6,3,5,4"], ["3,3,4,5", "2,3,4,5", "3,4,5"]),
               "--alpha": ([None, "0.5,1", "1", "2"], ["0", "-1", "1e-300", "0.5,0.5"])},
    "coverage": {"--mu": ([None, "0", "1", "5e-324", "1e-300", "0.3", "0.5", "0.999999"],
                          ["-0.1", "1.5", "nan"]),
                 "--t-max": (["1", "2", "63", "64", "65", "300"], ["0", "-2"])},
}

# The --config file: the means of an instance, some settings of any type,
# or bytes that are not a JSON object.  A count in it is small, and every
# flag that could make a run long is set on the command line, which wins.
MEANS = [[0.9, 0.5, 0.1], [0.5, 0.5], [0.6, 0.5, 0.5], [1.0, 0.0], [1.0, 1.0, 0.5],
         [1.0, 0.5], [0.5, 0.0], [5e-324, 0.0], [1e-310, 0.0], [1e-300, 1e-301], [0.5],
         [0.1, 0.9], [], ["a", 0.1], [math.nan, 0.1], 0.5, True, "0.9,0.1"]
VALUES = [None, True, 0, 1, 2, -1, 2.5, 1e-320, 0.5, 8.0, "kl", "json", "x", [], [3, 4, 5, 6],
          {"a": 1}]
CONFIGS = st.one_of(
    st.none(),
    st.sampled_from(MEANS).map(lambda means: {"means": means}),
    st.dictionaries(st.sampled_from(["means", "delta", "bound_n", "scheme", "k", "n", "alpha",
                                     "mu", "seed", "format", "unknown"]),
                    st.sampled_from(VALUES), min_size=1, max_size=2),
    st.sampled_from([b"[1, 2]", b"{", b"\xef\xbb\xbf{}", b"\xff"]),
)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {**COMMON, **FLAGS[command]}
    values = {flag: draw(st.sampled_from(valid)) for flag, (valid, _) in flags.items()}
    if draw(st.booleans()):
        broken = draw(st.sampled_from(sorted(flags)))
        values[broken] = draw(st.sampled_from(flags[broken][1]))
    argv = [command]
    for flag, value in values.items():
        if value is not None:
            argv += [flag, value]
    return argv, draw(CONFIGS)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=command_lines())
def test_generated_command_lines_exit_0_1_or_2(case, tmp_path, capsys):
    argv, config = case
    if argv[0] == "replay":
        argv = argv + ["--input", str(_contest_file(tmp_path))]
    if config is not None:
        path = tmp_path / "c.json"
        if isinstance(config, bytes):
            path.write_bytes(config)
        else:
            path.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(path)]
    code = main(argv + ["--output", str(tmp_path / "o.out")])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, config, err)
    if code == 0:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
        fmt = fmt or (config.get("format", "csv") if isinstance(config, dict) else "csv")
        for written in out.splitlines():
            assert read_output(written, fmt).metadata["command"] == argv[0], (argv, config)
