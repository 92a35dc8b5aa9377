"""Generated command lines: every run exits 0, 1 or 2, never 3.

Exit 3 is an internal error, a fault of the program whatever its input.
An exit 1 says what to fix: its message names a setting the command line
or the config file gave (as its flag or its config key), ``means``, or the
config file.  An exit 0 writes files that read back with the metadata keys
of their command's golden.
The generator draws each command's flags, and a ``--config`` file, from
edge values: delta down to 1e-320, non-power-of-two and maximal tilts, mu
of 0, 1 and subnormal, tied, saturated and subnormal means, tiny budgets
and values of the wrong type.  An exit 3, or a message that names
nothing, found here is mended in the program, never by narrowing these
values.

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
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lilklucb.cli import SETTINGS, main
from lilklucb.data_ingest import read_output

from golden_cases import GOLDEN, _contest_file

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


# Each command's metadata keys, from its golden.  A simulate whose instance
# comes from ``means`` writes them in place of ``alpha``.
GOLDEN_KEYS = {command: set(read_output(GOLDEN / f"{name}.json", "json").metadata)
               for command, name in (("simulate", "simulate_kl"), ("replay", "replay_kl"),
                                     ("identify", "identify-kl"), ("table1", "table1"),
                                     ("coverage", "coverage-kl"))}


def _named(message, argv, config, config_path):
    """Whether ``message`` names a setting the example gave, ``means`` or the config file.

    A setting is given by its flag on the command line or its key in the
    config file; the message may name it either way.  A key the program
    does not know is no setting, and ``--config`` is named by its path.
    """
    keys = {arg[2:].replace("-", "_") for arg in argv if arg.startswith("--")} - {"config"}
    if isinstance(config, dict):
        keys |= set(config)
    keys = (keys & set(SETTINGS)) | {"means"}
    words = set(re.findall(r"(?<![\w-])(?:--)?[a-z][a-z_-]*", message))
    return (config_path is not None and config_path in message
            or any(key in words or "--" + key.replace("_", "-") in words for key in keys))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=command_lines())
# the first two messages this gate caught, kept as its first examples
@example(case=(["simulate", "--n", "4", "--budget", "40", "--reps", "1", "--scheme", "kl,kl"],
               None))
@example(case=(["identify", "--n", "3", "--budget", "40", "--reps", "1"], {"bogus": 1}))
def test_generated_command_lines_exit_0_1_or_2(case, tmp_path, capsys):
    argv, config = case
    config_path = None
    if argv[0] == "replay":
        argv = argv + ["--input", str(_contest_file(tmp_path))]
    if config is not None:
        path = tmp_path / "c.json"
        if isinstance(config, bytes):
            path.write_bytes(config)
        else:
            path.write_text(json.dumps(config), encoding="utf-8")
        config_path = str(path)
        argv = argv + ["--config", config_path]
    code = main(argv + ["--output", str(tmp_path / "o.out")])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, config, err)
    if code == 1:
        assert _named(err, argv, config, config_path), (argv, config, err)
    if code == 0:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
        fmt = fmt or (config.get("format", "csv") if isinstance(config, dict) else "csv")
        keys = GOLDEN_KEYS[argv[0]]
        if argv[0] == "simulate" and isinstance(config, dict) and config.get("means") is not None:
            keys = keys - {"alpha"} | {"means"}
        for written in out.splitlines():
            metadata = read_output(written, fmt).metadata
            assert metadata["command"] == argv[0], (argv, config)
            assert set(metadata) == keys, (argv, config, sorted(metadata))
