"""The benchmark's trace hooks still reach the program.

``perfbench/tracer.py`` wraps program functions by module attribute, and a
traced run reports a layer's time from ``perfbench/probe.py``'s companion
instances when its workload never reaches it.  A change that renames a
wrapped attribute, or leaves a traced layer with no caller on any command
path, breaks the benchmark's traced run; these tests make it fail here first.
The benchmark files are imported from their directory and not modified.
"""

import sys
from pathlib import Path

from lilklucb import bandit, cli, confidence, environments
from lilklucb.data_ingest import read_output

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark's directory
try:
    import probe
    import tracer
finally:
    sys.dont_write_bytecode = _write_bytecode

# Layers the companion instances never call: they build no config, run no
# command and write no file.
NOT_IN_COMPANION = {"cli.build_config_s", "cli.repetitions_s", "data_ingest.write_s"}


def test_every_wrap_point_resolves():
    for owner, attr, name, _ in tracer.wrap_points(cli, bandit, confidence, environments):
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)


def test_companion_reaches_every_traced_layer():
    traced = tracer.Tracer()
    traced.install(tracer.wrap_points(cli, bandit, confidence, environments))
    try:
        probe.companion(cli, 1)
    finally:
        traced.uninstall()
    metrics = tracer.layer_metrics(traced.spans)
    missing = {name for name, (value, _) in metrics.items() if value is None}
    assert missing <= NOT_IN_COMPANION, sorted(missing - NOT_IN_COMPANION)


def _traced_run(argv):
    """Spans of ``cli.run`` on ``argv`` with every trace hook installed."""
    traced = tracer.Tracer()
    traced.install(tracer.wrap_points(cli, bandit, confidence, environments))
    try:
        cli.run(cli.build_config(argv))
    finally:
        traced.uninstall()
    return traced.spans


def test_traced_commands_reach_the_loops(tmp_path):
    # the runner must call the loops through the attributes the tracer wraps
    identify = ["identify", "--n", "4", "--alpha", "1", "--delta", "0.1", "--reps", "3",
                "--output", str(tmp_path / "i.csv")]
    simulate = ["simulate", "--n", "10", "--alpha", "1", "--budget", "200", "--reps", "3",
                "--output", str(tmp_path / "s.csv")]
    for argv, loop in ((identify, "bandit.lil_klucb"), (simulate, "bandit.ucb_race")):
        names = [span[0] for span in _traced_run(argv + ["--parallel", "1"])]
        assert names.count(loop) == 3, argv[0]
    # a traced wrapper cannot be pickled: workers must look the loop up by name
    _traced_run(identify[:-1] + [str(tmp_path / "i2.csv"), "--parallel", "2"])
    assert (tmp_path / "i2.csv").read_bytes() == (tmp_path / "i.csv").read_bytes()
    # coverage_rates must reach the envelope through cli's global, which the
    # tracer wraps
    coverage = ["coverage", "--t-max", "200", "--reps", "50", "--output", str(tmp_path / "c.csv")]
    spans = _traced_run(coverage)
    rates = [i for i, span in enumerate(spans) if span[0] == "cli.coverage_rates"]
    assert len(rates) == 1
    assert [span[0] for span in spans if span[3] == rates[0]] == ["confidence.coverage_envelope"]


def test_traced_loops_draw_through_the_wrapped_sampler(tmp_path):
    # every pull of either loop must reach environments.sample through the
    # module attribute the tracer wraps, and every bound miss upper_bound
    names = [span[0] for span in _traced_run(
        ["simulate", "--n", "10", "--alpha", "1", "--budget", "200", "--reps", "3",
         "--scheme", "kl,sg1", "--output", str(tmp_path / "s.csv")])]
    assert names.count("environments.sample") == 2 * 3 * 200
    assert 0 < names.count("confidence.upper_bound") <= 2 * 3 * 200
    output = tmp_path / "i.csv"
    names = [span[0] for span in _traced_run(
        ["identify", "--n", "4", "--alpha", "1", "--delta", "0.1", "--reps", "3",
         "--output", str(output)])]
    metadata = read_output(output).metadata
    pulls = round(metadata["mean_total_samples"] * metadata["repetitions"])
    assert names.count("environments.sample") == pulls
