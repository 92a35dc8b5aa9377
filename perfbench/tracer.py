"""Outside-in tracer: spans around the calls into each lilklucb layer.

Functions are wrapped at the module attribute their caller looks up (for
example ``cli.lil_klucb``, not ``bandit.lil_klucb``), so the program itself is
not edited.  Spans (name, start, end, parent, info) stay in memory and are
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children.  Under ``--parallel`` the spans recorded
inside pool workers stay there, so only parent-side layers are reported.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


def _loop_info(record) -> dict:
    """Pulls and bound lookups of one lil_klucb repetition.

    ``lil_klucb`` looks up one upper bound per pull and one lower bound per
    round, and a run with ``total`` pulls on n arms makes (total - n)/2 + 1
    rounds.  The cache helper is private, so lookups are derived, not traced.
    """
    total, n = record.total_samples, len(record.per_arm_pulls)
    return {"pulls": total, "lookups": total + (total - n) // 2 + 1}


def _race_info(record) -> dict:
    """``ucb_race`` looks up one upper bound per pull."""
    return {"pulls": record.total_samples, "lookups": record.total_samples}


def wrap_points(cli, bandit, confidence, environments):
    """(owner, attribute, span name, info) for every traced call site."""
    return (
        (cli, "build_config", "cli.build_config", None),
        (cli, "run", "cli.run", None),
        (cli, "cmd_simulate", "cli.cmd_simulate", None),
        (cli, "cmd_identify", "cli.cmd_identify", None),
        (cli, "cmd_coverage", "cli.cmd_coverage", None),
        (cli, "coverage_rates", "cli.coverage_rates", None),
        (cli, "BoundScheme", "confidence.BoundScheme", None),
        (cli, "coverage_envelope", "confidence.coverage_envelope", None),
        (cli, "lil_klucb", "bandit.lil_klucb", _loop_info),
        (cli, "ucb_race", "bandit.ucb_race", _race_info),
        (cli, "predicted_complexity", "bandit.predicted_complexity", None),
        (cli, "write_output", "data_ingest.write_output", None),
        (bandit, "upper_bound", "confidence.upper_bound", None),
        (bandit, "lower_bound", "confidence.lower_bound", None),
        (bandit, "chernoff_information", "kl_math.chernoff_information", None),
        (confidence, "tilted_kl_upper_inverse", "kl_math.tilted_kl_upper_inverse", None),
        (confidence, "tilted_kl_lower_inverse", "kl_math.tilted_kl_lower_inverse", None),
        (environments, "sample", "environments.sample", None),
    )


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self, points) -> None:
        for owner, attr, name, info in points:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, info):
        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "info": info}) + "\n")


@dataclass
class _Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    infos: list = field(default_factory=list)


def _aggregate(spans) -> dict[str, _Layer]:
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    layers: dict[str, _Layer] = {}
    for i, (name, start, end, parent, info) in enumerate(spans):
        layer = layers.setdefault(name, _Layer())
        layer.calls += 1
        layer.total_s += end - start
        layer.self_s += end - start - child_s[i]
        layer.durations.append(end - start)
        if info is not None:
            layer.infos.append(info)
    return layers


def _nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))]


def layer_metrics(spans) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit).

    A time of a layer the spans never reached is None, so the caller can tell
    "not reached" from "took no time"; counts of such a layer are 0.
    """
    layers = _aggregate(spans)
    empty = _Layer()

    def get(name):
        return layers.get(name, empty)

    def us_per_call(name):
        layer = get(name)
        return layer.self_s / layer.calls * 1e6 if layer.calls else None

    def seconds(name, attr="total_s"):
        layer = get(name)
        return getattr(layer, attr) if layer.calls else None

    loops = [get("bandit.lil_klucb"), get("bandit.ucb_race")]
    pulls = sum(i["pulls"] for layer in loops for i in layer.infos)
    lookups = sum(i["lookups"] for layer in loops for i in layer.infos)
    misses = get("confidence.upper_bound").calls + get("confidence.lower_bound").calls
    rep_ms = sorted(d * 1e3 for layer in loops for d in layer.durations)
    commands = ("cli.cmd_simulate", "cli.cmd_identify", "cli.cmd_coverage")

    metrics = {}
    for short, name in (("tilted_upper", "kl_math.tilted_kl_upper_inverse"),
                        ("tilted_lower", "kl_math.tilted_kl_lower_inverse"),
                        ("chernoff", "kl_math.chernoff_information")):
        metrics[f"kl_math.{short}.calls"] = (get(name).calls, "count")
        metrics[f"kl_math.{short}.self_us_per_call"] = (us_per_call(name), "us")
    metrics.update({
        "confidence.bound_lookups": (lookups, "count"),
        "confidence.bound_misses": (misses, "count"),
        "confidence.cache_hit_rate": (1.0 - misses / lookups if lookups else 0.0, "frac"),
        "confidence.coverage_envelope_s": (seconds("confidence.coverage_envelope"), "s"),
        "confidence.scheme_build_s": (seconds("confidence.BoundScheme"), "s"),
        "environments.sample.calls": (get("environments.sample").calls, "count"),
        "environments.sample.self_us_per_call": (us_per_call("environments.sample"), "us"),
        "bandit.pulls": (pulls, "count"),
        "bandit.self_us_per_pull": (
            sum(layer.self_s for layer in loops) / pulls * 1e6 if pulls else None, "us"),
        "bandit.rep_ms.p50": (_nearest_rank(rep_ms, 0.5) if rep_ms else None, "ms"),
        "bandit.rep_ms.p90": (_nearest_rank(rep_ms, 0.9) if rep_ms else None, "ms"),
        "bandit.predicted_complexity_s": (seconds("bandit.predicted_complexity"), "s"),
        "cli.build_config_s": (seconds("cli.build_config"), "s"),
        "cli.coverage_mc_s": (seconds("cli.coverage_rates", "self_s"), "s"),
        "cli.repetitions_s": (
            sum(get(c).self_s for c in commands)
            if any(get(c).calls for c in commands) else None, "s"),
        "data_ingest.write_s": (seconds("data_ingest.write_output"), "s"),
    })
    return metrics
