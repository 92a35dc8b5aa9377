"""Tests for the command-line front end: config handling, commands, determinism."""

import json
import math
import os
import re
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lilklucb.cli import (
    ConfigError,
    build_config,
    cmd_coverage,
    cmd_identify,
    cmd_simulate,
    cmd_table1,
    coverage_rates,
    derive_seed,
    main,
)
from lilklucb.bandit import GRID_POINTS, RunRecord, predicted_complexity
from lilklucb.confidence import BoundScheme
from lilklucb.coverage import splitmix64
from lilklucb.data_ingest import read_output

from golden_cases import CONTEST_CSV, _contest_file


class TestSeedDerivation:
    def test_splitmix_reference_values(self):
        # first outputs of the standard splitmix64 stream from state 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_derived_seeds_differ_across_reps(self):
        seeds = {derive_seed(7, r) for r in range(1000)}
        assert len(seeds) == 1000


# Each invalid command line, and the flag its error message must name.
INVALID_ARGV = [
    (["simulate", "--budget", "400", "--scheme", "bogus", "--output", "o.csv"], "--scheme"),
    (["simulate", "--budget", "400", "--delta", "0", "--output", "o.csv"], "--delta"),
    (["simulate", "--budget", "400", "--bound-n", "6", "--output", "o.csv"], "--bound-n"),
    (["simulate", "--budget", "400", "--alpha", "-1", "--output", "o.csv"], "--alpha"),
    (["simulate", "--budget", "400", "--reps", "0", "--output", "o.csv"], "--reps"),
    (["simulate", "--output", "o.csv"], "--budget"),  # budget required
    (["simulate", "--budget", "400"], "--output"),  # output required
    (["replay", "--budget", "400", "--output", "o.csv"], "--input"),  # input required
    (["identify", "--scheme", "kl,sg1", "--output", "o.csv"], "--scheme"),
    (["table1", "--n", "100,200", "--output", "o.csv"], "--n"),  # needs >= 4
    (["coverage", "--mu", "1.5", "--output", "o.csv"], "--mu"),
    (["coverage", "--t-max", "0", "--output", "o.csv"], "--t-max"),
    (["table1", "--n", "2,4,8,16", "--output", "o.csv"], "--n"),  # n = 2: KL sum 0
    # above MAX_TILT: rejected before kappa's series is summed
    (["simulate", "--budget", "400", "--bound-n", "1073741824", "--output", "o.csv"],
     "--bound-n"),
    # NaN fails every comparison, so only a rule written as "not alpha > 0"
    # rejects it
    (["simulate", "--budget", "400", "--alpha", "nan", "--output", "o.csv"], "--alpha"),
    (["identify", "--alpha", "nan", "--output", "o.csv"], "--alpha"),
    (["table1", "--n", "8,16,32,64", "--alpha", "nan", "--output", "o.csv"], "--alpha"),
    # (1/8)^1000 underflows to a 0.0 gap; at 1e-17 every gap rounds to 1.0
    (["table1", "--n", "8,16,32,64", "--alpha", "1000", "--output", "o.csv"], "--alpha"),
    (["table1", "--n", "8,16,32,64", "--alpha", "1e-17", "--output", "o.csv"], "--alpha"),
    # the smallest gaps are positive, but their means 1 - gap round to 1.0
    (["table1", "--n", "1000,2000,4000,8000", "--alpha", "5", "--output", "o.csv"],
     "--n, --alpha"),
    (["table1", "--n", "3,4,5,6", "--alpha", "35", "--output", "o.csv"], "--n, --alpha"),
    # rules of ucb_race, lil_klucb and coverage_envelope, checked by their owners
    (["simulate", "--budget", "400", "--k", "0", "--output", "o.csv"], "--k"),
    (["simulate", "--n", "5", "--budget", "400", "--k", "9", "--output", "o.csv"], "--k"),
    (["identify", "--n", "3", "--budget", "2", "--output", "o.csv"], "--budget"),
    (["coverage", "--mu", "nan", "--output", "o.csv"], "--mu"),
    # 157 blocks of 65 counters per trajectory: one more would pass 2**64
    (["coverage", "--t-max", "10000", "--reps", str(2**64 // (157 * 65) + 1),
      "--output", "o.csv"], "--reps, --t-max"),
    # the predicted complexity's delta^2 schedule underflows to 0
    (["identify", "--n", "3", "--budget", "200", "--reps", "2", "--delta", "1e-200",
      "--output", "o.csv"], "--delta"),
    # write_output's rule, checked by its owner before any run
    (["table1", "--n", "8,16,32,64", "--format", "xml", "--output", "o.csv"], "--format"),
    # a repeated grid value: unequal lengths in the slope fit, or a doubled point
    (["table1", "--n", "8,16,32,64", "--alpha", "1,1", "--output", "o.csv"], "--alpha"),
    (["table1", "--n", "8,8,16,32", "--output", "o.csv"], "--n"),
]


class TestConfigHandling:
    def test_defaults_match_experiment_protocol(self):
        config = build_config(["simulate", "--budget", "400", "--output", "o.csv"])
        assert config.tilt == 8
        assert config.delta == 0.01
        assert config.k == 5
        assert config.reps == 250
        assert config.seed == 0

    def test_seed_is_not_read_from_the_environment(self, tmp_path, monkeypatch):
        argv = ["simulate", "--n", "8", "--alpha", "1", "--budget", "200", "--reps", "4",
                "--k", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--seed", "0", "--output", str(a)]) == 0
        monkeypatch.setenv("LILKLUCB_SEED", "4242")
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_overrides_defaults_but_not_flags(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"reps": 7, "delta": 0.2}))
        config = build_config(
            ["simulate", "--budget", "400", "--config", str(cfg),
             "--delta", "0.1", "--output", "o.csv"]
        )
        assert config.reps == 7
        assert config.delta == 0.1

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ConfigError):
            build_config(["simulate", "--budget", "400", "--config", str(cfg),
                          "--output", "o.csv"])

    @pytest.mark.parametrize("key, value", [("snapshot_every", 16), ("grid_points", 65)])
    def test_retired_config_keys_are_unknown(self, tmp_path, key, value):
        # races snapshot every 2 * arms samples; identify's witness grid is GRID_POINTS
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        for cmd in (["simulate", "--budget", "400"], ["identify", "--n", "3"]):
            argv = cmd + ["--reps", "2", "--config", str(cfg),
                          "--output", str(tmp_path / "o.csv")]
            unknown = rf"^{re.escape(str(cfg))}: unknown config keys: {key}$"
            with pytest.raises(ConfigError, match=unknown):
                build_config(argv)
            assert main(argv) == 1
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv, flag", INVALID_ARGV,
                             ids=[f"argv{i}" for i in range(len(INVALID_ARGV))])
    def test_invalid_configs_raise(self, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match=flag):
            build_config(argv)
        assert main(argv) == 1
        assert list(tmp_path.iterdir()) == []  # rejected before any output

    def test_delta_squared_underflow_names_the_given_delta(self):
        argv = ["identify", "--n", "3", "--delta", "1e-200", "--output", "o.csv"]
        with pytest.raises(ConfigError, match="--delta") as info:
            build_config(argv)
        assert "1e-200" in str(info.value)
        assert "got 0.0" not in str(info.value)

    def test_kl_prime_low_tilt_rejected_before_any_run(self, tmp_path):
        argv = ["simulate", "--n", "50", "--budget", "400", "--reps", "20",
                "--scheme", "kl,kl-prime", "--bound-n", "2",
                "--output", str(tmp_path / "o.csv")]
        with pytest.raises(ConfigError, match="kl-prime"):
            build_config(argv)
        assert main(argv) == 1
        assert list(tmp_path.iterdir()) == []

    def test_unsorted_config_means_exit_1(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"means": [0.2, 0.8, 0.5]}))
        for cmd in (["identify"], ["simulate", "--budget", "30"]):
            assert main(cmd + ["--config", str(cfg), "--reps", "2",
                               "--output", str(tmp_path / "o.csv")]) == 1

    def test_one_config_mean_exits_1_naming_the_means(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"means": [0.7]}))
        for cmd in (["identify"], ["simulate", "--budget", "30", "--k", "1"]):
            assert main(cmd + ["--config", str(cfg), "--reps", "2",
                               "--output", str(tmp_path / "o.csv")]) == 1
            assert "configuration error: means: need at least 2 arms, got 1" in (
                capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("means", [
        [0.5000000001, 0.5],  # the Chernoff separation rounds below zero
        [1e-310, 0.0],  # a positive separation below the schedule's floor
    ], ids=["rounds-below-zero", "below-floor"])
    def test_near_tie_exits_1_naming_the_means(self, tmp_path, capsys, means):
        # no threshold crosses the separation of the top two means; found
        # only once the witness is placed
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"means": means}))
        assert main(["identify", "--config", str(cfg), "--budget", "100", "--reps", "2",
                     "--output", str(tmp_path / "o.csv")]) == 1
        assert "configuration error: means: threshold schedule never falls below" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [cfg]

    def test_malformed_contest_csv_exits_1(self, tmp_path):
        path = tmp_path / "contest_1.csv"
        path.write_text("caption,unfunny,somewhat_funny,funny\na,1,x,3\nb,2,2,2\n")
        assert main(["replay", "--input", str(path), "--budget", "50", "--reps", "2",
                     "--output", str(tmp_path / "r.csv")]) == 1

    @pytest.mark.parametrize(
        "content", [{"delta": "tiny"}, [1, 2], {"means": [0.5]}, {"grid_points": 2}])
    def test_bad_config_file_exits_1(self, tmp_path, content):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(content))
        assert main(["identify", "--config", str(cfg), "--reps", "2",
                     "--output", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize("content, key", [
        ({"n": [5.7]}, "n"),
        ({"alpha": [True]}, "alpha"),
        ({"mu": True}, "mu"),
        ({"delta": "0.05"}, "delta"),
        ({"delta": 10**400}, "delta"),  # an int beyond every float
        ({"means": ["0.9", "0.1"]}, "means"),
        ({"means": []}, "means"),
        ({"output": 5}, "output"),
        ({"input": 5}, "input"),
        ({"snapshot_every": 0}, "snapshot_every"),
    ])
    def test_bad_config_value_names_its_key(self, tmp_path, content, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(content))
        argv = ["simulate", "--budget", "400", "--reps", "2", "--config", str(cfg)]
        if key != "output":
            argv += ["--output", str(tmp_path / "o.csv")]
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            build_config(argv)
        assert main(argv) == 1
        assert list(tmp_path.iterdir()) == [cfg]

    # snapshot_every and grid_points are no longer settings: they fail as unknown keys
    @pytest.mark.parametrize("key", ["budget", "snapshot_every", "reps", "k", "bound_n",
                                     "seed", "parallel", "t_max", "grid_points"])
    @pytest.mark.parametrize("value", ["100", True, 100.5, math.nan])
    def test_non_integer_count_in_config_file_exits_1(self, tmp_path, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        argv = ["simulate", "--n", "5", "--config", str(cfg),
                "--output", str(tmp_path / "o.csv")]
        if key != "budget":
            argv += ["--budget", "40"]
        if key != "reps":
            argv += ["--reps", "2"]
        with pytest.raises(ConfigError, match=key):
            build_config(argv)
        assert main(argv) == 1

    def test_integral_float_count_in_config_file_is_an_int(self, tmp_path):
        cfg = tmp_path / "c.json"
        counts = {"budget": 40.0, "reps": 2.0, "bound_n": 8.0, "k": 2.0, "seed": 3.0,
                  "parallel": 1.0, "t_max": 50.0}
        cfg.write_text(json.dumps(counts))
        argv = ["simulate", "--n", "5", "--config", str(cfg),
                "--output", str(tmp_path / "o.csv")]
        config = build_config(argv)
        values = (config.budget, config.reps, config.tilt, config.k, config.seed,
                  config.parallel, config.t_max)
        assert values == tuple(counts.values())
        assert all(type(v) is int for v in values)
        assert main(argv) == 0

    @pytest.mark.parametrize("error", [ValueError("internal"), OverflowError("internal")])
    def test_internal_fault_exits_3_with_traceback(self, tmp_path, monkeypatch, capsys, error):
        from lilklucb import cli

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "hardness_sums", broken)
        assert main(["table1", "--n", "8,16,32,64", "--output", str(tmp_path / "t.csv")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "internal error" in err

    def test_internal_fault_during_validation_exits_3(self, tmp_path, monkeypatch, capsys):
        from lilklucb import cli

        def broken(*args, **kwargs):
            raise TypeError("internal")

        monkeypatch.setattr(cli, "gap_family", broken)
        assert main(["table1", "--n", "8,16,32,64", "--output", str(tmp_path / "t.csv")]) == 3
        assert "Traceback" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["identify", "--n", "4", "--reps", "2"],
        ["coverage", "--t-max", "50", "--reps", "4"],
    ])
    def test_value_error_inside_a_checked_rule_exits_3(self, tmp_path, monkeypatch, capsys,
                                                       argv):
        # a fault in kappa's series, under the flags that build the scheme,
        # is the program's, not the input's
        from lilklucb import confidence

        def broken(tilt):
            raise ValueError("math domain error")

        monkeypatch.setattr(confidence, "_kappa_series", broken)
        assert main(argv + ["--output", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "math domain error" in err
        assert "configuration error" not in err
        assert list(tmp_path.iterdir()) == []

    def test_value_error_inside_the_contest_reader_exits_3(self, tmp_path, monkeypatch, capsys):
        from lilklucb import cli

        def broken(dataset):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "from_contest", broken)
        assert main(["replay", "--input", str(_contest_file(tmp_path)), "--budget", "50",
                     "--reps", "2", "--output", str(tmp_path / "r.csv")]) == 3
        assert "Traceback" in capsys.readouterr().err

    def test_contest_csv_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        path = tmp_path / "contest_1.csv"
        path.write_bytes(CONTEST_CSV.replace("meh", "m\xe9h").encode("latin-1"))
        assert main(["replay", "--input", str(path), "--budget", "50", "--reps", "2",
                     "--output", str(tmp_path / "r.csv")]) == 1
        assert "configuration error: contest data:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["coverage", "--t-max", "50", "--reps", "4"],
        ["table1", "--n", "8,16,32,64"],
    ])
    def test_parallel_rejected_where_it_would_be_ignored(self, tmp_path, argv):
        out = tmp_path / "o.csv"
        assert main(argv + ["--parallel", "1", "--output", str(out)]) == 0
        out.unlink()
        with pytest.raises(ConfigError, match="--parallel"):
            build_config(argv + ["--parallel", "2", "--output", str(out)])
        assert main(argv + ["--parallel", "2", "--output", str(out)]) == 1
        assert not out.exists()

    def test_exit_codes(self, tmp_path):
        assert main(["simulate", "--budget", "4", "--output", "x.csv",
                     "--delta", "2"]) == 1
        assert main(["table1", "--n", "8,16,32,64",
                     "--output", "/nonexistent/dir/o.csv"]) == 2
        ok = main(["table1", "--n", "8,16,32,64",
                   "--output", str(tmp_path / "t.csv")])
        assert ok == 0


class TestSimulate:
    def test_single_rep_probabilities_are_binary(self, tmp_path):
        config = build_config(
            ["simulate", "--n", "5", "--alpha", "1", "--budget", "60", "--reps", "1",
             "--k", "2", "--seed", "3", "--output", str(tmp_path / "o.csv")]
        )
        out = cmd_simulate(config)["kl"]
        assert all(p in (0.0, 1.0) for _, p in out.rows)

    def test_identical_seeds_identical_bytes(self, tmp_path):
        argv = ["simulate", "--n", "10", "--alpha", "1", "--budget", "300",
                "--reps", "6", "--k", "2", "--seed", "17"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_does_not_change_output(self, tmp_path):
        simulate = ["simulate", "--n", "10", "--alpha", "1", "--budget", "300",
                    "--reps", "6", "--k", "2", "--seed", "17"]
        replay = ["replay", "--input", str(_contest_file(tmp_path)), "--budget", "150",
                  "--reps", "5", "--k", "1", "--seed", "6", "--scheme", "kl,sg1"]
        identify = ["identify", "--n", "4", "--alpha", "1", "--delta", "0.1",
                    "--reps", "6", "--seed", "3"]
        # blocks of two; uneven blocks (3, 3, 1); more workers asked for than reps
        cases = [simulate, simulate + ["--scheme", "kl,sg1"], replay, identify,
                 simulate + ["--reps", "7"], identify + ["--reps", "2"]]
        for case, argv in enumerate(cases):
            a, b = tmp_path / f"a{case}.csv", tmp_path / f"b{case}.csv"
            assert main(argv + ["--output", str(a)]) == 0
            assert main(argv + ["--parallel", "3", "--output", str(b)]) == 0
            serial = sorted(tmp_path.glob(f"a{case}*.csv"))
            assert len(serial) == (2 if case in (1, 2) else 1)
            for path in serial:
                twin = path.with_name("b" + path.name[1:])
                assert path.read_bytes() == twin.read_bytes(), path.name

    @pytest.mark.parametrize("cores, workers", [(2, 2), (None, 1)])
    def test_parallel_starts_at_most_one_worker_per_core(self, tmp_path, monkeypatch,
                                                         cores, workers):
        # a stub pool records its size and maps in this process, so no
        # process is started; 64 blocks of one repetition still run
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, blocks):
                blocks = list(blocks)
                sizes.append(len(blocks))
                return map(fn, blocks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        argv = ["simulate", "--n", "10", "--alpha", "1", "--budget", "300",
                "--reps", "64", "--k", "2", "--seed", "17"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--parallel", "64", "--output", str(b)]) == 0
        assert sizes == [workers, 64]
        assert a.read_bytes() == b.read_bytes()

    def test_easy_instance_ends_confident(self, tmp_path):
        config = build_config(
            ["simulate", "--n", "2", "--alpha", "1", "--budget", "200",
             "--reps", "50", "--k", "1", "--seed", "5",
             "--output", str(tmp_path / "o.csv")]
        )
        out = cmd_simulate(config)["kl"]
        assert out.rows[-1][1] >= 0.9

    def test_one_output_file_per_scheme(self, tmp_path):
        out = tmp_path / "curves.csv"
        rc = main(["simulate", "--n", "6", "--alpha", "1", "--budget", "100",
                   "--reps", "3", "--k", "2", "--seed", "1",
                   "--scheme", "kl,sg1,sg2", "--output", str(out)])
        assert rc == 0
        names = sorted(p.name for p in tmp_path.glob("curves_*.csv"))
        assert names == ["curves_kl.csv", "curves_sg1.csv", "curves_sg2.csv"]

    def test_metadata_records_protocol(self, tmp_path):
        path = tmp_path / "o.csv"
        assert main(["simulate", "--n", "6", "--alpha", "0.5", "--budget", "100",
                     "--reps", "3", "--k", "2", "--seed", "8",
                     "--output", str(path)]) == 0
        meta = read_output(path, "csv").metadata
        assert meta["scheme"] == "kl"
        assert meta["bound_n"] == 8
        assert meta["alpha"] == 0.5
        assert meta["snapshot_every"] == 12  # twice the number of arms
        # a means instance is recorded by its means, not by the unread --alpha
        metas = []
        for means in ([0.9, 0.5, 0.1], [0.6, 0.55, 0.5]):
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"means": means}), encoding="utf-8")
            assert main(["simulate", "--config", str(config), "--k", "1", "--budget", "60",
                         "--reps", "2", "--output", str(path)]) == 0
            metas.append(read_output(path, "csv").metadata)
            assert metas[-1]["means"] == means and "alpha" not in metas[-1]
        assert metas[0] != metas[1]


class TestReplay:
    def test_replay_runs_and_reports_contest(self, tmp_path):
        path = _contest_file(tmp_path)
        out_path = tmp_path / "r.csv"
        rc = main(["replay", "--input", str(path), "--budget", "200", "--reps", "4",
                   "--k", "2", "--seed", "2", "--output", str(out_path)])
        assert rc == 0
        meta = read_output(out_path, "csv").metadata
        assert meta["contest_id"] == 42
        assert meta["n"] == 4
        assert meta["top_mean"] == pytest.approx(0.875)

    def test_race_rules_checked_before_any_run(self, tmp_path):
        # the contest has 4 arms; ucb_race's own check runs once it is read
        argv = ["replay", "--input", str(_contest_file(tmp_path)), "--budget", "200",
                "--reps", "2", "--k", "9", "--output", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        assert not (tmp_path / "r.csv").exists()

    def test_replay_reads_files_with_a_utf8_bom(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark;
        # the contest and the --config file may both carry one
        outputs = []
        for prefix in ("", "\ufeff"):
            folder = tmp_path / f"bom{len(prefix)}"
            folder.mkdir()
            (folder / "contest_42.csv").write_text(prefix + CONTEST_CSV, encoding="utf-8")
            (folder / "c.json").write_text(prefix + json.dumps({"k": 2}), encoding="utf-8")
            out = folder / "r.csv"
            assert main(["replay", "--input", str(folder / "contest_42.csv"),
                         "--config", str(folder / "c.json"), "--budget", "150", "--reps", "3",
                         "--seed", "6", "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_replay_missing_input_is_io_error(self, tmp_path):
        rc = main(["replay", "--input", str(tmp_path / "gone.csv"), "--budget", "100",
                   "--output", str(tmp_path / "r.csv")])
        assert rc == 2

    def test_replay_determinism(self, tmp_path):
        path = _contest_file(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["replay", "--input", str(path), "--budget", "150", "--reps", "3",
                "--k", "1", "--seed", "6", "--format", "json"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestIdentify:
    def test_budget_below_first_round_never_stops(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"means": [0.9, 0.1], "budget": 3, "reps": 10}))
        config = build_config(["identify", "--config", str(cfg), "--seed", "1",
                               "--output", str(tmp_path / "o.csv")])
        out = cmd_identify(config)
        assert out.metadata["stopped_fraction"] == 0.0

    def test_easy_instance_error_rate(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"means": [0.9, 0.1], "reps": 60}))
        config = build_config(["identify", "--config", str(cfg), "--seed", "2",
                               "--output", str(tmp_path / "o.csv")])
        out = cmd_identify(config)
        assert out.metadata["error_rate"] <= 0.02
        assert out.metadata["stopped_fraction"] == 1.0
        assert out.metadata["predicted_total"] > 0
        assert [arm for arm, _ in out.rows] == [0, 1]

    def test_mean_pulls_match_total(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"means": [0.8, 0.4], "reps": 20}))
        config = build_config(["identify", "--config", str(cfg), "--seed", "3",
                               "--output", str(tmp_path / "o.csv")])
        out = cmd_identify(config)
        total = sum(pulls for _, pulls in out.rows)
        assert total == pytest.approx(out.metadata["mean_total_samples"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("means", [[1e-30, 0.0], [1e-300, 0.0]])
    def test_crossings_beyond_int64_read_back_exactly(self, tmp_path, means, fmt):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"means": means}))
        path = tmp_path / f"o.{fmt}"
        assert main(["identify", "--config", str(cfg), "--budget", "20", "--reps", "2",
                     "--format", fmt, "--output", str(path)]) == 0
        meta = read_output(path, fmt).metadata
        predicted = predicted_complexity(means, 0.01, GRID_POINTS, 8)
        assert meta["predicted_crossings"] == list(predicted.crossing_indices)
        assert meta["predicted_best_arm_crossing"] == predicted.best_arm_crossing
        crossings = meta["predicted_crossings"] + [meta["predicted_best_arm_crossing"]]
        assert all(type(c) is int and c > 2**62 for c in crossings)

    @pytest.mark.parametrize("totals", [
        [7], [3, 1, 2], [4, 1, 3, 2], [5, 8],
        [2**52 + 3, 2**52 - 5, 2**52], [2**52 - 1, 2**52 + 2],
        [2**52 + 6, 2**52 + 1, 2**52 + 3, 2**52 + 2],
    ])
    def test_numpy_median_of_totals_equals_statistics_median(self, tmp_path, monkeypatch, totals):
        # identify's median of the totals is NumPy's bit for bit; near 2**52
        # the mean of the two middle totals is a half that rounds to even.
        # Its means are exact sums rounded once: NumPy's wherever its float
        # sum is exact, which it is below 2**53; past that, NumPy's float
        # partial sums round, and the last case's np.mean is 2**52 + 4
        from lilklucb import cli

        per_arm = [(total - 1, 1, 0, 0) for total in totals]
        records = iter([RunRecord(0, sum(pulls), pulls, True, ()) for pulls in per_arm])
        monkeypatch.setattr(cli, "lil_klucb", lambda *args, bound_cache=None: next(records))
        config = build_config(["identify", "--n", "4", "--alpha", "1", "--reps", str(len(totals)),
                               "--output", str(tmp_path / "o.csv")])
        out = cmd_identify(config)
        median = out.metadata["median_total_samples"]
        assert median == float(np.median(totals)) == float(statistics.median(totals))
        mean = out.metadata["mean_total_samples"]
        assert mean == float(Fraction(sum(totals), len(totals)))
        assert mean == float(np.mean(totals)) or sum(totals) >= 2**53
        arm_means = np.mean(np.array(per_arm, dtype=float), axis=0).tolist()
        assert out.rows == tuple(enumerate(arm_means)) or sum(totals) >= 2**53
        assert out.rows[1:] == ((1, 1.0), (2, 0.0), (3, 0.0))

    def test_long_uncapped_run_says_so_before_it_starts(self, tmp_path, monkeypatch, capsys):
        # means [0.5005, 0.5] predict about 4.8e8 pulls per repetition; the
        # stub stands in for the loop, so the long run never starts
        from lilklucb import cli

        stub_record = RunRecord(0, 2, (1, 1), True, ())
        runs = []

        def stub(env, scheme, budget, rng, bound_cache=None):
            runs.append(capsys.readouterr().err)  # what was written before this repetition
            return stub_record

        monkeypatch.setattr(cli, "lil_klucb", stub)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"means": [0.5005, 0.5]}))
        argv = ["identify", "--config", str(cfg), "--reps", "2"]
        warned, quiet = tmp_path / "warned.csv", tmp_path / "quiet.csv"
        assert main(argv + ["--output", str(warned)]) == 0
        (line,) = runs[0].splitlines()
        assert runs[1:] == [""]
        assert "4.8e+08 pulls per repetition, up to a constant" in line
        assert "--budget" in line
        # a --budget caps every run, so nothing is said
        assert main(argv + ["--budget", "1000", "--output", str(quiet)]) == 0
        assert runs[2:] == ["", ""]
        # the data file does not change
        monkeypatch.setattr(cli, "LONG_RUN_PULLS", math.inf)
        assert main(argv + ["--output", str(quiet)]) == 0
        assert runs[4:] == ["", ""]
        assert warned.read_bytes() == quiet.read_bytes()

    def test_identify_benchmark_instance_prints_nothing_on_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"means": [0.8, 0.6, 0.4, 0.2]}))
        out = tmp_path / "o.csv"
        assert main(["identify", "--delta", "0.05", "--scheme", "kl", "--reps", "12",
                     "--bound-n", "8", "--seed", "12", "--config", str(cfg),
                     "--output", str(out)]) == 0
        assert capsys.readouterr() == (f"{out}\n", "")

    def test_serial_run_loads_no_process_pool_or_statistics(self, tmp_path):
        # a fresh interpreter, since this one has loaded them already
        out = tmp_path / "o.csv"
        argv = ["identify", "--n", "4", "--alpha", "1", "--delta", "0.1", "--reps", "3",
                "--output", str(out)]
        code = ("import sys\n"
                "from lilklucb.cli import main\n"
                "names = ('multiprocessing', 'concurrent.futures.process', 'statistics')\n"
                "print([name for name in names if name in sys.modules])\n"
                f"print(main({argv!r}))\n"
                "print([name for name in names if name in sys.modules])\n")
        assert _fresh(code, tmp_path) == ["[]", str(out), "0", "[]"]


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(code: str, cwd, **env) -> list[str]:
    """Output lines of ``code`` in a fresh interpreter that sees only ``env``.

    The interpreter writes no bytecode, so no test leaves a ``__pycache__``
    in the source tree.
    """
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1", **env},
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


# Whether numpy is loaded, the BLAS variables each run below leaves, and the
# process's OS threads (None off Linux)
_STARTUP_STATE = (
    "import os, sys\n"
    "print('numpy' in sys.modules)\n"
    "print([(k, v) for k, v in sorted(os.environ.items()) if k.endswith('_NUM_THREADS')])\n"
    "print(len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None)\n"
)

# A command that computes on arrays, and so loads numpy
_LOADS_NUMPY = ("from lilklucb.cli import main\n"
                "main(['coverage', '--t-max', '300', '--reps', '50', '--output', 'o.csv'])\n")


class TestStartup:
    """Only the array commands load numpy, with one OpenBLAS thread unless told otherwise.

    No command loads ``dataclasses``, and a scalar one loads neither
    ``inspect`` nor, unless it fails, ``traceback``.
    """

    def test_numpy_loads_on_one_blas_thread(self, tmp_path):
        loaded, env_line, threads = _fresh(_LOADS_NUMPY + _STARTUP_STATE, tmp_path)[-3:]
        assert loaded == "True"
        assert env_line == "[]"  # the variable is gone again, so no child inherits it
        if sys.platform == "linux":
            assert threads == "1"

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_thread_count_wins(self, tmp_path, name):
        lines = _fresh(_LOADS_NUMPY + _STARTUP_STATE, tmp_path, **{name: "2"})[-3:]
        assert lines[:2] == ["True", str([(name, "2")])]
        assert lines == _fresh("import numpy\n" + _STARTUP_STATE, tmp_path, **{name: "2"})

    def test_numpy_imported_first_is_left_alone(self, tmp_path):
        lines = _fresh("import numpy\n" + _LOADS_NUMPY + _STARTUP_STATE, tmp_path)[-3:]
        assert lines[1] == "[]"
        assert lines == _fresh("import numpy\n" + _STARTUP_STATE, tmp_path)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "8", "--alpha", "1", "--budget", "200", "--reps", "2"],
        ["simulate", "--n", "8", "--alpha", "1", "--budget", "200", "--reps", "2",
         "--parallel", "2"],
        ["replay", "--input", "contest_42.csv", "--budget", "150", "--reps", "2", "--k", "1"],
        ["replay", "--input", "contest_42.csv", "--budget", "150", "--reps", "2", "--k", "1",
         "--parallel", "2"],
        ["identify", "--n", "4", "--alpha", "1", "--delta", "0.1", "--reps", "2"],
        ["identify", "--n", "4", "--alpha", "1", "--delta", "0.1", "--reps", "2",
         "--parallel", "2"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[-1:] * ("--parallel" in argv)))
    def test_scalar_commands_load_neither_numpy_nor_inspect(self, tmp_path, argv):
        # a process pool imports traceback itself
        _contest_file(tmp_path)
        names = ("numpy", "dataclasses", "inspect") + ("traceback",) * ("--parallel" not in argv)
        code = ("import sys\n"
                "from lilklucb.cli import main\n"
                f"names = {names!r}\n"
                "print([name for name in names if name in sys.modules])\n"
                f"print(main({argv + ['--output', 'o.csv']!r}))\n"
                "print([name for name in names if name in sys.modules])\n")
        assert _fresh(code, tmp_path) == ["[]", "o.csv", "0", "[]"]

    def test_a_fault_prints_its_traceback_in_a_fresh_interpreter(self, tmp_path):
        # this interpreter has loaded traceback already, so only a fresh one
        # shows that the exit-3 branch imports it for itself
        code = ("import sys\n"
                "from lilklucb import confidence\n"
                "from lilklucb.cli import main\n"
                "def broken(tilt):\n"
                "    raise ValueError('math domain error')\n"
                "confidence._kappa_series = broken\n"
                "sys.stderr = sys.stdout\n"
                "print('traceback' in sys.modules)\n"
                "print(main(['identify', '--n', '4', '--reps', '2', '--output', 'o.csv']))\n")
        lines = _fresh(code, tmp_path)
        assert lines[0] == "False" and lines[1] == "Traceback (most recent call last):"
        assert lines[-3:] == ["ValueError: math domain error", "lilklucb: internal error", "3"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["coverage", "--t-max", "300", "--reps", "50"],
        ["table1", "--n", "8,16,32,64", "--alpha", "1"],
    ], ids=lambda argv: argv[0])
    def test_array_commands_load_numpy_while_configured(self, tmp_path, argv):
        # numpy is loaded by validation, before the command runs, on one thread
        code = ("import sys\n"
                "from lilklucb.cli import build_config\n"
                f"build_config({argv + ['--output', 'o.csv']!r})\n"
                "print('numpy' in sys.modules)\n"
                "from lilklucb.cli import main\n"
                f"print(main({argv + ['--output', 'o.csv']!r}))\n" + _STARTUP_STATE)
        lines = _fresh(code, tmp_path)
        assert lines[:4] == ["True", "o.csv", "0", "True"]
        if sys.platform == "linux":
            assert lines[-1] == "1"

    @pytest.mark.parametrize("argv", [
        ["coverage", "--t-max", "300", "--reps", "50"],
        ["simulate", "--n", "8", "--alpha", "1", "--budget", "200", "--reps", "2"],
        ["identify", "--n", "4", "--alpha", "1", "--delta", "0.1", "--reps", "2"],
        ["replay", "--input", "contest_42.csv", "--budget", "150", "--reps", "2", "--k", "1"],
        ["table1", "--n", "8,16,32,64", "--alpha", "1"],
    ], ids=lambda argv: argv[0])
    def test_no_command_imports_numpy_random_or_dataclasses(self, tmp_path, argv):
        # a fresh interpreter, since this one has loaded both already
        _contest_file(tmp_path)
        code = ("import sys\n"
                "from lilklucb.cli import main\n"
                f"print(main({argv + ['--output', 'o.csv']!r}))\n"
                "print([name for name in ('numpy.random', 'dataclasses') if name in sys.modules])\n")
        assert _fresh(code, tmp_path)[-2:] == ["0", "[]"]

    @pytest.mark.parametrize("argv", [
        ["table1", "--n", "8,16,32,64", "--alpha", "0.5,1"],  # polyfit: the one LAPACK call
        ["coverage", "--t-max", "500", "--reps", "200"],
    ])
    def test_blas_thread_count_leaves_output_unchanged(self, tmp_path, argv):
        code = f"from lilklucb.cli import main\nmain({argv + ['--output', 'o.csv']!r})\n"
        _fresh(code, tmp_path)
        single = (tmp_path / "o.csv").read_bytes()
        _fresh(code, tmp_path, OPENBLAS_NUM_THREADS="2")
        assert (tmp_path / "o.csv").read_bytes() == single


class TestTable1:
    def test_slopes_reflect_growth_classes(self, tmp_path):
        config = build_config(
            ["table1", "--n", "100,200,400,800", "--alpha", "0.25,1,2",
             "--output", str(tmp_path / "t.csv")]
        )
        out = cmd_table1(config)
        slopes = out.metadata["slopes"]
        assert abs(slopes["1.0"]["sg"] - 2.0) <= 0.15
        assert abs(slopes["0.25"]["sg"] - 1.0) <= 0.15
        assert abs(slopes["1.0"]["kl_over_logn"] - 1.0) <= 0.2
        assert abs(slopes["2.0"]["kl"] - 2.0) <= 0.2
        assert abs(slopes["2.0"]["sg"] - 4.0) <= 0.3

    def test_rows_cover_the_grid(self, tmp_path):
        config = build_config(
            ["table1", "--n", "16,8,32,64", "--alpha", "1",
             "--output", str(tmp_path / "t.csv")]
        )
        out = cmd_table1(config)
        assert [r[0] for r in out.rows] == [8, 16, 32, 64]


class TestCoverage:
    def test_degenerate_streams_never_violate(self, tmp_path):
        for mu in ("0", "1"):
            config = build_config(
                ["coverage", "--mu", mu, "--t-max", "500", "--reps", "200",
                 "--delta", "0.05", "--seed", "4",
                 "--output", str(tmp_path / "c.csv")]
            )
            out = cmd_coverage(config)
            assert out.metadata["joint"] == 0.0

    def test_rates_respect_two_sided_cap(self, tmp_path):
        config = build_config(
            ["coverage", "--mu", "0.5", "--t-max", "2000", "--reps", "2000",
             "--delta", "0.05", "--seed", "11",
             "--output", str(tmp_path / "c.csv")]
        )
        out = cmd_coverage(config)
        sigma = (0.10 * 0.90 / 2000) ** 0.5
        assert out.metadata["joint"] <= 0.10 + 3 * sigma

    def test_tilted_and_plain_kl_envelopes_differ(self):
        kl = coverage_rates(BoundScheme("kl", 8, 0.05), 0.3, 300, 50, seed=0)
        prime = coverage_rates(BoundScheme("kl-prime", 8, 0.05), 0.3, 300, 50, seed=0)
        assert set(kl) == {"true_mean_below_lower", "true_mean_above_upper", "joint"}
        assert all(v <= 0.1 for v in kl.values())
        assert all(v <= 0.1 for v in prime.values())
        from lilklucb.confidence import coverage_envelope

        low_kl, high_kl = coverage_envelope(BoundScheme("kl", 8, 0.05), 0.3, 50)
        low_pr, high_pr = coverage_envelope(BoundScheme("kl-prime", 8, 0.05), 0.3, 50)
        assert not np.allclose(high_kl, high_pr)

    @pytest.mark.parametrize("scheme, tilt, delta", [("sg2", 8, 1e-320), ("sg2", 8, 1e-306),
                                                     ("sg1", 2**20, 1e-320)])
    def test_infinite_sub_gaussian_budget_is_never_crossed(self, scheme, tilt, delta):
        # the budget's log overflows at some t <= 300: the interval is [0, 1]
        # there, and the run reports its rates instead of an internal error
        rates = coverage_rates(BoundScheme(scheme, tilt, delta), 0.5, 300, 50, seed=0)
        assert rates == {"true_mean_below_lower": 0.0, "true_mean_above_upper": 0.0,
                         "joint": 0.0}

    def test_largest_counter_space_passes_validation(self, tmp_path):
        # one more repetition is rejected (INVALID_ARGV); this one is not run
        most = 2**64 // (157 * 65)
        argv = ["coverage", "--t-max", "10000", "--reps", str(most), "--output", "c.csv"]
        assert build_config(argv).reps == most

    def test_seed_is_read_modulo_2_to_the_64(self, tmp_path):
        argv = ["coverage", "--mu", "0.5", "--delta", "0.5", "--t-max", "300", "--reps", "400"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--seed", "-1", "--output", str(a)]) == 0
        assert main(argv + ["--seed", str(2**64 - 1), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert read_output(a).metadata["seed"] == 2**64 - 1

    def test_rows_sorted_and_in_range(self, tmp_path):
        config = build_config(
            ["coverage", "--mu", "0.3", "--t-max", "100", "--reps", "50",
             "--seed", "1", "--output", str(tmp_path / "c.csv")]
        )
        out = cmd_coverage(config)
        events = [e for e, _ in out.rows]
        assert events == sorted(events)
        assert all(0.0 <= r <= 1.0 for _, r in out.rows)
