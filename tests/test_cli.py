"""Tests for the command-line front end: config handling, commands, determinism."""

import json
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
    splitmix64,
)
from lilklucb.confidence import BoundScheme
from lilklucb.data_ingest import read_output

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


class TestSeedDerivation:
    def test_splitmix_reference_values(self):
        # first outputs of the standard splitmix64 stream from state 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_derived_seeds_differ_across_reps(self):
        seeds = {derive_seed(7, r) for r in range(1000)}
        assert len(seeds) == 1000


class TestConfigHandling:
    def test_defaults_match_experiment_protocol(self):
        config = build_config(["simulate", "--budget", "400", "--output", "o.csv"])
        assert config.tilt == 8
        assert config.delta == 0.01
        assert config.k == 5
        assert config.reps == 250
        assert config.seed == 0

    def test_env_var_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("LILKLUCB_SEED", "4242")
        config = build_config(["simulate", "--budget", "400", "--output", "o.csv"])
        assert config.seed == 4242

    def test_flag_overrides_env_var(self, monkeypatch):
        monkeypatch.setenv("LILKLUCB_SEED", "4242")
        config = build_config(
            ["simulate", "--budget", "400", "--seed", "1", "--output", "o.csv"]
        )
        assert config.seed == 1

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--budget", "400", "--scheme", "bogus", "--output", "o.csv"],
            ["simulate", "--budget", "400", "--delta", "0", "--output", "o.csv"],
            ["simulate", "--budget", "400", "--bound-n", "6", "--output", "o.csv"],
            ["simulate", "--budget", "400", "--alpha", "-1", "--output", "o.csv"],
            ["simulate", "--budget", "400", "--reps", "0", "--output", "o.csv"],
            ["simulate", "--output", "o.csv"],  # budget required
            ["simulate", "--budget", "400"],  # output required
            ["replay", "--budget", "400", "--output", "o.csv"],  # input required
            ["identify", "--scheme", "kl,sg1", "--output", "o.csv"],
            ["table1", "--n", "100,200", "--output", "o.csv"],  # needs >= 4
            ["coverage", "--mu", "1.5", "--output", "o.csv"],
            ["coverage", "--t-max", "0", "--output", "o.csv"],
        ],
    )
    def test_invalid_configs_raise(self, argv):
        with pytest.raises(ConfigError):
            build_config(argv)

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

    @pytest.mark.parametrize("error", [ValueError("internal"), OverflowError("internal")])
    def test_internal_fault_exits_3_with_traceback(self, tmp_path, monkeypatch, capsys, error):
        from lilklucb import cli

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "hardness_sums", broken)
        assert main(["table1", "--n", "8,16,32,64", "--output", str(tmp_path / "t.csv")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "internal error" in err

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
        for case, argv in enumerate([simulate, simulate + ["--scheme", "kl,sg1"], replay]):
            a, b = tmp_path / f"a{case}.csv", tmp_path / f"b{case}.csv"
            assert main(argv + ["--output", str(a)]) == 0
            assert main(argv + ["--parallel", "3", "--output", str(b)]) == 0
            serial = sorted(tmp_path.glob(f"a{case}*.csv"))
            assert len(serial) == (1 if case == 0 else 2)
            for path in serial:
                twin = path.with_name("b" + path.name[1:])
                assert path.read_bytes() == twin.read_bytes(), path.name

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

    def test_rows_sorted_and_in_range(self, tmp_path):
        config = build_config(
            ["coverage", "--mu", "0.3", "--t-max", "100", "--reps", "50",
             "--seed", "1", "--output", str(tmp_path / "c.csv")]
        )
        out = cmd_coverage(config)
        events = [e for e, _ in out.rows]
        assert events == sorted(events)
        assert all(0.0 <= r <= 1.0 for _, r in out.rows)
