"""Tests for the nws-repro command-line interface."""

import json
import os
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_defaults(self):
        args = build_parser().parse_args(["tables"])
        assert args.seed == 7 and args.hours == 24.0 and args.table is None

    def test_table_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--table", "9"])

    def test_figures_args(self):
        args = build_parser().parse_args(["figures", "--figure", "2", "--out", "/tmp/x"])
        assert args.figure == 2 and args.out == "/tmp/x"

    def test_obs_defaults(self):
        args = build_parser().parse_args(["obs"])
        assert args.hours == 1.0 and args.seed == 7
        assert args.profiles == "thing1,conundrum"
        assert args.output_format == "dashboard"

    def test_obs_format_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "--format", "xml"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.hosts == "all" and args.hours == 24.0
        assert args.jobs == 1 and not args.no_cache
        assert args.cache_dir == "artifacts/cache"

    def test_runner_flags_shared_across_commands(self):
        for command in ("run", "tables", "figures"):
            args = build_parser().parse_args(
                [command, "--jobs", "4", "--cache-dir", "/tmp/c", "--no-cache"]
            )
            assert args.jobs == 4 and args.cache_dir == "/tmp/c" and args.no_cache


    def test_removed_sim_engine_option_exits_2(self, capsys, tmp_path):
        # One kernel loop, and the input picks the forecast path: the old
        # engine switches are unknown options now.
        out = str(tmp_path / "out")
        for argv, option in (
            (["report", out, "--sim-engine", "auto"], "--sim-engine"),
            (["tables", "--engine", "batch"], "--engine"),
            (["report", out, "--engine", "stream"], "--engine"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert option in capsys.readouterr().err, argv
        assert not (tmp_path / "out").exists()

    def test_removed_commands_and_options_exit_2(self, capsys, tmp_path):
        # `serve --state-dir` restores or creates; a bare `--directory`
        # opened an existing state directory without restoring it.
        for argv in (["profile"], ["serve", "--directory", str(tmp_path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        assert not any(tmp_path.iterdir())


class TestRunCommand:
    def test_run_prints_host_summary_and_stats(self, capsys, tmp_path):
        rc = main(
            ["run", "--hosts", "thing1", "--hours", "0.5", "--seed", "3",
             "--cache-dir", str(tmp_path / "cache")]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "thing1" in out
        assert "misses=1" in out

    def test_run_second_invocation_hits_disk(self, capsys, tmp_path):
        argv = ["run", "--hosts", "thing1,conundrum", "--hours", "0.5",
                "--seed", "3", "--cache-dir", str(tmp_path / "cache")]
        main(argv)
        capsys.readouterr()
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        assert "disk_hits=2" in out and "misses=0" in out

    def test_run_rejects_unknown_host(self, capsys):
        rc = main(["run", "--hosts", "nonesuch", "--no-cache"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown hosts" in err

    def test_run_rejects_empty_host_list(self, capsys):
        rc = main(["run", "--hosts", ",", "--no-cache"])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [["tables", "--table", "6", "--hours", "1"], ["tables", "--hours", "1"]],
        ids=["table-6", "all-tables"],
    )
    def test_table6_without_a_test_exits_2_in_one_line(self, capsys, argv):
        assert main([*argv, "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("nws-repro tables: Table 6 needs")
        assert "--hours 1.09" in line


class TestCommands:
    def test_tables_jobs_output_byte_identical(self, capsys):
        argv = ["tables", "--table", "1", "--hours", "2", "--seed", "3", "--no-cache"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_tables_warm_cache_runs_without_misses(self, capsys, tmp_path):
        argv = ["tables", "--table", "2", "--hours", "2", "--seed", "5",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "misses=6" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "misses=0" in warm.err
        assert warm.out == cold.out

    def test_stats_go_to_stderr_not_stdout(self, capsys):
        main(["tables", "--table", "1", "--hours", "2", "--seed", "3", "--no-cache"])
        captured = capsys.readouterr()
        assert "runner:" in captured.err
        assert "runner:" not in captured.out

    def test_tables_prints_table(self, capsys):
        rc = main(["tables", "--table", "3", "--hours", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TABLE3" in out and "kongo" in out

    def test_tables_with_paper(self, capsys):
        rc = main(
            ["tables", "--table", "1", "--hours", "2", "--seed", "3", "--with-paper"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "paper reported" in out

    def test_figures_with_csv_export(self, capsys, tmp_path):
        rc = main(
            ["figures", "--figure", "1", "--seed", "3", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "FIGURE1" in out
        assert (tmp_path / "figure1_thing1.csv").exists()

    @pytest.mark.skipif(
        not (sys.platform.startswith("linux") and os.path.exists("/proc/stat")),
        reason="live sensing requires Linux /proc",
    )
    def test_live_command(self, capsys):
        rc = main(["live", "--interval", "0.1", "--count", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "loadavg" in out

    @pytest.mark.skipif(
        not (sys.platform.startswith("linux") and os.path.exists("/proc/stat")),
        reason="live sensing requires Linux /proc",
    )
    def test_live_json(self, capsys):
        rc = main(["live", "--interval", "0.1", "--count", "2", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        events = [json.loads(line) for line in out.strip().splitlines()]
        assert events, "expected at least one JSON event"
        for event in events:
            assert event["type"] == "metric"
            assert event["name"] == "repro_live_availability"
            assert set(event) == {
                "type", "kind", "name", "labels", "time", "value",
            }
        methods = {e["labels"]["method"] for e in events}
        assert "load_average" in methods

    def test_obs_prometheus(self, capsys):
        rc = main(
            ["obs", "--hours", "0.1", "--profiles", "thing1",
             "--format", "prometheus"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "# TYPE repro_sim_time_seconds gauge" in out
        assert "repro_sensor_readings_total" in out
        assert "repro_memory_publishes_total" in out

    def test_obs_json_lines(self, capsys):
        rc = main(
            ["obs", "--hours", "0.1", "--profiles", "thing1",
             "--format", "json"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        types = {json.loads(line)["type"] for line in out.strip().splitlines()}
        assert types == {"metric", "span"}

    def test_obs_dashboard(self, capsys):
        rc = main(["obs", "--hours", "0.1", "--profiles", "thing1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OBSERVABILITY DASHBOARD" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--profiles", ","], "no profiles given"),
            (["--profiles", "thing1,thing1"], "repeated profiles"),
            (["--profiles", "nonesuch"], "unknown profiles"),
            (["--hours", "-1"], "--hours must be finite"),
            (["--hours", "nan"], "--hours must be finite"),
        ],
    )
    @pytest.mark.parametrize("command", [["obs"]])
    def test_nws_bad_input_is_one_line_exit_2(self, capsys, command, argv, message):
        rc = main(command + ["--profiles", "thing1"] + argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and message in err
        assert err.startswith(f"nws-repro {command[0]}: ")

    def test_sched_demo(self, capsys):
        rc = main(["sched-demo", "--tasks", "6", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "workqueue" in out and "nws_predictive" in out

    def test_report_writes_all_artifacts(self, capsys, tmp_path):
        rc = main(
            [
                "report",
                str(tmp_path),
                "--seed",
                "3",
                "--hours",
                "2",
                "--figure3-days",
                "0.5",
            ]
        )
        assert rc == 0
        for n in range(1, 7):
            assert (tmp_path / f"table{n}.csv").exists()
            assert (tmp_path / f"table{n}.txt").exists()
        for n in range(1, 5):
            assert (tmp_path / f"figure{n}.txt").exists()
        assert (tmp_path / "figure3_thing1.csv").exists()
        report = (tmp_path / "REPORT.txt").read_text()
        assert "TABLE1" in report and "figure3" in report

    def test_report_too_short_for_table6_says_why(self, capsys, tmp_path):
        rc = main(
            ["report", str(tmp_path), "--hours", "1", "--figure3-days", "0.5", "--no-cache"]
        )
        assert rc == 0
        [line] = [
            line for line in capsys.readouterr().err.splitlines() if "Table 6" in line
        ]
        assert line.startswith("nws-repro report: Table 6 needs")
        assert "--hours 1.09" in line
        rows = (tmp_path / "table6.csv").read_text().splitlines()[1:]
        assert len(rows) == 6
        assert all(row.split(",")[1:] == ["nan%"] * 3 for row in rows)
