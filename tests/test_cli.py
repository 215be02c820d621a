import json

import pytest

from wynercache.cli import EXIT_ASSERTION, EXIT_OK, EXIT_VALIDATION, build_parser, main


class TestParser:
    def test_simulate_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--model", "soft", "--k", "6"])
        assert args.command == "simulate"
        assert args.d == 6
        assert args.backend == "ideal"
        assert args.bits == 8
        assert args.trials == 1
        assert args.seed == 0
        assert args.demands == "random"
        assert args.assert_mode is None

    def test_unknown_flag_exits_with_validation_code(self):
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["simulate", "--model", "soft", "--k", "6", "--frobnicate"])
        assert exc.value.code == EXIT_VALIDATION

    def test_unknown_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["launch"])
        assert exc.value.code == EXIT_VALIDATION

    def test_assert_choices(self):
        parser = build_parser()
        args = parser.parse_args(
            ["simulate", "--model", "soft", "--k", "6", "--assert", "interior-success"]
        )
        assert args.assert_mode == "interior-success"


class TestSimulate:
    def test_happy_path_json_report(self, capsys):
        code = main(
            [
                "simulate",
                "--model",
                "soft",
                "--k",
                "6",
                "--d",
                "6",
                "--backend",
                "ideal",
                "--snr-db",
                "40",
                "--demands",
                "random",
                "--trials",
                "100",
                "--seed",
                "1",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["config"]["variant"] == "soft"
        assert doc["interior_success"] == 1.0
        assert doc["trials"] == 100

    def test_odd_k_full_fails_validation(self, capsys):
        code = main(["simulate", "--model", "full", "--k", "7", "--alpha", "0.5"])
        assert code == EXIT_VALIDATION
        assert "OddKForFullModel" in capsys.readouterr().err

    def test_explicit_demands(self, capsys):
        code = main(
            [
                "simulate",
                "--model",
                "soft",
                "--k",
                "6",
                "--demands",
                "explicit:3,1,4,1,5,2",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["explicit_demands"] == [3, 1, 4, 1, 5, 2]

    def test_assert_all_success_fails_on_base_scheme(self, capsys):
        # the base soft scheme leaves rx 1 and rx K short, so all-success trips
        code = main(
            ["simulate", "--model", "soft", "--k", "6", "--assert", "all-success"]
        )
        assert code == EXIT_ASSERTION

    def test_assert_all_success_passes_with_round_robin(self):
        code = main(
            [
                "simulate",
                "--model",
                "soft",
                "--k",
                "6",
                "--round-robin",
                "--assert",
                "all-success",
            ]
        )
        assert code == EXIT_OK

    def test_worst_demand_alias(self, capsys):
        code = main(["simulate", "--model", "soft", "--k", "6", "--demands", "worst"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["demand_policy"] == "equal"

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["simulate", "--model", "soft", "--k", "6", "--out", str(out)]
        )
        assert code == EXIT_OK
        on_disk = json.loads(out.read_text())
        assert on_disk == json.loads(capsys.readouterr().out)

    def test_negative_ideal_rate_fails_validation(self, capsys):
        code = main(["simulate", "--model", "soft", "--k", "6", "--snr-db", "-10"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "InfeasibleRate" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_alpha_list(self, capsys):
        code = main(
            ["simulate", "--model", "soft", "--k", "6", "--alpha", "1,2,3"]
        )
        assert code == EXIT_VALIDATION


class TestTradeoffCommand:
    def test_breakpoint_rows(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["tradeoff", "--model", "full", "--points", "200", "--out", str(out)])
        assert code == EXIT_OK
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[1:]}
        assert rows["0"][1] == "0.666666666667"
        assert rows["1"][1] == "2" and rows["1"][2] == "2"

    def test_stdout_mode(self, capsys):
        code = main(["tradeoff", "--model", "soft", "--points", "5", "--x-max", "1"])
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) >= 5


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--model",
                "soft",
                "--k",
                "6",
                "--snr-db",
                "20,40",
                "--demands",
                "distinct",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("p_db,")
        assert len(lines) == 3


class TestVerifyScheduleCommand:
    def test_canonical_ok(self, capsys):
        code = main(["verify-schedule", "--k", "8", "--d", "8"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == []
        assert doc["k"] == 8

    def test_small_k_fails(self, capsys):
        code = main(["verify-schedule", "--k", "4", "--d", "6", "--demands", "equal"])
        assert code == EXIT_VALIDATION
        assert "KTooSmall" in capsys.readouterr().err

    def test_full_model_ok(self, capsys):
        code = main(["verify-schedule", "--model", "full", "--k", "8", "--d", "8"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == []
        assert doc["k"] == 8

    def test_full_model_odd_k_fails(self, capsys):
        code = main(["verify-schedule", "--model", "full", "--k", "7", "--d", "8"])
        assert code == EXIT_VALIDATION
        assert "OddKForFullModel" in capsys.readouterr().err
