import json
import sys

import pytest

from wynercache import cli
from wynercache.cli import EXIT_ASSERTION, EXIT_OK, EXIT_VALIDATION, build_parser, main
from wynercache.model import Bitstring
from wynercache.schemes import Violation


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

    def test_assert_all_success_passes_with_full_prop1(self, capsys):
        # prop-1 caches a tail on the full plan too: every receiver is served past x = 1
        flags = ["--model", "full", "--k", "6", "--prop1-delta-bits", "16", "--assert", "all-success"]
        assert main(["simulate", *flags]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["guaranteed_success"] == 1.0 and doc["memory_bits_per_receiver"] == 6 * (8 + 16)

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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--model", "soft", "--k", "6", "--prop1-delta-bits", "-3"],
            ["--model", "soft", "--k", "7", "--round-robin", "--bits", "7"],
            ["--model", "full", "--k", "6", "--round-robin"],
            ["--model", "full", "--k", "6", "--prop1-delta-bits", "-3"],
            ["--model", "soft", "--k", "6", "--demands", "explicit:1,2,3,4,5,9"],
        ],
    )
    def test_late_failures_fail_validation(self, capsys, flags):
        code = main(["simulate", *flags])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("ConfigMismatch: ")
        assert "trial" not in err

    def test_failing_interior_assertion(self, capsys):
        # MC at P = 0.1 loses every interior link
        flags = ["--backend", "mc", "--snr-db", "-10", "--trials", "5", "--assert", "interior-success"]
        assert main(["simulate", "--model", "soft", "--k", "6", *flags]) == EXIT_ASSERTION
        captured = capsys.readouterr()
        assert json.loads(captured.out)["interior_success"] == 0.0
        assert captured.err == "assertion failed: interior success 0.0\n"

    def test_unknown_demand_policy(self, capsys):
        assert main(["simulate", "--model", "soft", "--k", "6", "--demands", "all"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "SimError: unknown demand policy 'all'\n"

    def test_mc_power_past_float64_is_rejected(self, capsys):
        # named before any trial: a run would start the codebook radius at inf
        code = main(["simulate", "--model", "soft", "--k", "6", "--backend", "mc", "--snr-db", "3070"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "FloatOverflow: MC scores overflow float64 at P=1e+307, n=288 and max|alpha|=1\n"

    def test_bad_alpha_list(self, capsys):
        code = main(
            ["simulate", "--model", "soft", "--k", "6", "--alpha", "1,2,3"]
        )
        assert code == EXIT_VALIDATION

    def test_small_library_names_the_flag(self, capsys):
        assert main(["simulate", "--model", "soft", "--k", "6", "--d", "3"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "SimError: library size 3 < 6; pass allow_small_d=True (--allow-small-d) to permit\n"
        )
        assert main(["simulate", "--model", "soft", "--k", "6", "--d", "3", "--allow-small-d"]) == EXIT_OK

    @pytest.mark.parametrize("model, alpha", [("soft", "1,2,3"), ("full", "1,2")])
    def test_alpha_count_is_checked_by_the_config(self, capsys, model, alpha):
        assert main(["simulate", "--model", model, "--k", "6", "--alpha", alpha]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"ConfigError: {model} variant needs")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "soft", "--k", "6", "--demands", "explicit:"],
        ["simulate", "--model", "soft", "--k", "6", "--demands", "explicit:1,x,3,4,5,6"],
        ["simulate", "--model", "soft", "--k", "6", "--alpha", "abc"],
        ["simulate", "--model", "soft", "--k", "6", "--snr-db", "abc"],
        ["simulate", "--model", "soft", "--k", "6", "--snr-db", ""],
        ["simulate", "--model", "soft", "--k", "6", "--alpha", "1,nan,1,1,1,1"],
        ["simulate", "--model", "soft", "--k", "6", "--snr-db", "inf"],
        ["simulate", "--model", "soft", "--k", "6", "--epsilon", "nan"],
        ["simulate", "--model", "full", "--k", "6", "--alpha", "inf"],
        ["simulate", "--model", "soft", "--k", "6", "--epsilon", "1e-16"],
        ["tradeoff", "--model", "soft", "--x-max", "inf"],
        ["tradeoff", "--model", "soft", "--x-max", "nan"],
        ["simulate", "--model", "soft", "--k", "6", "--snr-db", "4000"],
        ["sweep", "--model", "soft", "--k", "6", "--snr-db", "20,4000"],
        ["simulate", "--model", "soft", "--k", "6", "--seed", "-1"],
    ],
)
def test_bad_input_gets_one_named_line(capsys, argv):
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    name, _, detail = captured.err.partition(": ")
    assert name.isidentifier() and detail and captured.err.count("\n") == 1


class TestNoIgnoredFlag:
    def test_sweep_has_no_assert(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--model", "soft", "--k", "6", "--assert", "all-success"])
        assert exc.value.code == EXIT_VALIDATION
        assert "--assert" in capsys.readouterr().err

    def test_simulate_takes_one_snr(self, capsys):
        code = main(["simulate", "--model", "soft", "--k", "6", "--snr-db", "20,40"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--model", "soft", "--k", "6", "--snr-db", "20,40"], ["tradeoff", "--model", "soft"]],
    )
    def test_plot_script_needs_out(self, tmp_path, capsys, argv):
        script = tmp_path / "plot.py"
        assert main([*argv, "--plot-script", str(script)]) == EXIT_VALIDATION
        assert "--plot-script needs --out" in capsys.readouterr().err
        assert not script.exists()


class TestTradeoffCommand:
    def test_breakpoint_rows(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["tradeoff", "--model", "full", "--points", "200", "--out", str(out)])
        assert code == EXIT_OK
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[1:]}
        assert rows["0"][1] == "0.666666666667"
        assert rows["1"][1] == "2" and rows["1"][2] == "2"

    def test_plot_script(self, tmp_path):
        out, script = tmp_path / "curve.csv", tmp_path / "plot.py"
        assert main(["tradeoff", "--model", "soft", "--out", str(out), "--plot-script", str(script)]) == EXIT_OK
        text = script.read_text()
        assert f"CURVE_CSV = {str(out)!r}" in text and "POINTS_CSV = None" in text

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

    def test_sweep_plot_script(self, tmp_path):
        out, script = tmp_path / "sweep.csv", tmp_path / "plot.py"
        flags = ["--snr-db", "20,40", "--out", str(out), "--plot-script", str(script)]
        assert main(["sweep", "--model", "soft", "--k", "6", *flags]) == EXIT_OK
        text = script.read_text()
        assert f"CURVE_CSV = {str(out)!r}" in text and f"POINTS_CSV = {str(out)!r}" in text

    def test_sweep_stdout_rows(self, capsys):
        assert main(["sweep", "--model", "soft", "--k", "6", "--snr-db", "20,40", "--demands", "distinct"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[-2:]
        assert rows == [
            "P=20 dB  rate=5.297914  MG=1.591393  success=1.0000",
            "P=40 dB  rate=10.823208  MG=1.629037  success=1.0000",
        ]


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

    def test_violations_serialized_in_field_order(self, capsys, monkeypatch):
        found = Violation("cancel_key", 2, 4, "Rx 4 lacks cached (3, 1) needed to cancel Tx 3")
        monkeypatch.setattr(cli, "verify_labels", lambda *args: [found])
        code = main(["verify-schedule", "--k", "6"])
        assert code == EXIT_VALIDATION
        doc = json.loads(capsys.readouterr().out)
        assert [list(v.items()) for v in doc["violations"]] == [
            [("kind", "cancel_key"), ("period", 2), ("actor", 4), ("detail", found.detail)]
        ]

    def test_no_library_floor(self, capsys):
        # D bounds the demands alone: no library is drawn, so D < 6 needs no flag, and the flag is gone
        assert main(["verify-schedule", "--k", "6", "--d", "3", "--demands", "random"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == [] and set(doc["demands"]) <= {1, 2, 3}
        with pytest.raises(SystemExit) as exc:
            main(["verify-schedule", "--k", "6", "--d", "3", "--allow-small-d"])
        assert exc.value.code == EXIT_VALIDATION
        # D >= 2 still holds
        assert main(["verify-schedule", "--k", "6", "--d", "1", "--demands", "equal"]) == EXIT_VALIDATION
        assert "need num_files >= 2" in capsys.readouterr().err

    def test_draws_and_splits_no_library(self, monkeypatch, capsys):
        # the check reads K, the demands and the cache labels, so a million files cost nothing:
        # no library is drawn, placed or split into Bitstring parts, in any module's binding
        def fail(*args, **kwargs):
            pytest.fail("verify-schedule built a library or a part")

        for name in ("random_library", "cache_placement_soft", "cache_placement_full"):
            for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "wynercache"]:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fail)
        monkeypatch.setattr(Bitstring, "__post_init__", fail)
        assert main(["verify-schedule", "--k", "9", "--d", "1000000"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == [] and doc["demands"] == list(range(1, 10))
