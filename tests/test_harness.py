import json
import math

import pytest

from wynercache.harness import (
    DemandPolicy,
    ExperimentSpec,
    InfeasibleRate,
    emit_plot_script,
    export_csv,
    resolve_workers,
    run_experiment,
    sweep_snr,
)
from wynercache.model import NetworkConfig, SimError, Variant
from wynercache.schemes import KTooSmall
from wynercache.tradeoff import curve, ACHIEVABLE


def _soft_spec(**overrides):
    defaults = dict(
        config=NetworkConfig.soft_handoff(6, 1.0, 1e4),
        backend="ideal",
        num_files=6,
        bits=8,
        trials=4,
        master_seed=7,
        demand_policy=DemandPolicy.RANDOM,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_exhaustive_interior_success(self):
        spec = _soft_spec(
            num_files=2,
            demand_policy=DemandPolicy.EXHAUSTIVE,
            allow_small_d=True,
        )
        report = run_experiment(spec)
        assert report.trials == 2**6
        assert report.interior_success == 1.0
        assert report.edge_success == 0.0

    def test_k7_edge_flag(self):
        spec = _soft_spec(config=NetworkConfig.soft_handoff(7, 1.0, 1e4), trials=5)
        report = run_experiment(spec)
        assert report.interior_success == 1.0
        assert report.per_receiver_success[1] == 0.0
        assert report.per_receiver_success[7] == 0.0

    def test_round_robin_all_receivers(self):
        spec = _soft_spec(
            config=NetworkConfig.soft_handoff(7, 1.0, 1e4), round_robin=True, trials=5
        )
        report = run_experiment(spec)
        assert all(v == 1.0 for v in report.per_receiver_success.values())

    def test_full_model(self):
        spec = _soft_spec(config=NetworkConfig.full(6, 0.7, 1e4), trials=5)
        report = run_experiment(spec)
        assert report.guaranteed_success == 1.0
        assert report.memory_bits_per_receiver == 6 * 8

    def test_replay_identical(self, tmp_path):
        a = run_experiment(_soft_spec())
        b = run_experiment(_soft_spec())
        ja, jb = a.to_json(), b.to_json()
        ja.pop("wall_clock_s"), jb.pop("wall_clock_s")
        assert ja == jb
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(a, str(pa))
        export_csv(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_workers_do_not_change_results(self, tmp_path):
        spec = _soft_spec(backend="mc", n=288, trials=8, config=NetworkConfig.soft_handoff(6, 1.0, 100.0))
        seq = run_experiment(spec, workers=1)
        par = run_experiment(spec, workers=4)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(seq, str(pa))
        export_csv(par, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_explicit_demands(self):
        spec = _soft_spec(
            demand_policy=DemandPolicy.EXPLICIT,
            explicit_demands=(3, 1, 4, 1, 5, 2),
            trials=2,
        )
        report = run_experiment(spec)
        assert report.interior_success == 1.0

    def test_timeshare_point_on_line(self):
        lam = 0.5
        spec = _soft_spec(timeshare_lambda=lam, trials=1)
        report = run_experiment(spec)
        point = report.timeshare_point
        assert point is not None
        # MG of the combined point sits between the anchors
        assert (2 / 3) <= point["empirical_mg"] <= 5 / 3
        # memory is the lambda fraction of the scheme's
        from wynercache.schemes import memory_rate_soft

        assert point["memory_per_user"] == pytest.approx(
            lam * memory_rate_soft(spec.config, 6)
        )

    def test_trial_errors_carry_index(self):
        spec = _soft_spec(
            config=NetworkConfig.soft_handoff(7, 1.0, 1e4),
            round_robin=True,
            bits=7,  # 5*7*(K-2) bits per MDS part is not byte aligned
            trials=1,
        )
        with pytest.raises(SimError, match="trial 0"):
            run_experiment(spec)


class TestSpecValidation:
    def test_exhaustive_limit(self):
        spec = _soft_spec(
            config=NetworkConfig.soft_handoff(12, 1.0, 1e4),
            num_files=6,
            demand_policy=DemandPolicy.EXHAUSTIVE,
        )
        with pytest.raises(SimError):
            spec.validate()

    def test_distinct_needs_enough_files(self):
        spec = _soft_spec(
            config=NetworkConfig.soft_handoff(7, 1.0, 1e4),
            num_files=6,
            demand_policy=DemandPolicy.DISTINCT,
        )
        with pytest.raises(SimError):
            spec.validate()

    def test_round_robin_soft_only(self):
        spec = _soft_spec(config=NetworkConfig.full(6, 0.7, 1e4), round_robin=True)
        with pytest.raises(SimError):
            spec.validate()

    def test_unknown_backend(self):
        spec = _soft_spec(backend="quantum")
        with pytest.raises(SimError):
            spec.validate()

    @pytest.mark.parametrize("k", [3, 4])
    def test_soft_small_k_rejected_before_any_trial(self, k):
        spec = _soft_spec(config=NetworkConfig.soft_handoff(k, 1.0, 1e4), num_files=k)
        with pytest.raises(KTooSmall):
            spec.validate()
        # the full model has no K >= 5 rule
        _soft_spec(config=NetworkConfig.full(4, 0.7, 1e4), num_files=4).validate()

    @pytest.mark.parametrize(
        "config",
        [NetworkConfig.soft_handoff(6, 1.0, 0.1), NetworkConfig.full(6, 0.7, 0.1, epsilon=0.09)],
    )
    def test_negative_ideal_rate_rejected(self, config):
        for extra in ({}, {"round_robin": config.variant is Variant.SOFT_HANDOFF}):
            with pytest.raises(InfeasibleRate):
                _soft_spec(config=config, **extra).validate()
        # Monte-Carlo runs at a positive block rate 5L/n whatever the power
        _soft_spec(config=config, backend="mc").validate()

    def test_sweep_rejects_infeasible_point(self):
        spec = _soft_spec(trials=1, demand_policy=DemandPolicy.DISTINCT)
        with pytest.raises(InfeasibleRate):
            sweep_snr(spec, [-10, 40])


class TestSweep:
    def test_mg_monotone_and_converges(self):
        spec = _soft_spec(trials=1, demand_policy=DemandPolicy.DISTINCT)
        result = sweep_snr(spec, [20, 40, 60, 80])
        mgs = [row.empirical_mg for row in result.rows]
        assert mgs == sorted(mgs)
        power = 10.0**8
        oracle = 5 / 3 - 5 * 0.05 / (0.5 * math.log2(1 + power))
        assert abs(mgs[-1] - oracle) <= 0.02
        assert all(row.guaranteed_success == 1.0 for row in result.rows)

    def test_full_model_sweep(self):
        spec = _soft_spec(config=NetworkConfig.full(6, 0.7, 1e4), trials=1)
        result = sweep_snr(spec, [20, 40, 60, 80])
        for row in result.rows:
            oracle = 2 - 2 * 0.05 / (0.5 * math.log2(1 + row.p_linear))
            assert row.empirical_mg == pytest.approx(oracle, abs=1e-3)

    def test_grid_must_increase(self):
        with pytest.raises(SimError):
            sweep_snr(_soft_spec(), [40, 20])


class TestExport:
    def test_report_csv(self, tmp_path):
        report = run_experiment(_soft_spec(trials=2))
        path = tmp_path / "report.csv"
        export_csv(report, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "receiver,success_rate,guaranteed"
        assert len(lines) == 7

    def test_sweep_csv_and_plot_script(self, tmp_path):
        spec = _soft_spec(trials=1, demand_policy=DemandPolicy.DISTINCT)
        result = sweep_snr(spec, [20, 40])
        csv_path = tmp_path / "sweep.csv"
        export_csv(result, str(csv_path))
        header = csv_path.read_text().splitlines()[0]
        assert header == "p_db,p_linear,x,rate,empirical_mg,success_rate"

        curve_path = tmp_path / "curve.csv"
        export_csv(curve(Variant.SOFT_HANDOFF, ACHIEVABLE, 20, 2), str(curve_path))
        script_path = tmp_path / "plot.py"
        emit_plot_script(str(curve_path), str(script_path), points_csv=str(csv_path))
        script = script_path.read_text()
        for name in ("s_ach", "s_ub", "empirical_mg", "matplotlib"):
            assert name in script

    def test_curve_csv_breakpoint_row(self, tmp_path):
        path = tmp_path / "curve.csv"
        export_csv(curve(Variant.SOFT_HANDOFF, ACHIEVABLE, 23, 2), str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        by_x = {row[0]: row for row in rows}
        assert by_x["0.666666666667"][1].startswith("1.6666666")

    def test_empty_like_report(self, tmp_path):
        # header row is always present
        path = tmp_path / "x.csv"
        export_csv(run_experiment(_soft_spec(trials=1)), str(path))
        assert path.read_text().splitlines()[0].startswith("receiver")


class TestWorkers:
    def test_explicit_wins(self):
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("WCS_WORKERS", "5")
        assert resolve_workers() == 5

    def test_default(self, monkeypatch):
        monkeypatch.delenv("WCS_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_bad_env(self, monkeypatch):
        monkeypatch.setenv("WCS_WORKERS", "lots")
        with pytest.raises(SimError):
            resolve_workers()
