import dataclasses
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import wynercache.harness as harness
import wynercache.schemes.pipeline as pipeline
from wynercache.harness import (
    DemandPolicy,
    ExperimentSpec,
    InfeasibleRate,
    emit_plot_script,
    export_csv,
    run_experiment,
    sweep_snr,
)
from wynercache.codec import MAX_CODEBOOK_BITS, TooManyWords
from wynercache.model import (
    Bitstring,
    DemandVector,
    NetworkConfig,
    SimError,
    Variant,
    derive_seed,
    random_library,
)
from wynercache.schemes import (
    ConfigMismatch,
    Ideal,
    KTooSmall,
    MonteCarlo,
    delivery_schedule_soft,
    round_robin_soft,
    run_full,
    run_soft,
    run_soft_prop1,
)
from wynercache.schemes.mds import MAX_K
from wynercache.schemes.schedule import SOFT_PERIODS
from wynercache.tradeoff import curve, ACHIEVABLE, upper_bound


# --- oracle: the per-trial harness loop ---------------------------------------
#
# run_experiment as it ran before it delivered blocks: each trial's demand vector
# drawn (or enumerated) on its own, one single-delivery runner call per trial,
# and the SimResults summed. run_experiment must report the same
# (TestBlocksMatchPerTrial).


def _demands_for_trial(spec, trial):
    k, d = spec.config.k, spec.num_files
    policy = spec.demand_policy
    if policy is DemandPolicy.DISTINCT:
        entries = range(1, k + 1)
    elif policy is DemandPolicy.ALL_EQUAL:
        entries = (1,) * k
    elif policy is DemandPolicy.EXPLICIT:
        entries = spec.explicit_demands or ()
    else:
        rng = np.random.default_rng(np.random.SeedSequence((spec.master_seed, trial, harness._TAG_DEMANDS)))
        entries = (int(x) for x in rng.integers(1, d + 1, size=k))
    return DemandVector(tuple(entries))


def _run_single(spec, library, demands, trial):
    if spec.backend == "ideal":
        backend = Ideal()
    else:
        backend = MonteCarlo(spec.n, derive_seed(spec.master_seed, trial, harness._TAG_BACKEND))
    if spec.config.variant is Variant.FULL:
        return run_full(spec.config, library, demands, backend)
    if spec.round_robin:
        return round_robin_soft(spec.config, library, demands, backend)
    if spec.prop1_extra_bits:
        return run_soft_prop1(spec.config, library, demands, spec.prop1_extra_bits, backend)
    return run_soft(spec.config, library, demands, backend)


def _per_trial_report(spec):
    """``run_experiment(spec).to_json()`` without ``wall_clock_s``, one trial at a time."""
    spec.validate()
    k = spec.config.k
    library = random_library(
        spec.num_files, spec.payload_bits(), derive_seed(spec.master_seed, harness._TAG_LIBRARY),
        allow_small_d=spec.allow_small_d,
    )
    if spec.demand_policy is DemandPolicy.EXHAUSTIVE:
        all_demands = [DemandVector(c) for c in itertools.product(range(1, spec.num_files + 1), repeat=k)]
    else:
        all_demands = [_demands_for_trial(spec, t) for t in range(spec.trials)]
    results = [_run_single(spec, library, d, trial) for trial, d in enumerate(all_demands)]
    trials = len(results)
    success_counts = {rx: 0 for rx in range(1, k + 1)}
    links = failures = 0
    for res in results:
        for rx, ok in res.success.items():
            success_counts[rx] += int(ok)
        links += res.links_total
        failures += res.link_failures
    per_rx = {rx: success_counts[rx] / trials for rx in range(1, k + 1)}
    guaranteed = results[0].guaranteed
    interior = [per_rx[rx] for rx in range(2, k)]
    edge = [per_rx[1], per_rx[k]]
    report = harness.ExperimentReport(
        spec=spec,
        trials=trials,
        per_receiver_success=per_rx,
        guaranteed=guaranteed,
        guaranteed_success=sum(per_rx[rx] for rx in guaranteed) / len(guaranteed),
        interior_success=sum(interior) / len(interior),
        edge_success=sum(edge) / len(edge),
        link_error_rate=failures / links if links else 0.0,
        rate_per_user=results[0].rate_per_user,
        memory_bits_per_receiver=results[0].memory_bits_per_receiver,
        empirical_mg=harness.empirical_mg(results[0].rate_per_user, spec.config.power),
        wall_clock_s=0.0,
    ).to_json()
    del report["wall_clock_s"]
    return report


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

    def test_explicit_demands(self):
        spec = _soft_spec(
            demand_policy=DemandPolicy.EXPLICIT,
            explicit_demands=(3, 1, 4, 1, 5, 2),
            trials=2,
        )
        report = run_experiment(spec)
        assert report.interior_success == 1.0

    def test_trial_errors_carry_index(self, monkeypatch):
        def failing_run_soft(*args):
            raise SimError("stubbed scheme failure")

        monkeypatch.setattr(harness, "run_soft", failing_run_soft)
        with pytest.raises(SimError, match="trial 0"):
            run_experiment(_soft_spec(trials=1))


class TestOncePerRun:
    """Work that a 24-trial run does once per run or once per trial, not more often."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"round_robin": True}, {"prop1_extra_bits": 3}, {"config": NetworkConfig.full(6, 0.5, 1e4)}],
        ids=["soft", "round-robin", "prop-1", "full"],
    )
    def test_each_payload_hashed_once(self, monkeypatch, overrides):
        # every trial looks its placement up by library; the library's hash is computed once
        libraries, hashes = [], Counter()
        real_library, real_hash = harness.random_library, Bitstring.__hash__

        def drawn(*args, **kwargs):
            libraries.append(real_library(*args, **kwargs))
            hashes.clear()
            return libraries[-1]

        def counted(self):
            hashes[id(self)] += 1
            return real_hash(self)

        monkeypatch.setattr(harness, "random_library", drawn)
        monkeypatch.setattr(Bitstring, "__hash__", counted)
        run_experiment(_soft_spec(trials=24, **overrides))
        (library,) = libraries
        assert [hashes[id(p)] for p in library] == [1] * library.num_files

    @pytest.mark.parametrize("block, blocks", [(None, 1), (5, 5)], ids=["one-block", "five-blocks"])
    @pytest.mark.parametrize(
        "policy, explicit, validated",
        [(DemandPolicy.RANDOM, None, 0), (DemandPolicy.DISTINCT, None, 0), (DemandPolicy.EXPLICIT, (2,) * 6, 1)],
        ids=["random", "distinct", "explicit"],
    )
    def test_one_demand_check_per_block(self, monkeypatch, policy, explicit, validated, block, blocks):
        # the runner checks every row of each block at once; validate checks an explicit
        # vector once per run
        if block is not None:
            monkeypatch.setattr(harness, "block_trials", lambda *args: block)
        calls = []
        real = DemandVector.check_block

        def counted(demands, *args):
            calls.append(demands.shape)
            return real(demands, *args)

        monkeypatch.setattr(DemandVector, "check_block", staticmethod(counted))
        run_experiment(_soft_spec(trials=24, demand_policy=policy, explicit_demands=explicit))
        assert len(calls) == blocks + validated
        assert sum(rows for rows, _ in calls[validated:]) == 24

    @pytest.mark.parametrize(
        "run, config, payload_bits",
        [
            (run_soft, NetworkConfig.soft_handoff(6, 1.0, 1e4), 40),
            (run_full, NetworkConfig.full(6, 0.5, 1e4), 16),
            (lambda *args: run_soft_prop1(*args[:3], 5, *args[3:]), NetworkConfig.soft_handoff(6, 1.0, 1e4), 45),
            (round_robin_soft, NetworkConfig.soft_handoff(6, 1.0, 1e4), 160),
        ],
        ids=["soft", "full", "prop-1", "round-robin"],
    )
    def test_bad_entry_in_the_last_row_of_a_block(self, run, config, payload_bits):
        demands = np.ones((5, 6), dtype=np.int64)
        demands[-1, -1] = 9
        lib = random_library(6, payload_bits, seed=1)
        with pytest.raises(ConfigMismatch, match="^demand 9 outside 1..6$"):
            run(config, lib, demands, Ideal())
        with pytest.raises(ConfigMismatch, match="^demand vector has 5 entries, expected K=6$"):
            run(config, lib, demands[:, :5], Ideal())

    def test_bad_entry_in_the_last_block_of_a_run(self, monkeypatch):
        monkeypatch.setattr(harness, "block_trials", lambda *args: 5)
        real = harness._demands

        def corrupted(spec, trials):
            demands = real(spec, trials)
            if trials.stop == spec.trials:
                demands[-1, -1] = 9
            return demands

        monkeypatch.setattr(harness, "_demands", corrupted)
        with pytest.raises(ConfigMismatch, match="^trials 20-23: demand 9 outside 1..6$"):
            run_experiment(_soft_spec(trials=24))


@st.composite
def _specs(draw):
    """Specs of every scheme, backend and demand policy, at most 64 trials."""
    scheme = draw(st.sampled_from(["soft", "full", "round robin", "prop-1"]))
    policy = draw(st.sampled_from(DemandPolicy))
    exhaustive = policy is DemandPolicy.EXHAUSTIVE
    mc = draw(st.booleans())
    # MC links fail at P = 0.3 and decode at P = 100
    power = draw(st.sampled_from([0.3, 100.0])) if mc else 1e4
    if scheme == "full":
        k = 2 * draw(st.integers(2, 3 if exhaustive else 4))
        config = NetworkConfig.full(k, 0.7, power)
    else:
        k = draw(st.integers(5, 6 if exhaustive else 8))
        config = NetworkConfig.soft_handoff(k, 1.0, power)
    low = k if policy is DemandPolicy.DISTINCT else 2
    num_files = 2 if exhaustive else draw(st.integers(low, max(low, k + 2)))
    explicit = None
    if policy is DemandPolicy.EXPLICIT:
        explicit = tuple(draw(st.lists(st.integers(1, num_files), min_size=k, max_size=k)))
    return ExperimentSpec(
        config=config,
        backend="mc" if mc else "ideal",
        num_files=num_files,
        bits=8 if scheme == "round robin" else draw(st.integers(1, 12)),
        n=(1 if scheme == "full" else 3) * draw(st.integers(4, 40)),
        trials=draw(st.integers(1, 40)),
        master_seed=draw(st.integers(0, 2**32)),
        demand_policy=policy,
        explicit_demands=explicit,
        round_robin=scheme == "round robin",
        prop1_extra_bits=draw(st.integers(1, 20)) if scheme == "prop-1" else 0,
        allow_small_d=True,
    )


class TestBlocksMatchPerTrial:
    """Blocks of trials give the report of one delivery per trial (``_per_trial_report``)."""

    @settings(max_examples=80, deadline=None)
    @given(_specs(), st.integers(1, 4000) | st.just(pipeline.BLOCK_BYTES))
    def test_same_report(self, spec, budget):
        # a small budget splits a run into blocks of a few trials, budget 1 into single trials
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "BLOCK_BYTES", budget)
            report = run_experiment(spec).to_json()
        del report["wall_clock_s"]
        assert report == _per_trial_report(spec)

    @pytest.mark.parametrize("policy", list(DemandPolicy))
    def test_block_rows_are_the_per_trial_vectors(self, policy):
        # an Ideal report does not depend on the demands, so the rows are compared directly
        spec = _soft_spec(
            num_files=3, allow_small_d=True, trials=30, demand_policy=policy, explicit_demands=(3, 1, 2, 1, 3, 2)
        )
        if policy is DemandPolicy.EXHAUSTIVE:
            vectors = list(itertools.product(range(1, 4), repeat=6))
        else:
            vectors = [_demands_for_trial(spec, t).entries for t in range(spec.trials)]
        for start, stop in [(0, 1), (0, 7), (7, 20), (20, 30), (25, len(vectors))]:
            rows = harness._demands(spec, range(start, stop))
            assert rows.shape == (stop - start, 6)
            assert [tuple(row) for row in rows.tolist()] == vectors[start:stop]


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
        _soft_spec(config=NetworkConfig.full(4, 0.7, 1e4), num_files=6).validate()

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


def _rejected_before_any_trial(spec, error, match=None):
    with pytest.raises(error, match=match):
        spec.validate()
    with pytest.raises(error) as exc:
        run_experiment(spec)
    assert "trial" not in str(exc.value)


class TestLateFailuresRejected:
    def test_mc_codebook_bits_capped(self):
        _rejected_before_any_trial(
            _soft_spec(backend="mc", bits=MAX_CODEBOOK_BITS + 1), TooManyWords
        )
        _soft_spec(backend="mc", bits=MAX_CODEBOOK_BITS).validate()
        # the Ideal backend draws no codebook
        _soft_spec(bits=MAX_CODEBOOK_BITS + 1).validate()

    def test_soft_period_constant_matches_schedule(self):
        schedule = delivery_schedule_soft(6, DemandVector((1, 2, 3, 4, 5, 6)))
        assert len(schedule.periods) == SOFT_PERIODS

    @pytest.mark.parametrize(
        "config, periods",
        [(NetworkConfig.soft_handoff(6, 1.0, 1e4), SOFT_PERIODS), (NetworkConfig.full(6, 0.7, 1e4), 1)],
    )
    def test_mc_block_covers_every_period(self, config, periods):
        _rejected_before_any_trial(
            _soft_spec(config=config, backend="mc", n=periods - 1), ConfigMismatch
        )
        report = run_experiment(_soft_spec(config=config, backend="mc", n=periods, trials=1))
        assert report.trials == 1
        # the Ideal backend has no block length
        _soft_spec(config=config, n=0).validate()

    @pytest.mark.parametrize(
        "config, extra",
        [
            (NetworkConfig.soft_handoff(6, 1.0, 1e4, 1e-16), {}),
            (NetworkConfig.soft_handoff(6, 1.0, 1e4, 1e-16), {"round_robin": True}),
            (NetworkConfig.full(6, 1.0, 1e4, 1e-16), {}),
        ],
    )
    def test_ideal_back_off_lost_to_rounding(self, config, extra):
        # eps=1e-16 vanishes from P - eps at P=1e4, so the weakest link would
        # run at capacity, so it is rejected instead of reported as link failures
        _rejected_before_any_trial(
            _soft_spec(config=config, **extra), InfeasibleRate, match="lost to rounding"
        )
        _soft_spec(config=config, backend="mc", **extra).validate()
        report = run_experiment(
            _soft_spec(config=dataclasses.replace(config, epsilon=1e-15), trials=5, **extra)
        )
        assert report.link_error_rate == 0.0
        assert report.guaranteed_success == 1.0

    def test_mc_runs_where_the_back_off_is_lost_to_rounding(self):
        config = NetworkConfig.soft_handoff(6, 1.0, 1e4, 1e-16)
        report = run_experiment(_soft_spec(config=config, backend="mc", trials=1))
        assert report.guaranteed_success == 1.0

    @pytest.mark.parametrize(
        "demands, match",
        [((1, 2, 3), "3 entries, expected K=6"), ((1, 2, 3, 4, 5, 9), "demand 9 outside 1..6")],
    )
    def test_explicit_demands_checked(self, demands, match):
        spec = _soft_spec(demand_policy=DemandPolicy.EXPLICIT, explicit_demands=demands)
        _rejected_before_any_trial(spec, SimError, match=match)

    @pytest.mark.parametrize(
        "num_files, allow_small_d, match",
        [(3, False, "library size 3 < 6"), (1, True, "need num_files >= 2")],
    )
    def test_library_size_checked(self, num_files, allow_small_d, match):
        # the same checks random_library makes, made before any trial
        spec = _soft_spec(num_files=num_files, allow_small_d=allow_small_d)
        _rejected_before_any_trial(spec, SimError, match=match)
        _soft_spec(num_files=max(num_files, 2), allow_small_d=True).validate()

    def test_negative_prop1_extra_bits(self):
        _rejected_before_any_trial(_soft_spec(prop1_extra_bits=-3), ConfigMismatch)
        _soft_spec(prop1_extra_bits=0).validate()

    def test_round_robin_mds_parts_are_whole_bytes(self):
        k7 = NetworkConfig.soft_handoff(7, 1.0, 1e4)
        # 5 * 7 = 35 bits per MDS part
        _rejected_before_any_trial(_soft_spec(config=k7, round_robin=True, bits=7), ConfigMismatch)
        report = run_experiment(_soft_spec(config=k7, round_robin=True, bits=8, trials=1))
        assert report.guaranteed_success == 1.0

    def test_round_robin_k_within_mds_field(self):
        big = _soft_spec(config=NetworkConfig.soft_handoff(MAX_K + 1, 1.0, 1e4), round_robin=True)
        _rejected_before_any_trial(big, ConfigMismatch, match=f"K <= {MAX_K}, got K={MAX_K + 1}")
        _soft_spec(config=NetworkConfig.soft_handoff(MAX_K, 1.0, 1e4), round_robin=True).validate()

    def test_round_robin_with_prop1_rejected(self):
        spec = _soft_spec(
            config=NetworkConfig.soft_handoff(7, 1.0, 1e4), round_robin=True, prop1_extra_bits=10
        )
        _rejected_before_any_trial(spec, SimError, match="round_robin.*prop1_extra_bits")

    def test_negative_seed(self):
        _rejected_before_any_trial(_soft_spec(master_seed=-1), SimError, match="master_seed")
        _soft_spec(master_seed=0).validate()

    @pytest.mark.parametrize("extra", [{"round_robin": True}, {"prop1_extra_bits": 8}])
    def test_soft_only_schemes_on_full(self, extra):
        spec = _soft_spec(config=NetworkConfig.full(6, 0.7, 1e4), **extra)
        _rejected_before_any_trial(spec, ConfigMismatch, match="soft-handoff scheme only")


class TestValidateMatchesTheRun:
    """``ExperimentSpec.validate`` and the runners state each rule once, so they agree."""

    def test_runner_rejects_k_beyond_the_mds_field(self):
        k = MAX_K + 1
        lib = random_library(6, 5 * 8 * (k - 2), seed=1)
        with pytest.raises(ConfigMismatch, match=f"K <= {MAX_K}, got K={k}"):
            round_robin_soft(NetworkConfig.soft_handoff(k, 1.0, 1e4), lib, DemandVector((1,) * k))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_a_validated_spec_runs(self, data):
        # the first value, which validates, at least half the time, so many specs reach a run
        draw = lambda *values: data.draw(st.just(values[0]) | st.sampled_from(values))
        variant, k = draw(*Variant), draw(6, *range(3, 10))
        gains = (1.0,) * k if variant is Variant.SOFT_HANDOFF else (0.7,)
        config = NetworkConfig(variant, k, gains, draw(1e4, 10.0, 0.05), draw(0.05, 1e-16))
        num_files, policy = draw(6, 1, 2, 3, 8), draw(*DemandPolicy)
        explicit = None
        if policy is DemandPolicy.EXPLICIT:
            entries = st.integers(0, num_files + 1)
            explicit = data.draw(
                st.none() | st.lists(entries, min_size=k, max_size=k).map(tuple)
                | st.lists(entries, max_size=10).map(tuple)
            )
        if policy is DemandPolicy.EXHAUSTIVE:
            assume(num_files**k <= 2000)
        spec = ExperimentSpec(
            config=config, backend=draw("ideal", "mc"), num_files=num_files, bits=draw(8, 0, 1, 3),
            n=draw(30, 0, 1, 3), trials=1, master_seed=draw(0, -1, 2**70), demand_policy=policy,
            explicit_demands=explicit, round_robin=draw(False, True),
            prop1_extra_bits=draw(0, -1, 3, 8), allow_small_d=draw(False, True),
        )
        try:
            spec.validate()  # any exception but a SimError fails the property
        except SimError:
            return
        run_experiment(spec)


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

    @pytest.mark.parametrize(
        "overrides, x_limit",
        [
            (dict(), 2 / 3),
            (dict(prop1_extra_bits=40), None),
            (dict(config=NetworkConfig.soft_handoff(7, 1.0, 1e4), round_robin=True), 2 / 3),
            (dict(config=NetworkConfig.full(6, 0.7, 1e4)), 1.0),
        ],
    )
    def test_x_is_the_runs_own_memory_point(self, overrides, x_limit):
        spec = _soft_spec(trials=1, **overrides)
        rows = sweep_snr(spec, [20, 40, 80]).rows
        for row in rows:
            if row.guaranteed_success == 1.0:
                assert row.empirical_mg <= float(upper_bound(spec.config.variant, row.x))
        if x_limit is not None:
            assert rows[-1].x == pytest.approx(x_limit, abs=0.01)


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
