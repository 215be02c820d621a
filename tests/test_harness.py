import dataclasses
import functools
import itertools
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import wynercache.harness as harness
import wynercache.schemes.pipeline as pipeline
from gainoracle import PERIODS
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
    ConfigError,
    DemandVector,
    MessageLibrary,
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
from wynercache.schemes.schedule import NEEDED, SOFT_PERIODS
from wynercache.tradeoff import curve, ACHIEVABLE, achievable, upper_bound


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
    if spec.round_robin:
        return round_robin_soft(spec.config, library, demands, backend)
    if spec.prop1_extra_bits:
        return run_soft_prop1(spec.config, library, demands, spec.prop1_extra_bits, backend)
    if spec.config.variant is Variant.FULL:
        return run_full(spec.config, library, demands, backend)
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


def _flag_payload_bits(spec):
    """A spec's payload from its flags, as the harness stated it before it read the skeleton."""
    pieces = spec.config.k - 2 if spec.round_robin else 1
    return NEEDED[spec.config.variant] * spec.bits * pieces + spec.prop1_extra_bits


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
        # every block looks its plan up by library: the library's rows are hashed once, as one
        # bytes key, and the run builds and hashes no payload Bitstring
        libraries, keys, built, hashes = [], Counter(), [], []
        real_library, real_key = harness.random_library, MessageLibrary._key.func

        def drawn(*args, **kwargs):
            libraries.append(real_library(*args, **kwargs))
            return libraries[-1]

        def counted_key(self):
            keys[id(self)] += 1
            return real_key(self)

        key = functools.cached_property(counted_key)
        key.__set_name__(MessageLibrary, "_key")
        monkeypatch.setattr(harness, "random_library", drawn)
        monkeypatch.setattr(MessageLibrary, "_key", key)
        monkeypatch.setattr(Bitstring, "__post_init__", lambda self: built.append(self.length))
        monkeypatch.setattr(Bitstring, "__hash__", lambda self: hashes.append(self.length) or 0)
        run_experiment(_soft_spec(trials=24, **overrides))
        (library,) = libraries
        assert keys == {id(library): 1}
        assert built == hashes == []

    @pytest.mark.parametrize("block, blocks", [(None, 1), (5, 5)], ids=["one-block", "five-blocks"])
    @pytest.mark.parametrize(
        "policy, explicit, validated",
        [(DemandPolicy.RANDOM, None, 0), (DemandPolicy.DISTINCT, None, 0), (DemandPolicy.EXPLICIT, (2,) * 6, 1)],
        ids=["random", "distinct", "explicit"],
    )
    def test_one_demand_check_per_block(self, monkeypatch, policy, explicit, validated, block, blocks):
        # the runner checks every row of each block at once; validate checks an explicit
        # vector once per run. Both go through the row check that follows the block's
        # dtype and shape check
        if block is not None:
            monkeypatch.setattr(harness, "block_trials", lambda *args: block)
        calls = []
        real = DemandVector._check_rows

        def counted(demands, *args):
            calls.append(demands.shape)
            return real(demands, *args)

        monkeypatch.setattr(DemandVector, "_check_rows", staticmethod(counted))
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

    @pytest.mark.parametrize(
        "demands, match",
        [
            (np.ones((2, 6), dtype=bool), r"^demand block has dtype bool, expected integers$"),
            (np.ones((2, 6)), r"^demand block has dtype float64, expected integers$"),
            (np.ones((1, 2, 6), dtype=np.int64), r"^demand block has shape \(1, 2, 6\), expected \(T, K=6\)"),
            (np.ones((0, 6), dtype=np.int64), r"^demand block has shape \(0, 6\), expected \(T, K=6\) with T >= 1$"),
        ],
        ids=["bool", "float", "3-d", "no-rows"],
    )
    def test_block_is_a_2d_integer_array_with_rows(self, demands, match):
        lib = random_library(6, 40, seed=1)
        with pytest.raises(ConfigMismatch, match=match):
            run_soft(NetworkConfig.soft_handoff(6, 1.0, 1e4), lib, demands, Ideal())

    def test_one_demand_vector_takes_no_block_seeds(self):
        # one DemandVector runs on backend.seed; a seeds tuple would be silently ignored
        lib = random_library(6, 40, seed=1)
        cfg = NetworkConfig.soft_handoff(6, 1.0, 100.0)
        with pytest.raises(ConfigMismatch, match="backend.seed"):
            run_soft(cfg, lib, DemandVector((1,) * 6), MonteCarlo(288, seed=0), (5,))

    def test_ideal_block_takes_no_seeds(self):
        # an Ideal delivery draws no random stream; MC seeds given to it would be silently ignored
        lib = random_library(6, 40, seed=1)
        demands = np.ones((2, 6), dtype=np.int64)
        with pytest.raises(ConfigMismatch, match="Ideal delivery draws nothing; 2 Monte-Carlo seed"):
            run_soft(NetworkConfig.soft_handoff(6, 1.0, 1e4), lib, demands, Ideal(), (5, 6))

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
    full = scheme == "full" or scheme == "prop-1" and draw(st.booleans())  # prop-1 on either model
    policy = draw(st.sampled_from(DemandPolicy))
    exhaustive = policy is DemandPolicy.EXHAUSTIVE
    mc = draw(st.booleans())
    # MC links fail at P = 0.3 and decode at P = 100
    power = draw(st.sampled_from([0.3, 100.0])) if mc else 1e4
    if full:
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
        n=(1 if full else 3) * draw(st.integers(4, 40)),
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


class TestDemandStreams:
    """``_demands`` hashes every trial's ``SeedSequence((master_seed, t, tag))`` in one pass
    (``seed_states``), seeds each trial's ``PCG64`` with its words through ``_state_seed``, and
    reads the streams in array steps; the vectors are the public
    ``default_rng(SeedSequence((master_seed, t, tag))).integers(1, D + 1, K)`` draws."""

    @staticmethod
    def _drawn(spec, trials):
        """The block's rows and the streams that ``_demands`` redrew through ``default_rng``."""
        redrawn, real = [], np.random.default_rng
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.random, "default_rng", lambda s: redrawn.append(s) or real(s))
            rows = harness._demands(spec, trials)
        return rows, redrawn

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(3, 80),
        st.integers(2, 300) | st.sampled_from([3 * 2**30, 2**31 + 11]),
        st.integers(0, 2**64 - 1),
        st.integers(0, 10**6) | st.just(0),
        st.integers(1, 12),
    )
    def test_rows_are_the_per_trial_streams(self, k, d, seed, start, count):
        spec = _soft_spec(config=NetworkConfig.soft_handoff(k, 1.0, 1e4), num_files=d, master_seed=seed)
        trials = range(start, start + count)
        rows, _ = self._drawn(spec, trials)
        assert rows.dtype == np.int64 and rows.shape == (count, k)
        assert [tuple(row) for row in rows.tolist()] == [_demands_for_trial(spec, t).entries for t in trials]

    @pytest.mark.parametrize("d", [3 * 2**30, 2**31 + 11, 2**32, 2**40])
    @pytest.mark.parametrize("k", [3, 8])
    def test_rejected_words_are_redrawn(self, k, d):
        # a word is rejected with chance (2^32 mod D) / 2^32: 1/4 at 3 * 2^30, near 1/2 at
        # 2^31 + 11, so at K = 3 a block mixes both branches; at D >= 2^32 every trial is redrawn
        spec = _soft_spec(config=NetworkConfig.soft_handoff(k, 1.0, 1e4), num_files=d, master_seed=2**64 - 5)
        trials = range(40, 80)
        rows, redrawn = self._drawn(spec, trials)
        assert [tuple(row) for row in rows.tolist()] == [_demands_for_trial(spec, t).entries for t in trials]
        assert [s.entropy[1] for s in redrawn] == sorted({s.entropy[1] for s in redrawn})
        assert redrawn
        if d >= 2**32:
            assert len(redrawn) == len(trials)
        elif k == 3:
            assert len(redrawn) < len(trials)

    def test_small_d_draws_no_redraw(self):
        # at D = 6 a word is rejected with chance 4 / 2^32: no trial here takes the slow branch
        rows, redrawn = self._drawn(_soft_spec(trials=200), range(200))
        assert redrawn == [] and rows.shape == (200, 6)

    def test_a_block_builds_no_seed_sequence(self):
        spec = _soft_spec(config=NetworkConfig.soft_handoff(9, 1.0, 1e4), trials=200)
        built, real = [], np.random.SeedSequence
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.random, "SeedSequence", lambda *args, **kw: built.append(args) or real(*args, **kw))
            rows = harness._demands(spec, range(200))
        assert built == []
        assert [tuple(row) for row in rows.tolist()] == [_demands_for_trial(spec, t).entries for t in range(200)]

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**70 + 3])
    def test_trial_indices_past_one_word(self, seed):
        # trial 2^32 and later split into two words, another layout: they take the public draw.
        # At D = 8, 2^32 mod D = 0: Lemire's rule rejects no word, so only the layout redraws
        spec = _soft_spec(master_seed=seed, num_files=8)
        for trials in (range(2**32 - 2, 2**32 + 2), range(2**32 + 5, 2**32 + 7)):
            rows, redrawn = self._drawn(spec, trials)
            assert [tuple(row) for row in rows.tolist()] == [_demands_for_trial(spec, t).entries for t in trials]
            assert [s.entropy[1] for s in redrawn] == [t for t in trials if t >= 2**32]

    @pytest.mark.parametrize(
        "make",
        [lambda s: s.generate_state(4), lambda s: s.generate_state(8, np.uint64), np.random.MT19937, np.random.SFC64],
    )
    def test_state_seed_gives_only_its_words(self, make):
        state = np.arange(4, dtype=np.uint64)
        seed = harness._state_seed()(state)
        assert seed.generate_state(4, np.uint64) is state
        with pytest.raises(ValueError, match="4 uint64 words"):
            make(seed)

    def test_import_leaves_numpy_random_unloaded(self):
        # the seed class is made on first use: importing wynercache must not import numpy.random
        code = "import sys, wynercache, wynercache.cli; assert 'numpy.random' not in sys.modules, sorted(sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


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

    @pytest.mark.parametrize("policy", [p for p in DemandPolicy if p is not DemandPolicy.EXPLICIT])
    def test_explicit_demands_need_the_explicit_policy(self, policy):
        # demands given under another policy would be ignored, and the run would draw its own
        spec = _soft_spec(demand_policy=policy, explicit_demands=(1,) * 6)
        with pytest.raises(SimError, match="explicit demands need the explicit demand policy"):
            spec.validate()
        with pytest.raises(SimError, match="explicit demands need the explicit demand policy"):
            run_experiment(spec)

    @pytest.mark.parametrize(
        "variant, gains", [(Variant.SOFT_HANDOFF, "111111"), (Variant.FULL, (None,)), (Variant.SOFT_HANDOFF, (True,) * 6)]
    )
    def test_non_real_gains_of_a_direct_config(self, variant, gains):
        # a NetworkConfig built without soft_handoff/full skips their gain check; validate_config
        # checks each gain by the same rule
        spec = _soft_spec(config=NetworkConfig(variant, 6, gains, 1e4))
        with pytest.raises(ConfigError, match="alpha_1 must be a real number"):
            spec.validate()

    # each integer field, with a valid value and a backend that reads it
    INTEGER_FIELDS = {
        "num_files": ({}, 6),
        "bits": ({}, 8),
        "n": ({"backend": "mc", "trials": 2}, 288),
        "trials": ({}, 4),
        "master_seed": ({}, 7),
        "prop1_extra_bits": ({}, 8),
    }

    @pytest.mark.parametrize("bad", [8.0, True, np.bool_(True), "8", None], ids=repr)
    @pytest.mark.parametrize("field", list(INTEGER_FIELDS))
    def test_integer_fields_reject_other_types(self, field, bad):
        # a float, bool, str or None used to fail mid-run with a bare TypeError, or to run
        extra, _ = self.INTEGER_FIELDS[field]
        spec = _soft_spec(**extra, **{field: bad})
        for call in (spec.validate, lambda: run_experiment(spec)):  # anchored: no "trial t:" prefix
            with pytest.raises(SimError, match=f"^{field} must be an integer, got {re.escape(repr(bad))}$"):
                call()

    @pytest.mark.parametrize("field", list(INTEGER_FIELDS))
    def test_numpy_integer_fields_run_as_ints(self, field):
        extra, value = self.INTEGER_FIELDS[field]
        reports = []
        for v in (value, np.int64(value), np.uint64(value)):
            report = run_experiment(_soft_spec(**extra, **{field: v})).to_json()
            del report["wall_clock_s"]
            reports.append(json.dumps(report))
        assert reports == reports[:1] * 3 and f'"{field}": {value},' in reports[0]

    @pytest.mark.parametrize("model", ["soft", "full"])
    def test_numpy_k_runs_as_an_int(self, model):
        build = NetworkConfig.soft_handoff if model == "soft" else NetworkConfig.full
        reports = []
        for k in (6, np.int64(6), np.uint8(6)):
            config = build(k, 0.5, 1e4)
            assert type(config.k) is int
            report = run_experiment(_soft_spec(config=config)).to_json()
            del report["wall_clock_s"]
            reports.append(json.dumps(report))
        assert reports == reports[:1] * 3 and '"k": 6,' in reports[0]

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
    @pytest.mark.parametrize(
        "config, field",
        [
            (NetworkConfig(Variant.SOFT_HANDOFF, 6.0, (1.0,) * 6, 1e4), "K"),
            (NetworkConfig(Variant.SOFT_HANDOFF, 6, (1.0,) * 6, True), "power"),
            (NetworkConfig(Variant.FULL, 6, (0.5,), 1e4, True), "epsilon"),
            (NetworkConfig(Variant.SOFT_HANDOFF, 6, (True,) * 6, 1e4), "cross gain alpha_1"),
            (NetworkConfig("soft", 6, (1.0,), 1e4), "variant"),
        ],
        ids=["float-k", "bool-power", "bool-epsilon", "bool-gain", "str-variant"],
    )
    def test_config_field_types(self, config, field):
        # K = 6.0 used to pass validation and fail mid-run with a bare TypeError; a bool ran as 1
        _rejected_before_any_trial(_soft_spec(config=config, trials=2), ConfigError, match=f"^{field} ")

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

    @pytest.mark.parametrize("model", ["soft", "full"])
    def test_cross_gain_too_large_to_cancel(self, model):
        # float64 cancels a cached codeword sent at |alpha| <= 2^40; above that the residual
        # grows until MC reports wrong success rates, so such a gain is rejected by name
        build = lambda alpha: (
            NetworkConfig.soft_handoff(6, alpha, 1e4) if model == "soft" else NetworkConfig.full(6, alpha, 1e4)
        )
        report = run_experiment(_soft_spec(config=build(1e12), backend="mc", trials=4))
        assert report.guaranteed_success == 1.0
        for alpha in (2e12, 1e18, 1e300, -2e12):
            _rejected_before_any_trial(_soft_spec(config=build(alpha), backend="mc"), ConfigError, match="alpha_1")

    def test_mc_runs_where_the_back_off_is_lost_to_rounding(self):
        config = NetworkConfig.soft_handoff(6, 1.0, 1e4, 1e-16)
        report = run_experiment(_soft_spec(config=config, backend="mc", trials=1))
        assert report.guaranteed_success == 1.0

    @pytest.mark.parametrize(
        "demands, match",
        [
            ((1, 2, 3), "3 entries, expected K=6"),
            ((1, 2, 3, 4, 5, 9), "demand 9 outside 1..6"),
            ((1.7, 2, 3, 4, 5, 6), "demand 1.7 is not an integer"),
            ((1, 2, 3, 4, 5, 6.0), "demand 6.0 is not an integer"),
            ((1, True, 3, 4, 5, 6), "demand True is not an integer"),
        ],
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

    @pytest.mark.parametrize("extra", [{"round_robin": True}])
    def test_soft_only_schemes_on_full(self, extra):
        spec = _soft_spec(config=NetworkConfig.full(6, 0.7, 1e4), **extra)
        _rejected_before_any_trial(spec, ConfigMismatch, match="soft-handoff scheme only")


def _outcome(call):
    try:
        call()
    except SimError as exc:
        return type(exc), str(exc)
    return None


_SOFT_K = "soft-handoff schedule needs K >= 5, got {}"
_MDS_K = "round robin's GF(256) MDS code allows K <= 257, got K=258"
_RR_SOFT = "round robin applies to the soft-handoff scheme only"
_RR_TAIL = "round_robin runs no prop-1 placement; unset prop1_extra_bits"
_BYTES = "round robin needs the {}-bit payload split into K-2=5 whole-byte MDS parts; use a multiple of 8 for bits"
_soft, _full = (lambda k: NetworkConfig.soft_handoff(k, 1.0, 1e4)), (lambda k: NetworkConfig.full(k, 0.7, 1e4))
# (id, spec overrides, library bits for the runner (None: the spec's payload), validate(), runner)
_RULE_CASES = [
    ("soft-k3", dict(config=_soft(3)), None, (KTooSmall, _SOFT_K.format(3)), (KTooSmall, _SOFT_K.format(3))),
    ("soft-k4", dict(config=_soft(4)), None, (KTooSmall, _SOFT_K.format(4)), (KTooSmall, _SOFT_K.format(4))),
    ("rr-full", dict(config=_full(6), round_robin=True), None,
     (ConfigMismatch, _RR_SOFT), (ConfigMismatch, "config is full, scheme needs soft")),
    ("rr-k257", dict(config=_soft(257), round_robin=True), None, None, None),
    ("rr-k258", dict(config=_soft(258), round_robin=True), None, (ConfigMismatch, _MDS_K), (ConfigMismatch, _MDS_K)),
    ("rr-bits7", dict(config=_soft(7), round_robin=True, bits=7), None,
     (ConfigMismatch, _BYTES.format(175)), (ConfigMismatch, _BYTES.format(175))),
    ("rr-bits8", dict(config=_soft(7), round_robin=True, bits=8), None, None, None),
    *(
        (f"{model}-tail{tail}", dict(config=config, prop1_extra_bits=tail), None, outcome, outcome)
        for model, config in [("soft", _soft(6)), ("full", _full(6))]
        for tail, outcome in [(-1, (ConfigMismatch, "negative prop1_extra_bits -1")), (0, None), (3, None)]
    ),
    ("rr-tail3", dict(config=_soft(7), round_robin=True, prop1_extra_bits=3), None, (SimError, _RR_TAIL), None),
    ("mc-soft-n2", dict(backend="mc", n=2), None, (ConfigMismatch, "block length 2 too short for 3 period(s)"),
     (ConfigMismatch, "block length 2 too short for 3 period(s)")),
    ("mc-soft-n3", dict(backend="mc", n=3), None, None, None),
    ("mc-full-n0", dict(config=_full(6), backend="mc", n=0), None,
     (ConfigMismatch, "block length 0 too short for 1 period(s)"),
     (ConfigMismatch, "block length 0 too short for 1 period(s)")),
    ("mc-full-n1", dict(config=_full(6), backend="mc", n=1), None, None, None),
    ("soft-k4-tail-1", dict(config=_soft(4), prop1_extra_bits=-1), None,
     (KTooSmall, _SOFT_K.format(4)), (KTooSmall, _SOFT_K.format(4))),
    ("soft-k4-rr", dict(config=_soft(4), round_robin=True), None,
     (KTooSmall, _SOFT_K.format(4)), (KTooSmall, _SOFT_K.format(4))),
    ("soft-k4-mc-n2", dict(config=_soft(4), backend="mc", n=2), None,
     (KTooSmall, _SOFT_K.format(4)), (KTooSmall, _SOFT_K.format(4))),
    ("rr-k258-bits7", dict(config=_soft(258), round_robin=True, bits=7), None,
     (ConfigMismatch, _MDS_K), (ConfigMismatch, _MDS_K)),
    ("rr-full-bits7", dict(config=_full(6), round_robin=True, bits=7), None,
     (ConfigMismatch, _RR_SOFT), (ConfigMismatch, "config is full, scheme needs soft")),
    ("rr-k258-tail3", dict(config=_soft(258), round_robin=True, prop1_extra_bits=3), None, (SimError, _RR_TAIL), None),
    ("full-tail-1-mc-n0", dict(config=_full(6), prop1_extra_bits=-1, backend="mc", n=0), None,
     (ConfigMismatch, "negative prop1_extra_bits -1"), (ConfigMismatch, "negative prop1_extra_bits -1")),
    ("soft-library-41", {}, 41, None, (ConfigMismatch, "payload of 41 bits is not divisible into 5 parts")),
    ("full-library-3", dict(config=_full(6)), 3, None, (ConfigMismatch, "payload of 3 bits is not divisible into 2 parts")),
    ("tail-fills-library", dict(prop1_extra_bits=40), 40, None,
     (ConfigMismatch, "payload of 0 bits is not divisible into 5 parts")),
    ("rr-library-208", dict(config=_soft(7), round_robin=True), 208, None, (ConfigMismatch, _BYTES.format(208))),
]


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
            # a float or a bool entry, which the (T, K) demand block refuses, must not validate
            entries = st.integers(0, num_files + 1) | st.sampled_from([1.7, 2.0, True])
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
        # the skeleton states what the flags used to: the payload and the MC period rule
        assert spec.payload_bits() == _flag_payload_bits(spec)
        periods, mc = PERIODS[variant], lambda n: dataclasses.replace(spec, backend="mc", n=n)
        with pytest.raises(ConfigMismatch, match=f"^block length {periods - 1} too short for {periods} period"):
            mc(periods - 1).validate()
        mc(periods).validate()
        run_experiment(spec)

    @pytest.mark.parametrize("case", _RULE_CASES, ids=[case[0] for case in _RULE_CASES])
    def test_each_rule_raises_as_before(self, case):
        # each input's (class, message) from validate() and from the runner it maps to, recorded
        # before the placement rules moved onto the skeleton; None runs. The two MC block-length
        # runner rows read validate()'s message, the rule's one statement (``slot_length``). The
        # last four inputs are libraries that no spec draws, so validate() passes and only the
        # runner judges them
        _, overrides, library_bits, validated, ran = case
        spec = _soft_spec(**overrides)
        assert _outcome(spec.validate) == validated
        if spec.round_robin and spec.prop1_extra_bits:
            return  # no runner takes a round robin tail
        lib = random_library(spec.num_files, library_bits or _flag_payload_bits(spec), seed=1)
        demands = DemandVector((1,) * spec.config.k)
        assert _outcome(lambda: _run_single(spec, lib, demands, 0)) == ran


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

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(Variant.SOFT_HANDOFF, k) for k in (5, 6, 9)] + [(Variant.FULL, k) for k in (4, 6, 10)]),
        st.sampled_from(["K", "K+3", "2K"]),
        st.sampled_from([1, 3, 8]),
        st.sampled_from([0, 1, 7, 40, 200]),
    )
    @example((Variant.FULL, 10), "2K", 1, 200)  # the largest x, near 1 + delta / L = 201
    @example((Variant.SOFT_HANDOFF, 5), "K", 8, 1)
    def test_ideal_prop1_point_meets_the_curves(self, model, files, bits, extra_bits):
        # past x = 1 the full model reaches 1 + x only through prop-1's extra caching
        variant, k = model
        soft = variant is Variant.SOFT_HANDOFF
        config = NetworkConfig.soft_handoff(k, 1.0, 1e4) if soft else NetworkConfig.full(k, 0.5, 1e4)
        num_files = {"K": k, "K+3": k + 3, "2K": 2 * k}[files]
        spec = _soft_spec(
            config=config, num_files=num_files, bits=bits, prop1_extra_bits=extra_bits, trials=2, allow_small_d=True
        )
        (row,) = sweep_snr(spec, [80.0]).rows  # P = 10^8
        assert row.guaranteed_success == 1.0
        assert row.empirical_mg <= float(upper_bound(variant, row.x))
        assert row.empirical_mg == pytest.approx(float(achievable(variant, row.x)), abs=0.02)

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
