import copy
import dataclasses
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import wynercache.harness as harness
import wynercache.schemes.pipeline as pipeline
import wynercache.schemes.placement as placement
import wynercache.schemes.points as points
from test_codec import LinkBudget, _z, ideal_link
from wynercache.channel import cancel_known, transmit_full, transmit_soft
from wynercache.codec import capacity, draw_codebook, nn_decode
from wynercache.harness import ExperimentSpec, run_experiment
from wynercache.model import (
    Bitstring,
    DemandVector,
    MessageLibrary,
    NetworkConfig,
    OddKForFullModel,
    Variant,
    derive_seed,
    random_library,
)
from wynercache.schemes import (
    SILENT,
    BlockResult,
    ConfigMismatch,
    Ideal,
    InfeasibleRate,
    InvalidSchedule,
    MonteCarlo,
    PowerViolation,
    SimResult,
    check_ideal_rate,
    mds_decode,
    mds_encode,
    rate_full,
    rate_soft,
    reconstruct_five,
    round_robin_soft,
    run_full,
    run_soft,
    run_soft_prop1,
)
from wynercache.schemes.schedule import (
    DecodePlan,
    DeliverySchedule,
    Direct,
    PeriodSchedule,
    XorPair,
    delivery_schedule_full,
    delivery_schedule_soft,
)


# --- oracle: the dict walk of the placed schedule ------------------------------
#
# Delivery as a walk over the schedule's dicts of Bitstrings: every Tx action's
# sent word and every link's part are looked up per trial, each receiver's parts
# are keyed by label, and its needed lowest labels are combined with
# reconstruct_five (soft) or concatenation (full). Prop-1 and round robin are
# assembled around it as separate runs: one base delivery plus the cached tails,
# and K deliveries over rotated configs plus an MDS combine. The pipeline
# compiles every scheme into one plan of index arrays once, at placement; it
# must return the same SimResult (TestCompiledMatchesDictWalk).


def _schedule(plan):
    """The placed schedule of a base plan, one ``PeriodSchedule`` per period."""
    return [per.schedule for per in plan.periods]


def _needed(cfg):
    return 5 if cfg.variant is Variant.SOFT_HANDOFF else 2


def _recompiled(plan, schedule):
    """The base ``plan`` with ``schedule`` in place of its placed schedule."""
    cfg = plan.cfg
    return pipeline._compile(cfg, plan.library, plan.placement, plan.guaranteed, _needed(cfg), schedule)


def _result(library, demands, decoded, **fields):
    """Check each receiver's decoded payload against its demanded file."""
    success = {rx: guess == library.payload(demands.for_rx(rx)) for rx, guess in decoded.items()}
    return SimResult(decoded=decoded, success=success, **fields)


def _blockwise(run):
    """The block form of the single-delivery runner ``run``: each row of a (T, K) block of
    demands delivered on its own, an MC row with its own seed, and the results summed."""

    def block(cfg, library, demands, backend, seeds=()):
        backends = [MonteCarlo(backend.n, seed) for seed in seeds] or [backend] * len(demands)
        results = [run(cfg, library, DemandVector(tuple(row)), b) for row, b in zip(demands.tolist(), backends)]
        return BlockResult(
            np.array([[res.success[rx] for rx in range(1, cfg.k + 1)] for res in results]),
            results[0].guaranteed,
            sum(res.links_total for res in results),
            sum(res.link_failures for res in results),
            results[0].rate_per_user,
            results[0].memory_bits_per_receiver,
        )

    return block


def _execute_dict(scheme, demands, backend, bits_per_part, n_slot):
    """Run the placed schedule for ``demands``; per-rx decoded part label -> bits, failures, links."""
    cfg, placement, d = scheme.cfg, scheme.placement, demands.for_rx
    decoded = {rx: {} for rx in range(1, cfg.k + 1)}
    failures = links = 0

    def sent(action):
        if isinstance(action, Direct):
            return placement.parts[d(action.file)][action.part - 1].value
        return (
            placement.parts[d(action.file_a)][action.part_a - 1].value
            ^ placement.parts[d(action.file_b)][action.part_b - 1].value
        )

    for per in _schedule(scheme):
        if isinstance(backend, MonteCarlo):
            plans = {rx: plan for rx, plan in per.rx_plans.items() if plan is not None}
            gain = np.array([cfg.gain_at(rx) for rx in range(1, cfg.k + 1)])
            cb = draw_codebook(
                n_slot,
                bits_per_part,
                cfg.power - cfg.epsilon,
                derive_seed(backend.seed, pipeline._SEED_CODEBOOK, per.index),
                [-1 if a.kind == "silent" else sent(a) for a in per.tx_actions.values()],
                cfg.power,
            )
            noise_seed = derive_seed(backend.seed, pipeline._SEED_NOISE, per.index)
            if cfg.variant is Variant.SOFT_HANDOFF:
                y = transmit_soft(cb.word, cfg.gains, noise_seed)
            else:
                y = transmit_full(cb.word, cfg.alpha, noise_seed)
            known = np.zeros((cfg.k, cfg.k))
            decoders = {}
            for rx, plan in plans.items():
                known[rx - 1, [tx - 1 for tx, _, _ in plan.cancel]] = 1.0
                decoders.setdefault(plan.source, []).append(rx)
            y = cancel_known(y, gain[:, None], known @ cb.word)
            guesses = np.zeros(cfg.k, dtype=np.int64)
            for size in sorted({len(rxs) for rxs in decoders.values()}):
                src = np.array([tx for tx, rxs in decoders.items() if len(rxs) == size]) - 1
                at = np.array([decoders[tx + 1] for tx in src]) - 1
                guesses[at] = nn_decode(cb, src, y[at], np.where(at == src[:, None], 1.0, gain[at]))

        for rx, plan in per.rx_plans.items():
            if plan is None:
                continue
            links += 1
            if isinstance(backend, Ideal):
                guess = sent(per.tx_actions[plan.source])
            else:
                guess = int(guesses[rx - 1])
                failures += guess != int(cb.sent[plan.source - 1])
            if plan.strip:
                guess ^= placement.lookup(rx, d(plan.strip[0]), plan.strip[1]).value
            decoded[rx][plan.target[1]] = Bitstring(bits_per_part, guess)
    return decoded, failures, links


def _deliver_dict(scheme, demands, backend, execute=_execute_dict):
    """``pipeline._deliver`` over ``execute``, combining each receiver's labelled parts."""
    cfg, library = scheme.cfg, scheme.library
    DemandVector.checked(demands, cfg.k, library.num_files)
    periods, needed = len(scheme.periods), _needed(cfg)
    bits_per_part = library.payload_bits // needed
    if isinstance(backend, Ideal):
        rate, n_slot = points.check_ideal_rate(cfg), 0
    else:
        n_slot = backend.n // periods
        rate = library.payload_bits / (periods * n_slot)
    got, failures, links = execute(scheme, demands, backend, bits_per_part, n_slot)
    soft = cfg.variant is Variant.SOFT_HANDOFF
    combine = reconstruct_five if soft else lambda parts: Bitstring.concat_all(parts.values())
    decoded = {}
    for rx, parts in got.items():
        cached = scheme.placement.parts[demands.for_rx(rx)]
        have = {**{p: cached[p - 1] for p in scheme.placement.labels[rx]}, **parts}
        chosen = dict(sorted(have.items())[:needed])
        decoded[rx] = combine(chosen) if len(chosen) == needed else None
    return _result(
        library,
        demands,
        decoded,
        guaranteed=scheme.guaranteed,
        links_total=links,
        link_failures=failures,
        rate_per_user=rate,
        memory_bits_per_receiver=scheme.placement.bits_per_receiver,
    )


def _prop1_dict(cfg, library, demands, extra_bits, backend):
    """Prop-1 as the base delivery of the main pieces, each decoded piece followed by its tail."""
    main_bits = library.payload_bits - extra_bits
    mains = MessageLibrary(tuple(Bitstring(main_bits, p.value >> extra_bits) for p in library))
    tails = tuple(Bitstring(extra_bits, p.value & ((1 << extra_bits) - 1)) for p in library)
    main = _deliver_dict(pipeline._scheme(cfg, mains), demands, backend)
    decoded = {
        rx: None if guess is None else guess.concat(tails[demands.for_rx(rx) - 1])
        for rx, guess in main.decoded.items()
    }
    return _result(
        library,
        demands,
        decoded,
        guaranteed=main.guaranteed,
        links_total=main.links_total,
        link_failures=main.link_failures,
        rate_per_user=main.rate_per_user * (library.payload_bits / main_bits),
        memory_bits_per_receiver=main.memory_bits_per_receiver + library.num_files * extra_bits,
    )


def _role_of(physical, ell, k):
    """Role that physical node ``physical`` plays in super-period ``ell``."""
    return (physical - ell - 1) % k + 1


def _physical_of(role, ell, k):
    return (role + ell - 1) % k + 1


def _round_robin_dict(cfg, library, demands, backend):
    """Round robin as K deliveries of the soft scheme over rotated configs, each of one
    MDS-coded sub-library, then an MDS decode of each receiver's K-2 lowest super-periods."""
    DemandVector.checked(demands, cfg.k, library.num_files)
    k = cfg.k
    coded = [mds_encode(list(p.split(k - 2))) for p in library]
    collected = {rx: {} for rx in range(1, k + 1)}
    failures = links = memory = 0
    for ell in range(1, k + 1):
        gains = tuple(cfg.gain_at(_physical_of(r, ell, k)) for r in range(1, k + 1))
        scheme = pipeline._scheme(
            NetworkConfig.soft_handoff(k, gains, cfg.power, cfg.epsilon),
            MessageLibrary(tuple(parts[ell - 1] for parts in coded)),
        )
        sub_demands = DemandVector(tuple(demands.for_rx(_physical_of(r, ell, k)) for r in range(1, k + 1)))
        sub_backend = backend
        if isinstance(backend, MonteCarlo):
            sub_backend = MonteCarlo(backend.n, derive_seed(backend.seed, pipeline._SEED_SUPER, ell))
        sub = _deliver_dict(scheme, sub_demands, sub_backend)
        failures, links = failures + sub.link_failures, links + sub.links_total
        memory += sub.memory_bits_per_receiver
        for rx in range(1, k + 1):
            role = _role_of(rx, ell, k)
            if role in sub.guaranteed and sub.decoded[role] is not None:
                collected[rx][ell] = sub.decoded[role]
    decoded = {
        rx: Bitstring.concat_all(mds_decode(dict(sorted(parts.items())[: k - 2]), k))
        if len(parts) >= k - 2
        else None
        for rx, parts in collected.items()
    }
    return _result(
        library,
        demands,
        decoded,
        guaranteed=tuple(range(1, k + 1)),
        links_total=links,
        link_failures=failures,
        rate_per_user=sub.rate_per_user * (k - 2) / k,
        memory_bits_per_receiver=memory,
    )


def _execute_compiled(scheme, demands, backend, bits_per_part, n_slot):
    """``pipeline._links`` of a one-trial block, keyed as the oracles key it: per-rx decoded part
    label -> bits."""
    own = pipeline._sources(scheme, np.array([demands.entries]))
    seeds = [backend.seed] if isinstance(backend, MonteCarlo) else []
    (values,), failures = pipeline._links(scheme, own, backend, n_slot, seeds)
    targets = [
        (rx, plan.target[1])
        for per in _schedule(scheme)
        for rx, plan in per.rx_plans.items()
        if plan is not None
    ]
    decoded = {rx: {} for rx in range(1, scheme.cfg.k + 1)}
    for (rx, label), value in zip(targets, values, strict=True):
        decoded[rx][label] = Bitstring(bits_per_part, int.from_bytes(value.tobytes(), "big"))
    return decoded, failures, len(targets)


# --- oracle: per-transmitter Monte-Carlo streams -----------------------------
#
# The MC delivery loop one transmitter at a time: every active transmitter draws
# its codebook from its own generator, seeded by (period, tx), each receiver's
# noise comes from its own spawned stream, and each codebook is decoded on its
# own. The pipeline, which draws each period as one batch, must decide with the
# same law (TestBatchedMatchesPerTx).


def _per_rx_noise(seed, k, n):
    streams = np.random.SeedSequence(seed).spawn(k)
    return np.stack([np.random.default_rng(s).standard_normal(n) for s in streams])


def _execute_per_tx(scheme, demands, backend, bits_per_part, n_slot):
    """``_execute_dict`` on a MonteCarlo backend, one codebook and decode per transmitter."""
    cfg, placement, d = scheme.cfg, scheme.placement, demands.for_rx
    decoded = {rx: {} for rx in range(1, cfg.k + 1)}
    failures = links = 0

    def sent(action):
        if isinstance(action, Direct):
            return placement.parts[d(action.file)][action.part - 1].value
        return (
            placement.parts[d(action.file_a)][action.part_a - 1].value
            ^ placement.parts[d(action.file_b)][action.part_b - 1].value
        )

    for per in _schedule(scheme):
        codebooks, x = {}, np.zeros((cfg.k, n_slot))
        for tx, action in per.tx_actions.items():
            if action.kind != "silent":
                codebooks[tx] = draw_codebook(
                    n_slot,
                    bits_per_part,
                    cfg.power - cfg.epsilon,
                    derive_seed(backend.seed, pipeline._SEED_CODEBOOK, per.index, tx),
                    [sent(action)],
                    cfg.power,
                )
                x[tx - 1] = codebooks[tx].word[0]
        if cfg.variant is Variant.SOFT_HANDOFF:
            y = transmit_soft(x, cfg.gains, noiseless=True)
        else:
            y = transmit_full(x, cfg.alpha, noiseless=True)
        noise_seed = derive_seed(backend.seed, pipeline._SEED_NOISE, per.index)
        y = y + _per_rx_noise(noise_seed, cfg.k, n_slot)
        decoders = {}
        for rx, plan in per.rx_plans.items():
            if plan is not None:
                y_rx = y[rx - 1]
                for tx, _, _ in plan.cancel:
                    y_rx = cancel_known(y_rx, cfg.gain_at(rx), codebooks[tx].word[0])
                gain = 1.0 if plan.source == rx else cfg.gain_at(rx)
                decoders.setdefault(plan.source, []).append((rx, y_rx, gain))
        for tx, group in decoders.items():
            rxs, ys, gains = zip(*group)
            for rx, guess in zip(rxs, nn_decode(codebooks[tx], [0], [ys], [gains])[0].tolist()):
                plan = per.rx_plans[rx]
                links += 1
                failures += guess != int(codebooks[tx].sent[0])
                if plan.strip:
                    guess ^= placement.lookup(rx, d(plan.strip[0]), plan.strip[1]).value
                decoded[rx][plan.target[1]] = Bitstring(bits_per_part, guess)
    return decoded, failures, links


def _soft_cfg(k=6, alpha=1.0, power=1e4, eps=0.05):
    return NetworkConfig.soft_handoff(k, alpha, power, eps)


def _rate_soft_oracle(alpha_min, power, eps):
    # independent evaluation of the scheme's configured rate
    return (5 / 3) * 0.5 * math.log2(1 + alpha_min**2 * (power - eps)) - 5 * eps


def _rate_full_oracle(power, eps):
    return 2 * (0.5 * math.log2(1 + power - eps) - eps)


class TestRunSoftIdeal:
    def test_distinct_demands(self):
        cfg = _soft_cfg()
        lib = random_library(6, 40, seed=1)
        res = run_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)))
        assert all(res.success[rx] for rx in range(2, 6))
        assert not res.success[1] and not res.success[6]
        assert res.guaranteed == (2, 3, 4, 5)
        assert res.link_failures == 0

    def test_rate_matches_formula(self):
        for alpha_min in (0.5, 1.0):
            for power in (1e2, 1e4, 1e8):
                cfg = _soft_cfg(alpha=alpha_min, power=power)
                lib = random_library(6, 40, seed=1)
                res = run_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)))
                assert res.rate_per_user == pytest.approx(
                    _rate_soft_oracle(alpha_min, power, 0.05), abs=1e-12
                )

    def test_memory_accounting(self):
        lib = random_library(6, 40, seed=1)  # L = 8
        res = run_soft(_soft_cfg(), lib, DemandVector((1,) * 6))
        assert res.memory_bits_per_receiver == 2 * 6 * 8

    def test_exhaustive_d2_k6(self):
        cfg = _soft_cfg()
        lib = random_library(2, 40, seed=7, allow_small_d=True)
        for combo in itertools.product((1, 2), repeat=6):
            res = run_soft(cfg, lib, DemandVector(combo))
            assert res.all_guaranteed_ok(), combo

    def test_all_equal_demands(self):
        cfg = _soft_cfg()
        lib = random_library(6, 40, seed=2)
        res = run_soft(cfg, lib, DemandVector((1,) * 6))
        assert res.all_guaranteed_ok()

    def test_k7_edge_receivers_fail(self):
        cfg = _soft_cfg(k=7)
        lib = random_library(6, 40, seed=3)
        res = run_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6, 1)))
        assert all(res.success[rx] for rx in range(2, 7))
        assert not res.success[1] and not res.success[7]

    def test_decoded_payload_bit_exact(self):
        cfg = _soft_cfg()
        lib = random_library(6, 40, seed=4)
        d = DemandVector((3, 1, 4, 1, 5, 2))
        res = run_soft(cfg, lib, d)
        for rx in range(2, 6):
            assert res.decoded[rx] == lib.payload(d.for_rx(rx))


class TestRunFullIdeal:
    def test_all_receivers(self):
        cfg = NetworkConfig.full(6, 0.7, 1e4)
        lib = random_library(6, 16, seed=5)
        res = run_full(cfg, lib, DemandVector((2, 1, 4, 6, 3, 5)))
        assert all(res.success.values())
        assert res.guaranteed == (1, 2, 3, 4, 5, 6)

    def test_rate_matches_formula(self):
        for power in (1e2, 1e4, 1e8):
            cfg = NetworkConfig.full(6, 0.7, power)
            lib = random_library(6, 16, seed=5)
            res = run_full(cfg, lib, DemandVector((1,) * 6))
            assert res.rate_per_user == pytest.approx(_rate_full_oracle(power, 0.05), abs=1e-12)

    def test_memory_accounting(self):
        lib = random_library(6, 16, seed=5)  # L = 8
        res = run_full(NetworkConfig.full(6, 0.7, 1e4), lib, DemandVector((1,) * 6))
        assert res.memory_bits_per_receiver == 6 * 8

    @pytest.mark.parametrize("k", [4, 6])
    def test_exhaustive_d2(self, k):
        cfg = NetworkConfig.full(k, 0.5, 1e4)
        lib = random_library(2, 16, seed=6, allow_small_d=True)
        for combo in itertools.product((1, 2), repeat=k):
            res = run_full(cfg, lib, DemandVector(combo))
            assert all(res.success.values()), combo

    def test_odd_k_rejected(self):
        cfg = NetworkConfig.full(7, 0.5, 1e4)
        lib = random_library(6, 16, seed=6)
        with pytest.raises(OddKForFullModel):
            run_full(cfg, lib, DemandVector((1,) * 7))


class TestMonteCarlo:
    def test_soft_reproducible(self):
        cfg = _soft_cfg(power=100.0)
        lib = random_library(6, 40, seed=8)
        d = DemandVector((1, 2, 3, 4, 5, 6))
        a = run_soft(cfg, lib, d, MonteCarlo(n=288, seed=5))
        b = run_soft(cfg, lib, d, MonteCarlo(n=288, seed=5))
        assert a.decoded == b.decoded and a.link_failures == b.link_failures

    def test_soft_success_at_high_snr(self):
        cfg = _soft_cfg(power=100.0)
        lib = random_library(6, 40, seed=8)
        rng = np.random.default_rng(0)
        for t in range(20):
            d = DemandVector(tuple(int(x) for x in rng.integers(1, 7, size=6)))
            res = run_soft(cfg, lib, d, MonteCarlo(n=288, seed=t))
            assert res.all_guaranteed_ok()
            assert res.link_failures == 0

    def test_full_success_at_high_snr(self):
        cfg = NetworkConfig.full(6, 0.7, 100.0)
        lib = random_library(6, 16, seed=9)
        rng = np.random.default_rng(1)
        for t in range(20):
            d = DemandVector(tuple(int(x) for x in rng.integers(1, 7, size=6)))
            res = run_full(cfg, lib, d, MonteCarlo(n=128, seed=t))
            assert all(res.success.values())

    def test_reported_rate(self):
        cfg = _soft_cfg(power=100.0)
        lib = random_library(6, 40, seed=8)  # 5 parts of 8 bits
        res = run_soft(cfg, lib, DemandVector((1,) * 6), MonteCarlo(n=288, seed=0))
        assert res.rate_per_user == pytest.approx(40 / (3 * 96))

    def test_errors_above_capacity(self):
        # per-link rate 8/96; power set so the rate is >= 1.5x capacity
        power = 0.129
        cfg = _soft_cfg(power=power)
        rate = 8 / 96
        assert rate >= 1.5 * capacity(1.0, power - cfg.epsilon)
        lib = random_library(6, 40, seed=8)
        rng = np.random.default_rng(2)
        links = failures = 0
        for t in range(60):
            d = DemandVector(tuple(int(x) for x in rng.integers(1, 7, size=6)))
            res = run_soft(cfg, lib, d, MonteCarlo(n=288, seed=t))
            links += res.links_total
            failures += res.link_failures
        assert failures / links >= 0.3

    def test_power_violation_guard(self, monkeypatch):
        # force an over-power codebook through the pipeline's hard power assert
        real_draw = pipeline.draw_codebook

        def hot_draw(*args):
            cb = real_draw(*args)
            return dataclasses.replace(cb, word=cb.word * 10.0)

        monkeypatch.setattr(pipeline, "draw_codebook", hot_draw)
        cfg = _soft_cfg(power=100.0)
        lib = random_library(6, 40, seed=8)
        with pytest.raises(PowerViolation):
            run_soft(cfg, lib, DemandVector((1,) * 6), MonteCarlo(n=288, seed=0))

    def test_out_of_subnet_transmitter_is_irrelevant(self):
        # silencing a transmitter outside a receiver's subnet must not change the error
        # law of that receiver's links. The words not sent are drawn per decode batch,
        # so silencing shifts the period's codebook stream: the comparison is of error
        # counts, at a power where links fail
        import copy
        import dataclasses

        from wynercache.schemes.pipeline import _scheme
        from wynercache.schemes.schedule import SILENT

        cfg = _soft_cfg(power=0.3)
        lib = random_library(6, 40, seed=8)
        d = DemandVector((1, 2, 3, 4, 5, 6))
        scheme = _scheme(cfg, lib)
        muted = delivery_schedule_soft(6, DemandVector((1, 2, 3, 4, 5, 6)))
        # silence the whole second subnet of period 1 (tx 4 and 5 serve rx 4..6)
        muted.periods[0].tx_actions[4] = SILENT
        muted.periods[0].tx_actions[5] = SILENT
        for rx in (4, 5, 6):
            muted.periods[0].rx_plans[rx] = None
        truth, _, _ = _execute_compiled(scheme, d, Ideal(), 8, 0)
        labels = {rx: muted.periods[0].rx_plans[rx].target[1] for rx in (1, 2, 3)}
        trials, errors = 400, []
        for placed in (scheme, _recompiled(scheme, muted)):
            errors.append(0)
            for t in range(trials):
                got, _, _ = _execute_compiled(placed, d, MonteCarlo(n=288, seed=t), 8, 96)
                errors[-1] += sum(got[rx][lb] != truth[rx][lb] for rx, lb in labels.items())
        links = len(labels) * trials
        assert errors[0] > 0.02 * links
        assert abs(_z(*errors, links)) <= 4, errors


class TestBatchedMatchesPerTx:
    """One codebook generator and one noise block per period decide with the law of
    per-transmitter codebook streams and per-receiver noise (``_execute_per_tx``)."""

    def test_oracle_replays_the_per_tx_run(self, monkeypatch):
        # pins the oracle to the per-transmitter streams: with them, the spec of the
        # mc-soft-p0.3 golden case decodes as follows
        def per_tx(scheme, demands, backend, *args):
            run = _execute_per_tx if isinstance(backend, MonteCarlo) else _execute_dict
            return run(scheme, demands, backend, *args)

        def run_soft(cfg, library, demands, backend):
            return _deliver_dict(pipeline._scheme(cfg, library), demands, backend, per_tx)

        monkeypatch.setattr(harness, "run_soft", _blockwise(run_soft))
        spec = ExperimentSpec(config=_soft_cfg(power=0.3), backend="mc", trials=4, master_seed=15)
        report = run_experiment(spec)
        assert report.per_receiver_success == {1: 0.0, 2: 0.75, 3: 0.75, 4: 1.0, 5: 1.0, 6: 0.0}
        assert report.link_error_rate == 4 / 60

    @pytest.mark.parametrize(
        "cfg, payload_bits, n, trials",
        [
            # every XOR codebook is decoded at two receivers, with gains 1 and 0.9; the
            # cross gains are large enough that a skipped cancellation fails the test
            (_soft_cfg(alpha=0.9, power=1.0), 40, 72, 200),
            (NetworkConfig.full(6, 1.0, 0.3), 16, 96, 500),
        ],
    )
    def test_link_error_rates_agree(self, cfg, payload_bits, n, trials):
        scheme = pipeline._scheme(cfg, random_library(6, payload_bits, seed=3))
        n_slot, bits = n // len(scheme.periods), payload_bits // _needed(cfg)
        rng = np.random.default_rng(1)
        links = Counter()  # per number of receivers decoding the link's codebook
        errors = {run: Counter() for run in (_execute_compiled, _execute_per_tx)}
        for t in range(trials):
            d = DemandVector(tuple(int(x) for x in rng.integers(1, 7, size=6)))
            truth, _, _ = _execute_compiled(scheme, d, Ideal(), bits, 0)
            runs = {run: run(scheme, d, MonteCarlo(n, seed=t), bits, n_slot)[0] for run in errors}
            for per in _schedule(scheme):
                plans = {rx: plan for rx, plan in per.rx_plans.items() if plan is not None}
                receivers = Counter(plan.source for plan in plans.values())
                for rx, plan in plans.items():
                    size, label = receivers[plan.source], plan.target[1]
                    links[size] += 1
                    for run, got in runs.items():
                        errors[run][size] += got[rx][label] != truth[rx][label]
        batched, per_tx = errors.values()
        assert sorted(links) == ([1, 2] if cfg.variant is Variant.SOFT_HANDOFF else [1])
        for size, count in links.items():
            assert per_tx[size] > 0.02 * count, (per_tx, links)
            assert abs(_z(batched[size], per_tx[size], count)) <= 4, (batched, per_tx, links)


def _base_dict(cfg, library, demands, backend):
    return _deliver_dict(pipeline._scheme(cfg, library), demands, backend)


@st.composite
def _deliveries(draw):
    """(run, oracle, cfg, library, demands, backend): soft, full, prop-1 or round robin,
    parts up to 70 bits."""
    scheme = draw(st.sampled_from(["soft", "full", "prop-1", "round robin"]))
    mc = draw(st.booleans())
    # MC at powers where links fail and where they do not; Ideal above its rate check
    power = 10.0 ** draw(st.floats(-0.5, 2.0) if mc else st.floats(1.0, 8.0))
    if scheme == "full":
        k = 2 * draw(st.integers(2, 5))
        cfg = NetworkConfig.full(k, draw(st.floats(0.1, 2.0)), power)
    else:
        k = draw(st.integers(5, 8))
        gains = draw(st.lists(st.floats(0.3, 3.0), min_size=k, max_size=k))
        cfg = NetworkConfig.soft_handoff(k, gains, power)
    # bits per part: an MC codebook holds 2^bits words; round robin needs whole bytes
    bits = draw(st.integers(1, 12 if mc else 70))
    extra = draw(st.integers(1, 20))
    payload_bits, run, oracle = {
        "soft": (5 * bits, run_soft, _base_dict),
        "full": (2 * bits, run_full, _base_dict),
        "prop-1": (
            5 * bits + extra,
            lambda *args: run_soft_prop1(*args[:3], extra, args[3]),
            lambda *args: _prop1_dict(*args[:3], extra, args[3]),
        ),
        "round robin": (5 * 8 * max(1, bits // 8) * (k - 2), round_robin_soft, _round_robin_dict),
    }[scheme]
    num_files = draw(st.integers(2, k + 2))
    lib = random_library(num_files, payload_bits, seed=draw(st.integers(0, 99)), allow_small_d=True)
    demands = DemandVector(tuple(draw(st.lists(st.integers(1, num_files), min_size=k, max_size=k))))
    periods = 1 if scheme == "full" else 3
    backend = MonteCarlo(periods * draw(st.integers(1, 40)), draw(st.integers(0, 2**32))) if mc else Ideal()
    return run, oracle, cfg, lib, demands, backend


class TestCompiledMatchesDictWalk:
    """Every scheme compiled into one plan delivers what the dict walk and its assembly deliver."""

    @settings(max_examples=120, deadline=None)
    @given(_deliveries())
    def test_same_sim_result(self, delivery):
        run, oracle, cfg, lib, demands, backend = delivery
        assert run(cfg, lib, demands, backend) == oracle(cfg, lib, demands, backend)

    def test_replace_recompiles_the_plan(self):
        # the same muted schedule as test_out_of_subnet_transmitter_is_irrelevant:
        # without a recompiled plan that test would compare a schedule with itself
        scheme = pipeline._scheme(_soft_cfg(), random_library(6, 40, seed=8))
        muted = delivery_schedule_soft(6, DemandVector((1, 2, 3, 4, 5, 6)))
        muted.periods[0].tx_actions[4] = SILENT
        muted.periods[0].tx_actions[5] = SILENT
        for rx in (4, 5, 6):
            muted.periods[0].rx_plans[rx] = None
        placed = _recompiled(scheme, muted)
        assert placed.silent[:6].tolist() == [False, False, True, True, True, True]
        assert scheme.silent[:6].tolist() == [False, False, True, False, False, True]
        assert len(placed.link_rx) == len(scheme.link_rx) - 3 == 12
        d = DemandVector((1, 2, 3, 4, 5, 6))
        full, cut = (pipeline._run(s, d, Ideal(), ()) for s in (scheme, placed))
        assert (full.links_total, cut.links_total) == (15, 12)
        # rx 4 and 5 lose their period-1 part and with it a fifth label
        assert [rx for rx in range(2, 6) if cut.success[rx]] == [2, 3]
        assert all(full.success[rx] for rx in range(2, 6))


class TestInputValidation:
    def test_wrong_variant(self):
        cfg = NetworkConfig.full(6, 0.7, 1e4)
        lib = random_library(6, 40, seed=1)
        with pytest.raises(ConfigMismatch):
            run_soft(cfg, lib, DemandVector((1,) * 6))

    def test_payload_not_divisible(self):
        cfg = _soft_cfg()
        lib = random_library(6, 42, seed=1)
        with pytest.raises(ConfigMismatch):
            run_soft(cfg, lib, DemandVector((1,) * 6))

    def test_demand_length(self):
        cfg = _soft_cfg()
        lib = random_library(6, 40, seed=1)
        with pytest.raises(ConfigMismatch):
            run_soft(cfg, lib, DemandVector((1, 2, 3)))

    def test_demand_range(self):
        cfg = _soft_cfg()
        lib = random_library(6, 40, seed=1)
        with pytest.raises(ConfigMismatch):
            run_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 7)))


PLACEMENTS = ("cache_placement_soft", "cache_placement_full")
SCHEDULES = ("delivery_schedule_soft", "delivery_schedule_full")


class TestPlaceOnce:
    """Placement and the schedule build run once per (config, library), not once per trial."""

    @staticmethod
    def _count(monkeypatch, *names, module=pipeline):
        calls = []
        for name in names:
            real = getattr(module, name)

            def counted(*args, _real=real):
                calls.append(args)
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(config=_soft_cfg()),
            dict(config=NetworkConfig.full(6, 0.5, 1e4)),
            dict(config=_soft_cfg(power=100.0), backend="mc"),
            dict(config=_soft_cfg(), prop1_extra_bits=10),
        ],
    )
    def test_one_placement_per_experiment(self, monkeypatch, kwargs):
        placements = self._count(monkeypatch, *PLACEMENTS)
        schedules = self._count(monkeypatch, *SCHEDULES)
        checks = self._count(monkeypatch, "verify_schedule")
        assert run_experiment(ExperimentSpec(**kwargs, trials=5, master_seed=90210)).trials == 5
        assert len(placements) == 1
        assert len(schedules) == 1
        assert len(checks) == 1

    def test_each_file_split_once(self, monkeypatch):
        splits = [
            self._count(monkeypatch, "split_soft", "split_full", module=module)
            for module in (pipeline, placement)
        ]
        spec = ExperimentSpec(config=_soft_cfg(), trials=5, master_seed=90212)
        assert run_experiment(spec).trials == 5
        assert sum(map(len, splits)) == 6  # D=6 files

    def test_round_robin_places_each_rotation_once(self, monkeypatch):
        placements = self._count(monkeypatch, *PLACEMENTS)
        schedules = self._count(monkeypatch, *SCHEDULES)
        checks = self._count(monkeypatch, "verify_schedule")
        spec = ExperimentSpec(config=_soft_cfg(k=7), round_robin=True, trials=5, master_seed=90211)
        assert run_experiment(spec).trials == 5
        assert len(placements) == 7
        assert len(schedules) == 7
        assert len(checks) == 7

    def test_invalid_schedule_rejected_at_placement(self, monkeypatch):
        # a template whose rx-2 plan cancels part 5, which rx 2 (class 2: parts 3, 4)
        # does not cache; Tx 1 and rx 1 are changed to match, so that is the only violation
        real = pipeline.delivery_schedule_soft

        def broken(k, demands):
            schedule = copy.deepcopy(real(k, demands))
            per = schedule.periods[0]
            per.tx_actions[1] = Direct(1, 5)
            per.rx_plans[1] = DecodePlan(1, (), None, (1, 5))
            per.rx_plans[2] = dataclasses.replace(per.rx_plans[2], cancel=((1, 1, 5),))
            return schedule

        monkeypatch.setattr(pipeline, "delivery_schedule_soft", broken)
        pipeline._scheme.cache_clear()
        lib = random_library(6, 40, seed=5)
        with pytest.raises(InvalidSchedule, match=r"^1 violation\(s\), first cancel_key: Rx 2 lacks"):
            run_soft(_soft_cfg(), lib, DemandVector((1, 2, 3, 4, 5, 6)))


def _resolve(template, demands):
    """``template`` with every file reference j replaced by the demand of receiver j."""
    d = demands.for_rx

    def action(a):
        if isinstance(a, Direct):
            return Direct(d(a.file), a.part)
        if isinstance(a, XorPair):
            return XorPair(d(a.file_a), a.part_a, d(a.file_b), a.part_b)
        return a

    def plan(p):
        if p is None:
            return None
        return DecodePlan(
            p.source,
            tuple((tx, d(f), part) for tx, f, part in p.cancel),
            None if p.strip is None else (d(p.strip[0]), p.strip[1]),
            (d(p.target[0]), p.target[1]),
        )

    periods = tuple(
        PeriodSchedule(
            per.index,
            per.silent_class,
            {tx: action(a) for tx, a in per.tx_actions.items()},
            {rx: plan(p) for rx, p in per.rx_plans.items()},
        )
        for per in template.periods
    )
    return DeliverySchedule(template.variant, template.k, demands, periods)


class TestPlacedSchedule:
    """The placed schedule, with file j read as receiver j's demand, is the per-demand schedule."""

    @pytest.mark.parametrize(
        "variant, k", [("soft", k) for k in range(5, 13)] + [("full", k) for k in (4, 6, 8, 10)]
    )
    def test_template_maps_to_builder(self, variant, k):
        if variant == "soft":
            cfg, payload_bits, build = _soft_cfg(k=k), 40, delivery_schedule_soft
        else:
            cfg, payload_bits, build = NetworkConfig.full(k, 0.5, 1e4), 16, delivery_schedule_full
        num_files = k + 3  # random demands reach file ids above K
        lib = random_library(num_files, payload_bits, seed=k, allow_small_d=True)
        periods = tuple(_schedule(pipeline._scheme(cfg, lib)))
        template = DeliverySchedule(cfg.variant, k, DemandVector(tuple(range(1, k + 1))), periods)
        rng = np.random.default_rng(k)
        vectors = [tuple(range(1, k + 1)), (num_files,) * k] + [
            tuple(int(x) for x in rng.integers(1, num_files + 1, size=k)) for _ in range(20)
        ]
        for entries in vectors:
            demands = DemandVector(entries)
            assert _resolve(template, demands) == build(k, demands)


_GAIN = st.builds(lambda sign, g: sign * g, st.sampled_from([-1.0, 1.0]), st.floats(0.05, 4.0))


@st.composite
def _ideal_configs(draw):
    power = 10.0 ** draw(st.floats(-1.0, 10.0))
    eps = draw(st.floats(1e-9, 0.5, exclude_max=True))
    assume(eps < power)
    if draw(st.booleans()):
        k = draw(st.integers(5, 12))
        return NetworkConfig.soft_handoff(k, draw(st.lists(_GAIN, min_size=k, max_size=k)), power, eps)
    return NetworkConfig.full(2 * draw(st.integers(2, 6)), draw(_GAIN), power, eps)


class TestIdealDemandIndependence:
    """An Ideal run's success map is the same for every demand vector.

    ``verify_schedule`` checks the placed schedule against cached part labels,
    which no demand changes, and ``check_ideal_rate`` passes every link before
    delivery, so the demands leave nothing to vary.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_two_demand_vectors_give_the_same_success(self, data):
        scheme = data.draw(st.sampled_from(["soft", "full", "prop-1", "round robin"]))
        power = 10.0 ** data.draw(st.floats(1.0, 8.0))
        if scheme == "full":
            k = 2 * data.draw(st.integers(2, 6))
            cfg = NetworkConfig.full(k, data.draw(st.floats(0.1, 2.0)), power)
        else:
            k = data.draw(st.integers(5, 9))
            gains = data.draw(st.lists(st.floats(0.3, 3.0), min_size=k, max_size=k))
            cfg = NetworkConfig.soft_handoff(k, gains, power)
        num_files = data.draw(st.integers(2, k + 2))
        demands = st.lists(st.integers(1, num_files), min_size=k, max_size=k)
        a, b = (DemandVector(tuple(data.draw(demands))) for _ in range(2))
        payload_bits, run = {
            "soft": (40, run_soft),
            "full": (16, run_full),
            "prop-1": (50, lambda *args: run_soft_prop1(*args, 10)),
            "round robin": (40 * (k - 2), round_robin_soft),
        }[scheme]
        lib = random_library(num_files, payload_bits, seed=k, allow_small_d=True)
        assert run(cfg, lib, a).success == run(cfg, lib, b).success


class TestIdealRateCheck:
    """One check of the scheme rate against the weakest link replaces a test on every link."""

    @settings(max_examples=150, deadline=None)
    @given(_ideal_configs())
    def test_check_passes_iff_every_link_does(self, cfg):
        soft = cfg.variant is Variant.SOFT_HANDOFF
        rate = rate_soft(cfg) if soft else rate_full(cfg)
        try:
            assert check_ideal_rate(cfg) == rate
        except InfeasibleRate:
            assert rate < 0
            return
        assert rate >= 0
        # the per-link rule the delivery loop used to apply, as the reference
        scheme = pipeline._scheme(cfg, random_library(6, 40, seed=1))
        link_rate = len(scheme.periods) * rate / _needed(cfg)
        for per in _schedule(scheme):
            for rx, plan in per.rx_plans.items():
                if plan is not None:
                    gain = 1.0 if plan.source == rx else cfg.gain_at(rx)
                    assert ideal_link(LinkBudget(gain, link_rate, cfg.power - cfg.epsilon))

    @pytest.mark.parametrize(
        "run, cfg",
        [
            (run_soft, _soft_cfg(eps=1e-16)),
            (run_soft, _soft_cfg(alpha=(1, 0.5, 1, 1, 1, 1), eps=1e-16)),
            (round_robin_soft, _soft_cfg(eps=1e-16)),
            (run_full, NetworkConfig.full(6, 1.0, 1e4, 1e-16)),
        ],
    )
    def test_back_off_lost_to_rounding_rejected_by_direct_runs(self, run, cfg):
        lib = random_library(6, 160, seed=2)
        with pytest.raises(InfeasibleRate, match="lost to rounding"):
            run(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)))

    @settings(max_examples=60, deadline=None)
    @given(_ideal_configs().filter(lambda cfg: cfg.variant is Variant.SOFT_HANDOFF))
    def test_check_ignores_rotation(self, cfg):
        # round robin checks the physical config once: each rotation only permutes the gains
        try:
            rate = check_ideal_rate(cfg)
        except InfeasibleRate as exc:
            rate = str(exc)
        for shift in range(1, cfg.k):
            gains = cfg.gains[shift:] + cfg.gains[:shift]
            rotated = NetworkConfig.soft_handoff(cfg.k, gains, cfg.power, cfg.epsilon)
            if isinstance(rate, str):
                with pytest.raises(InfeasibleRate, match=re.escape(rate)):
                    check_ideal_rate(rotated)
            else:
                assert check_ideal_rate(rotated) == rate

    @pytest.mark.parametrize(
        "kwargs, placed",
        [
            (dict(config=_soft_cfg(k=60), num_files=60), 1),
            (dict(config=NetworkConfig.full(6, 0.5, 1e4)), 1),
            (dict(config=_soft_cfg(k=7), round_robin=True), 1),
        ],
    )
    def test_one_link_check_per_placed_scheme(self, monkeypatch, kwargs, placed):
        # 5 trials deliver 5 times per placed plan; the rate is checked once per plan.
        # Round robin is one plan, checked on the physical config, not once per rotation
        for cache in (pipeline._scheme, pipeline._rotate):
            cache.cache_clear()
        checks = []
        real = points.capacity

        def counted(*args):
            checks.append(args)
            return real(*args)

        monkeypatch.setattr(points, "capacity", counted)
        report = run_experiment(ExperimentSpec(**kwargs, trials=5, master_seed=7))
        assert report.link_error_rate == 0.0
        assert len(checks) == placed + 1  # one per placed plan, one in validate


class TestLazyDecodeLayout:
    """Only an MC delivery builds a period's decode layout (``_Period.layout``)."""

    @pytest.mark.parametrize(
        "run, cfg, payload_bits, place",
        [
            (run_soft, _soft_cfg(), 40, pipeline._scheme),
            (run_full, NetworkConfig.full(6, 0.5, 1e4), 16, pipeline._scheme),
            (round_robin_soft, _soft_cfg(), 160, pipeline._rotate),
        ],
    )
    def test_ideal_runs_never_build_it(self, run, cfg, payload_bits, place):
        for cache in (pipeline._scheme, pipeline._rotate):
            cache.cache_clear()
        lib = random_library(6, payload_bits, seed=3)
        d = DemandVector((1, 2, 3, 4, 5, 6))
        assert run(cfg, lib, d).link_failures == 0
        periods = place(cfg, lib).periods  # the cached plan the run delivered with
        assert not any("layout" in vars(per) for per in periods)
        run(cfg, lib, d, MonteCarlo(n=3 * 16, seed=0))
        assert all("layout" in vars(per) for per in periods)
