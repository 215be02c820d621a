import copy
import dataclasses
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import wynercache.harness as harness
import wynercache.schemes.pipeline as pipeline
import wynercache.schemes.placement as placement
import wynercache.schemes.points as points
from gainoracle import by_model_check, gain_at, ideal_rate, scheduled_gain
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
    cache_placement_full,
    cache_placement_soft,
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
# reconstruct_five (soft) or concatenation (full). The placement and the schedule
# are rebuilt from the public builders, not read off the plan. Prop-1 and round
# robin are assembled around it as separate runs: one base delivery plus the
# cached tails, and K deliveries over rotated configs plus an MDS combine. The
# pipeline compiles every scheme into one plan of arrays once, at placement; it
# must return the same SimResult (TestCompiledMatchesDictWalk).


def _placed(cfg, library):
    """The placement of ``library`` and the identity schedule (file j stands for receiver j's
    demand) of the base scheme on ``cfg``, from the public builders."""
    soft = cfg.variant is Variant.SOFT_HANDOFF
    place, build = (cache_placement_soft, delivery_schedule_soft) if soft else (cache_placement_full, delivery_schedule_full)
    return place(cfg.k, library), build(cfg.k, DemandVector(tuple(range(1, cfg.k + 1))))


def _needed(cfg):
    return 5 if cfg.variant is Variant.SOFT_HANDOFF else 2


def _scheme(variant, k, library, extra_bits=0, round_robin=False):
    """The memoised plan of a scheme on K nodes over ``library``."""
    skeleton = (pipeline._rotated if round_robin else pipeline._skeleton)(variant, k)
    return pipeline.placed(skeleton, library, extra_bits)


def _recompiled(cfg, plan, schedule):
    """The base ``plan`` on ``cfg`` with ``schedule`` in place of its placed schedule."""
    library = plan.library
    skeleton = pipeline._compile(_placed(cfg, library)[0].labels, schedule)
    return pipeline._place(skeleton, library, library.rows, library.payload_bits)


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


def _execute_dict(cfg, scheme, demands, backend, bits_per_part, n_slot):
    """Run the placed schedule for ``demands`` over the channel of ``cfg``; per-rx decoded part
    label -> bits, failures, links."""
    (placement, schedule), d = _placed(cfg, scheme.library), demands.for_rx
    decoded = {rx: {} for rx in range(1, cfg.k + 1)}
    failures = links = 0

    def sent(action):
        if isinstance(action, Direct):
            return placement.parts[d(action.file)][action.part - 1].value
        return (
            placement.parts[d(action.file_a)][action.part_a - 1].value
            ^ placement.parts[d(action.file_b)][action.part_b - 1].value
        )

    for per in schedule.periods:
        if isinstance(backend, MonteCarlo):
            plans = {rx: plan for rx, plan in per.rx_plans.items() if plan is not None}
            gain = np.array([gain_at(cfg, rx) for rx in range(1, cfg.k + 1)])
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


def _deliver_dict(cfg, scheme, demands, backend, execute=_execute_dict, gain=None):
    """``pipeline._deliver`` over ``execute``, combining each receiver's labelled parts. An Ideal
    delivery runs at the rate of its weakest ``gain``, by default that of its schedule's links."""
    library = scheme.library
    DemandVector.checked(demands, cfg.k, library.num_files)
    periods, needed = len(scheme.periods), _needed(cfg)
    bits_per_part = library.payload_bits // needed
    placement, schedule = _placed(cfg, library)
    if isinstance(backend, Ideal):
        rate, n_slot = ideal_rate(cfg, scheduled_gain(cfg, schedule) if gain is None else gain), 0
    else:
        n_slot = backend.n // periods
        rate = library.payload_bits / (periods * n_slot)
    got, failures, links = execute(cfg, scheme, demands, backend, bits_per_part, n_slot)
    soft = cfg.variant is Variant.SOFT_HANDOFF
    combine = reconstruct_five if soft else lambda parts: Bitstring.concat_all(parts.values())
    decoded = {}
    for rx, parts in got.items():
        cached = placement.parts[demands.for_rx(rx)]
        have = {**{p: cached[p - 1] for p in placement.labels[rx]}, **parts}
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
        memory_bits_per_receiver=placement.bits_per_receiver,
    )


def _prop1_dict(cfg, library, demands, extra_bits, backend):
    """Prop-1 as the base delivery of the main pieces, each decoded piece followed by its tail."""
    main_bits = library.payload_bits - extra_bits
    mains = MessageLibrary(tuple(Bitstring(main_bits, p.value >> extra_bits) for p in library))
    tails = tuple(Bitstring(extra_bits, p.value & ((1 << extra_bits) - 1)) for p in library)
    main = _deliver_dict(cfg, _scheme(cfg.variant, cfg.k, mains), demands, backend)
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
    rotations = [
        NetworkConfig.soft_handoff(
            k, tuple(gain_at(cfg, _physical_of(r, ell, k)) for r in range(1, k + 1)), cfg.power, cfg.epsilon
        )
        for ell in range(1, k + 1)
    ]
    # every rotation runs at the rate of the weakest link of any rotation
    schedule = delivery_schedule_soft(k, DemandVector(tuple(range(1, k + 1))))
    gain = min(scheduled_gain(rotated, schedule) for rotated in rotations)
    for ell, rotated in enumerate(rotations, start=1):
        scheme = _scheme(rotated.variant, k, MessageLibrary(tuple(parts[ell - 1] for parts in coded)))
        sub_demands = DemandVector(tuple(demands.for_rx(_physical_of(r, ell, k)) for r in range(1, k + 1)))
        sub_backend = backend
        if isinstance(backend, MonteCarlo):
            sub_backend = MonteCarlo(backend.n, derive_seed(backend.seed, pipeline._SEED_SUPER, ell))
        sub = _deliver_dict(rotated, scheme, sub_demands, sub_backend, gain=gain)
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


def _execute_compiled(cfg, scheme, demands, backend, bits_per_part, n_slot, schedule=None):
    """``pipeline._links`` of a one-trial block, keyed as the oracles key it: per-rx decoded part
    label -> bits. ``schedule`` is the one ``scheme`` was compiled from, by default the builder's."""
    own = pipeline._sources(scheme, np.array([demands.entries]).T)
    seeds = [backend.seed] if isinstance(backend, MonteCarlo) else []
    gains = np.array([[gain_at(cfg, rx) for rx in range(1, cfg.k + 1)]])
    values, failures = pipeline._links(scheme, cfg, own, backend, n_slot, seeds, gains)
    targets = [
        (rx, plan.target[1])
        for per in (schedule or _placed(cfg, scheme.library)[1]).periods
        for rx, plan in per.rx_plans.items()
        if plan is not None
    ]
    decoded = {rx: {} for rx in range(1, cfg.k + 1)}
    for (rx, label), value in zip(targets, values[:, 0], strict=True):
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


def _execute_per_tx(cfg, scheme, demands, backend, bits_per_part, n_slot):
    """``_execute_dict`` on a MonteCarlo backend, one codebook and decode per transmitter."""
    (placement, schedule), d = _placed(cfg, scheme.library), demands.for_rx
    decoded = {rx: {} for rx in range(1, cfg.k + 1)}
    failures = links = 0

    def sent(action):
        if isinstance(action, Direct):
            return placement.parts[d(action.file)][action.part - 1].value
        return (
            placement.parts[d(action.file_a)][action.part_a - 1].value
            ^ placement.parts[d(action.file_b)][action.part_b - 1].value
        )

    for per in schedule.periods:
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
        noise_seed = derive_seed(backend.seed, pipeline._SEED_NOISE, per.index)
        if cfg.variant is Variant.SOFT_HANDOFF:
            y = transmit_soft(x, cfg.gains, noise_seed)
        else:
            y = transmit_full(x, cfg.alpha, noise_seed)
        # the channel's one noise block swapped for per-receiver streams
        y = y - np.random.default_rng(noise_seed).standard_normal((cfg.k, n_slot))
        y = y + _per_rx_noise(noise_seed, cfg.k, n_slot)
        decoders = {}
        for rx, plan in per.rx_plans.items():
            if plan is not None:
                y_rx = y[rx - 1]
                for tx, _, _ in plan.cancel:
                    y_rx = cancel_known(y_rx, gain_at(cfg, rx), codebooks[tx].word[0])
                gain = 1.0 if plan.source == rx else gain_at(cfg, rx)
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

        from wynercache.schemes.schedule import SILENT

        cfg = _soft_cfg(power=0.3)
        lib = random_library(6, 40, seed=8)
        d = DemandVector((1, 2, 3, 4, 5, 6))
        scheme = _scheme(cfg.variant, cfg.k, lib)
        muted = delivery_schedule_soft(6, DemandVector((1, 2, 3, 4, 5, 6)))
        # silence the whole second subnet of period 1 (tx 4 and 5 serve rx 4..6)
        muted.periods[0].tx_actions[4] = SILENT
        muted.periods[0].tx_actions[5] = SILENT
        for rx in (4, 5, 6):
            muted.periods[0].rx_plans[rx] = None
        truth, _, _ = _execute_compiled(cfg, scheme, d, Ideal(), 8, 0)
        labels = {rx: muted.periods[0].rx_plans[rx].target[1] for rx in (1, 2, 3)}
        trials, errors = 400, []
        for placed, schedule in ((scheme, None), (_recompiled(cfg, scheme, muted), muted)):
            errors.append(0)
            for t in range(trials):
                got, _, _ = _execute_compiled(cfg, placed, d, MonteCarlo(n=288, seed=t), 8, 96, schedule)
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
        def per_tx(cfg, scheme, demands, backend, *args):
            run = _execute_per_tx if isinstance(backend, MonteCarlo) else _execute_dict
            return run(cfg, scheme, demands, backend, *args)

        def run_soft(cfg, library, demands, backend):
            return _deliver_dict(cfg, _scheme(cfg.variant, cfg.k, library), demands, backend, per_tx)

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
        lib = random_library(6, payload_bits, seed=3)
        scheme, (_, schedule) = _scheme(cfg.variant, cfg.k, lib), _placed(cfg, lib)
        n_slot, bits = n // len(scheme.periods), payload_bits // _needed(cfg)
        rng = np.random.default_rng(1)
        links = Counter()  # per number of receivers decoding the link's codebook
        errors = {run: Counter() for run in (_execute_compiled, _execute_per_tx)}
        for t in range(trials):
            d = DemandVector(tuple(int(x) for x in rng.integers(1, 7, size=6)))
            truth, _, _ = _execute_compiled(cfg, scheme, d, Ideal(), bits, 0)
            runs = {run: run(cfg, scheme, d, MonteCarlo(n, seed=t), bits, n_slot)[0] for run in errors}
            for per in schedule.periods:
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
    return _deliver_dict(cfg, _scheme(cfg.variant, cfg.k, library), demands, backend)


@st.composite
def _deliveries(draw):
    """(run, oracle, cfg, library, demands, backend): soft, full, prop-1 or round robin,
    parts up to 70 bits."""
    scheme = draw(st.sampled_from(["soft", "full", "prop-1", "round robin"]))
    full = scheme == "full" or scheme == "prop-1" and draw(st.booleans())  # prop-1 on either model
    mc = draw(st.booleans())
    # MC at powers where links fail and where they do not; Ideal above its rate check
    power = 10.0 ** draw(st.floats(-0.5, 2.0) if mc else st.floats(1.0, 8.0))
    if full:
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
            (2 if full else 5) * bits + extra,
            lambda *args: run_soft_prop1(*args[:3], extra, args[3]),
            lambda *args: _prop1_dict(*args[:3], extra, args[3]),
        ),
        "round robin": (5 * 8 * max(1, bits // 8) * (k - 2), round_robin_soft, _round_robin_dict),
    }[scheme]
    num_files = draw(st.integers(2, k + 2))
    lib = random_library(num_files, payload_bits, seed=draw(st.integers(0, 99)), allow_small_d=True)
    demands = DemandVector(tuple(draw(st.lists(st.integers(1, num_files), min_size=k, max_size=k))))
    periods = 1 if full else 3
    backend = MonteCarlo(periods * draw(st.integers(1, 40)), draw(st.integers(0, 2**32))) if mc else Ideal()
    return run, oracle, cfg, lib, demands, backend


def _at_power(cfg, power):
    return dataclasses.replace(cfg, power=power)


def _scale_cases():
    """(id, run, oracle, cfg, library, backend) at the sizes the source-major layout is for: soft
    K=600 with 8-bit parts, soft K=60 with 64-bit parts (nb = 8; its MC case a prop-1 tail of 60
    bits over 8-bit parts, also nb = 8), full K=24 and round robin K=48, each on Ideal and MC.
    The soft cross gains differ per receiver; the MC cases run at powers where some links fail."""
    prop1 = (lambda *a: run_soft_prop1(*a[:3], 60, *a[3:]), lambda *a: _prop1_dict(*a[:3], 60, a[3]))
    base = (run_soft, _base_dict)
    full, rr = (run_full, _base_dict), (round_robin_soft, _round_robin_dict)
    soft = lambda k: NetworkConfig.soft_handoff(k, tuple(np.random.default_rng(k).uniform(0.5, 1.5, k)), 1e4)
    soft600, soft60, full24, rr48 = soft(600), soft(60), NetworkConfig.full(24, 0.5, 1e4), soft(48)
    lib600, lib24 = random_library(600, 5 * 8, seed=1), random_library(24, 2 * 8, seed=3)
    lib48 = random_library(48, 5 * 8 * 46, seed=4)
    return [
        ("soft-k600", *base, soft600, lib600, Ideal()),
        ("soft-k600-mc", *base, _at_power(soft600, 0.5), lib600, MonteCarlo(30)),
        ("soft-k60-nb8", *base, soft60, random_library(60, 5 * 64, seed=2), Ideal()),
        ("soft-k60-nb8-mc", *prop1, _at_power(soft60, 1.0), random_library(60, 5 * 8 + 60, seed=2), MonteCarlo(48)),
        ("full-k24", *full, full24, lib24, Ideal()),
        ("full-k24-mc", *full, _at_power(full24, 0.5), lib24, MonteCarlo(16)),
        ("rr-k48", *rr, rr48, lib48, Ideal()),
        ("rr-k48-mc", *rr, _at_power(rr48, 1.0), lib48, MonteCarlo(24)),
    ]


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
        cfg = _soft_cfg()
        scheme = _scheme(cfg.variant, cfg.k, random_library(6, 40, seed=8))
        muted = delivery_schedule_soft(6, DemandVector((1, 2, 3, 4, 5, 6)))
        muted.periods[0].tx_actions[4] = SILENT
        muted.periods[0].tx_actions[5] = SILENT
        for rx in (4, 5, 6):
            muted.periods[0].rx_plans[rx] = None
        placed = _recompiled(cfg, scheme, muted)
        assert placed.silent[:6].tolist() == [False, False, True, True, True, True]
        assert scheme.silent[:6].tolist() == [False, False, True, False, False, True]
        assert len(placed.link_rx) == len(scheme.link_rx) - 3 == 12
        d = DemandVector((1, 2, 3, 4, 5, 6))
        full, cut = (pipeline._run(cfg, s, d, Ideal(), ()) for s in (scheme, placed))
        assert (full.links_total, cut.links_total) == (15, 12)
        # rx 4 and 5 lose their period-1 part and with it a fifth label
        assert [rx for rx in range(2, 6) if cut.success[rx]] == [2, 3]
        assert all(full.success[rx] for rx in range(2, 6))

    @pytest.mark.parametrize("case", _scale_cases(), ids=lambda case: case[0])
    def test_large_block_matches(self, case):
        # one block of distinct, equal and random demand rows against the oracle row by row,
        # and the last row's SimResult, payloads included, on its own
        _, run, oracle, cfg, lib, backend = case
        k = cfg.k
        rows = np.array([range(1, k + 1), [k // 2] * k, np.random.default_rng(k).integers(1, k + 1, k)])
        seeds = (5, 6, 7) if isinstance(backend, MonteCarlo) else ()
        backends = [MonteCarlo(backend.n, seed) for seed in seeds] or [backend] * 3
        want = [oracle(cfg, lib, DemandVector(tuple(row)), b) for row, b in zip(rows.tolist(), backends)]
        block = run(cfg, lib, rows, backend, seeds)
        assert block.success.tolist() == [[w.success[rx] for rx in range(1, k + 1)] for w in want]
        assert block.links_total == sum(w.links_total for w in want)
        assert block.link_failures == sum(w.link_failures for w in want)
        assert (block.link_failures > 0) == isinstance(backend, MonteCarlo)
        assert run(cfg, lib, DemandVector(tuple(rows[-1].tolist())), backends[-1]) == want[-1]

    @pytest.mark.parametrize(
        "cfg, lib, round_robin, extra_bits",
        [
            (_soft_cfg(k=8), random_library(8, 5 * 8, seed=5), False, 0),
            (NetworkConfig.full(8, 0.5, 1e4), random_library(8, 2 * 12, seed=5), False, 0),
            (_soft_cfg(k=8), random_library(8, 5 * 8 + 7, seed=5), False, 7),
            (_soft_cfg(k=9), random_library(9, 5 * 8 * 7, seed=5), True, 0),
        ],
        ids=["soft", "full", "prop-1", "round-robin"],
    )
    def test_flipped_plane_byte_fails_its_file(self, cfg, lib, round_robin, extra_bits):
        # the check reads the plan's want, fixed at placement: a delivery from a plane with one
        # byte flipped fails some served receiver that demands the file the byte belongs to, and
        # no served receiver that demands another file, which reads the byte only on both sides
        # of an XOR
        plan = pipeline._plan(cfg, cfg.variant, lib, round_robin, extra_bits)
        rng = np.random.default_rng(cfg.k)
        for _ in range(20):
            label, file, byte = (int(rng.integers(n)) for n in plan.plane.shape)
            plane = plan.plane.copy()
            plane[label, file, byte] ^= 0xFF
            flipped = dataclasses.replace(plan, plane=plane)
            demanded = 1 + file // (cfg.k if round_robin else 1)  # round robin's file f codes into K rows
            rows = np.array([[demanded] * cfg.k, rng.integers(1, lib.num_files + 1, cfg.k)])
            assert pipeline._deliver(plan, cfg, rows, Ideal(), ())[0].success[:, plan.served].all()
            got = pipeline._deliver(flipped, cfg, rows, Ideal(), ())[0].success
            assert not got[0, plan.served].all()
            assert got[(rows != demanded) & plan.served].all()


@st.composite
def _round_robin_blocks(draw):
    """A round robin config at K=5..12, MC at powers where links fail and where they do not or
    Ideal, a library and a block of demand vectors with one seed per trial for MC."""
    k, mc = draw(st.integers(5, 12)), draw(st.booleans())
    power = 10.0 ** draw(st.floats(-0.5, 2.0) if mc else st.floats(1.0, 8.0))
    cfg = NetworkConfig.soft_handoff(k, draw(st.lists(st.floats(0.3, 3.0), min_size=k, max_size=k)), power)
    num_files = draw(st.integers(2, 8))
    lib = random_library(num_files, 5 * 8 * (k - 2), seed=draw(st.integers(0, 99)), allow_small_d=True)
    rows = draw(st.lists(st.lists(st.integers(1, num_files), min_size=k, max_size=k), min_size=1, max_size=3))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=len(rows), max_size=len(rows))) if mc else []
    return cfg, lib, np.array(rows), MonteCarlo(3 * draw(st.integers(1, 12))) if mc else Ideal(), seeds


def _byte_rows(values, nb):
    """Each int as ``nb`` big-endian bytes, one uint8 row per int."""
    return np.frombuffer(b"".join(v.to_bytes(nb, "big") for v in values), np.uint8).reshape(len(values), nb)


def _split_plane(variant, k, library, round_robin=False, extra_bits=0):
    """Oracle: the (labels, files, nb) plane and the cache bits per receiver of a plan, from
    ``Bitstring`` splits. ``cache_placement_*`` splits every file (for prop-1 its leading bits,
    for round robin each of its ``mds_encode`` coded parts as a file), each part becomes nb
    big-endian bytes, nb fitting the widest label, and prop-1's tails follow as one more label."""
    files = library
    if round_robin:
        files = MessageLibrary(tuple(part for p in library for part in mds_encode(list(p.split(k - 2)))))
    elif extra_bits:
        files = MessageLibrary(tuple(Bitstring(p.length - extra_bits, p.value >> extra_bits) for p in library))
    placed = (cache_placement_soft if variant is Variant.SOFT_HANDOFF else cache_placement_full)(k, files)
    parts = [placed.parts[f] for f in sorted(placed.parts)]
    nb = -(-max(parts[0][0].length, extra_bits) // 8)
    plane = _byte_rows([p.value for label in zip(*parts) for p in label], nb).reshape(-1, len(parts), nb)
    if extra_bits:
        tails = _byte_rows([p.value & ((1 << extra_bits) - 1) for p in library], nb)
        plane = np.concatenate((plane, tails[None]))
    return plane, placed.bits_per_receiver + library.num_files * extra_bits


@st.composite
def _placed_libraries(draw):
    """(variant, K, library, round robin, prop-1 tail bits): soft, full, prop-1 on either model or
    round robin, parts of 1 to 20 bits (round robin: 1 to 3 whole bytes), tails of 1 to 33."""
    scheme = draw(st.sampled_from(["soft", "full", "prop-1", "round robin"]))
    full = scheme == "full" or scheme == "prop-1" and draw(st.booleans())
    k = 2 * draw(st.integers(2, 5)) if full else draw(st.integers(5, 12))
    extra = draw(st.integers(1, 33)) if scheme == "prop-1" else 0
    if scheme == "round robin":
        payload_bits = 5 * 8 * draw(st.integers(1, 3)) * (k - 2)
    else:
        payload_bits = (2 if full else 5) * draw(st.integers(1, 20)) + extra
    num_files = draw(st.integers(2, 9))
    lib = random_library(num_files, payload_bits, seed=draw(st.integers(0, 2**32)), allow_small_d=True)
    return Variant.FULL if full else Variant.SOFT_HANDOFF, k, lib, scheme == "round robin", extra


class TestArrayPlane:
    """A plan's part plane, cut from the library's rows in array steps, is the plane of the
    ``Bitstring`` splits of ``cache_placement_*`` (and ``mds_encode``), byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(_placed_libraries())
    @example((Variant.SOFT_HANDOFF, 6, random_library(6, 5, seed=1), False, 0))  # 1-bit parts
    @example((Variant.FULL, 6, random_library(6, 16, seed=2), False, 0))  # byte-aligned parts
    @example((Variant.SOFT_HANDOFF, 5, random_library(6, 5 + 33, seed=3), False, 33))  # tail wider than a part
    def test_plane_equals_the_split_plane(self, case):
        variant, k, lib, round_robin, extra = case
        skeleton = (pipeline._rotated if round_robin else pipeline._skeleton)(variant, k)
        plan = pipeline.placed.__wrapped__(skeleton, lib, extra)
        plane, memory_bits = _split_plane(variant, k, lib, round_robin, extra)
        assert plan.plane.dtype == np.uint8 and plan.plane.shape == plane.shape
        assert plan.plane.tolist() == plane.tolist()
        assert plan.memory_bits == memory_bits


class TestRoundRobinRows:
    """Round robin delivers each trial as K rows of its base plan; a block gives, trial by
    trial, what the dict walk of the K rotated deliveries gives."""

    @settings(max_examples=40, deadline=None)
    @given(_round_robin_blocks())
    def test_block_matches_the_rotated_dict_walks(self, case):
        cfg, lib, demands, backend, seeds = case
        block = round_robin_soft(cfg, lib, demands, backend, seeds)
        links = failures = 0
        for t, row in enumerate(demands.tolist()):
            trial = backend if isinstance(backend, Ideal) else MonteCarlo(backend.n, seeds[t])
            want = _round_robin_dict(cfg, lib, DemandVector(tuple(row)), trial)
            assert block.success[t].tolist() == [want.success[rx] for rx in range(1, cfg.k + 1)]
            links, failures = links + want.links_total, failures + want.link_failures
        assert (block.links_total, block.link_failures) == (links, failures)


class TestGainsRow:
    """A delivery hands ``_links`` every receiver's ``gain_at(cfg, rx)``, read off ``cfg.gains``
    in one step: the full model's one gain is every receiver's."""

    @pytest.mark.parametrize(
        "cfg, bits",
        [
            (NetworkConfig.soft_handoff(6, [0.5, -0.7, 1.25, 0.9, -1.1, 0.6], 1e4), 40),
            (NetworkConfig.full(6, 0.7, 1e4), 24),
            (NetworkConfig(Variant.FULL, 6, (1,), 1e4), 24),  # an int gain: the same int row
        ],
    )
    def test_every_receiver_hears_gain_at(self, cfg, bits):
        run = run_soft if cfg.variant is Variant.SOFT_HANDOFF else run_full
        seen, real = [], pipeline._links
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_links", lambda *args: seen.append(args[-1]) or real(*args))
            run(cfg, random_library(6, bits, 3), np.ones((2, 6), dtype=np.intp), MonteCarlo(288), (1, 2))
        want = np.array([[gain_at(cfg, rx) for rx in range(1, cfg.k + 1)]])
        assert [(g.dtype, g.tolist()) for g in seen] == [(want.dtype, want.tolist())]

    def test_ideal_delivery_builds_no_gains(self):
        # an Ideal link reads no channel, so neither the gain row nor round robin's per-rotation
        # gains are built for it
        cfg, seen, real = NetworkConfig.soft_handoff(7, [0.5, -0.7, 1.25, 0.9, -1.1, 0.6, 0.8], 1e4), [], pipeline._links
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_links", lambda *args: seen.append(args[-1]) or real(*args))
            run_soft(cfg, random_library(7, 40, 3), np.ones((2, 7), dtype=np.intp))
            round_robin_soft(cfg, random_library(7, 200, 3), np.ones((2, 7), dtype=np.intp))
        assert [gains is None for gains in seen] == [True, True]


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

    @pytest.mark.parametrize(
        "extra_bits, payload_bits", [(3.0, 43), ("3", 43), (True, 41)], ids=["float", "str", "bool"]
    )
    def test_non_int_prop1_tail_named(self, extra_bits, payload_bits):
        # a float or a str tail raised a bare TypeError mid-placement, and True ran as a 1-bit tail
        lib = random_library(6, payload_bits, seed=1)
        with pytest.raises(ConfigMismatch, match=re.escape(f"prop1_extra_bits must be an int, got {extra_bits!r}")):
            run_soft_prop1(_soft_cfg(), lib, DemandVector((1,) * 6), extra_bits)

    @pytest.mark.parametrize(
        "run, match",
        [
            (lambda cfg, lib: run_soft(cfg, lib, DemandVector((1,) * 6), MonteCarlo(288, seed=-1)), "seed=-1"),
            (lambda cfg, lib: run_soft(cfg, lib, np.ones((2, 6), np.int64), MonteCarlo(288), (-1, 2)), "seed=-1"),
            (lambda cfg, lib: run_soft(cfg, lib, DemandVector((1,) * 6), MonteCarlo(288.0)), "n=288.0"),
            (lambda cfg, lib: run_soft(cfg, lib, DemandVector((1,) * 6), MonteCarlo(288, seed=1.5)), "seed=1.5"),
            (lambda cfg, lib: run_soft(cfg, lib, DemandVector((1,) * 6), "mc"), "^backend must be Ideal"),
        ],
        ids=["negative-seed", "negative-block-seed", "float-n", "float-seed", "str-backend"],
    )
    def test_backend_named_before_any_draw(self, monkeypatch, run, match):
        # numpy's bare ValueError, a TypeError or an AttributeError before these were checked
        def refuse(*args):
            raise AssertionError("a codebook drawn for a bad backend")

        monkeypatch.setattr(pipeline, "draw_codebook", refuse)
        with pytest.raises(ConfigMismatch, match=match):
            run(_soft_cfg(), random_library(6, 40, seed=1))


PLACEMENTS = ("cache_placement_soft", "cache_placement_full")
SCHEDULES = ("delivery_schedule_soft", "delivery_schedule_full")
PLAN_CACHES = (pipeline.placed,)
SKELETONS = (pipeline._skeleton, pipeline._rotated)


class TestPlaceOnce:
    """Placement is a skeleton built once per (model, K) in a process, and a plane of part values
    placed once per library: not once per trial, per SNR point or per round robin rotation. No
    run places ``Bitstring`` parts (``cache_placement_*``, ``split_*``)."""

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

    def _counts(self, monkeypatch):
        """Cleared plan and skeleton caches, and the calls of each placement step from now on:
        skeleton schedules and their checks, planes, and ``Bitstring`` placements."""
        for cache in PLAN_CACHES + SKELETONS:
            cache.cache_clear()
        return {
            "schedules": self._count(monkeypatch, *SCHEDULES),
            "checks": self._count(monkeypatch, "verify_labels"),
            "skeletons": self._count(monkeypatch, "_compile"),
            "planes": self._count(monkeypatch, "_place"),
            "placements": self._count(monkeypatch, *PLACEMENTS),
        }

    @staticmethod
    def _lengths(counts):
        return {name: len(calls) for name, calls in counts.items()}

    ONCE = {"schedules": 1, "checks": 1, "skeletons": 1, "planes": 1, "placements": 0}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(config=_soft_cfg()),
            dict(config=NetworkConfig.full(6, 0.5, 1e4)),
            dict(config=_soft_cfg(power=100.0), backend="mc"),
            dict(config=_soft_cfg(), prop1_extra_bits=10),
            dict(config=NetworkConfig.full(6, 0.5, 1e4), prop1_extra_bits=10),
        ],
    )
    def test_one_placement_per_experiment(self, monkeypatch, kwargs):
        counts = self._counts(monkeypatch)
        assert run_experiment(ExperimentSpec(**kwargs, trials=5, master_seed=90210)).trials == 5
        assert self._lengths(counts) == self.ONCE

    def test_each_file_split_once(self, monkeypatch):
        # the D=6 files are split in one array step, their plane; no Bitstring split runs
        counts = self._counts(monkeypatch)
        splits = [
            self._count(monkeypatch, "split_soft", "split_full", module=module)
            for module in (pipeline, placement)
        ]
        spec = ExperimentSpec(config=_soft_cfg(), trials=5, master_seed=90212)
        assert run_experiment(spec).trials == 5
        assert sum(map(len, splits)) == 0
        ((_, library, rows, bits, extra_bits),) = counts["planes"]
        assert rows.shape == (6, 5) and bits == 40 and extra_bits == 0 and rows is library.rows

    def test_round_robin_places_each_rotation_once(self, monkeypatch):
        # all K rotations share one skeleton and one plane, over every coded part of every file
        counts = self._counts(monkeypatch)
        spec = ExperimentSpec(config=_soft_cfg(k=7), round_robin=True, trials=5, master_seed=90211)
        assert run_experiment(spec).trials == 5
        assert self._lengths(counts) == self.ONCE
        ((_, _, rows, _),) = counts["planes"]
        assert len(rows) == 6 * 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(config=_soft_cfg()),
            dict(config=NetworkConfig.full(6, 0.5, 1e4)),
            dict(config=_soft_cfg(), prop1_extra_bits=10),
            dict(config=_soft_cfg(k=7), round_robin=True),
            dict(config=NetworkConfig.full(6, 0.5, 1e4), prop1_extra_bits=10),
        ],
        ids=["soft", "full", "prop-1", "round-robin", "prop-1-full"],
    )
    def test_one_placement_per_sweep(self, monkeypatch, kwargs):
        # the plan depends on the model, K and the library; every SNR point shares it
        counts = self._counts(monkeypatch)
        result = harness.sweep_snr(ExperimentSpec(**kwargs, trials=3, master_seed=90213), [20, 30, 40, 50])
        assert len(result.rows) == 4
        assert self._lengths(counts) == self.ONCE

    @pytest.mark.parametrize(
        "combined, payload_bits",
        [(round_robin_soft, 5 * 8 * 4), (lambda *args: run_soft_prop1(*args, 10), 5 * 32 + 10)],
        ids=["round-robin", "prop-1"],
    )
    def test_combinators_keep_the_soft_plan(self, monkeypatch, combined, payload_bits):
        # round robin and prop-1 cache their plans apart from the soft scheme's, on the soft
        # skeleton: alternating with the soft scheme on one library builds one skeleton and
        # places each plan once
        counts = self._counts(monkeypatch)
        cfg, lib = _soft_cfg(), random_library(6, payload_bits, seed=4)
        for run in (run_soft, combined, run_soft, combined):
            assert run(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6))).link_failures == 0
        assert self._lengths(counts) == self.ONCE | {"planes": 2}

    def test_skeleton_built_once_per_model_and_k(self, monkeypatch):
        # across libraries, SNR points and schemes, a process builds one skeleton per (model, K)
        counts = self._counts(monkeypatch)
        specs = [
            ExperimentSpec(config=_soft_cfg(), trials=2, master_seed=seed) for seed in (1, 2, 3)
        ] + [
            ExperimentSpec(config=_soft_cfg(power=10.0**p), trials=2, prop1_extra_bits=5) for p in (2, 3)
        ] + [
            ExperimentSpec(config=NetworkConfig.full(6, 0.5, 1e4), trials=2, master_seed=seed) for seed in (1, 2)
        ] + [ExperimentSpec(config=_soft_cfg(k=7), trials=2, round_robin=rr) for rr in (False, True)]
        for spec in specs:
            run_experiment(spec)
        keys = [(schedule.variant, schedule.k) for (schedule, _, _) in counts["checks"]]
        assert keys == [(Variant.SOFT_HANDOFF, 6), (Variant.FULL, 6), (Variant.SOFT_HANDOFF, 7)]
        assert len(counts["skeletons"]) == len(counts["schedules"]) == 3
        assert len(counts["planes"]) == 3 + 1 + 2 + 2  # one per library: prop-1 is one plan at both powers

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
        for cache in PLAN_CACHES + SKELETONS:
            cache.cache_clear()
        lib = random_library(6, 40, seed=5)
        with pytest.raises(InvalidSchedule, match=r"^1 violation\(s\), first cancel_key: Rx 2 lacks"):
            run_soft(_soft_cfg(), lib, DemandVector((1, 2, 3, 4, 5, 6)))


@st.composite
def _channel_pairs(draw):
    """Two specs of one scheme, backend, K and library over two channels (power and gains)."""
    scheme = draw(st.sampled_from(["soft", "full", "prop-1", "round robin"]))
    full = scheme == "full" or scheme == "prop-1" and draw(st.booleans())  # prop-1 on either model
    mc = draw(st.booleans())
    k = 2 * draw(st.integers(2, 4)) if full else draw(st.integers(5, 8))

    def config():
        # MC at powers where links fail and where they do not; Ideal above its rate check
        power = 10.0 ** draw(st.floats(-0.5, 2.0) if mc else st.floats(1.0, 8.0))
        if full:
            return NetworkConfig.full(k, draw(st.floats(0.1, 2.0)), power)
        return NetworkConfig.soft_handoff(k, draw(st.lists(st.floats(0.3, 3.0), min_size=k, max_size=k)), power)

    kwargs = dict(
        backend="mc" if mc else "ideal",
        trials=draw(st.integers(1, 4)),
        master_seed=draw(st.integers(0, 99)),
        round_robin=scheme == "round robin",
        prop1_extra_bits=10 if scheme == "prop-1" else 0,
    )
    return ExperimentSpec(config=config(), **kwargs), ExperimentSpec(config=config(), **kwargs)


def _report(spec):
    doc = run_experiment(spec).to_json()
    del doc["wall_clock_s"]
    return doc


class TestSharedPlan:
    """A plan depends on the model, K and the library alone: a run that reuses the plan of a
    run over another channel reports what a run on a freshly placed plan reports."""

    @settings(max_examples=40, deadline=None)
    @given(_channel_pairs())
    def test_reused_plan_reports_as_a_fresh_one(self, specs):
        first, second = specs
        run_experiment(first)
        reused = _report(second)
        for cache in PLAN_CACHES:
            cache.cache_clear()
        assert reused == _report(second)


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
    """The placed (identity) schedule, with file j read as receiver j's demand, is the per-demand
    schedule, so one plan serves every demand vector."""

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
        template = _placed(cfg, lib)[1]
        assert len(_scheme(cfg.variant, k, lib).periods) == len(template.periods)
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
        lib = random_library(6, 40, seed=1)
        scheme, (_, schedule) = _scheme(cfg.variant, cfg.k, lib), _placed(cfg, lib)
        # the weakest gain of a link the schedule decodes sets the rate
        rate = rate_soft(cfg, scheduled_gain(cfg, schedule)) if soft else rate_full(cfg)
        try:
            assert check_ideal_rate(cfg, pipeline.skeleton(cfg)) == rate
        except InfeasibleRate:
            assert rate < 0
            return
        assert rate >= 0
        # the per-link rule the delivery loop used to apply, as the reference
        link_rate = len(scheme.periods) * rate / _needed(cfg)
        for per in schedule.periods:
            for rx, plan in per.rx_plans.items():
                if plan is not None:
                    gain = 1.0 if plan.source == rx else gain_at(cfg, rx)
                    assert ideal_link(LinkBudget(gain, link_rate, cfg.power - cfg.epsilon))

    @pytest.mark.parametrize(
        "run, cfg",
        [
            (run_soft, _soft_cfg(eps=1e-16)),
            (run_soft, _soft_cfg(alpha=(1, 0.5, 1, 1, 1, 1), eps=1e-16)),
            (round_robin_soft, _soft_cfg(eps=1e-16)),
            (run_full, NetworkConfig.full(6, 1.0, 1e4, 1e-16)),
            # the tail is one more data part of the plan, not one more part a link carries
            (lambda *args: run_soft_prop1(*args, 10), _soft_cfg(eps=1e-16)),
        ],
    )
    def test_back_off_lost_to_rounding_rejected_by_direct_runs(self, run, cfg):
        lib = random_library(6, 160, seed=2)
        with pytest.raises(InfeasibleRate, match="lost to rounding"):
            run(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)))

    @settings(max_examples=60, deadline=None)
    @given(_ideal_configs().filter(lambda cfg: cfg.variant is Variant.SOFT_HANDOFF))
    def test_check_ignores_rotation(self, cfg):
        # round robin checks the physical config once: each rotation only permutes the gains. A
        # refusal names a receiver at the weakest gain, which a rotation renumbers
        def outcome(cfg):
            try:
                return check_ideal_rate(cfg, pipeline.skeleton(cfg, round_robin=True))
            except InfeasibleRate as exc:
                if named := re.search(r"into receiver (\d+) at gain", str(exc)):
                    assert abs(cfg.gains[int(named[1]) - 1]) == min(abs(g) for g in cfg.gains)
                return re.sub(r"receiver \d+", "receiver", str(exc))

        rate = outcome(cfg)
        for shift in range(1, cfg.k):
            gains = cfg.gains[shift:] + cfg.gains[:shift]
            assert outcome(NetworkConfig.soft_handoff(cfg.k, gains, cfg.power, cfg.epsilon)) == rate

    @pytest.mark.parametrize("k", range(5, 14))
    def test_skeleton_records_the_receivers_of_cross_links(self, k):
        # soft handoff keeps Tx K silent, so no link hears alpha_1; round robin hears every gain
        # as some rotation's role, and every full-model link is from its receiver's own Tx
        base = pipeline._skeleton(Variant.SOFT_HANDOFF, k)
        schedule = delivery_schedule_soft(k, DemandVector(tuple(range(1, k + 1))))
        cross = {rx - 1 for per in schedule.periods for rx, plan in per.rx_plans.items() if plan and plan.source != rx}
        assert base.heard == tuple(sorted(cross)) == tuple(range(1, k))
        assert pipeline._rotated(Variant.SOFT_HANDOFF, k).heard == tuple(range(k))
        if k % 2 == 0:
            assert pipeline._skeleton(Variant.FULL, k).heard == ()

    @settings(max_examples=200, deadline=None)
    @given(
        _ideal_configs().filter(
            lambda cfg: cfg.variant is Variant.FULL or abs(cfg.gains[0]) >= min([1.0] + [abs(g) for g in cfg.gains[1:]])
        ),
        st.sampled_from(["base", "prop-1", "round robin"]),
    )
    @example(_soft_cfg(alpha=(1, 0.5, 1, 1, 1, 1)), "base")
    @example(_soft_cfg(alpha=(0.5, 2, 0.5, 1, 1, 1)), "prop-1")
    @example(_soft_cfg(alpha=(0.5, 2, 0.5, 1, 1, 1), eps=1e-16), "round robin")
    @example(NetworkConfig.full(6, 0.25, 1e4, 1e-16), "prop-1")
    def test_same_verdict_as_the_by_model_check(self, cfg, scheme):
        # where alpha_1 is not the strict weakest gain, reading the heard gains off the skeleton
        # changes no verdict and no bit of a rate; a prop-1 runner checks its plan, whose tail is
        # one more data part but no more link
        assume(scheme != "round robin" or cfg.variant is Variant.SOFT_HANDOFF)
        skel = pipeline.skeleton(cfg, scheme == "round robin")
        if scheme == "prop-1":
            skel = pipeline.placed(skel, random_library(6, 8 * skel.needed + 10, seed=1), 10)

        def verdict(check):
            try:
                return check().hex()
            except InfeasibleRate:
                return "infeasible"

        assert verdict(lambda: check_ideal_rate(cfg, skel)) == verdict(lambda: by_model_check(cfg))

    def test_a_gain_no_link_hears_sets_no_rate(self):
        # soft gains (0.3, 1, ..., 1) run at the unit-gain rate, where alpha_1 once set 7.93, and
        # alpha_1 = 1e-3 once made the Ideal rate negative; Monte Carlo serves both as before
        weak = _soft_cfg(alpha=(0.3, 1, 1, 1, 1, 1))
        report = run_experiment(ExperimentSpec(weak, trials=5))
        assert (report.rate_per_user, report.empirical_mg) == (10.823207857557154, 1.6290374210506227)
        assert report.guaranteed_success == 1.0
        for backend in ({"trials": 5}, {"backend": "mc", "n": 600, "bits": 6, "trials": 20}):
            report = run_experiment(ExperimentSpec(_soft_cfg(alpha=(1e-3, 1, 1, 1, 1, 1)), **backend))
            assert (report.guaranteed_success, report.link_error_rate) == (1.0, 0.0)
        # round robin hears alpha_1 in some rotation: it still sets that rate
        report = run_experiment(ExperimentSpec(weak, bits=32, round_robin=True, trials=5))
        assert report.rate_per_user == 5.2863200501813425

    def test_refusal_names_the_weakest_link(self):
        soft = _soft_cfg(alpha=(0.25, 1, -0.5, 1, 1, 1), eps=1e-16)
        with pytest.raises(InfeasibleRate, match="weakest link, into receiver 3 at gain 0.5, at capacity"):
            check_ideal_rate(soft, pipeline.skeleton(soft))
        full = NetworkConfig.full(6, 0.5, 1e4, 1e-16)
        with pytest.raises(InfeasibleRate, match="weakest link, at gain 1, at capacity"):
            check_ideal_rate(full, pipeline.skeleton(full))

    @pytest.mark.parametrize(
        "kwargs, placed",
        [
            (dict(config=_soft_cfg(k=60), num_files=60), 1),
            (dict(config=NetworkConfig.full(6, 0.5, 1e4)), 1),
            (dict(config=_soft_cfg(k=7), round_robin=True), 1),
        ],
    )
    def test_one_link_check_per_placed_scheme(self, monkeypatch, kwargs, placed):
        # 5 trials are one block, one runner call, which checks the rate once. Round robin
        # is one plan, checked on the physical config, not once per rotation
        for cache in PLAN_CACHES:
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


class TestDecodeLayout:
    """``_compile`` builds each period's MC decode layout once, and round robin delivers every
    rotation through the periods of its base plan."""

    @pytest.mark.parametrize(
        "cfg, payload_bits",
        [(_soft_cfg(), 40), (_soft_cfg(k=7), 40), (NetworkConfig.full(6, 0.5, 1e4), 16)],
        ids=["soft-k6", "soft-k7", "full-k6"],
    )
    def test_cancel_names_each_receivers_interferers(self, cfg, payload_bits):
        lib = random_library(6, payload_bits, seed=3)
        plan, (_, schedule) = _scheme(cfg.variant, cfg.k, lib), _placed(cfg, lib)
        for per, placed in zip(plan.periods, schedule.periods, strict=True):
            assert per.cancel.shape == (cfg.k, 2)
            # K names the zero row that pads a receiver with fewer than two interferers
            got = [sorted(set(row) - {cfg.k}) for row in per.cancel.tolist()]
            want = [sorted(tx - 1 for tx, _, _ in p.cancel) if p else [] for p in placed.rx_plans.values()]
            assert got == want

    @pytest.mark.parametrize("k", [6, 12])
    def test_rotations_share_three_layouts(self, k):
        # every rotation is delivered through the three periods of the base plan
        lib = random_library(6, 5 * 8 * (k - 2), seed=3)
        plan = _scheme(Variant.SOFT_HANDOFF, k, lib, round_robin=True)
        coded = MessageLibrary(tuple(part for p in lib for part in mds_encode(list(p.split(k - 2)))))
        base = pipeline.placed.__wrapped__(pipeline._skeleton(Variant.SOFT_HANDOFF, k), coded, 0)
        assert len(plan.periods) == 3
        for per, own in zip(plan.periods, base.periods, strict=True):
            assert (per.index, per.links) == (own.index, own.links)
            assert per.cancel.shape == (k, 2) and per.cancel.tolist() == own.cancel.tolist()
            assert [[a.tolist() for a in batch] for batch in per.batches] == [
                [a.tolist() for a in batch] for batch in own.batches
            ]
        for name in ("tx", "silent", "link_rx", "link_tx", "link_strip", "select", "plane"):
            assert getattr(plan, name).tolist() == getattr(base, name).tolist()


def _budget_plans():
    """(cfg, payload bits, round robin, prop-1 tail bits, plan) of each scheme at two K."""
    for k in (6, 9):
        lib = random_library(6, 5 * 24, seed=k)
        yield _soft_cfg(k=k), 5 * 24, False, 0, _scheme(Variant.SOFT_HANDOFF, k, lib)
        # the tail, 40 bits, is wider than a label, 24 bits
        lib = random_library(6, 5 * 24 + 40, seed=k)
        yield _soft_cfg(k=k), 5 * 24 + 40, False, 40, _scheme(Variant.SOFT_HANDOFF, k, lib, 40)
        lib = random_library(6, 5 * 16 * (k - 2), seed=k)
        yield _soft_cfg(k=k), 5 * 16 * (k - 2), True, 0, _scheme(Variant.SOFT_HANDOFF, k, lib, round_robin=True)
    for k in (6, 10):
        lib = random_library(6, 2 * 24, seed=k)
        yield NetworkConfig.full(k, 0.5, 1e4), 2 * 24, False, 0, _scheme(Variant.FULL, k, lib)
        lib = random_library(6, 2 * 24 + 40, seed=k)
        yield NetworkConfig.full(k, 0.5, 1e4), 2 * 24 + 40, False, 40, _scheme(Variant.FULL, k, lib, 40)


class TestBlockBudget:
    """``block_trials`` keeps a block's largest array, every row's picks of label bytes
    (rows x ``select.size`` x nb), within ``BLOCK_BYTES``; a round robin trial is K rows."""

    @pytest.mark.parametrize("budget", [pipeline.BLOCK_BYTES, 1 << 16, 5000])
    def test_largest_array_fits(self, monkeypatch, budget):
        monkeypatch.setattr(pipeline, "BLOCK_BYTES", budget)
        blocks = 0
        for cfg, payload_bits, round_robin, extra_bits, plan in _budget_plans():
            trials = pipeline.block_trials(plan)
            rows = cfg.k if round_robin else 1
            if trials > 1:
                blocks += 1
                assert trials * rows * plan.select.size * plan.plane.shape[-1] <= budget
        assert blocks  # some block of each budget holds more than one trial
