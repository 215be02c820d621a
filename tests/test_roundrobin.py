import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wynercache.schemes.pipeline as pipeline
from gainoracle import alpha_min
from mdsoracle import solve_decode
from randbits import random_bits
from wynercache.model import DemandVector, NetworkConfig, random_library
from wynercache.schemes import (
    ConfigMismatch,
    Ideal,
    MonteCarlo,
    mds_decode,
    mds_encode,
    rate_soft,
    round_robin_soft,
    run_soft,
)
from wynercache.schemes.mds import MAX_K, decode_recipe


def _setup(k, d_files=6, bits=8, seed=0):
    cfg = NetworkConfig.soft_handoff(k, 1.0, 1e4)
    lib = random_library(d_files, 5 * bits * (k - 2), seed=seed, allow_small_d=True)
    return cfg, lib


def _byte_rows(parts):
    return np.array([np.frombuffer(p.to_bytes(), np.uint8) for p in parts])


def _coded(k, part_bytes, seed):
    """K - 2 random data parts and their K coded parts."""
    rng = np.random.default_rng(seed)
    data = [random_bits(8 * part_bytes, rng) for _ in range(k - 2)]
    return data, mds_encode(data)


def _recipe_decodes(recipe, collected, coded):
    """The recipe applied to each receiver's collected coded parts (1-based indices), per receiver."""
    parts = np.array([_byte_rows([coded[i - 1] for i in parts]) for parts in collected])
    return recipe.apply(parts.swapaxes(0, 1)).swapaxes(0, 1)


class TestRoundRobin:
    def test_all_receivers_succeed_k7(self):
        cfg, lib = _setup(7)
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = DemandVector(tuple(int(x) for x in rng.integers(1, 7, size=7)))
            res = round_robin_soft(cfg, lib, d)
            assert all(res.success.values())

    def test_all_receivers_succeed_k6(self):
        cfg, lib = _setup(6)
        res = round_robin_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)))
        assert all(res.success.values())
        assert res.guaranteed == (1, 2, 3, 4, 5, 6)

    def test_base_scheme_alone_leaves_edges_short(self):
        # contrast: the plain scheme on the same setup fails at rx 1 and rx K
        k = 7
        cfg = NetworkConfig.soft_handoff(k, 1.0, 1e4)
        lib = random_library(6, 40, seed=1)
        res = run_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6, 2)))
        assert not res.success[1] and not res.success[k]

    def test_bad_role_count_is_exactly_two(self, monkeypatch):
        # each rotation's periods hear the gains of the nodes playing its roles, and distinct
        # gains name those nodes; the plan's pieces are the (rotation, role) pairs where a
        # receiver plays a guaranteed role
        heard = []

        def recording(inputs, gains, noise_seed=0):
            heard.append(tuple(gains))
            return real(inputs, gains, noise_seed)

        real = pipeline.transmit_soft
        monkeypatch.setattr(pipeline, "transmit_soft", recording)
        for k in (5, 6, 7, 9):
            gains = tuple(1.0 + rx / 16 for rx in range(1, k + 1))
            cfg = NetworkConfig.soft_handoff(k, gains, 1e4)
            lib = random_library(6, 5 * 8 * (k - 2), seed=k, allow_small_d=True)
            plan = pipeline.placed(pipeline._rotated(cfg.variant, k), lib, 0)
            heard.clear()
            round_robin_soft(cfg, lib, DemandVector((1,) * k), MonteCarlo(n=3 * 16, seed=k))
            rotations = heard[::3]  # three periods per rotation, rotation 1 first
            assert len(rotations) == k and heard == [g for g in rotations for _ in range(3)]
            roles = {rx: [] for rx in range(1, k + 1)}
            for rotation in rotations:
                for role, gain in enumerate(rotation, start=1):
                    roles[gains.index(gain) + 1].append(role)
            collected = []
            for rx in range(1, k + 1):
                assert sorted(roles[rx]) == list(range(1, k + 1))  # each role once
                bad = sum(r in (1, k) for r in roles[rx])
                assert bad == 2
                pieces = [(ell, r - 1) for ell, r in enumerate(roles[rx]) if r not in (1, k)]
                assert plan.pieces[rx - 1].tolist() == [list(piece) for piece in pieces]
                assert len(pieces) == k - 2
                collected.append(tuple(ell + 1 for ell, _ in pieces))
            # the K-2 rotations it combines are those where it plays a guaranteed role: its
            # recipe decodes the coded parts of exactly those rotations
            data, coded = _coded(k, 3, seed=k)
            assert _recipe_decodes(plan.recipe, collected, coded).tolist() == [_byte_rows(data).tolist()] * k
            assert plan.served.all()

    def test_effective_rate_factor(self):
        k = 7
        cfg, lib = _setup(k)
        res = round_robin_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6, 1)))
        assert res.rate_per_user == rate_soft(cfg, alpha_min(cfg)) * (k - 2) / k

    def test_memory_accounting(self):
        k, bits = 6, 8
        cfg, lib = _setup(k, bits=bits)
        res = round_robin_soft(cfg, lib, DemandVector((1,) * k))
        # one soft placement of 2*D*L bits per super-period
        assert res.memory_bits_per_receiver == k * 2 * 6 * bits

    def test_monte_carlo_backend(self):
        cfg = NetworkConfig.soft_handoff(6, 1.0, 100.0)
        lib = random_library(6, 5 * 8 * 4, seed=2)
        res = round_robin_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6)), MonteCarlo(n=288, seed=1))
        assert all(res.success.values())

    def test_payload_must_fit_partitioning(self):
        cfg = NetworkConfig.soft_handoff(7, 1.0, 1e4)
        lib = random_library(6, 40, seed=3)  # not divisible into 5*(K-2) byte parts
        with pytest.raises(ConfigMismatch):
            round_robin_soft(cfg, lib, DemandVector((1,) * 7))

    def test_nonuniform_gains(self):
        k = 6
        cfg = NetworkConfig.soft_handoff(k, [0.8, 1.2, 0.9, 1.5, 0.7, 1.1], 1e4)
        lib = random_library(6, 5 * 8 * (k - 2), seed=4)
        res = round_robin_soft(cfg, lib, DemandVector((2, 4, 6, 1, 3, 5)))
        assert all(res.success.values())


@st.composite
def _erasure_patterns(draw):
    """K and the K - 2 coded parts (1-based, ascending) that a receiver collects."""
    k = draw(st.one_of(st.just(MAX_K), st.integers(5, MAX_K)))
    erased = draw(st.sets(st.integers(1, k), min_size=2, max_size=2))
    return k, tuple(i for i in range(1, k + 1) if i not in erased)


class TestDecodeRecipe:
    """The GF(256) recipe that round robin fixes at placement decodes as the part-by-part solve does."""

    @settings(max_examples=40, deadline=None)
    @given(_erasure_patterns(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @example((MAX_K, tuple(range(3, MAX_K + 1))), 2, 0)  # both parities repair
    @example((MAX_K, tuple(range(1, MAX_K - 1))), 1, 1)  # every data part passes through
    def test_matches_mds_decode(self, pattern, part_bytes, seed):
        k, parts = pattern
        data, coded = _coded(k, part_bytes, seed)
        (got,) = _recipe_decodes(decode_recipe([parts], k), [parts], coded).tolist()
        assert got == _byte_rows(data).tolist()
        rows = _byte_rows(coded)
        assert got == solve_decode({i: rows[i - 1] for i in parts}, k).tolist()

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_every_pattern_at_small_k(self, k):
        collected = list(itertools.combinations(range(1, k + 1), k - 2))
        data, coded = _coded(k, 4, seed=k)
        got = _recipe_decodes(decode_recipe(collected, k), collected, coded)
        assert got.tolist() == [_byte_rows(data).tolist()] * len(collected)

    @pytest.mark.parametrize("backend", [Ideal(), MonteCarlo(n=288, seed=1)], ids=["ideal", "mc"])
    def test_no_mds_decode_per_delivery(self, monkeypatch, backend):
        # placement states the recipes in closed form; deliveries only apply them
        k = 6
        cfg = NetworkConfig.soft_handoff(k, 1.0, 100.0)
        lib = random_library(6, 5 * 8 * (k - 2), seed=2)
        calls = []
        monkeypatch.setattr(pipeline, "mds_decode", lambda *args: calls.append(args) or mds_decode(*args))
        pipeline.placed.cache_clear()
        pipeline.placed(pipeline._rotated(cfg.variant, k), lib, 0)
        assert len(calls) == 0

        def refuse(*args):
            raise AssertionError("mds_decode called in a delivery")

        monkeypatch.setattr(pipeline, "mds_decode", refuse)
        rng = np.random.default_rng(3)
        for demands in [(1, 2, 3, 4, 5, 6), *(tuple(int(x) for x in rng.integers(1, 7, size=k)) for _ in range(3))]:
            res = round_robin_soft(cfg, lib, DemandVector(demands), backend)
            assert all(res.success.values())
