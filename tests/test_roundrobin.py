import numpy as np
import pytest

import wynercache.schemes.pipeline as pipeline
from wynercache.model import DemandVector, NetworkConfig, random_library
from wynercache.schemes import (
    ConfigMismatch,
    Ideal,
    MonteCarlo,
    rate_soft,
    round_robin_soft,
    run_soft,
)


def _setup(k, d_files=6, bits=8, seed=0):
    cfg = NetworkConfig.soft_handoff(k, 1.0, 1e4)
    lib = random_library(d_files, 5 * bits * (k - 2), seed=seed, allow_small_d=True)
    return cfg, lib


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

    def test_bad_role_count_is_exactly_two(self):
        # in the placed composite each rotation's periods hear the gains of the nodes
        # playing its roles, and distinct gains name those nodes
        for k in (5, 6, 7, 9):
            gains = tuple(1.0 + rx / 16 for rx in range(1, k + 1))
            cfg = NetworkConfig.soft_handoff(k, gains, 1e4)
            lib = random_library(6, 5 * 8 * (k - 2), seed=k, allow_small_d=True)
            plan = pipeline._rotate(cfg, lib)
            rotations = [per for per in plan.periods if per.index == 1]
            keys = [((pipeline._SEED_SUPER, ell),) for ell in range(1, k + 1)]
            assert [per.keys for per in rotations] == keys
            roles = {rx: [] for rx in range(1, k + 1)}
            for per in rotations:
                for role, gain in enumerate(per.gain[:, 0], start=1):
                    roles[gains.index(gain) + 1].append(role)
            for rx in range(1, k + 1):
                assert sorted(roles[rx]) == list(range(1, k + 1))  # each role once
                bad = sum(r in (1, k) for r in roles[rx])
                assert bad == 2
                # the K-2 rotations it combines are those where it plays a guaranteed role
                guaranteed = tuple(ell for ell, r in enumerate(roles[rx], start=1) if r not in (1, k))
                assert plan.coded[rx - 1] == guaranteed and len(guaranteed) == k - 2
            assert plan.served.all()

    def test_effective_rate_factor(self):
        k = 7
        cfg, lib = _setup(k)
        res = round_robin_soft(cfg, lib, DemandVector((1, 2, 3, 4, 5, 6, 1)))
        assert res.rate_per_user == rate_soft(cfg) * (k - 2) / k

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
