"""The four benchmark workloads and the report each call must produce.

Every workload uses alpha = 1 unless stated, random demands and D = K. The
profile shares quoted below were measured with cProfile on the seed code.

ideal-soft-k60
    Soft handoff, Ideal backend, K = D = 60, L = 8, P = 40 dB; about 15-21 ms
    per trial. The scheme-bookkeeping case: per-trial cache_placement_soft is
    about 69% of the time, _execute 12% and _finish_soft 11%; codec and
    channel are idle. A "place once per library" change shows up here, a codec
    change should not move it.
mc-soft-l12
    Soft handoff, MonteCarlo backend, K = 6, L = 12, n = 600, P = 20 dB; about
    240-285 ms per trial. The large-codebook case: draw_codebook is about 76%
    (10 draws of 4096 x 200 per trial) and nn_decode 21%. Placement is under
    1%, so a placement change should not move it.
mc-full-k24
    Full model, MonteCarlo backend, K = 24, alpha = 0.5, L = 8, n = 288,
    P = 20 dB; about 70 ms per trial. 24 small 256 x 288 codebook draws per
    trial instead of 10 large ones (draw_codebook about 63%, nn_decode 24%),
    and the only workload on the full-model path (split_full,
    cache_placement_full, delivery_schedule_full, transmit_full, two-sided
    cancel_known). Per-period batching of codebook draws gains most here.
rr-ideal-k12
    Soft handoff with round robin, Ideal backend, K = 12, L = 8, P = 40 dB;
    about 18-25 ms per trial. The only workload that runs schemes.mds (about
    9%). Each trial runs K rotated run_soft calls that build 12 placements
    over demand-independent coded sub-libraries, so placement is about 34%.
    Codec and channel are idle.

The expected report of each workload does not depend on the seed: at these
operating points every guaranteed receiver decodes in every trial, so a change
to the Monte-Carlo random streams that keeps decoding exact still passes and a
wrong decode fails.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from wynercache.harness import ExperimentSpec
from wynercache.model import NetworkConfig


@dataclass(frozen=True)
class Workload:
    spec: ExperimentSpec  # master_seed and trials are set per run
    trials_per_call: int  # sized so that one call takes about half a second
    edge_success: float
    rate_per_user: float
    memory_bits_per_receiver: int
    empirical_mg: float
    reference: tuple[str, ...]  # reference.py kernels whose work is most like this workload's

    def spec_for(self, seed: int, trials: int) -> ExperimentSpec:
        return dataclasses.replace(self.spec, master_seed=seed, trials=trials)

    def expected_report(self, trials: int) -> dict:
        """``ExperimentReport.to_json()`` without ``wall_clock_s`` and ``spec``."""
        k = self.spec.config.k
        edges = (1, k)
        guaranteed = list(range(1, k + 1)) if self.edge_success else list(range(2, k))
        return {
            "trials": trials,
            "per_receiver_success": {
                str(rx): self.edge_success if rx in edges else 1.0 for rx in range(1, k + 1)
            },
            "guaranteed": guaranteed,
            "guaranteed_success": 1.0,
            "interior_success": 1.0,
            "edge_success": self.edge_success,
            "link_error_rate": 0.0,
            "rate_per_user": self.rate_per_user,
            "memory_bits_per_receiver": self.memory_bits_per_receiver,
            "empirical_mg": self.empirical_mg,
            "timeshare_point": None,
        }

    def check(self, report_json: dict, trials: int) -> str | None:
        """None when the report matches the expected one, else what differs."""
        got = {k: v for k, v in report_json.items() if k not in ("wall_clock_s", "spec")}
        want = self.expected_report(trials)
        diff = {
            k: (got.get(k), want.get(k))
            for k in want.keys() | got.keys()
            if got.get(k) != want.get(k)
        }
        return None if not diff else f"report differs (got, want): {diff}"


WORKLOADS: dict[str, Workload] = {
    "ideal-soft-k60": Workload(
        spec=ExperimentSpec(
            NetworkConfig.soft_handoff(60, 1.0, 1e4), backend="ideal", num_files=60, bits=8
        ),
        trials_per_call=24,
        edge_success=0.0,
        rate_per_user=10.823207857557154,
        memory_bits_per_receiver=960,
        empirical_mg=1.6290374210506227,
        reference=("python",),
    ),
    "mc-soft-l12": Workload(
        spec=ExperimentSpec(
            NetworkConfig.soft_handoff(6, 1.0, 100.0), backend="mc", num_files=6, bits=12, n=600
        ),
        trials_per_call=2,
        edge_success=0.0,
        rate_per_user=0.1,
        memory_bits_per_receiver=144,
        empirical_mg=0.030038096644737597,
        reference=("python", "numpy"),
    ),
    "mc-full-k24": Workload(
        spec=ExperimentSpec(
            NetworkConfig.full(24, 0.5, 100.0), backend="mc", num_files=24, bits=8, n=288
        ),
        trials_per_call=8,
        edge_success=1.0,
        rate_per_user=0.05555555555555555,
        memory_bits_per_receiver=192,
        empirical_mg=0.016687831469298663,
        reference=("python", "numpy"),
    ),
    "rr-ideal-k12": Workload(
        spec=ExperimentSpec(
            NetworkConfig.soft_handoff(12, 1.0, 1e4),
            backend="ideal",
            num_files=12,
            bits=8,
            round_robin=True,
        ),
        trials_per_call=24,
        edge_success=1.0,
        rate_per_user=9.019339881297627,
        memory_bits_per_receiver=2304,
        empirical_mg=1.357531184208852,
        reference=("python",),
    ),
}

