"""Experiment orchestration: seeded trial batches, SNR sweeps, CSV export.

Per-trial randomness (demand draws, codebooks, noise) is derived from
(master_seed, trial_index, role) streams, so reports are reproducible and
independent of worker count and evaluation order. Wall-clock time appears in
JSON reports only; CSV exports are byte-stable for replay comparison.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .model import (
    DemandVector,
    MessageLibrary,
    NetworkConfig,
    SimError,
    Variant,
    config_to_json,
    derive_seed,
    random_library,
    validate_config,
)
from .schemes import (
    Ideal,
    MonteCarlo,
    SimResult,
    baseline_point,
    full_point,
    rate_full,
    rate_soft,
    round_robin_soft,
    run_full,
    run_soft,
    run_soft_prop1,
    soft_point,
    time_share,
)
from .schemes.parts import DATA_PARTS_SOFT, PARTS_FULL
from .schemes.schedule import MIN_SOFT_K, KTooSmall
from .tradeoff import (
    ACHIEVABLE,
    UPPER_BOUND,
    TradeoffCurve,
    achievable,
    breakpoints,
    empirical_mg,
    upper_bound,
)

WORKERS_ENV = "WCS_WORKERS"
EXHAUSTIVE_LIMIT = 10**6

_TAG_LIBRARY = 0x11B
_TAG_DEMANDS = 0xDE3
_TAG_BACKEND = 0xBAC


class InfeasibleRate(SimError):
    """The scheme's per-user rate is negative at this power and epsilon."""


class DemandPolicy(Enum):
    DISTINCT = "distinct"
    ALL_EQUAL = "equal"
    RANDOM = "random"
    EXPLICIT = "explicit"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment."""

    config: NetworkConfig
    backend: str = "ideal"  # "ideal" | "mc"
    num_files: int = 6
    bits: int = 8  # submessage size L
    n: int = 288  # block length, Monte-Carlo backend only
    trials: int = 1
    master_seed: int = 0
    demand_policy: DemandPolicy = DemandPolicy.RANDOM
    explicit_demands: tuple[int, ...] | None = None
    round_robin: bool = False
    prop1_extra_bits: int = 0
    timeshare_lambda: float | None = None
    allow_small_d: bool = False

    def validate(self) -> None:
        cfg = self.config
        validate_config(cfg)
        soft = cfg.variant is Variant.SOFT_HANDOFF
        if soft and cfg.k < MIN_SOFT_K:
            raise KTooSmall(f"soft-handoff schedule needs K >= {MIN_SOFT_K}, got {cfg.k}")
        if self.backend not in ("ideal", "mc"):
            raise SimError(f"unknown backend {self.backend!r}")
        if self.backend == "ideal":
            rate = rate_soft(cfg) if soft else rate_full(cfg)
            if rate < 0:
                raise InfeasibleRate(
                    f"{cfg.variant.value} scheme rate {rate:.6g} is negative at "
                    f"P={cfg.power:g}, eps={cfg.epsilon:g}; raise the power or lower epsilon"
                )
        if self.trials < 1:
            raise SimError("trials must be at least 1")
        if self.bits < 1:
            raise SimError("bits per submessage must be at least 1")
        if self.demand_policy is DemandPolicy.EXPLICIT and self.explicit_demands is None:
            raise SimError("explicit demand policy needs a demand vector")
        if self.demand_policy is DemandPolicy.DISTINCT and self.num_files < self.config.k:
            raise SimError("distinct demands need at least K files")
        if self.demand_policy is DemandPolicy.EXHAUSTIVE:
            if self.num_files**self.config.k > EXHAUSTIVE_LIMIT:
                raise SimError(
                    f"exhaustive policy needs D^K <= {EXHAUSTIVE_LIMIT}, "
                    f"got {self.num_files}^{self.config.k}"
                )
        if self.round_robin and self.config.variant is not Variant.SOFT_HANDOFF:
            raise SimError("round robin applies to the soft-handoff scheme only")
        if self.prop1_extra_bits and self.config.variant is not Variant.SOFT_HANDOFF:
            raise SimError("the augmented placement is wired for the soft-handoff scheme")
        if self.timeshare_lambda is not None and not 0 <= self.timeshare_lambda <= 1:
            raise SimError(f"timeshare lambda {self.timeshare_lambda} outside [0, 1]")

    def payload_bits(self) -> int:
        if self.config.variant is Variant.FULL:
            base = PARTS_FULL * self.bits
        elif self.round_robin:
            base = DATA_PARTS_SOFT * self.bits * (self.config.k - 2)
        else:
            base = DATA_PARTS_SOFT * self.bits
        return base + self.prop1_extra_bits

    def to_json(self) -> dict:
        return {
            "config": config_to_json(self.config),
            "backend": self.backend,
            "num_files": self.num_files,
            "bits": self.bits,
            "n": self.n,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "demand_policy": self.demand_policy.value,
            "explicit_demands": list(self.explicit_demands) if self.explicit_demands else None,
            "round_robin": self.round_robin,
            "prop1_extra_bits": self.prop1_extra_bits,
            "timeshare_lambda": self.timeshare_lambda,
            "allow_small_d": self.allow_small_d,
        }


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    trials: int
    per_receiver_success: dict[int, float]
    guaranteed: tuple[int, ...]
    guaranteed_success: float
    interior_success: float
    edge_success: float
    link_error_rate: float
    rate_per_user: float
    memory_bits_per_receiver: int
    empirical_mg: float
    timeshare_point: dict | None
    wall_clock_s: float

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "trials": self.trials,
            "per_receiver_success": {str(rx): v for rx, v in sorted(self.per_receiver_success.items())},
            "guaranteed": list(self.guaranteed),
            "guaranteed_success": self.guaranteed_success,
            "interior_success": self.interior_success,
            "edge_success": self.edge_success,
            "link_error_rate": self.link_error_rate,
            "rate_per_user": self.rate_per_user,
            "memory_bits_per_receiver": self.memory_bits_per_receiver,
            "empirical_mg": self.empirical_mg,
            "timeshare_point": self.timeshare_point,
            "wall_clock_s": self.wall_clock_s,
        }


def resolve_workers(requested: int | None = None) -> int:
    if requested is not None:
        return max(1, requested)
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise SimError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
    return 1


def _demands_for_trial(spec: ExperimentSpec, trial: int) -> DemandVector:
    k, d = spec.config.k, spec.num_files
    policy = spec.demand_policy
    if policy is DemandPolicy.DISTINCT:
        entries: Iterable[int] = range(1, k + 1)
    elif policy is DemandPolicy.ALL_EQUAL:
        entries = (1,) * k
    elif policy is DemandPolicy.EXPLICIT:
        entries = spec.explicit_demands or ()
    elif policy is DemandPolicy.RANDOM:
        rng = np.random.default_rng(
            np.random.SeedSequence((spec.master_seed, trial, _TAG_DEMANDS))
        )
        entries = (int(x) for x in rng.integers(1, d + 1, size=k))
    else:
        raise SimError("exhaustive demands are enumerated, not drawn per trial")
    return DemandVector.checked(entries, k, d)


def _run_single(
    spec: ExperimentSpec, library: MessageLibrary, demands: DemandVector, trial: int
) -> SimResult:
    if spec.backend == "ideal":
        backend = Ideal()
    else:
        backend = MonteCarlo(spec.n, derive_seed(spec.master_seed, trial, _TAG_BACKEND))
    try:
        if spec.config.variant is Variant.FULL:
            return run_full(spec.config, library, demands, backend)
        if spec.round_robin:
            return round_robin_soft(spec.config, library, demands, backend)
        if spec.prop1_extra_bits:
            return run_soft_prop1(spec.config, library, demands, spec.prop1_extra_bits, backend)
        return run_soft(spec.config, library, demands, backend)
    except SimError as exc:
        raise type(exc)(f"trial {trial}: {exc}") from exc


def _timeshare_point(spec: ExperimentSpec) -> dict | None:
    lam = spec.timeshare_lambda
    if lam is None:
        return None
    cfg = spec.config
    scheme = (
        full_point(cfg, spec.num_files)
        if cfg.variant is Variant.FULL
        else soft_point(cfg, spec.num_files)
    )
    combined = time_share(scheme, baseline_point(cfg.power), lam)
    return {
        "lambda": lam,
        "rate_per_user": combined.rate,
        "memory_per_user": combined.memory,
        "empirical_mg": empirical_mg(combined.rate, cfg.power),
    }


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> ExperimentReport:
    """Aggregate SimResults over trials (or the exhaustive demand enumeration)."""
    spec.validate()
    started = time.perf_counter()
    k = spec.config.k

    library = random_library(
        spec.num_files,
        spec.payload_bits(),
        derive_seed(spec.master_seed, _TAG_LIBRARY),
        allow_small_d=spec.allow_small_d,
    )

    if spec.demand_policy is DemandPolicy.EXHAUSTIVE:
        all_demands = [
            DemandVector(combo)
            for combo in itertools.product(range(1, spec.num_files + 1), repeat=k)
        ]
    else:
        all_demands = [_demands_for_trial(spec, t) for t in range(spec.trials)]

    def job(indexed: tuple[int, DemandVector]) -> SimResult:
        trial, demands = indexed
        return _run_single(spec, library, demands, trial)

    n_workers = resolve_workers(workers)
    tasks = list(enumerate(all_demands))
    if n_workers == 1:
        results = [job(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(job, tasks))

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

    return ExperimentReport(
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
        empirical_mg=empirical_mg(results[0].rate_per_user, spec.config.power),
        timeshare_point=_timeshare_point(spec),
        wall_clock_s=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class SweepRow:
    p_db: float
    p_linear: float
    x: float  # normalized cache size mu/D of the scheme
    rate_per_user: float
    empirical_mg: float
    guaranteed_success: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def sweep_snr(spec: ExperimentSpec, p_db_list: Sequence[float], workers: int | None = None) -> SweepResult:
    """Rerun the experiment across an increasing SNR grid."""
    if any(b <= a for a, b in zip(p_db_list, p_db_list[1:])):
        raise SimError("SNR grid must be strictly increasing")
    x = 1.0 if spec.config.variant is Variant.FULL else 2.0 / 3.0
    rows = []
    for p_db in p_db_list:
        power = 10.0 ** (p_db / 10.0)
        if power <= spec.config.epsilon:
            raise SimError(f"power {power} at {p_db} dB does not exceed epsilon")
        sub = dataclasses.replace(spec, config=spec.config.with_power(power))
        report = run_experiment(sub, workers)
        rows.append(
            SweepRow(
                p_db=p_db,
                p_linear=power,
                x=x,
                rate_per_user=report.rate_per_user,
                empirical_mg=report.empirical_mg,
                guaranteed_success=report.guaranteed_success,
            )
        )
    return SweepResult(tuple(rows))


# --- export ----------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.12g}"


def export_csv(obj: "ExperimentReport | SweepResult | TradeoffCurve", path: str) -> None:
    """Write a byte-stable CSV with a header row; dispatches on the object type."""
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        if isinstance(obj, ExperimentReport):
            writer.writerow(["receiver", "success_rate", "guaranteed"])
            for rx in sorted(obj.per_receiver_success):
                writer.writerow(
                    [rx, _fmt(obj.per_receiver_success[rx]), int(rx in obj.guaranteed)]
                )
        elif isinstance(obj, SweepResult):
            writer.writerow(["p_db", "p_linear", "x", "rate", "empirical_mg", "success_rate"])
            for row in obj.rows:
                writer.writerow(
                    [
                        _fmt(row.p_db),
                        _fmt(row.p_linear),
                        _fmt(row.x),
                        _fmt(row.rate_per_user),
                        _fmt(row.empirical_mg),
                        _fmt(row.guaranteed_success),
                    ]
                )
        elif isinstance(obj, TradeoffCurve):
            writer.writerow(["x", "s_ach", "s_ub", "gap"])
            # both columns are exported, so the corners of both curves are sampled
            x_max = Fraction(obj.samples[-1][0])
            corners = {
                float(x)
                for kind in (ACHIEVABLE, UPPER_BOUND)
                for x, _ in breakpoints(obj.variant, kind)
                if x <= x_max
            }
            for x in sorted({x for x, _ in obj.samples} | corners):
                ach = float(achievable(obj.variant, x))
                ub = float(upper_bound(obj.variant, x))
                writer.writerow([_fmt(x), _fmt(ach), _fmt(ub), _fmt(ub - ach)])
        else:
            raise SimError(f"cannot export {type(obj).__name__} as CSV")


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render the per-user MG tradeoff curves{extra_doc} exported by wynercache."""

import csv

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

CURVE_CSV = {curve_csv!r}
POINTS_CSV = {points_csv!r}
FIGURE = {figure!r}


def read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {{name: [float(r[name]) for r in rows] for name in rows[0]}}


curve = read_columns(CURVE_CSV)
fig, ax = plt.subplots(figsize=(5, 4))
ax.plot(curve["x"], curve["s_ach"], label="achievable", color="tab:blue")
ax.plot(curve["x"], curve["s_ub"], label="upper bound", color="tab:red", linestyle="--")
if POINTS_CSV:
    points = read_columns(POINTS_CSV)
    ax.scatter(points["x"], points["empirical_mg"], label="simulated", color="black", zorder=3)
ax.set_xlabel("normalized cache size x = mu/D")
ax.set_ylabel("per-user multiplexing gain")
ax.legend()
ax.grid(True, alpha=0.3)
fig.tight_layout()
fig.savefig(FIGURE, dpi=150)
print(f"wrote {{FIGURE}}")
'''


def emit_plot_script(
    curve_csv: str, out_path: str, points_csv: str | None = None, figure: str | None = None
) -> None:
    """Write a standalone matplotlib script that renders the exported CSVs."""
    script = _PLOT_TEMPLATE.format(
        extra_doc=" and empirical points" if points_csv else "",
        curve_csv=curve_csv,
        points_csv=points_csv,
        figure=figure or out_path + ".png",
    )
    with open(out_path, "w") as fh:
        fh.write(script)
