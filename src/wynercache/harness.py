"""Experiment orchestration: seeded trial batches, SNR sweeps, CSV export.

Per-trial randomness (demand draws, codebooks, noise) is derived from (master_seed,
trial_index, role) streams, so reports are reproducible and independent of evaluation order.
Random trial t demands ``default_rng(SeedSequence((master_seed, t, tag))).integers(1, D + 1, K)``
and the library is D successive ``rng.bytes`` draws; array steps draw both, with the same values.
A block's demand streams are seeded in one pass: ``model.seed_states`` hashes every trial's
``SeedSequence`` entropy at once, and each trial's ``PCG64`` takes its words through a small
``ISeedSequence`` (``_state_seed``), so no ``SeedSequence`` is built per trial.
``run_experiment`` delivers the trials in blocks: each block's demand vectors go to the runner
as one (T, K) array, with one MC seed per trial, and the receivers' success counts are summed
over blocks as Python ints. A spec reads its payload and periods off the run's skeleton, and
its block size off the plan (``schemes.pipeline.block_trials``: memory only, no stream or
value changes). Wall-clock time appears in JSON reports only; CSV exports are byte-stable.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .codec import check_codebook_bits
from .model import (
    ConfigError,
    DemandVector,
    MessageLibrary,
    NetworkConfig,
    SimError,
    Variant,
    check_library_size,
    derive_seed,
    entropy_words,
    random_library,
    seed_states,
    to_json,
)
from .schemes import (
    BlockResult,
    Ideal,
    InfeasibleRate,  # re-exported: callers of run_experiment catch it from here
    MonteCarlo,
    check_ideal_rate,
    round_robin_soft,
    run_full,
    run_soft,
    run_soft_prop1,
)
from .schemes.pipeline import block_trials, layout, placed, skeleton, slot_length
from .tradeoff import (
    ACHIEVABLE,
    UPPER_BOUND,
    TradeoffCurve,
    achievable,
    breakpoints,
    empirical_mg,
    upper_bound,
)

EXHAUSTIVE_LIMIT = 10**6

_TAG_LIBRARY = 0x11B
_TAG_DEMANDS = 0xDE3
_TAG_BACKEND = 0xBAC
_INTEGER_FIELDS = ("num_files", "bits", "n", "trials", "master_seed", "prop1_extra_bits")


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
    allow_small_d: bool = False

    def __post_init__(self) -> None:
        # a numpy integer runs as the equal Python int; validate rejects every other non-int
        for name in _INTEGER_FIELDS:
            if isinstance(value := getattr(self, name), numbers.Integral) and not isinstance(value, bool):
                object.__setattr__(self, name, int(value))

    def validate(self) -> None:
        """Raise the named SimError of the first rule the spec breaks; a built config passed the channel's."""
        cfg = self.config
        for name in _INTEGER_FIELDS:
            if type(value := getattr(self, name)) is not int:
                raise SimError(f"{name} must be an integer, got {value!r}")
        if self.round_robin and self.prop1_extra_bits:
            raise SimError("round_robin runs no prop-1 placement; unset prop1_extra_bits")
        if self.bits < 1:
            raise SimError("bits per submessage must be at least 1")
        if self.master_seed < 0:
            raise SimError(f"master_seed must be non-negative, got {self.master_seed}")
        if not isinstance(cfg, NetworkConfig):  # before the skeleton, which reads the variant
            raise ConfigError(f"config must be a NetworkConfig, got {type(cfg).__name__}")
        layout(skel := skeleton(cfg, self.round_robin), self.payload_bits(), self.prop1_extra_bits)
        if self.backend not in ("ideal", "mc"):
            raise SimError(f"unknown backend {self.backend!r}")
        if self.backend == "ideal":
            # an Ideal run sends at the scheme rate
            check_ideal_rate(cfg, skel)
        if self.trials < 1:
            raise SimError("trials must be at least 1")
        check_library_size(self.num_files, self.payload_bits(), self.allow_small_d)
        if self.backend == "mc":
            # every codebook has 2^bits words, every period gets n // periods uses, and the
            # gains and the float range are those MC can run
            check_codebook_bits(self.bits)
            slot_length(cfg, skel, self.n)
        if self.demand_policy is DemandPolicy.EXPLICIT:
            if self.explicit_demands is None:
                raise SimError("explicit demand policy needs a demand vector")
            DemandVector.checked(self.explicit_demands, cfg.k, self.num_files)
        elif self.explicit_demands is not None:
            raise SimError(f"explicit demands need the explicit demand policy, not {self.demand_policy.value!r}")
        if self.demand_policy is DemandPolicy.DISTINCT and self.num_files < self.config.k:
            raise SimError("distinct demands need at least K files")
        if self.demand_policy is DemandPolicy.EXHAUSTIVE:
            if self.num_files**self.config.k > EXHAUSTIVE_LIMIT:
                raise SimError(
                    f"exhaustive policy needs D^K <= {EXHAUSTIVE_LIMIT}, "
                    f"got {self.num_files}^{self.config.k}"
                )

    def payload_bits(self) -> int:
        # bits per data part of a base delivery; round robin's pieces are its K - 2 MDS data parts
        skel = skeleton(self.config, self.round_robin)
        pieces = 1 if skel.pieces is None else skel.pieces.shape[1]
        return skel.needed * self.bits * pieces + self.prop1_extra_bits

    def to_json(self) -> dict:
        return to_json(self)


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
    wall_clock_s: float

    def to_json(self) -> dict:
        return to_json(self)


@functools.cache
def _state_seed() -> type:
    """The ``ISeedSequence`` that hands ``PCG64`` a trial's precomputed ``generate_state(4, np.uint64)``
    words. Made on first use: subclassing at import would import ``numpy.random`` with wynercache."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"the seed holds 4 uint64 words, not {n_words} of {np.dtype(dtype)}")
            return self.state

    return StateSeed


def _demands(spec: ExperimentSpec, trials: range) -> np.ndarray:
    """The (trials, K) demand vectors of a block of trials; trial t of the exhaustive policy is
    the t-th vector of ``itertools.product``, the last receiver's demand changing fastest."""
    k, d = spec.config.k, spec.num_files
    policy = spec.demand_policy
    if policy is DemandPolicy.RANDOM:
        # every trial's SeedSequence hashed in one pass (trial t < 2^32 is one word), each PCG64
        # seeded with its words; Generator.integers' Lemire rule on the uint32 words, each 64-bit
        # output's low half first
        low = len(range(trials.start, min(trials.stop, 2**32)))
        words = np.tile(np.array(entropy_words(spec.master_seed, 0, _TAG_DEMANDS), np.uint32)[:, None], low)
        words[-2] = np.arange(trials.start, trials.start + low)
        raw, seed, pcg64 = np.zeros((len(trials), (k + 1) // 2), dtype="<u8"), _state_seed(), np.random.PCG64
        for i, state in enumerate(seed_states(words, 4)):
            raw[i] = pcg64(seed(state)).random_raw((k + 1) // 2)
        scaled = raw.view("<u4")[:, :k] * np.uint64(d % 2**32)
        rows = (scaled >> np.uint64(32)).astype(np.int64) + 1
        redraw = ((scaled & np.uint64(2**32 - 1)) < 2**32 % d).any(axis=1) | (d >= 2**32)
        redraw[low:] = True  # a trial index of two or more words: another layout
        for i in np.flatnonzero(redraw):  # a rejected word, or D >= 2^32: the public draw
            stream = np.random.SeedSequence((spec.master_seed, trials[i], _TAG_DEMANDS))
            rows[i] = np.random.default_rng(stream).integers(1, d + 1, k)
        return rows
    if policy is DemandPolicy.EXHAUSTIVE:
        return np.arange(trials.start, trials.stop)[:, None] // d ** np.arange(k - 1, -1, -1) % d + 1
    rows = {DemandPolicy.DISTINCT: range(1, k + 1), DemandPolicy.ALL_EQUAL: (1,) * k}
    return np.tile(np.array(rows.get(policy, spec.explicit_demands)), (len(trials), 1))


def _run_block(spec: ExperimentSpec, library: MessageLibrary, trials: range) -> BlockResult:
    backend, seeds = Ideal(), ()
    if spec.backend == "mc":
        backend = MonteCarlo(spec.n)
        seeds = tuple(derive_seed(spec.master_seed, t, _TAG_BACKEND) for t in trials)
    demands = _demands(spec, trials)
    try:
        if spec.round_robin:
            return round_robin_soft(spec.config, library, demands, backend, seeds)
        if spec.prop1_extra_bits:
            return run_soft_prop1(spec.config, library, demands, spec.prop1_extra_bits, backend, seeds)
        if spec.config.variant is Variant.FULL:
            return run_full(spec.config, library, demands, backend, seeds)
        return run_soft(spec.config, library, demands, backend, seeds)
    except SimError as exc:
        first, last = trials[0], trials[-1]
        raise type(exc)(f"trial {first}: {exc}" if first == last else f"trials {first}-{last}: {exc}") from exc


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Sum the success of every receiver over the trials (or the exhaustive demand
    enumeration), delivered in blocks of ``block_trials`` trials."""
    spec.validate()
    started = time.perf_counter()
    k = spec.config.k

    library = random_library(
        spec.num_files,
        spec.payload_bits(),
        derive_seed(spec.master_seed, _TAG_LIBRARY),
        allow_small_d=spec.allow_small_d,
    )

    exhaustive = spec.demand_policy is DemandPolicy.EXHAUSTIVE
    trials = spec.num_files**k if exhaustive else spec.trials
    step = block_trials(placed(skeleton(spec.config, spec.round_robin), library, spec.prop1_extra_bits))
    success, links, failures = np.zeros(k, dtype=np.int64), 0, 0
    for start in range(0, trials, step):
        block = _run_block(spec, library, range(start, min(start + step, trials)))
        success += block.success.sum(axis=0)
        links += block.links_total
        failures += block.link_failures
    per_rx = {rx: count / trials for rx, count in enumerate(success.tolist(), start=1)}
    guaranteed = block.guaranteed
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
        rate_per_user=block.rate_per_user,
        memory_bits_per_receiver=block.memory_bits_per_receiver,
        empirical_mg=empirical_mg(block.rate_per_user, spec.config.power),
        wall_clock_s=time.perf_counter() - started,
    )


def power_from_db(p_db: float) -> float:
    """10^(p_db / 10), or a SimError where that overflows a float."""
    try:
        return 10.0 ** (p_db / 10.0)
    except OverflowError:
        raise SimError(f"power of {p_db:g} dB overflows a float") from None


@dataclass(frozen=True)
class SweepRow:
    p_db: float
    p_linear: float
    x: float  # mu/D: the run's cache bits per channel use over 0.5*log2(1+P), per file
    rate_per_user: float
    empirical_mg: float
    guaranteed_success: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def sweep_snr(spec: ExperimentSpec, p_db_list: Sequence[float]) -> SweepResult:
    """Rerun the experiment across an increasing SNR grid; every point is validated before any runs."""
    if any(b <= a for a, b in zip(p_db_list, p_db_list[1:])):
        raise SimError("SNR grid must be strictly increasing")
    subs = [dataclasses.replace(spec, config=spec.config.with_power(power_from_db(p_db))) for p_db in p_db_list]
    for sub in subs:
        sub.validate()
    rows = []
    for p_db, sub in zip(p_db_list, subs):
        power = sub.config.power
        report = run_experiment(sub)
        cache_rate = report.memory_bits_per_receiver * report.rate_per_user / sub.payload_bits()
        rows.append(
            SweepRow(
                p_db=p_db,
                p_linear=power,
                x=empirical_mg(cache_rate, power) / spec.num_files,
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

    if not isinstance(obj, (ExperimentReport, SweepResult, TradeoffCurve)):  # before open empties path
        raise SimError(f"cannot export {type(obj).__name__} as CSV")
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
        else:
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


def emit_plot_script(curve_csv: str, out_path: str, points_csv: str | None = None) -> None:
    """Write a standalone matplotlib script that renders the exported CSVs."""
    script = _PLOT_TEMPLATE.format(
        extra_doc=" and empirical points" if points_csv else "",
        curve_csv=curve_csv,
        points_csv=points_csv,
        figure=out_path + ".png",
    )
    with open(out_path, "w") as fh:
        fh.write(script)
