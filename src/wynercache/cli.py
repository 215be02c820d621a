"""Command-line front end: simulate, sweep, tradeoff, verify-schedule.

Exit codes: 0 on success, 1 on validation errors (diagnostic on stderr,
never a stack trace), 2 when a requested --assert condition is violated.
Every run prints its effective configuration, so any result can be replayed
from the output alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    DemandPolicy,
    ExperimentSpec,
    _demands,
    emit_plot_script,
    export_csv,
    power_from_db,
    run_experiment,
    sweep_snr,
)
from .model import (
    DemandVector,
    NetworkConfig,
    SimError,
    Variant,
    random_library,
    to_json,
)
from .schemes import (
    cache_placement_full,
    cache_placement_soft,
    delivery_schedule_full,
    delivery_schedule_soft,
    verify_schedule,
)
from .tradeoff import ACHIEVABLE, curve

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ASSERTION = 2


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors follow the exit-code contract."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=["soft", "full"], required=True)
    sub.add_argument("--k", type=int, required=True, help="number of Tx/Rx pairs")
    sub.add_argument("--d", type=int, default=6, help="library size D (default 6)")
    sub.add_argument(
        "--alpha",
        default="1",
        help="cross gain: scalar, or comma list of K values (soft model only)",
    )
    sub.add_argument("--snr-db", default="40", help="power in dB; comma list for sweeps")
    sub.add_argument("--epsilon", type=float, default=0.05)
    sub.add_argument("--backend", choices=["ideal", "mc"], default="ideal")
    sub.add_argument("--n", type=int, default=288, help="block length (mc backend only)")
    sub.add_argument("--bits", type=int, default=8, help="bits per submessage L")
    sub.add_argument("--trials", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--demands",
        default="random",
        help="random | distinct | equal | exhaustive | explicit:3,1,4,...",
    )
    sub.add_argument("--round-robin", action="store_true")
    sub.add_argument("--prop1-delta-bits", type=int, default=0)
    sub.add_argument("--allow-small-d", action="store_true")
    sub.add_argument("--out", default=None, help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wynercache", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run one scheme and report per-receiver success")
    _add_config_flags(sim)
    sim.add_argument(
        "--assert",
        dest="assert_mode",
        choices=["interior-success", "all-success"],
        default=None,
    )

    sweep = subs.add_parser("sweep", help="rerun across an SNR grid and export a CSV table")
    _add_config_flags(sweep)
    sweep.add_argument("--plot-script", default=None, help="also emit a plot script here")

    trade = subs.add_parser("tradeoff", help="export the closed-form MG tradeoff curves")
    trade.add_argument("--model", choices=["soft", "full"], required=True)
    trade.add_argument("--points", type=int, default=200)
    trade.add_argument("--x-max", type=float, default=2.0)
    trade.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    trade.add_argument("--plot-script", default=None)

    ver = subs.add_parser("verify-schedule", help="build and check the canonical schedule")
    ver.add_argument("--model", choices=["soft", "full"], default="soft")
    ver.add_argument("--k", type=int, required=True)
    ver.add_argument("--d", type=int, default=6)
    ver.add_argument("--demands", default="distinct")
    ver.add_argument("--allow-small-d", action="store_true")
    ver.add_argument("--out", default=None, help="write the schedule JSON here")
    return parser


def _parse_list(text: str, flag: str, kind: type = float) -> list:
    """The comma-separated values of ``flag``, or a SimError naming the flag."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise SimError(f"{flag} needs comma-separated numbers, got {text!r}") from None
    if not values:
        raise SimError(f"{flag} needs at least one value")
    return values


def _build_config(args: argparse.Namespace) -> NetworkConfig:
    """The config of the flags; ``ExperimentSpec.validate`` checks it, the --alpha count included."""
    variant = Variant.SOFT_HANDOFF if args.model == "soft" else Variant.FULL
    power = power_from_db(_parse_list(args.snr_db, "--snr-db")[0])
    gains = _parse_list(args.alpha, "--alpha")
    if variant is Variant.SOFT_HANDOFF and len(gains) == 1:
        gains *= args.k
    return NetworkConfig(variant, args.k, tuple(gains), power, args.epsilon)


def _parse_demands(text: str) -> tuple[DemandPolicy, tuple[int, ...] | None]:
    if text.startswith("explicit:"):
        entries = _parse_list(text.removeprefix("explicit:"), "--demands explicit:", int)
        return DemandPolicy.EXPLICIT, tuple(entries)
    aliases = {
        "random": DemandPolicy.RANDOM,
        "distinct": DemandPolicy.DISTINCT,
        "equal": DemandPolicy.ALL_EQUAL,
        "exhaustive": DemandPolicy.EXHAUSTIVE,
    }
    if text not in aliases:
        raise SimError(f"unknown demand policy {text!r}")
    return aliases[text], None


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    policy, explicit = _parse_demands(args.demands)
    spec = ExperimentSpec(
        config=_build_config(args),
        backend=args.backend,
        num_files=args.d,
        bits=args.bits,
        n=args.n,
        trials=args.trials,
        master_seed=args.seed,
        demand_policy=policy,
        explicit_demands=explicit,
        round_robin=args.round_robin,
        prop1_extra_bits=args.prop1_delta_bits,
        allow_small_d=args.allow_small_d,
    )
    spec.validate()
    return spec


def _print_json(doc: dict, out: str | None) -> None:
    """Print ``doc`` as indented JSON and, given ``out``, write the same text there."""
    text = json.dumps(doc, indent=2)
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _cmd_simulate(args: argparse.Namespace) -> int:
    if len(_parse_list(args.snr_db, "--snr-db")) != 1:
        raise SimError("simulate takes one --snr-db value; sweep takes a grid")
    spec = _build_spec(args)
    report = run_experiment(spec)
    _print_json(report.to_json(), args.out)
    if args.assert_mode == "interior-success" and report.interior_success < 1.0:
        print(f"assertion failed: interior success {report.interior_success}", file=sys.stderr)
        return EXIT_ASSERTION
    if args.assert_mode == "all-success":
        if any(v < 1.0 for v in report.per_receiver_success.values()):
            print("assertion failed: not every receiver succeeded", file=sys.stderr)
            return EXIT_ASSERTION
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.plot_script and not args.out:
        raise SimError("--plot-script needs --out, the CSV it plots")
    spec = _build_spec(args)
    snrs = _parse_list(args.snr_db, "--snr-db")
    result = sweep_snr(spec, snrs)
    print(json.dumps({"spec": spec.to_json(), "snr_db": snrs}, indent=2))
    if args.out:
        export_csv(result, args.out)
        if args.plot_script:
            emit_plot_script(args.out, args.plot_script, points_csv=args.out)
    else:
        for row in result.rows:
            print(
                f"P={row.p_db:g} dB  rate={row.rate_per_user:.6f}  "
                f"MG={row.empirical_mg:.6f}  success={row.guaranteed_success:.4f}"
            )
    return EXIT_OK


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    if args.plot_script and not args.out:
        raise SimError("--plot-script needs --out, the CSV it plots")
    variant = Variant.SOFT_HANDOFF if args.model == "soft" else Variant.FULL
    ach = curve(variant, ACHIEVABLE, args.points, args.x_max)
    if args.out:
        export_csv(ach, args.out)
        if args.plot_script:
            emit_plot_script(args.out, args.plot_script)
    else:
        for x, s in ach.samples:
            print(f"{x:.6f} {s:.6f}")
    return EXIT_OK


def _cmd_verify_schedule(args: argparse.Namespace) -> int:
    policy, explicit = _parse_demands(args.demands)
    # Schedules and placements depend on K and the demands only, so any
    # valid gains and power will do; demands resolve as in trial 0 at seed 0.
    if args.model == "full":
        cfg = NetworkConfig.full(args.k, 1.0, 1e4)
        build, place = delivery_schedule_full, cache_placement_full
    else:
        cfg = NetworkConfig.soft_handoff(args.k, 1.0, 1e4)
        build, place = delivery_schedule_soft, cache_placement_soft
    spec = ExperimentSpec(
        config=cfg,
        num_files=args.d,
        demand_policy=policy,
        explicit_demands=explicit,
        allow_small_d=args.allow_small_d,
    )
    spec.validate()
    demands = DemandVector(tuple(_demands(spec, range(1))[0].tolist()))
    library = random_library(args.d, spec.payload_bits(), seed=0, allow_small_d=args.allow_small_d)
    schedule = build(args.k, demands)
    violations = verify_schedule(schedule, place(args.k, library))
    _print_json(schedule.to_json() | {"violations": to_json(violations)}, args.out)
    if violations:
        print(f"{len(violations)} violation(s) found", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "tradeoff": _cmd_tradeoff,
        "verify-schedule": _cmd_verify_schedule,
    }
    try:
        return handlers[args.command](args)
    except SimError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
