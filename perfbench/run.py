"""Benchmark of ``wynercache.harness.run_experiment`` on fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ideal-soft-k60 --seed 0 --seconds 20 --trace 0

The benchmark is one caller in a closed loop: it issues the next
``run_experiment`` call only after the previous one returns, with
``master_seed`` = ``--seed`` and the workload's fixed trial count per call.
It imports wynercache from ``src/`` of the checkout, leaves ``WCS_WORKERS``
unset and passes no ``workers`` argument, so trials run on one thread. Each
call's report is checked against the workload's expected report
(``workloads.py``); any failed check or exception makes the exit code 1.

``--trace 0`` prints the end-to-end metrics. Right after each timed call it
times the workload's reference kernels (``reference.py``), and the two timing
metrics are in units of that reference time ("ref"), because the shared host's
speed swings too much for raw wall times to hold a 25% bound:

* ``trials_per_ref``: trials over the sum of call time / reference time;
* ``trial_ref_p50``: median over timed calls of call time / trials /
  reference time;
* ``setup_s``: median over five fresh interpreters of the time to import
  wynercache and finish a cold one-trial call (``coldstart.py``);
* ``peak_rss_mb``: peak resident set size of this process, in MiB.

The raw ``trials_per_s`` (trials over wall time) and ``trial_ms_p50`` (median
call time / trials) are printed on their own lines, as is ``error_rate``
(failed calls over attempted calls). They are not bounded metrics: the raw
times follow the host, and ``error_rate`` is carried by ``attempted`` and
``failed`` of the result line and is 0 on correct code.

``--trace 1`` alternates untraced and traced calls (``tracing.py``) and prints
the per-layer metrics: calls and self time per trial of each layer, plus the
tracing overhead. The spans are written to ``.perfbench/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "trials_per_ref": "1/ref",
    "trial_ref_p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Layers whose self time is reported per run_experiment call; every other
# layer is reported per trial.
PER_CALL_LAYERS = ("harness.run_experiment", "model.random_library")
PER_LAYER_UNITS = {
    "harness.run_experiment.self_ms": "ms",
    "model.random_library.self_ms": "ms",
    "placement.calls_per_trial": "count",
    "placement.self_ms_per_trial": "ms",
    "parts.split.calls_per_trial": "count",
    "parts.split.self_ms_per_trial": "ms",
    "parts.reconstruct.calls_per_trial": "count",
    "parts.reconstruct.self_ms_per_trial": "ms",
    "model.lookup.calls_per_trial": "count",
    "model.lookup.self_ms_per_trial": "ms",
    "schedule.calls_per_trial": "count",
    "schedule.self_ms_per_trial": "ms",
    "pipeline.scheme.calls_per_trial": "count",
    "pipeline.scheme.self_ms_per_trial": "ms",
    "pipeline.link_ok_ratio": "ratio",
    "codec.draw_codebook.calls_per_trial": "count",
    "codec.draw_codebook.self_ms_per_trial": "ms",
    "codec.draw_codebook.mb_per_trial": "MB-computed",
    "codec.nn_decode.calls_per_trial": "count",
    "codec.nn_decode.self_ms_per_trial": "ms",
    "channel.transmit.self_ms_per_trial": "ms",
    "channel.check_power.self_ms_per_trial": "ms",
    "channel.cancel_known.calls_per_trial": "count",
    "channel.cancel_known.self_ms_per_trial": "ms",
    "mds.encode.calls_per_trial": "count",
    "mds.encode.self_ms_per_trial": "ms",
    "mds.decode.calls_per_trial": "count",
    "mds.decode.self_ms_per_trial": "ms",
    "unattributed.self_ms_per_trial": "ms",
    "trace.trial_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Calls:
    """Closed-loop caller: times each call and checks its report."""

    def __init__(self, harness, workload, seed: int) -> None:
        self.harness = harness
        self.workload = workload
        self.trials = workload.trials_per_call
        self.spec = workload.spec_for(seed, self.trials)
        self.attempted = 0
        self.failed = 0

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED call {self.attempted}: {error}", file=sys.stderr)

    def timed(self) -> float:
        """Seconds per trial of one call; the lookup goes through the module so traces see it."""
        started = time.perf_counter()
        try:
            report = self.harness.run_experiment(self.spec)
        except Exception:  # noqa: BLE001 - a raising call is counted and reported
            seconds = time.perf_counter() - started
            self.record(traceback.format_exc())
            return seconds / self.trials
        seconds = time.perf_counter() - started
        self.record(self.workload.check(report.to_json(), self.trials))
        return seconds / self.trials


def cold_starts(name: str, seed: int, workload, calls: Calls) -> list[float]:
    """Setup seconds of ``SETUP_RUNS`` fresh interpreters, run one after another."""
    seconds = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), name, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            calls.record(f"cold start exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        calls.record(workload.check(result["report"], trials=1))
        seconds.append(result["setup_s"])
    return seconds


def provenance(args, trials_per_call: int) -> dict:
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        revision = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "trials_per_call": trials_per_call,
        "trace": args.trace,
    }


def end_to_end(args, harness, workload) -> tuple[Calls, dict]:
    import reference

    calls = Calls(harness, workload, args.seed)
    setup = cold_starts(args.workload, args.seed, workload, calls)
    calls.timed()  # warm-up: fills lazy caches before timing
    reference.seconds(workload.reference)
    per_trial, per_trial_ref = [], []
    deadline = time.perf_counter() + args.seconds
    while not per_trial or time.perf_counter() < deadline:
        per_trial.append(calls.timed())
        per_trial_ref.append(per_trial[-1] / reference.seconds(workload.reference))
    print(
        f"samples: {len(per_trial)} timed calls of {calls.trials} trials each, "
        f"each followed by one run of the reference {'+'.join(workload.reference)}; "
        f"{len(setup)} cold starts"
    )
    print(f"{args.workload} trials_per_s = {1.0 / statistics.fmean(per_trial)!r} 1/s (raw)")
    print(f"{args.workload} trial_ms_p50 = {1000.0 * statistics.median(per_trial)!r} ms (raw)")
    metrics = {
        "trials_per_ref": 1.0 / statistics.fmean(per_trial_ref),
        "trial_ref_p50": statistics.median(per_trial_ref),
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return calls, metrics


def per_layer(args, harness, workload) -> tuple[Calls, dict]:
    from tracing import LAYERS, Tracer

    calls = Calls(harness, workload, args.seed)
    tracer = Tracer()
    calls.timed()  # warm-up
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(calls.timed())
        with tracer.installed():
            traced.append(calls.timed())

    trials = len(traced) * calls.trials
    traced_s = sum(traced) * calls.trials
    self_s = tracer.self_times()
    per_call = tracer.calls_by_call()
    if any(c != per_call[0] for c in per_call):
        calls.record(f"layer call counts differ between identical calls: {per_call}")

    metrics = {}
    for layer in LAYERS:
        if layer in PER_CALL_LAYERS:
            metrics[f"{layer}.self_ms"] = 1000.0 * self_s[layer] / len(traced)
        else:
            metrics[f"{layer}.calls_per_trial"] = per_call[0][layer] / calls.trials
            metrics[f"{layer}.self_ms_per_trial"] = 1000.0 * self_s[layer] / trials
    links = tracer.links_total
    metrics["pipeline.link_ok_ratio"] = (links - tracer.link_failures) / links
    metrics["codec.draw_codebook.mb_per_trial"] = tracer.codebook_bytes / (trials * 10**6)
    unattributed_s = traced_s - tracer.call_seconds()
    metrics["unattributed.self_ms_per_trial"] = 1000.0 * unattributed_s / trials
    metrics["trace.trial_ms"] = 1000.0 * traced_s / trials
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1
    print(
        f"samples: {len(traced)} traced and {len(untraced)} untraced calls of "
        f"{calls.trials} trials each, {len(tracer.spans)} spans"
    )

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return calls, {name: metrics[name] for name in PER_LAYER_UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wynercache" / "__init__.py").is_file():
        print(f"error: no wynercache package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("WCS_WORKERS", None)
    sys.path.insert(0, str(SRC))
    from wynercache import harness

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print("provenance " + json.dumps(provenance(args, workload.trials_per_call)))

    measure = per_layer if args.trace else end_to_end
    calls, metrics = measure(args, harness, workload)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    print(
        f"{args.workload} error_rate = {calls.failed / calls.attempted!r} ratio "
        f"({calls.failed} of {calls.attempted} calls)"
    )
    print(
        json.dumps(
            {
                "correct": calls.failed == 0,
                "attempted": calls.attempted,
                "failed": calls.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if calls.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
