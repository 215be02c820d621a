"""Smoke test of the benchmark itself.

Usage, from the root of a checkout: python3 perfbench/smoke.py

For every workload in BENCHMARK.json it makes one untraced and two traced
runs of a single timed call each, and checks that:

* every metric BENCHMARK.json names is printed, with the unit it declares;
* in a traced run, the per-layer self times plus ``unattributed`` add up to
  the traced trial time;
* every ``*.calls_per_trial`` and ``codec.draw_codebook.mb_per_trial`` value
  repeats exactly between the two traced runs at the same seed.

It also checks that a failed output check makes run.py exit 1, and that
run.py exits non-zero without a result line when the checkout holds nothing
but the benchmark. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(workload: str, declared: list[dict], lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    check(result["correct"] and result["failed"] == 0, f"{workload}: outputs correct")
    check(
        sorted(metrics) == sorted(m["name"] for m in declared),
        f"{workload}: result line has exactly the declared metrics",
    )
    for m in declared:
        name, unit = m["name"], m["unit"]
        got = metrics.get(name, {})
        printed = any(
            line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}") for line in lines
        )
        check(got.get("unit") == unit and printed, f"{workload}: {name} printed in {unit}")
    return {name: v["value"] for name, v in metrics.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from run import PER_CALL_LAYERS
    from workloads import WORKLOADS

    for w in spec["workloads"]:
        name = w["name"]
        code, lines = bench(name, 0)
        check(code == 0, f"{name}: untraced run exits 0")
        check_metrics(name, spec["end_to_end"], lines)

        traced = []
        for _ in range(2):
            code, lines = bench(name, 1)
            check(code == 0, f"{name}: traced run exits 0")
            traced.append(check_metrics(name, spec["per_layer"], lines))
        first, second = traced
        trials = WORKLOADS[name].trials_per_call
        parts = sum(v for k, v in first.items() if k.endswith(".self_ms_per_trial"))
        parts += sum(first[f"{layer}.self_ms"] for layer in PER_CALL_LAYERS) / trials
        check(
            math.isclose(parts, first["trace.trial_ms"], rel_tol=1e-9, abs_tol=1e-9),
            f"{name}: layer self times + unattributed = traced trial time "
            f"({parts!r} vs {first['trace.trial_ms']!r} ms)",
        )
        check(
            all(v >= 0 for k, v in first.items() if ".self_ms" in k),
            f"{name}: no negative self time",
        )
        exact = [k for k in first if k.endswith(".calls_per_trial") or k.endswith(".mb_per_trial")]
        check(
            all(first[k] == second[k] for k in exact),
            f"{name}: {len(exact)} counts repeat exactly at seed {SEED}",
        )

    check(wrong_output_exits_nonzero(), "a failed output check makes run.py exit 1")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    check(
        code != 0 and not any(line.startswith("{") for line in lines),
        "without the program, run.py exits non-zero and prints no result",
    )

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


def wrong_output_exits_nonzero() -> bool:
    """Run one call against an expected report with a wrong rate, in process."""
    import contextlib
    import dataclasses
    import io

    import run
    from workloads import WORKLOADS

    name = "mc-soft-l12"
    right = WORKLOADS[name]
    WORKLOADS[name] = dataclasses.replace(right, rate_per_user=right.rate_per_user * 2)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0"])
    finally:
        WORKLOADS[name] = right
    return code == 1


if __name__ == "__main__":
    sys.exit(main())
