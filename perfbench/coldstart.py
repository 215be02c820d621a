"""One cold start: import wynercache and finish a one-trial run_experiment.

Usage: python3 perfbench/coldstart.py <workload> <seed>

Run in a fresh interpreter from the root of a checkout. Prints one JSON line:
the seconds from before the import to the end of the call, and the report
without its wall-clock field.
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wynercache import harness  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    report = harness.run_experiment(WORKLOADS[name].spec_for(seed, trials=1)).to_json()
    elapsed = time.perf_counter() - started
    report.pop("wall_clock_s")
    print(json.dumps({"setup_s": elapsed, "report": report}))


if __name__ == "__main__":
    main()
