"""Golden replay: fixed-seed outputs compared byte for byte with tests/golden/.

Each case runs ``run_experiment`` on a fixed spec and compares
``ExperimentReport.to_json()`` without ``wall_clock_s`` (as indented JSON) and
the ``export_csv`` bytes of the report with the stored files. Each sweep case
stores the ``export_csv`` bytes of ``sweep_snr`` over a 4-point grid, which for
MC reaches points whose links fail, so one plan serves powers that succeed and
powers that fail. The CSV written by ``wynercache tradeoff --points 200 --out``
and the schedule JSON written by ``wynercache verify-schedule --out`` are
compared the same way. A refactor must leave every byte unchanged.

The expected files were written from a trusted revision with
``PYTHONPATH=src python tests/test_golden.py``; rerun it only when an output
is meant to change, and say so in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from wynercache.cli import main
from wynercache.harness import DemandPolicy, ExperimentSpec, export_csv, run_experiment, sweep_snr
from wynercache.model import NetworkConfig
from wynercache.schemes import rate_full

GOLDEN = Path(__file__).parent / "golden"


def _soft(k=6, alpha=1.0, power=1e4, **kw) -> ExperimentSpec:
    return ExperimentSpec(config=NetworkConfig.soft_handoff(k, alpha, power), **kw)


def _full(k=6, alpha=0.5, power=1e4, **kw) -> ExperimentSpec:
    return ExperimentSpec(config=NetworkConfig.full(k, alpha, power), **kw)


CASES: dict[str, ExperimentSpec] = {
    "ideal-soft-k6": _soft(trials=8, master_seed=11),
    "ideal-soft-k7-gains": _soft(
        k=7, alpha=(1.0, 0.5, 2.0, 0.8, 1.5, 0.3, 1.2), num_files=7, trials=8, master_seed=12
    ),
    "ideal-full": _full(trials=8, master_seed=13),
    "mc-soft-p100": _soft(power=100.0, backend="mc", trials=4, master_seed=14),
    "mc-soft-p0.3": _soft(power=0.3, backend="mc", trials=4, master_seed=15),
    "mc-full": _full(power=100.0, backend="mc", trials=3, master_seed=16),
    "rr-ideal": _soft(k=5, round_robin=True, trials=6, master_seed=17),
    "rr-mc": _soft(k=5, power=100.0, backend="mc", round_robin=True, trials=2, master_seed=18),
    "prop1-ideal": _soft(prop1_extra_bits=10, trials=6, master_seed=19),
    "prop1-mc": _soft(power=100.0, backend="mc", prop1_extra_bits=10, trials=3, master_seed=20),
    "prop1-full-ideal": _full(prop1_extra_bits=10, trials=6, master_seed=22),
    "prop1-full-mc": _full(power=100.0, backend="mc", prop1_extra_bits=10, trials=3, master_seed=23),
    "exhaustive-d2": _soft(
        k=5,
        num_files=2,
        allow_small_d=True,
        demand_policy=DemandPolicy.EXHAUSTIVE,
        master_seed=21,
    ),
}
GAINS_K7 = (1.0, 0.5, 2.0, 0.8, 1.5, 0.3, 1.2)
# (spec, SNR grid in dB): the spec's own power is replaced at every grid point
SWEEP_CASES: dict[str, tuple[ExperimentSpec, tuple[float, ...]]] = {
    "sweep-mc-soft-k7-gains": (
        _soft(k=7, alpha=GAINS_K7, num_files=7, backend="mc", trials=3, master_seed=30), (-10.0, 0.0, 10.0, 20.0)
    ),
    "sweep-mc-rr-k6-gains": (
        _soft(k=6, alpha=(1.0, 0.5, 2.0, 0.8, 1.5, 0.3), backend="mc", round_robin=True, trials=2, master_seed=31),
        (-10.0, 0.0, 10.0, 20.0),
    ),
    "sweep-mc-full": (_full(backend="mc", trials=3, master_seed=32), (-10.0, 0.0, 10.0, 20.0)),
    "sweep-ideal-prop1": (_soft(prop1_extra_bits=10, trials=4, master_seed=33), (0.0, 5.0, 10.0, 20.0)),
}
REPORT_SUFFIXES = (".json", ".csv")  # the keys of _report_outputs
TRADEOFF_MODELS = ("soft", "full")
SCHEDULE_CASES: dict[str, list[str]] = {
    "schedule-soft-k8": ["--model", "soft", "--k", "8", "--d", "8"],
    "schedule-full-k8": ["--model", "full", "--k", "8", "--d", "8"],
    "schedule-soft-k7-random": ["--model", "soft", "--k", "7", "--d", "7", "--demands", "random"],
}


def _golden_names() -> set[str]:
    """Every file name ``_write_golden`` writes."""
    return (
        {f"{name}{suffix}" for name in CASES for suffix in REPORT_SUFFIXES}
        | {f"tradeoff-{model}.csv" for model in TRADEOFF_MODELS}
        | {f"{name}.json" for name in SCHEDULE_CASES}
        | {f"{name}.csv" for name in SWEEP_CASES}
    )


def _report_outputs(spec: ExperimentSpec, workdir: Path) -> dict[str, bytes]:
    report = run_experiment(spec)
    doc = report.to_json()
    del doc["wall_clock_s"]
    csv_path = workdir / "report.csv"
    export_csv(report, str(csv_path))
    return {
        ".json": (json.dumps(doc, indent=2) + "\n").encode(),
        ".csv": csv_path.read_bytes(),
    }


def _sweep_csv(spec: ExperimentSpec, grid: tuple[float, ...], workdir: Path) -> bytes:
    path = workdir / "sweep.csv"
    export_csv(sweep_snr(spec, grid), str(path))
    return path.read_bytes()


def _tradeoff_csv(model: str, workdir: Path) -> bytes:
    path = workdir / "curve.csv"
    assert main(["tradeoff", "--model", model, "--points", "200", "--out", str(path)]) == 0
    return path.read_bytes()


def _schedule_json(args: list[str], workdir: Path) -> bytes:
    path = workdir / "schedule.json"
    assert main(["verify-schedule", *args, "--out", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_replay(name, tmp_path):
    for suffix, got in _report_outputs(CASES[name], tmp_path).items():
        assert got == (GOLDEN / f"{name}{suffix}").read_bytes(), f"{name}{suffix} changed"


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_replay(name, tmp_path):
    assert _sweep_csv(*SWEEP_CASES[name], tmp_path) == (GOLDEN / f"{name}.csv").read_bytes(), f"{name}.csv changed"


@pytest.mark.parametrize("model", TRADEOFF_MODELS)
def test_tradeoff_replay(model, tmp_path):
    assert _tradeoff_csv(model, tmp_path) == (GOLDEN / f"tradeoff-{model}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(SCHEDULE_CASES))
def test_schedule_replay(name, tmp_path):
    got = _schedule_json(SCHEDULE_CASES[name], tmp_path)
    assert got == (GOLDEN / f"{name}.json").read_bytes(), f"{name}.json changed"


def test_prop1_full_ideal_is_the_closed_form():
    # memory D * (L + delta), and the full rate lifted by the payload over its main part
    spec, doc = CASES["prop1-full-ideal"], json.loads((GOLDEN / "prop1-full-ideal.json").read_text())
    bits, delta = spec.bits, spec.prop1_extra_bits
    assert doc["guaranteed_success"] == 1.0
    assert doc["memory_bits_per_receiver"] == spec.num_files * (bits + delta)
    assert doc["rate_per_user"] == pytest.approx(rate_full(spec.config) * (2 * bits + delta) / (2 * bits), rel=1e-12)


def test_no_orphan_golden_files():
    assert {path.name for path in GOLDEN.iterdir()} == _golden_names()


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, spec in CASES.items():
            for suffix, data in _report_outputs(spec, workdir).items():
                (GOLDEN / f"{name}{suffix}").write_bytes(data)
        for name, (spec, grid) in SWEEP_CASES.items():
            (GOLDEN / f"{name}.csv").write_bytes(_sweep_csv(spec, grid, workdir))
        for model in TRADEOFF_MODELS:
            (GOLDEN / f"tradeoff-{model}.csv").write_bytes(_tradeoff_csv(model, workdir))
        for name, args in SCHEDULE_CASES.items():
            with contextlib.redirect_stdout(io.StringIO()):
                (GOLDEN / f"{name}.json").write_bytes(_schedule_json(args, workdir))
    print(f"wrote {len(_golden_names())} files to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _write_golden()
