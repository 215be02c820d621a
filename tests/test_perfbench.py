"""The benchmark's tracer wraps functions by the names their callers look up.

``perfbench/tracing.py`` is loaded from its file, and nothing else under
``perfbench/`` is run. A refactor that drops or renames one of the wrapped
names, or stops handing the tracer a trial root that carries its link counts,
fails here instead of only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import wynercache.harness as harness
from wynercache.harness import ExperimentSpec
from wynercache.model import NetworkConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("path, attr, layer", tracing.WRAPPED)
def test_wrapped_name_resolves_to_callable(path, attr, layer):
    assert callable(getattr(tracing._resolve(path), attr, None)), f"{path}.{attr} ({layer})"


def _trial_roots(tracer):
    """The spans the tracer counts as trials: scheme calls made directly from run_experiment."""
    spans = tracer.spans
    return [s for s in spans if s[0] == tracing.SCHEME and s[3] >= 0 and spans[s[3]][0] == tracing.CALL]


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"round_robin": True},
        {"prop1_extra_bits": 3},
        {"config": NetworkConfig.full(6, 0.5, 1e4)},
        {"config": NetworkConfig.soft_handoff(6, 1.0, 0.3), "backend": "mc", "n": 288},
    ],
    ids=["soft", "round-robin", "prop-1", "full", "soft-mc"],
)
def test_traced_run_reads_links_off_its_trial_roots(overrides):
    # a traced benchmark run divides by the links it reads off the trial roots' results
    spec = ExperimentSpec(**{"config": NetworkConfig.soft_handoff(6, 1.0, 1e4), "trials": 24, **overrides})
    tracer = tracing.Tracer()
    with tracer.installed():
        report = harness.run_experiment(spec)
    assert _trial_roots(tracer)
    assert tracer.links_total > 0
    assert tracer.link_failures / tracer.links_total == report.link_error_rate
