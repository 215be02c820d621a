"""The benchmark's tracer wraps functions by the names their callers look up.

``perfbench/tracing.py`` is loaded from its file, and nothing under
``perfbench/`` is run. A refactor that drops or renames one of the wrapped
names fails here instead of only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

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
