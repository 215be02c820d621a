"""Spans around the public functions of each wynercache module, from outside.

``Tracer.installed()`` replaces the names that callers actually look up (a
module global such as ``wynercache.schemes.pipeline.draw_codebook``, or a class
attribute such as ``CachePlacement.lookup``) with a wrapper that records one
span per call, and puts the originals back on exit. Nothing under ``src/`` is
edited.

Each span is ``[layer, start, end, parent, trial, call]``: times from
``time.perf_counter``, the index of the enclosing span (-1 for none), the trial
index within its ``run_experiment`` call (-1 outside a trial) and the index of
that call. Spans stay in memory until ``write`` is called.

``Bitstring`` methods are not wrapped: there are hundreds of calls per trial
and the wrapper would cost more than they do. ``codec.ideal_link`` (one call
per Ideal link) and ``CachePlacement.parts_of`` are not wrapped either; their
time counts as self time of the enclosing ``pipeline.scheme`` span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (object path, attribute, layer). Where two callers look a function up under
# different names, both names are wrapped into the same layer.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("wynercache.harness", "run_experiment", "harness.run_experiment"),
    ("wynercache.harness", "random_library", "model.random_library"),
    ("wynercache.harness", "run_soft", "pipeline.scheme"),
    ("wynercache.harness", "run_full", "pipeline.scheme"),
    ("wynercache.harness", "round_robin_soft", "pipeline.scheme"),
    ("wynercache.harness", "run_soft_prop1", "pipeline.scheme"),
    ("wynercache.schemes.pipeline", "run_soft", "pipeline.scheme"),
    ("wynercache.schemes.pipeline", "split_soft", "parts.split"),
    ("wynercache.schemes.pipeline", "split_full", "parts.split"),
    ("wynercache.schemes.placement", "split_soft", "parts.split"),
    ("wynercache.schemes.placement", "split_full", "parts.split"),
    ("wynercache.schemes.pipeline", "reconstruct_five", "parts.reconstruct"),
    ("wynercache.schemes.pipeline", "cache_placement_soft", "placement"),
    ("wynercache.schemes.pipeline", "cache_placement_full", "placement"),
    ("wynercache.schemes.pipeline", "delivery_schedule_soft", "schedule"),
    ("wynercache.schemes.pipeline", "delivery_schedule_full", "schedule"),
    ("wynercache.schemes.pipeline", "draw_codebook", "codec.draw_codebook"),
    ("wynercache.schemes.pipeline", "nn_decode", "codec.nn_decode"),
    ("wynercache.schemes.pipeline", "transmit_soft", "channel.transmit"),
    ("wynercache.schemes.pipeline", "transmit_full", "channel.transmit"),
    ("wynercache.schemes.pipeline", "check_power", "channel.check_power"),
    ("wynercache.schemes.pipeline", "cancel_known", "channel.cancel_known"),
    ("wynercache.schemes.pipeline", "mds_encode", "mds.encode"),
    ("wynercache.schemes.pipeline", "mds_decode", "mds.decode"),
    ("wynercache.model.CachePlacement", "lookup", "model.lookup"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))
CALL = "harness.run_experiment"
SCHEME = "pipeline.scheme"


def _resolve(path: str):
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Spans and counts of every traced call, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.codebook_bytes = 0  # computed: 2^L x n_uses x 8 B per codebook drawn
        self.links_total = 0  # from the SimResult of each trial's top-level scheme span
        self.link_failures = 0
        self._stack: list[int] = []
        self._call = -1
        self._trial = -1
        self._next_trial = 0

    def _wrap(self, fn, layer: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if layer == CALL:
                self._call += 1
                self._next_trial = 0
            # harness runs the trials of a call one after another, each as one
            # scheme call made directly from run_experiment
            trial_root = layer == SCHEME and parent >= 0 and spans[parent][0] == CALL
            if trial_root:
                self._trial = self._next_trial
                self._next_trial += 1
            span = [layer, 0.0, 0.0, parent, self._trial, self._call]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if trial_root:
                    self._trial = -1
            if layer == "codec.draw_codebook":
                self.codebook_bytes += result.num_words * result.n_uses * 8
            elif trial_root:
                self.links_total += result.links_total
                self.link_failures += result.link_failures
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in ``WRAPPED`` for the duration of the block."""
        saved = []
        try:
            for path, attr, layer in WRAPPED:
                owner = _resolve(path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: span durations minus the durations of their child spans."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, own):
            totals[span[0]] += seconds
        return {layer: totals[layer] for layer in LAYERS}

    def calls_by_call(self) -> list[Counter]:
        """Per ``run_experiment`` call, the number of spans of each layer."""
        counts: list[Counter] = [Counter() for _ in range(self._call + 1)]
        for layer, _, _, _, _, call in self.spans:
            counts[call][layer] += 1
        return counts

    def call_seconds(self) -> float:
        return sum(end - start for layer, start, end, *_ in self.spans if layer == CALL)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["layer", "start", "end", "parent", "trial", "call"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
