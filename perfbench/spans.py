"""Spans around the public functions of each spincat module, recorded from outside.

``Tracer.installed()`` replaces every traced function, wherever a loaded
spincat module holds a reference to it (``from .x import f`` included),
with a wrapper that records one span: name, start, end and the index of
the enclosing span.  ``DensityMatrix`` is traced through its
``__post_init__``, which is its validation.  The originals come back when
the block exits.  Spans stay in memory; ``aggregate`` folds them into call
counts, inclusive time and self time per span name.

This module imports only the standard library at import time, so the
orchestrator can read the span names without loading numpy.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

# Layer (spincat module) -> traced public names.  Span name: "<layer>.<name>".
TRACED = {
    "protocol": (
        "run_protocol",
        "step_a_initialize",
        "step_b_create_cat",
        "step_c_entangle",
        "step_d_decohere",
        "step_e_recover",
        "ideal_step_states",
        "measure_nq_decay",
    ),
    "states": (
        "DensityMatrix",
        "coherence_orders",
        "fidelity",
        "expectation",
        "reduced_state",
        "von_neumann_entropy",
        "pseudopure",
        "cat_state",
    ),
    "dynamics": (
        "apply_unitary",
        "apply_dephasing",
        "apply_flip_relaxation",
        "apply_phase_kicks_mc",
        "controlled_not_all",
        "build_hamiltonian",
    ),
    "operators": ("bit_table", "partial_trace", "total_spin_operator"),
    "analysis": ("scaling_study", "fit_exponential"),
    "spectra": ("linear_response_spectrum", "peak_list"),
    "config": ("load_config",),
}

SPANS = tuple(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)

# Work counts recorded at a span boundary: span -> (count name, argument, attribute).
COUNTS = {
    "dynamics.apply_phase_kicks_mc": (
        "dynamics.apply_phase_kicks_mc.trajectories",
        "noise",
        "mc_trajectories",
    ),
}


class Tracer:
    """In-memory span recorder.  One thread; spans nest strictly."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, span: str, fn):
        count = COUNTS.get(span)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count:
                value = getattr(signature.bind(*args, **kwargs).arguments[count[1]], count[2])
                self.counts[count[0]] = self.counts.get(count[0], 0) + int(value)
            index = len(self.spans)
            record = [span, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self._stack.pop()

        return traced

    def metrics(self) -> dict[str, float]:
        """This tracer's counts and spans as per-layer metric values."""
        out: dict[str, float] = dict(self.counts)
        for span, entry in aggregate(self.spans).items():
            for key, value in entry.items():
                out[f"{span}.{key}"] = value
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        patches: list[tuple[object, str, object]] = []
        try:
            modules = [importlib.import_module(f"spincat.{layer}") for layer in TRACED]
            loaded = [m for k, m in sys.modules.items() if k == "spincat" or k.startswith("spincat.")]
            for module, (layer, names) in zip(modules, TRACED.items()):
                for name in names:
                    span = f"{layer}.{name}"
                    original = getattr(module, name)
                    if isinstance(original, type):
                        hook = original.__dict__["__post_init__"]
                        patches.append((original, "__post_init__", hook))
                        setattr(original, "__post_init__", self.wrap(span, hook))
                        continue
                    wrapper = self.wrap(span, original)
                    for owner in loaded:
                        for attr, value in list(vars(owner).items()):
                            if value is original:
                                patches.append((owner, attr, original))
                                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    ``self_s`` is each span's duration minus the part of it that its child
    spans cover.  ``s`` counts only the outermost span of a name, so a
    name nested inside itself is not timed twice.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered(children[index])
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out
