"""Span recorder that times the program's layers from outside.

While installed, each traced function is replaced by a wrapper that
records one span: which function, start, end, the enclosing span and the
request.  The wrapper goes into every `cavmotion` module namespace that
binds the function, since `cli` imports `steady_state` and `conditional`
imports `oscillator_wavefunctions` by name; patching only the defining
module would miss those calls.  Spans stay in memory until `save`.
"""

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "cavmotion"

# (layer module, public function) pairs timed at their boundary
LAYER_FUNCTIONS = (
    ("fock", "truncation_order"),
    ("fock", "oscillator_wavefunctions"),
    ("fock", "coherent_overlap"),
    ("conditional", "evolve"),
    ("conditional", "probability_density"),
    ("conditional", "gram_matrix"),
    ("conditional", "bipartite_norm_sq"),
    ("conditional", "purity_gram"),
    ("conditional", "condition_on_quadrature"),
    ("conditional", "efficiency_profile"),
    ("cascade", "steady_state"),
    ("cascade", "intensity_roots"),
    ("cascade", "branch_label"),
    ("spectra", "build_drift"),
    ("spectra", "classify_stability"),
    ("spectra", "transfer"),
    ("spectra", "epr_spectra"),
    ("spectra", "amplitude_sweep"),
    ("cli", "main"),
    ("svgplot", "render_plot"),
)
NAMES = tuple(f"{module}.{function}" for module, function in LAYER_FUNCTIONS)
STABILITY = NAMES.index("spectra.classify_stability")


class SpanRecorder:
    """In-memory spans plus the count of stable stability verdicts."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stable_verdicts = 0
        self.request_id = -1
        self._stack = [-1]

    def _wrap(self, nid, fn):
        clock = time.perf_counter
        name, parent, request = self.name, self.parent, self.request
        start, end, raised, stack = self.start, self.end, self.raised, self._stack

        def traced(*args, **kwargs):
            sid = len(name)
            name.append(nid)
            parent.append(stack[-1])
            request.append(self.request_id)
            end.append(0.0)
            raised.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if nid == STABILITY and result[0]:
                self.stable_verdicts += 1
            return result

        return traced

    @contextmanager
    def installed(self, request_id):
        """Patch every binding of each layer function for one request."""
        self.request_id = request_id
        wrappers = {}
        for nid, (module, function) in enumerate(LAYER_FUNCTIONS):
            fn = getattr(sys.modules.get(f"{PACKAGE}.{module}"), function, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(nid, fn))
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.intc), np.frombuffer(self.parent, dtype=np.intc),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.raised, dtype=np.int8))

    def layer_totals(self):
        """{name: (calls, self seconds, calls that raised)} over all spans.

        Self time is a span's duration minus its children's durations; calls
        are nested on one thread, so children never overlap each other.
        """
        if not self.name:
            return {name: (0, 0.0, 0) for name in NAMES}
        name, parent, start, end, raised = self._arrays()
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=name.size)
        calls = np.bincount(name, minlength=len(NAMES))
        self_s = np.bincount(name, weights=duration - children, minlength=len(NAMES))
        errors = np.bincount(name, weights=raised, minlength=len(NAMES))
        return {n: (int(calls[i]), float(self_s[i]), int(errors[i])) for i, n in enumerate(NAMES)}

    def save(self, path):
        """Write every span, compressed, for offline inspection."""
        name, parent, start, end, raised = self._arrays()
        np.savez_compressed(path, names=np.array(NAMES), name=name, parent=parent,
                            request=np.frombuffer(self.request, dtype=np.intc),
                            start=start, end=end, raised=raised)
