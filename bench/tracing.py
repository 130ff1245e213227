"""Per-layer tracing of entclone, installed from outside the package.

The layers are the package modules.  Every public function a layer module
defines is wrapped in a span, and so are ``numpy.linalg.eigh`` and
``eigvalsh``, the eigensolves the package delegates to NumPy.  The wrappers
replace every module-level binding of the original, so calls through
``from .x import f`` imports are traced too; ``uninstall`` puts the
originals back.

Spans nest on a stack and are folded into per-function totals as they close:
calls and self time (duration minus the time of child spans).
Totals rather than a span log keep memory flat over long sweeps.
"""

from __future__ import annotations

import importlib
import math
import time
import types

import numpy as np

LAYERS = ("cli", "states", "linalg", "cloning", "bell", "entanglement", "separability")
EIGENSOLVERS = ("eigh", "eigvalsh")
CLONERS = ("cloning.clone_local", "cloning.clone_nonlocal")


class Tracer:
    def __init__(self):
        self._patches = []      # (namespace, attribute, original)
        self._stack = []        # child time accumulated by each open span
        self.stats = {}         # span name -> [calls, self seconds]
        self._inside = {"cloning.iterate": 0, "separability.entanglement_interval": 0}
        self.reset()

    def reset(self):
        for entry in self.stats.values():
            entry[:] = [0, 0.0]
        self.matrices = 0       # matrices handed to NumPy eigensolvers
        self.iterate_rounds = 0
        self.direct_clones = 0  # channel applications outside iterate
        self.interval_probes = 0

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, clock, inside, tracer = self._stack, time.perf_counter, self._inside, self
        eigensolve = name.startswith("numpy.")
        cloner = name in CLONERS
        nesting = name in inside

        def span(*args, **kwargs):
            if eigensolve:
                shape = getattr(args[0], "shape", ())
                tracer.matrices += math.prod(shape[:-2]) if len(shape) > 2 else 1
            elif cloner and not inside["cloning.iterate"]:
                tracer.direct_clones += 1
            elif name == "separability.ppt_verdict" and inside["separability.entanglement_interval"]:
                tracer.interval_probes += 1
            if nesting:
                inside[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if nesting:
                    inside[name] -= 1
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if name == "cloning.iterate" and hasattr(result, "states"):
                tracer.iterate_rounds += len(result.states) - 1
            return result

        return span

    def install(self, package="entclone"):
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        namespaces = [importlib.import_module(package), *modules.values()]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrappers:
                    self._patch(namespace, attr, wrappers[id(value)])
        for attr in EIGENSOLVERS:
            self._patch(np.linalg, attr, self._wrap(f"numpy.{attr}", getattr(np.linalg, attr)))

    def _patch(self, namespace, attr, wrapper):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def counts(self):
        """Every count the trace makes; equal inputs must give equal counts."""
        counts = {f"{name}.calls": calls for name, (calls, _) in self.stats.items()}
        counts.update(matrices=self.matrices, iterate_rounds=self.iterate_rounds,
                      direct_clones=self.direct_clones, interval_probes=self.interval_probes)
        return counts

    def self_ms(self, name):
        return 1e3 * self.stats.get(name, (0, 0.0))[1]

    def calls(self, name):
        return self.stats.get(name, (0, 0.0))[0]

    def layer_totals(self, layer):
        entries = [v for k, v in self.stats.items() if k.startswith(layer + ".")]
        return sum(e[0] for e in entries), 1e3 * sum(e[1] for e in entries)
