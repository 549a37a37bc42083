"""Spans and counters for the traced run, recorded from outside the program.

The tracer replaces the layers' public functions with wrappers that record a
span per call (name, start, end, parent span) in memory, plus a few counters.
Wrappers are installed under every module attribute that holds the original
function, because `runner` and `star` import `core`'s functions by name, and
`tracker.propagate` reaches `matrix_for` through its module globals.
`installed()` removes every wrapper on exit, so untraced runs pay nothing.
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs that get a span; the layer is the module name.
SPANNED = (
    ("circuit_text", "parse_circuit"),
    ("circuits", "build_grover"),
    ("core", "apply_named"),
    ("core", "apply_single_qubit"),
    ("core", "apply_cz"),
    ("core", "measure"),
    ("core", "fidelity"),
    ("star", "multi_z_rotation"),
    ("star", "build_star_state"),
    ("star", "reset_to_zero"),
    ("star", "apply_multi_z_unitary"),
    ("tracker", "propagate"),
    ("tracker", "matrix_for"),
    ("tracker", "absorb_rotation_outcome"),
    ("tracker", "angle_parity"),
    ("tracker", "adapt_axis"),
    ("tracker", "correct_readout"),
    ("runner", "run_hqcm"),
    ("runner", "run_unitary"),
    ("runner", "verify_equivalence"),
    ("runner", "results_to_json"),
)
LAYERS = ("circuit_text", "circuits", "core", "star", "tracker", "runner")

# Calls that touch a whole state vector; each is charged 16 B per amplitude
# read plus 16 B per amplitude written (computed bytes, not measured traffic).
KERNELS = {"core.apply_named", "core.apply_single_qubit", "core.apply_cz", "core.measure", "core.fidelity",
           "star.apply_multi_z_unitary"}
BYTES_PER_AMPLITUDE = 32

COUNTERS = ("core.rng_streams", "core.rng_draws", "core.bytes_computed", "core.max_state_qubits",
            "runner.json_bytes")


def _program_modules() -> list:
    return [module for name, module in sys.modules.items() if name == "hqcsim" or name.startswith("hqcsim.")]


def self_times(names: list[str], starts, ends, parents) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of its
    interval that the union of its child spans covers."""
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    totals: dict[str, float] = {}
    for index, name in enumerate(names):
        start, end = starts[index], ends[index]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[child], cursor), min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


class Tracer:
    """Spans kept in flat arrays, plus counters, for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, stack, counts = (
            self.names, self.starts, self.ends, self.parents, self._stack, self.counts)
        kernel = name in KERNELS
        json_output = name == "runner.results_to_json"

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if kernel:
                width = args[0].num_qubits
                counts["core.bytes_computed"] += BYTES_PER_AMPLITUDE << width
                if width > counts["core.max_state_qubits"]:
                    counts["core.max_state_qubits"] = width
            elif json_output:
                counts["runner.json_bytes"] += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.bench_wrapper = True
        return wrapper

    def _count(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.bench_wrapper = True
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        from hqcsim.core import RandomSource

        for module_name, function in SPANNED:
            original = getattr(sys.modules[f"hqcsim.{module_name}"], function)
            self._replace_everywhere(original, self._wrap(f"{module_name}.{function}", original))
        # RandomSource.sample_index draws through self.random, so counting
        # random() and bit() counts every draw exactly once.
        for attr, counter in (("__init__", "core.rng_streams"), ("random", "core.rng_draws"),
                              ("bit", "core.rng_draws")):
            original = vars(RandomSource)[attr]
            self._installed.append((RandomSource, attr, original))
            setattr(RandomSource, attr, self._count(counter, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, per-layer self time, and counters."""
        selfs = self_times(self.names, self.starts, self.ends, self.parents)
        calls = Counter(self.names)
        out: dict[str, tuple[float, str]] = {}
        for module_name, function in SPANNED:
            name = f"{module_name}.{function}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(v for k, v in selfs.items() if k.split(".")[0] == layer), "s")
        units = {"core.bytes_computed": "B", "core.max_state_qubits": "qubits", "runner.json_bytes": "B"}
        for counter in COUNTERS:
            out[counter] = (self.counts[counter], units.get(counter, "count"))
        return out


def leftover_wrappers() -> list[str]:
    """Module attributes of the program that are still bench wrappers."""
    from hqcsim.core import RandomSource

    found = []
    for owner in _program_modules() + [RandomSource]:
        for attr, value in vars(owner).items():
            if getattr(value, "bench_wrapper", False):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


@contextmanager
def installed(tracer: Tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
