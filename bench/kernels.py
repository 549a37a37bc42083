"""The kernel table: the layers' public functions timed one call at a time.

Each entry is warmed up once, then called until a small time budget is spent
(at least three calls), and reports the median call time in microseconds and
its computed bytes per call.  Bytes are charged 16 B per complex amplitude
read plus 16 B per amplitude written (8 B each for real probabilities, 1 B per
flow-matrix entry); they are computed from sizes, not measured.  The widest
state (16 MiB at 20 qubits) fits in a 105 MiB L3, so no bandwidth figure is
derived.  Times are raw, not scaled by the host-speed probe.
"""
from __future__ import annotations

import statistics
from math import pi
from time import perf_counter

WIDTHS = (5, 12, 20)
BUDGET_S = 0.2
MIN_CALLS = 3
LEAVES = 3  # qubits in each multi-Z rotation


def _median_call_us(fn) -> float:
    fn()
    times = []
    deadline = perf_counter() + BUDGET_S
    while len(times) < MIN_CALLS or perf_counter() < deadline:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e6


def _random_state(width: int, rng, ancilla: bool = False):
    import numpy as np
    from hqcsim.core import StateVector

    size = 2 ** (width - 1) if ancilla else 2**width
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps /= np.linalg.norm(amps)
    if ancilla:  # the top qubit is the ancilla, in |0>
        amps = np.concatenate([amps, np.zeros_like(amps)])
    return StateVector(width, amps)


def _entries(width: int, rng):
    """(name, callable, computed bytes per call) for one state width."""
    from hqcsim import core, star
    from hqcsim.core import BlochVector, MeasurementSpec, RandomSource
    from hqcsim.star import AncillaPrep

    state = _random_state(width, rng)
    starred = _random_state(width, rng, ancilla=True)
    source = RandomSource(11, width)
    q = width // 2
    leaves = tuple(range(LEAVES))
    sweep = 32 * 2**width  # one read and one write of the whole state
    return [
        ("core.H", lambda: core.apply_named(state, q, "H"), sweep),
        ("core.SQ", lambda: core.apply_single_qubit(state, q, BlochVector(0.3, 1.1), 0.7), sweep),
        ("core.CZ", lambda: core.apply_cz(state, 0, width - 1), sweep),
        ("core.measure", lambda: core.measure(state, MeasurementSpec(q, BlochVector(pi / 2, 0.0)), source), sweep),
        ("star.multi_z_diag", lambda: star.apply_multi_z_unitary(state, leaves, 0.7), sweep),
        # H on the ancilla, one CZ per leaf, the ancilla measurement and the
        # reset measurement; the reset's conditional X is not charged.
        ("star.rotation_reset",
         lambda: star.reset_to_zero(
             star.multi_z_rotation(starred, leaves, 0.7, AncillaPrep(0), width - 1, source)[1], width - 1, source),
         (3 + LEAVES) * sweep),
    ]


def kernel_table(seed: int = 0) -> dict[str, tuple[float, str]]:
    """Median microseconds and computed bytes per call for every entry."""
    import numpy as np
    from hqcsim import tracker
    from hqcsim.core import RandomSource

    rng = np.random.default_rng(seed)
    out: dict[str, tuple[float, str]] = {}

    def record(name, fn, nbytes):
        out[f"{name}_us"] = (_median_call_us(fn), "us")
        out[f"{name}_bytes"] = (nbytes, "B")

    for width in WIDTHS:
        for kernel, fn, nbytes in _entries(width, rng):
            record(f"{kernel}.q{width}", fn, nbytes)

    n = 12
    flow = tracker.init_flow(n)
    flow.x[3] = flow.z[5] = 1
    # matrix_for writes a 2n x 2n uint8 matrix that apply then reads.
    record("tracker.cz_update.q12", lambda: tracker.propagate(flow, ("CZ", 3, 7)), 2 * (2 * n) ** 2)
    probabilities = _random_state(n, rng).probabilities()
    source = RandomSource(12, 0)
    # cumsum reads and writes 8 B per probability.
    record("core.sample_index.q12", lambda: source.sample_index(probabilities), 16 * 2**n)
    return out
