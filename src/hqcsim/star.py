"""Measurement-based multi-qubit Z-rotations on star graph states.

A rotation exp(-i theta Z^{x n} / 2) on a set of register qubits is executed
by entangling one ancilla (prepared in an X eigenstate with sign (-1)^kappa)
with every participating qubit via CZ, then measuring the ancilla in the
Bloch basis (theta, (-1)^kappa * pi/2).  The measurement outcome m leaves the
Pauli byproduct (Z^{x n})^m on the participating qubits; the ancilla ends up
disentangled and can be recycled.

That construction (`build_star_state`, `multi_z_rotation`, `reset_to_zero`)
is the reference.  On the register alone the measurement is the diagonal
Kraus operator (Z^{x n})^m exp(-i theta Z^{x n}/2)/sqrt(2) with p(m) = 1/2
for every input, and the azimuth (-1)^kappa * pi/2 cancels kappa.
Because no draw depends on the register state, the hot path splits a rotation
into two halves: `draw_rotation` consumes the random draws the reference
would (the measurement, then the ancilla reset's draw when both reset
branches are possible) and returns the record, and `rotation_action` applies
the diagonal for a given outcome as one multiply on the register, with no
ancilla.  A shot can then draw all its outcomes first, and since whether a
reset draws (`reset_draws`) depends on |theta| only, a run knows where each
of a shot's draws falls before it makes them.
"""
from __future__ import annotations

from cmath import exp
from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .core import (
    _MIN_PROBABILITY,
    _bit_view,
    _matmul_on_bit,
    BlochVector,
    MeasurementSpec,
    RandomSource,
    StateVector,
    apply_cz,
    apply_named,
    basis_kets,
    measure,
)
from .tracker import adapt_azimuth

__all__ = [
    "AncillaPrep",
    "RotationRecord",
    "StarGraph",
    "apply_multi_z_unitary",
    "build_star_state",
    "check_stabilizer",
    "draw_rotation",
    "multi_z_rotation",
    "reset_draws",
    "reset_to_zero",
    "rotation_action",
    "rz_teleport_gadget",
]


@dataclass(frozen=True)
class AncillaPrep:
    """X-eigenstate preparation sign: ancilla starts as (|0> + (-1)^kappa |1>)/sqrt(2)."""

    kappa: int = 0

    def __post_init__(self):
        if self.kappa not in (0, 1):
            raise ValueError("kappa must be 0 or 1")


@dataclass(frozen=True)
class StarGraph:
    """One ancilla CZ-connected to a nonempty set of register qubits."""

    ancilla: int
    leaves: tuple[int, ...]

    def __post_init__(self):
        if not self.leaves:
            raise ValueError("star graph needs at least one leaf")
        if len(set(self.leaves)) != len(self.leaves):
            raise ValueError("leaves must be distinct")
        if self.ancilla in self.leaves:
            raise ValueError("ancilla cannot be one of the leaves")


@dataclass(frozen=True)
class RotationRecord:
    """What one measurement-based rotation actually did."""

    theta_requested: float
    theta_executed: float
    kappa: int
    outcome: int
    leaves: tuple[int, ...]


def _require_ancilla_zero(state: StateVector, ancilla: int) -> None:
    weight = float(np.sum(np.abs(_bit_view(state.amplitudes, ancilla)[:, 1, :]) ** 2))
    if weight > 1e-12:
        raise ValueError(f"ancilla qubit {ancilla} is not in |0> (weight {weight:.3e} on |1>)")


def build_star_state(state: StateVector, graph: StarGraph, prep: AncillaPrep) -> StateVector:
    """Prepare the ancilla in its signed X eigenstate and CZ it to every leaf.

    The ancilla must enter in |0>; the result is
    (|0>_a (x) |psi> + (-1)^kappa |1>_a (x) Z^{x n} |psi>) / sqrt(2).
    """
    _require_ancilla_zero(state, graph.ancilla)
    out = apply_named(state, graph.ancilla, "H")
    if prep.kappa:
        out = apply_named(out, graph.ancilla, "Z")
    for leaf in graph.leaves:
        out = apply_cz(out, graph.ancilla, leaf)
    return out


def check_stabilizer(state: StateVector, graph: StarGraph) -> float:
    """Expectation of the correlation operator X_a (x) prod_leaves Z_b.

    A star state built with sign kappa returns (-1)^kappa; a product state
    with the ancilla in |0> returns 0.
    """
    transformed = apply_named(state, graph.ancilla, "X")
    for leaf in graph.leaves:
        transformed = apply_named(transformed, leaf, "Z")
    return float(np.real(np.vdot(state.amplitudes, transformed.amplitudes)))


def multi_z_rotation(
    state: StateVector,
    leaves: tuple[int, ...] | list[int],
    theta: float,
    prep: AncillaPrep,
    ancilla: int,
    rng: RandomSource,
    forced: int | None = None,
    theta_requested: float | None = None,
) -> tuple[RotationRecord, StateVector]:
    """Execute exp(-i theta Z^{x n}/2) on `leaves` by one ancilla measurement.

    The ancilla must enter in |0>.  The returned state equals, up to global
    phase, (Z^{x n})^m exp(-i theta Z^{x n}/2) applied to the input, with the
    ancilla left disentangled in its post-measurement ket (reset separately to
    recycle it).  `theta` is the angle actually executed; `theta_requested`
    (default: theta) is recorded for bookkeeping when a sign adaptation was
    applied upstream.
    """
    leaves = tuple(leaves)
    graph = StarGraph(ancilla, leaves)
    entangled = build_star_state(state, graph, prep)
    basis = BlochVector(theta, adapt_azimuth(prep.kappa))
    outcome, post = measure(entangled, MeasurementSpec(ancilla, basis), rng, forced=forced)
    record = RotationRecord(
        theta_requested=theta if theta_requested is None else theta_requested,
        theta_executed=theta,
        kappa=prep.kappa,
        outcome=outcome,
        leaves=leaves,
    )
    return record, post


def reset_to_zero(
    state: StateVector, q: int, rng: RandomSource, forced: int | None = None
) -> StateVector:
    """Return qubit q to |0> by a Z measurement and a conditional X flip."""
    outcome, post = measure(state, MeasurementSpec(q, BlochVector(0.0, 0.0)), rng, forced=forced)
    if outcome == 1:
        post = apply_named(post, q, "X")
    return post


def _apply_parity_phases(state: StateVector, leaves: tuple[int, ...], phases: np.ndarray) -> StateVector:
    """Each amplitude times phases[parity of its index's bits on `leaves`];
    parity 1 is where Z^{x n} has eigenvalue -1."""
    if not leaves:
        raise ValueError("rotation needs at least one qubit")
    if len(set(leaves)) != len(leaves):
        raise ValueError("leaves must be distinct")
    parity = np.zeros(state.amplitudes.size, dtype=np.uint8)
    for leaf in leaves:
        if not 0 <= leaf < state.num_qubits:
            raise ValueError(f"qubit {leaf} out of range")
        _bit_view(parity, leaf)[:, 1, :] ^= 1
    return StateVector(state.num_qubits, state.amplitudes * phases.take(parity))


def reset_draws(theta: float) -> bool:
    """Whether the ancilla reset after a rotation by theta makes a draw:
    both its branches, cos^2(theta/2) and sin^2(theta/2), reach 1e-14.  The
    sign of theta plays no part, so sign adaptation never changes it."""
    half = theta / 2
    return min(cos(half) ** 2, sin(half) ** 2) >= _MIN_PROBABILITY


def draw_rotation(
    leaves: tuple[int, ...] | list[int],
    theta: float,
    kappa: int,
    rng: RandomSource,
    forced: int | None = None,
    theta_requested: float | None = None,
) -> RotationRecord:
    """The random half of a register-only rotation: its outcome and record.

    Draws from `rng` exactly as the reference `multi_z_rotation` and
    `reset_to_zero` pair does: one draw for m unless it is forced, then one
    for the reset when both cos^2(theta/2) and sin^2(theta/2) reach 1e-14.
    The register state plays no part, because p(m) = 1/2 for every input.
    """
    if kappa not in (0, 1):
        raise ValueError("kappa must be 0 or 1")
    if forced is None:
        outcome = 0 if rng.random() < 0.5 else 1
    elif forced in (0, 1):
        outcome = forced
    else:
        raise ValueError("forced outcome must be 0 or 1")
    if reset_draws(theta):
        rng.random()  # the reset's outcome only sets a global phase
    return RotationRecord(
        theta_requested=theta if theta_requested is None else theta_requested,
        theta_executed=theta,
        kappa=kappa,
        outcome=outcome,
        leaves=tuple(leaves),
    )


def rotation_action(
    state: StateVector, leaves: tuple[int, ...] | list[int], theta: float, outcome: int
) -> StateVector:
    """The deterministic half of a register-only rotation: the input times
    (Z^{x n})^outcome exp(-i theta Z^{x n}/2), dropping the reference's
    global phase."""
    half = theta / 2
    phases = np.array([exp(-1j * half), (-1) ** outcome * exp(1j * half)])
    return _apply_parity_phases(state, tuple(leaves), phases)


def apply_multi_z_unitary(state: StateVector, leaves: tuple[int, ...] | list[int], theta: float) -> StateVector:
    """Reference unitary action of exp(-i theta Z^{x n}/2) as a diagonal."""
    # Z^{x n} eigenvalue is (-1)^parity, so the phase is exp(-i theta/2 * (+/-1))
    phases = np.exp(-0.5j * theta * np.array([1.0, -1.0]))
    return _apply_parity_phases(state, tuple(leaves), phases)


def rz_teleport_gadget(
    input_state: StateVector,
    phi: float,
    prep: AncillaPrep,
    rng: RandomSource,
    forced: int | None = None,
) -> tuple[int, StateVector]:
    """One-qubit teleportation gadget: measure the input qubit of a two-qubit
    graph state in the basis {(|0> + (-1)^m e^{-i phi} |1>)/sqrt(2)}.

    The ancilla then carries X^m Z^kappa H Rz(phi) applied to the input state
    (up to global phase); returns (m, that one-qubit state).
    """
    if input_state.num_qubits != 1:
        raise ValueError("gadget takes a one-qubit input state")
    # register: qubit 0 = input, qubit 1 = ancilla (starts in |0>)
    pair = StateVector(2, np.concatenate([input_state.amplitudes, np.zeros(2)]))
    pair = build_star_state(pair, StarGraph(ancilla=1, leaves=(0,)), prep)

    basis = BlochVector(np.pi / 2, -phi)
    outcome, post = measure(pair, MeasurementSpec(0, basis), rng, forced=forced)
    # the measured qubit is left in its outcome ket; projecting onto that ket
    # leaves the ancilla's pure state, already normalised by `measure`
    ket = basis_kets(basis)[outcome]
    return outcome, StateVector(1, _matmul_on_bit(ket.conj()[None, :], post.amplitudes, 0).reshape(-1))
