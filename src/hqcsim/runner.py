"""End-to-end executors: the hybrid (measurement-based rotations + unitary
Clifford frame) runner, the unitary reference (the hybrid trajectory whose
outcomes are all 0), the per-step trace table, and the equivalence harness.

Hybrid execution holds the circuit register only, with no appended ancilla,
and runs in two phases.  Every rotation outcome has probability 1/2 whatever
the register state, so the draw phase (`_draw_outcomes`) makes all of a
shot's random draws before any amplitude is touched, on stream s (the shot)
of the run's one re-keyed `RandomSource`, in a fixed order: per rotation an
optional kappa bit, the measurement, and a reset draw when both ancilla
reset branches are possible (`star.draw_rotation`); then one readout draw.
These are the draws the explicit star construction makes, so identical
(seed, shot) pairs replay identically.  Whether a rotation's reset draws
depends on |theta| alone, so without random kappa the position of every
draw is fixed for the run (`_draw_slots`): a shot is one array of uniforms,
and each rotation's outcome and angle sign are read from it afterwards.

The state phase (`_trajectory`, the only gate loop) draws nothing: it runs
the gates, each rotation as `star.rotation_action`, for a given outcome
bitset.  Two outcome patterns m and m0 leave states that differ by the Pauli
byproduct X^(x(m) ^ x(m0)) Z^(...) up to a global phase, x being the flow
vector's x part, so an hqcm run computes one trajectory, its first shot's,
and reads every other pattern out of the same probabilities with each index
XORed by x(m) ^ x(m0): a Pauli frame, as Stim samples (Gidney,
arXiv:2103.02202).  `run_both` and `verify_equivalence` are the check of
that claim, and run one trajectory per pattern or trial.

`results_to_json` is a schema writer: it writes the exact bytes of
`json.dumps(payload, sort_keys=True, indent=2)` straight from the
`ShotResult`s, with no payload dicts, since `indent` sends `json` to its
pure-Python encoder.  Fields go in sorted key order and are indented by
depth, scalars are written as `json` writes them, and text shared within
the call (a pattern's shots, a rotation's record, a trace's flow
components) is rendered once.  The tests hold `json.dumps` on the dict
payload as its oracle.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from json.encoder import encode_basestring_ascii as _string_text
from math import copysign, inf

import numpy as np

from . import star, tracker
from .circuits import Circuit, CzGate, Gate, MultiZRot, NamedGate, SingleQubit
from .core import BlochVector, RandomSource, StateVector, apply_cz, apply_named, apply_single_qubit, fidelity
from .core import check_seed, embed_logical, logical_marginal, make_basis_state, pick_index, xor_permuted
from .star import RotationRecord
from .tracker import Gf2Expr, InfoFlowVector, render_component, render_flow

__all__ = [
    "EquivalenceReport",
    "ExecutionConfig",
    "ShotResult",
    "TraceTable",
    "corrected_histogram",
    "random_circuit",
    "replay_flow",
    "results_to_json",
    "run_both",
    "run_hqcm",
    "run_unitary",
    "total_variation",
    "verify_equivalence",
]

FIDELITY_BOUND = 1.0 - 1e-10


@dataclass
class ExecutionConfig:
    """Knobs for a hybrid run.

    kappa selects the ancilla preparation signs: "zero" uses each rotation's
    own `MultiZRot.kappa` (default 0), the one place a per-rotation sign is
    set, and "random" draws a fresh bit per rotation.  forced_outcomes pins
    every rotation's measurement result (length must equal the rotation
    count); its entries must be the ints 0 and 1.  `validate` rejects
    anything else before a run starts.
    """

    mode: str = "hqcm"
    shots: int = 1
    seed: int = 0
    trace: bool = False
    symbolic: bool = False
    forced_outcomes: list[int] | None = None
    kappa: str = "zero"
    include_work_readout: bool = False

    def validate(self, circuit: Circuit) -> None:
        if self.mode not in ("hqcm", "unitary", "both"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        check_seed(self.seed)
        if self.symbolic and self.shots > 1:
            raise ValueError("symbolic mode is single-shot")
        if self.kappa not in ("zero", "random"):
            raise ValueError(f"kappa must be 'zero' or 'random' (per rotation: MultiZRot.kappa), got {self.kappa!r}")
        rotations = circuit.rotation_count()
        if self.forced_outcomes is not None and len(self.forced_outcomes) != rotations:
            raise ValueError(
                f"forced_outcomes has {len(self.forced_outcomes)} entries for {rotations} rotations"
            )
        for r, bit in enumerate(self.forced_outcomes or ()):
            if type(bit) is not int or bit not in (0, 1):
                raise ValueError(f"forced_outcomes[{r}] must be the int 0 or 1, got {bit!r}")


@dataclass
class TraceRow:
    tau: int
    ix: list
    iz: list
    angles: list[dict] = field(default_factory=list)
    outcomes: list[dict] = field(default_factory=list)


@dataclass
class TraceTable:
    """Flow vectors and adaptation records per computation step.

    Row tau holds the flow after step tau (row 0 is the all-zero start); its
    angle/outcome cells describe the rotations of step tau + 1, which are the
    ones the row's flow steers.
    """

    rows: list[TraceRow]
    blocks: dict[str, frozenset]

    def format_text(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(f"tau={row.tau}")
            lines.append(f"  I_x = {render_flow(row.ix, self.blocks)}")
            lines.append(f"  I_z = {render_flow(row.iz, self.blocks)}")
            if row.angles:
                lines.append("  angles:   " + "; ".join(_angle_text(a, self.blocks) for a in row.angles))
            if row.outcomes:
                cells = [f"{o['label']}{_kappa_suffix(o)} <- {o['rotation']}" for o in row.outcomes]
                if len(row.outcomes) > 1:
                    cells.append(f"m{row.tau + 1} = " + "+".join(o["label"] for o in row.outcomes))
                lines.append("  outcomes: " + "; ".join(cells))
        return "\n".join(lines) + "\n"


def _kappa_suffix(outcome: dict) -> str:
    return f" (kappa={outcome['kappa']})" if outcome["kappa"] else ""


def _angle_text(note: dict, blocks) -> str:
    sign = "+" if note["sign"] > 0 else "-"
    parity = note["parity"]
    if parity == 0:
        return f"{note['rotation']}: no change"
    if isinstance(parity, int):
        flipped = "-" if sign == "+" else "+"
        return f"{note['rotation']}: {sign}θ -> {flipped}θ"
    return f"{note['rotation']}: {sign}θ -> {sign}(-1)^({render_component(parity, blocks)}) θ"


def _rotation_label(leaves: tuple[int, ...], theta: float) -> str:
    names = "".join(str(q + 1) for q in sorted(leaves))
    sign = "+" if theta >= 0 else "-"
    return f"U^{names}_{'z' * len(leaves)}({sign}θ)"


@dataclass
class ShotResult:
    """One hybrid shot: raw and corrected readout over the reported qubits,
    the final numeric flow over the full register, and the rotation log."""

    raw: tuple[int, ...]
    corrected: tuple[int, ...]
    flow: InfoFlowVector
    rotations: list[RotationRecord]
    reported_qubits: tuple[int, ...]
    fidelity: float | None = None
    trace: TraceTable | None = None


def _embed_logical(circuit: Circuit, initial_logical: StateVector | None) -> StateVector:
    """Full-register state: logical amplitudes in place, works in |+>."""
    logicals = circuit.logicals
    if initial_logical is None:
        psi = make_basis_state(len(logicals), [0] * len(logicals)).amplitudes
    else:
        if initial_logical.num_qubits != len(logicals):
            raise ValueError(
                f"initial state has {initial_logical.num_qubits} qubits, circuit has {len(logicals)} logical"
            )
        psi = initial_logical.amplitudes
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"initial state must have norm 1, got {norm:.12g}")
    return embed_logical(psi, circuit.num_qubits, logicals)


def _bits_to_string(bits) -> str:
    return "".join(str(b) for b in bits)


def _distribution(circuit: Circuit, state: StateVector, include_work: bool = False) -> dict[str, float]:
    """Computational basis distribution over the logical qubits, or over the
    whole register with include_work; keys list qubits in ascending order."""
    reported = tuple(range(circuit.num_qubits)) if include_work else circuit.logicals
    marginal = logical_marginal(state.probabilities(), circuit.num_qubits, reported)
    width = len(reported)
    return {_bits_to_string([(k >> pos) & 1 for pos in range(width)]): float(p) for k, p in enumerate(marginal)}


def run_unitary(
    circuit: Circuit,
    initial_logical: StateVector | None = None,
    include_work: bool = False,
) -> tuple[StateVector, dict[str, float]]:
    """Execute every gate as a unitary (rotations as exact diagonals).

    Returns the output state over the circuit register and its computational
    basis distribution over the logical qubits (or all register qubits when
    include_work is set); bitstring keys list qubits in ascending index order.
    """
    circuit.validate()
    state = _unitary_state(_compile_flow(circuit), _embed_logical(circuit, initial_logical))
    return state, _distribution(circuit, state, include_work)


def _bit(component: int, outcomes: int) -> int:
    """Value of an outcome-bitset component in a shot whose rotation outcomes
    are the bits of `outcomes`."""
    return (component & outcomes).bit_count() & 1


@dataclass
class _CompiledFlow:
    """The classical side of a circuit, fixed before any shot runs.

    Every flow component is an int used as a GF(2) bitset over rotation
    outcomes (bit r stands for the outcome of rotation r), so a shot only
    collects its outcomes and evaluates the bitsets it needs.  `plan` pairs
    each gate with the bitsets its execution reads: the angle parity for RZ
    and MZROT, the qubit's (x, z) for SQ.  `rows` holds the flow after each
    step, row 0 being the all-zero start; `notes` holds (row, gate, angle
    parity, label) per rotation, and `resets` whether the rotation's ancilla
    reset makes a draw (`star.reset_draws`), which depends on |theta| only.
    """

    plan: list[tuple[Gate, object]]
    rows: list[tuple[list[int], list[int]]]
    notes: list[tuple[int, MultiZRot, int, str]]
    resets: list[bool]
    blocks: dict[str, frozenset]
    final: InfoFlowVector

    def evaluate(self, outcomes: int) -> InfoFlowVector:
        return InfoFlowVector([_bit(c, outcomes) for c in self.final.x], [_bit(c, outcomes) for c in self.final.z])

    def trace(self, records: list[RotationRecord], outcomes: int, symbolic: bool) -> TraceTable:
        """The per-step table of one shot, with components as evaluated bits
        or, in symbolic mode, as expressions over the outcome labels."""
        render = self._symbolic_renderer() if symbolic else (lambda c: _bit(c, outcomes))
        rows = [TraceRow(tau, [render(c) for c in x], [render(c) for c in z]) for tau, (x, z) in enumerate(self.rows)]
        for (tau, gate, parity, label), rec in zip(self.notes, records):
            name, sign = _rotation_label(gate.leaves, gate.theta), 1 if gate.theta >= 0 else -1
            rows[tau].angles.append({"rotation": name, "sign": sign, "parity": render(parity)})
            rows[tau].outcomes.append({"rotation": name, "label": label, "value": rec.outcome, "kappa": rec.kappa})
        return TraceTable(rows, self.blocks)

    def _symbolic_renderer(self):
        labels = [label for *_, label in self.notes]

        @cache
        def render(component: int):
            names = [labels[r] for r in range(component.bit_length()) if component >> r & 1]
            symbols = set(names)
            if len(symbols) < len(names):
                # labels can repeat (step 2's fourth rotation and step 24's
                # only one are both m24); a repeated label cancels over GF(2)
                symbols = {name for name in symbols if names.count(name) % 2}
            return Gf2Expr(symbols) if symbols else 0

        return render


def _compile_flow(circuit: Circuit) -> _CompiledFlow:
    """Push a flow of outcome bitsets through the tracker rules once, with
    rotation r absorbing the bitset 1 << r."""
    flow = tracker.init_flow(circuit.num_qubits)
    compiled = _CompiledFlow([], [(flow.x, flow.z)], [], [], {}, flow)
    for step_pos, group in enumerate(circuit.step_groups(), start=1):
        step_gates = [circuit.gates[i] for i in group]
        rotations_in_step = sum(1 for g in step_gates if isinstance(g, MultiZRot))
        labels = []
        for gate in step_gates:
            reads = None
            if isinstance(gate, NamedGate):
                if gate.name == "H":
                    flow = tracker.propagate(flow, ("H", gate.q))
                elif gate.name == "RZ":
                    reads = tracker.angle_parity(flow, (gate.q,))
            elif isinstance(gate, SingleQubit):
                reads = (flow.x[gate.q], flow.z[gate.q])
            elif isinstance(gate, CzGate):
                flow = tracker.propagate(flow, ("CZ", gate.a, gate.b))
            elif isinstance(gate, MultiZRot):
                reads = tracker.angle_parity(flow, gate.leaves)
                label = f"m{step_pos}" if rotations_in_step == 1 else f"m{step_pos}{len(labels) + 1}"
                labels.append(label)
                rotation = len(compiled.notes)
                compiled.notes.append((step_pos - 1, gate, reads, label))
                compiled.resets.append(star.reset_draws(gate.theta))
                flow = tracker.absorb_rotation_outcome(flow, gate.leaves, 1 << rotation)
            else:
                raise ValueError(f"cannot execute {gate!r}")
            compiled.plan.append((gate, reads))
        if len(labels) > 1:
            compiled.blocks[f"m{step_pos}"] = frozenset(labels)
        compiled.rows.append((flow.x, flow.z))
    compiled.final = flow
    return compiled


def _draw_slots(compiled: _CompiledFlow, config: ExecutionConfig) -> tuple[np.ndarray, int, int]:
    """Where a shot's draws fall when kappa is not random, as fixed for the
    whole run: the position of each rotation's measurement uniform (none
    when the outcomes are forced), the forced outcomes as a bitset, and the
    position of the readout uniform, which is also the count of the
    rotations' draws."""
    slots, position = [], 0
    for reset in compiled.resets:
        if config.forced_outcomes is None:
            slots.append(position)
            position += 1
        position += reset
    forced = sum(bit << r for r, bit in enumerate(config.forced_outcomes or ()))
    return np.array(slots, dtype=np.intp), forced, position


def _draw_outcomes(compiled: _CompiledFlow, config: ExecutionConfig):
    """Yield (shot, outcome bitset, rotation records, readout uniform) for
    every shot of a run, in shot order.

    Shot s draws on stream s of the run's one `RandomSource`, in the order
    the explicit star construction would: per rotation an optional kappa bit,
    the measurement unless forced, and a reset draw when `reset_draws`; then
    the readout.  Without random kappa these draws fall in fixed slots
    (`_draw_slots`), so a shot is one array of uniforms, outcome r is
    `u[slot_r] >= 0.5` as in `star.draw_rotation`, and the records are left
    to the caller (None), since a pattern's records are all equal.  A random
    kappa bit is drawn through `integers`, which uses the stream
    differently, so then each rotation draws in turn through
    `star.draw_rotation`.
    """
    rng = RandomSource(config.seed)
    if config.kappa == "random":
        for shot in range(config.shots):
            rng.restart(shot)
            outcomes, records = 0, []
            for rotation, (_, gate, parity, _) in enumerate(compiled.notes):
                kappa = rng.bit()
                forced = None if config.forced_outcomes is None else config.forced_outcomes[rotation]
                theta = tracker.adapt_angle(_bit(parity, outcomes), gate.theta)
                record = star.draw_rotation(gate.leaves, theta, kappa, rng, forced=forced, theta_requested=gate.theta)
                records.append(record)
                outcomes |= record.outcome << rotation
            yield shot, outcomes, records, rng.random()
        return
    slots, forced, readout = _draw_slots(compiled, config)
    for shot in range(config.shots):
        rng.restart(shot)
        u = rng.uniforms(readout + 1)
        measured = np.packbits(u[slots] >= 0.5, bitorder="little").tobytes()
        yield shot, forced | int.from_bytes(measured, "little"), None, float(u[readout])


def _rotation_records(compiled: _CompiledFlow, outcomes: int) -> list[RotationRecord]:
    """The rotation records of a shot whose outcomes are the bits of
    `outcomes`, each with its gate's own kappa and the angle sign that the
    rotation's compiled parity bitset sets."""
    return [
        RotationRecord(gate.theta, tracker.adapt_angle(_bit(parity, outcomes), gate.theta), gate.kappa,
                       outcomes >> r & 1, gate.leaves)
        for r, (_, gate, parity, _) in enumerate(compiled.notes)
    ]


def _trajectory(compiled: _CompiledFlow, outcomes: int, initial: StateVector) -> StateVector:
    """The register state, before readout, of every shot from the embedded
    input `initial` whose rotation outcomes are the bits of `outcomes`."""
    state = initial
    rotation = 0
    for gate, reads in compiled.plan:
        if isinstance(gate, NamedGate):
            if gate.name == "RZ":  # rotation path, executed with a sign-adapted angle
                state = apply_named(state, gate.q, "RZ", tracker.adapt_angle(_bit(reads, outcomes), gate.phi))
            else:
                state = apply_named(state, gate.q, gate.name)
        elif isinstance(gate, SingleQubit):
            x, z = reads
            axis = tracker.adapt_axis(_bit(x, outcomes), _bit(z, outcomes), BlochVector(gate.theta, gate.phi))
            state = apply_single_qubit(state, gate.q, axis, gate.alpha)
        elif isinstance(gate, CzGate):
            state = apply_cz(state, gate.a, gate.b)
        else:
            theta = tracker.adapt_angle(_bit(reads, outcomes), gate.theta)
            state = star.rotation_action(state, gate.leaves, theta, outcomes >> rotation & 1)
            rotation += 1
    return state


def _unitary_state(compiled: _CompiledFlow, initial: StateVector) -> StateVector:
    """The register state after every gate runs as a unitary on the embedded
    input `initial`: the trajectory whose rotation outcomes are all 0, since
    its byproduct is the identity and it runs every angle and axis as given."""
    return _trajectory(compiled, 0, initial)


def _uniforms(shots: list[tuple[int, list[RotationRecord] | None, float]]) -> np.ndarray:
    return np.array([u for *_, u in shots])


def _frame_readouts(compiled: _CompiledFlow, patterns: dict, initial: StateVector):
    """Yield (outcomes, flow, readout indices, None) per outcome pattern,
    from one trajectory.

    The state of pattern m is the unitary output under the byproduct
    X^x(m) Z^z(m), up to a global phase, so its readout probabilities are
    another pattern m0's with each index XORed by x(m) ^ x(m0).  The first
    pattern runs as a real trajectory, star rotations included, and every
    pattern reads out through its Pauli frame on that one: patterns are
    grouped by that shift, and one shifted cumulative is alive at a time.
    """
    flows = {outcomes: compiled.evaluate(outcomes) for outcomes in patterns}
    masks = {outcomes: sum(bit << q for q, bit in enumerate(flow.x)) for outcomes, flow in flows.items()}
    first = next(iter(patterns))
    shifts: dict[int, list[int]] = {}
    for outcomes, mask in masks.items():
        shifts.setdefault(mask ^ masks[first], []).append(outcomes)
    probabilities = _trajectory(compiled, first, initial).probabilities()
    for shift, group in shifts.items():
        cumulative = np.cumsum(xor_permuted(probabilities, shift))
        for outcomes in group:
            yield outcomes, flows[outcomes], pick_index(cumulative, _uniforms(patterns[outcomes])), None


def _trajectory_readouts(compiled: _CompiledFlow, patterns: dict, initial: StateVector, reference: StateVector):
    """Yield (outcomes, flow, readout indices, fidelity) per outcome pattern,
    each from the pattern's own trajectory, one pattern at a time: the
    per-pattern check of the hybrid state against `reference`."""
    for outcomes, shots in patterns.items():
        state = _trajectory(compiled, outcomes, initial)
        flow = compiled.evaluate(outcomes)
        shot_fidelity = fidelity(_undo_byproduct(state, flow), reference)
        indices = pick_index(np.cumsum(state.probabilities()), _uniforms(shots))
        del state  # so that the next pattern's trajectory is the only state alive
        yield outcomes, flow, indices, shot_fidelity


def _run_shots(
    circuit: Circuit,
    compiled: _CompiledFlow,
    config: ExecutionConfig,
    initial: StateVector,
    reference: StateVector | None = None,
) -> list[ShotResult]:
    """Every shot of a validated run from the embedded input `initial`, read
    out and corrected; with a reference state each shot's fidelity is filled
    in too.

    Each shot first makes all its draws (`_draw_outcomes`).  Shots are then
    grouped by outcome bitset in first-seen order.  Without a reference the
    run computes one trajectory and reads every group out through its Pauli
    frame (`_frame_readouts`); with one, each group gets its own trajectory
    and fidelity (`_trajectory_readouts`).  A group's flow is evaluated
    once, as is the readout correction of each readout index its shots
    pick.  Without random kappa a group's rotation records are equal, so
    they are built once and its shots share the list; shots with the same
    readout share its tuples.
    """
    patterns: dict[int, list[tuple[int, list[RotationRecord] | None, float]]] = {}
    for shot, outcomes, records, u in _draw_outcomes(compiled, config):
        patterns.setdefault(outcomes, []).append((shot, records, u))
    if reference is None:
        pattern_readouts = _frame_readouts(compiled, patterns, initial)
    else:
        pattern_readouts = _trajectory_readouts(compiled, patterns, initial, reference)
    results: list = [None] * config.shots
    reported = circuit.logicals if not config.include_work_readout else tuple(range(circuit.num_qubits))
    for outcomes, flow, indices, shot_fidelity in pattern_readouts:
        shared = None if config.kappa == "random" else _rotation_records(compiled, outcomes)
        readouts: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for (shot, records, _), index in zip(patterns[outcomes], indices.tolist()):
            if index not in readouts:
                raw_full = [(index >> q) & 1 for q in range(circuit.num_qubits)]
                corrected_full = tracker.correct_readout(raw_full, flow)
                readouts[index] = (tuple(raw_full[q] for q in reported), tuple(corrected_full[q] for q in reported))
            raw, corrected = readouts[index]
            results[shot] = ShotResult(
                raw=raw,
                corrected=corrected,
                flow=flow,
                rotations=records if shared is None else shared,
                reported_qubits=reported,
                fidelity=shot_fidelity,
            )
            if config.trace or config.symbolic:
                results[shot].trace = compiled.trace(results[shot].rotations, outcomes, config.symbolic)
    return results


def run_hqcm(
    circuit: Circuit,
    config: ExecutionConfig | None = None,
    initial_logical: StateVector | None = None,
) -> list[ShotResult]:
    """Hybrid execution: unitary single-qubit/CZ gates, measurement-based
    multi-qubit rotations, and a final computational-basis readout corrected
    by the x-part of the flow vector."""
    circuit.validate()
    config = config or ExecutionConfig()
    config.validate(circuit)
    return _run_shots(circuit, _compile_flow(circuit), config, _embed_logical(circuit, initial_logical))


def corrected_histogram(results: list[ShotResult]) -> dict[str, int]:
    histogram: dict[str, int] = {}
    for bits, count in Counter(result.corrected for result in results).items():
        key = _bits_to_string(bits)
        histogram[key] = histogram.get(key, 0) + count
    return histogram


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    keys = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def run_both(
    circuit: Circuit,
    config: ExecutionConfig,
    initial_logical: StateVector | None = None,
) -> tuple[list[ShotResult], StateVector, dict[str, float], float]:
    """Hybrid and unitary runs side by side.

    Fills each shot's fidelity (byproduct-corrected state against the unitary
    reference) and returns the total-variation distance between the corrected
    readout histogram and the reference distribution.
    """
    circuit.validate()
    config.validate(circuit)
    compiled = _compile_flow(circuit)
    initial = _embed_logical(circuit, initial_logical)
    unitary_state = _unitary_state(compiled, initial)
    distribution = _distribution(circuit, unitary_state)
    results = _run_shots(circuit, compiled, config, initial, reference=unitary_state)
    shots = max(1, len(results))
    empirical = {k: v / shots for k, v in corrected_histogram(results).items()}
    tv = total_variation(empirical, distribution)
    return results, unitary_state, distribution, tv


def _undo_byproduct(state: StateVector, flow: InfoFlowVector) -> StateVector:
    # X^x Z^z is self-inverse up to a phase, so applying the byproduct again
    # cancels it for fidelity purposes.
    for name, q in tracker.byproduct_to_unitary(flow):
        state = apply_named(state, q, name)
    return state


@dataclass
class EquivalenceReport:
    trials: int
    min_fidelity: float
    mean_fidelity: float
    fidelities: list[float]

    @property
    def passed(self) -> bool:
        return self.min_fidelity >= FIDELITY_BOUND


def verify_equivalence(
    circuit: Circuit,
    trials: int = 20,
    seed: int = 0,
    random_inputs: bool = False,
) -> EquivalenceReport:
    """Check that byproduct-corrected hybrid trajectories match the unitary
    reference state, trial by trial.

    Trials differ in their measurement randomness; with random_inputs each
    trial also draws a fresh Haar-like logical input state.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    circuit.validate()
    config = ExecutionConfig(shots=trials, seed=seed)
    config.validate(circuit)
    compiled = _compile_flow(circuit)
    input_rng = np.random.default_rng(seed)
    fidelities = []
    for trial, outcomes, _, _ in _draw_outcomes(compiled, config):
        if random_inputs or trial == 0:
            logical = _random_state(len(circuit.logicals), input_rng) if random_inputs else None
            initial = _embed_logical(circuit, logical)
            reference = _unitary_state(compiled, initial)
        corrected = _undo_byproduct(_trajectory(compiled, outcomes, initial), compiled.evaluate(outcomes))
        fidelities.append(fidelity(corrected, reference))
    return EquivalenceReport(
        trials=trials,
        min_fidelity=min(fidelities),
        mean_fidelity=sum(fidelities) / len(fidelities),
        fidelities=fidelities,
    )


def _random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_circuit(num_logical: int, num_gates: int, rng: np.random.Generator) -> Circuit:
    """Random test circuit: gates drawn uniformly from H, RZ(random),
    SQ(random axis and angle), CZ(random pair), and MZROT(random subset of at
    most three qubits, random angle).  Reproducible from the generator state.
    """
    gates: list[Gate] = []
    for _ in range(num_gates):
        kind = rng.integers(0, 5)
        if kind == 0:
            gates.append(NamedGate(int(rng.integers(0, num_logical)), "H"))
        elif kind == 1:
            gates.append(NamedGate(int(rng.integers(0, num_logical)), "RZ", float(rng.uniform(0, 2 * np.pi))))
        elif kind == 2:
            gates.append(
                SingleQubit(
                    int(rng.integers(0, num_logical)),
                    float(rng.uniform(0, np.pi)),
                    float(rng.uniform(0, 2 * np.pi)),
                    float(rng.uniform(0, 2 * np.pi)),
                )
            )
        elif kind == 3:
            a, b = rng.choice(num_logical, size=2, replace=False)
            gates.append(CzGate(int(a), int(b)))
        else:
            size = int(rng.integers(1, min(3, num_logical) + 1))
            leaves = tuple(int(q) for q in rng.choice(num_logical, size=size, replace=False))
            gates.append(MultiZRot(leaves, float(rng.uniform(0, 2 * np.pi))))
    return Circuit(num_logical, 0, gates)


def replay_flow(circuit: Circuit, outcomes: list[int]) -> InfoFlowVector:
    """Recompute the final flow from the circuit and the rotation outcomes
    alone; no statevector involved."""
    compiled = _compile_flow(circuit)
    if len(outcomes) != len(compiled.notes):
        raise ValueError(f"circuit has {len(compiled.notes)} rotations, got {len(outcomes)} outcomes")
    return compiled.evaluate(sum((int(m) & 1) << r for r, m in enumerate(outcomes)))


def results_to_json(
    circuit: Circuit,
    config: ExecutionConfig,
    results: list[ShotResult],
    unitary_distribution: dict[str, float] | None = None,
    tv_distance: float | None = None,
) -> str:
    """Canonical JSON for a run; identical inputs yield identical bytes.

    The text is `json.dumps(payload, sort_keys=True, indent=2) + "\n"` of the
    run's payload, written field by field from the results (see the module
    docstring).  `results` must come from one run of `circuit`: rotation r
    of every shot is then the same gate.
    """
    fields = [
        ("circuit", _object(2, [
            ("num_gates", _scalar(len(circuit.gates))),
            ("num_logical", _scalar(circuit.num_logical)),
            ("num_work", _scalar(circuit.num_work)),
            ("tau_max", _scalar(circuit.tau_max)),
        ])),
        ("config", _object(2, [
            ("include_work_readout", _scalar(config.include_work_readout)),
            ("kappa", _scalar(config.kappa)),
            ("mode", _scalar(config.mode)),
            ("seed", _scalar(config.seed)),
            ("shots", _scalar(config.shots)),
            ("symbolic", _scalar(config.symbolic)),
        ])),
    ]
    if results and results[0].fidelity is not None:
        fields.append(("fidelities", _array(2, [_scalar(r.fidelity) for r in results])))
    fields.append(("histogram", _mapping(2, corrected_histogram(results))))
    fields.append(("shots", _shots_text(results)))
    if results and results[0].trace is not None:
        fields.append(("trace", _trace_text(results[0].trace)))
    if tv_distance is not None:
        fields.append(("tv_distance", _scalar(tv_distance)))
    if unitary_distribution is not None:
        fields.append(("unitary", _object(2, [("distribution", _mapping(3, unitary_distribution))])))
    return _object(1, fields) + "\n"


def _scalar(value) -> str:
    """One JSON scalar as `json` writes it: bool before int, floats by
    `float.__repr__` and the non-finite ones as NaN/Infinity."""
    if isinstance(value, str):
        return _string_text(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == inf:
            return "Infinity"
        if value == -inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _array(depth: int, items: list[str]) -> str:
    """A JSON array of rendered items, the items indented `depth` levels."""
    if not items:
        return "[]"
    pad = "\n" + "  " * depth
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def _object(depth: int, fields: list[tuple[str, str]]) -> str:
    """A JSON object of (key, rendered value) fields given in sorted key
    order, the fields indented `depth` levels."""
    if not fields:
        return "{}"
    pad = "\n" + "  " * depth
    return "{" + pad + ("," + pad).join(f"{_string_text(k)}: {v}" for k, v in fields) + pad[:-2] + "}"


def _mapping(depth: int, mapping: dict) -> str:
    """A str-keyed dict of scalars, keys sorted as `sort_keys` sorts them."""
    return _object(depth, [(k, _scalar(v)) for k, v in sorted(mapping.items())])


def _template(depth: int, *keys: str) -> str:
    """An object with the given keys, listed in sorted order, whose values
    are %s slots, the fields indented `depth` levels."""
    return _object(depth, [(key, "%s") for key in keys])


_SHOT = _template(3, "outcomes", "s", "s_corrected")
_RECORD = _template(5, "kappa", "leaves", "m", "theta_executed", "theta_requested")
_TRACE_ROW = _template(3, "angles", "i_x", "i_z", "outcomes", "tau")
_ANGLE_NOTE = _template(5, "parity", "rotation", "sign")
_OUTCOME_NOTE = _template(5, "kappa", "label", "rotation", "value")


def _shots_text(results: list[ShotResult]) -> str:
    """The `shots` array.

    A pattern's shots share their rotation list and their raw/corrected
    tuples (`_run_shots`), so each distinct (rotations, raw, corrected)
    object triple is rendered once, keyed by identity while `results` keeps
    the objects alive.  Each rotation record is rendered once per (rotation
    index, m, kappa, executed sign), and each rotation's leaves and requested
    angle once.
    """
    statics: dict[int, tuple[str, str]] = {}
    records: dict[tuple, str] = {}
    blocks: dict[int, str] = {}
    shots: dict[tuple[int, int, int], str] = {}

    def record_text(r: int, record: RotationRecord) -> str:
        # the executed angle is the requested one or its negation; its sign,
        # not its value, goes in the key, since 0.0 == -0.0 would merge a
        # zero angle executed at odd parity (-0.0) with the one at even parity
        key = (r, record.outcome, record.kappa, copysign(1.0, record.theta_executed))
        text = records.get(key)
        if text is None:
            static = statics.get(r)
            if static is None:
                leaves = _array(6, [_scalar(q + 1) for q in record.leaves])
                static = statics[r] = (leaves, _scalar(record.theta_requested))
            leaves, requested = static
            executed = requested if record.theta_executed is record.theta_requested else _scalar(record.theta_executed)
            text = records[key] = _RECORD % (_scalar(record.kappa), leaves, _scalar(record.outcome), executed, requested)
        return text

    items = []
    for result in results:
        key = (id(result.rotations), id(result.raw), id(result.corrected))
        text = shots.get(key)
        if text is None:
            block = blocks.get(key[0])
            if block is None:
                block = blocks[key[0]] = _array(4, [record_text(r, rec) for r, rec in enumerate(result.rotations)])
            raw, corrected = _bits_to_string(result.raw), _bits_to_string(result.corrected)
            text = shots[key] = _SHOT % (block, _scalar(raw), _scalar(corrected))
        items.append(text)
    return _array(2, items)


def _trace_text(trace: TraceTable) -> str:
    """The `trace` array: per row its angle notes, flow and outcome notes.

    A bit component is a JSON number and a symbolic one a string.  The
    symbolic renderer returns one object per distinct component, so each is
    rendered once, keyed by identity while the trace keeps it alive.
    """
    texts: dict[int, str] = {}

    def component(c) -> str:
        text = texts.get(id(c))
        if text is None:
            text = texts[id(c)] = _scalar(c) if isinstance(c, int) else _string_text(str(c))
        return text

    def angle(note: dict) -> str:
        return _ANGLE_NOTE % (component(note["parity"]), _scalar(note["rotation"]), _scalar(note["sign"]))

    def outcome(note: dict) -> str:
        return _OUTCOME_NOTE % (
            _scalar(note["kappa"]), _scalar(note["label"]), _scalar(note["rotation"]), _scalar(note["value"])
        )

    return _array(2, [
        _TRACE_ROW % (
            _array(4, [angle(a) for a in row.angles]),
            _array(4, [component(c) for c in row.ix]),
            _array(4, [component(c) for c in row.iz]),
            _array(4, [outcome(o) for o in row.outcomes]),
            _scalar(row.tau),
        )
        for row in trace.rows
    ])
