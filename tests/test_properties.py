"""Property tests over generated circuits: the text round trip, the unitary
run against the dense oracle, hybrid execution against the unitary
reference, the frame readout against one trajectory per outcome pattern,
and the run JSON's schema writer against `json.dumps`."""
from dataclasses import replace
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqcsim.circuit_text import parse_circuit, serialize_circuit
from hqcsim.circuits import (
    Circuit,
    CzGate,
    MultiZRot,
    NamedGate,
    SingleQubit,
    expand_lambda2,
    expand_lambda_z_steps,
)
from hqcsim.core import StateVector
from hqcsim.runner import ExecutionConfig, results_to_json, run_both, run_hqcm, run_unitary, verify_equivalence

import oracles

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)
ANGLES = st.one_of(
    st.sampled_from([0.0, pi, -pi, 2 * pi]),
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def elementary_gate(draw, num_qubits: int):
    """One gate of the elementary set on any register qubit, work qubits
    included."""
    qubit = st.integers(0, num_qubits - 1)
    kinds = ["H", "X", "RZ", "SQ", "MZROT"] + (["CZ"] if num_qubits > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("H", "X"):
        return NamedGate(draw(qubit), kind)
    if kind == "RZ":
        return NamedGate(draw(qubit), "RZ", draw(ANGLES))
    if kind == "SQ":
        return SingleQubit(draw(qubit), draw(ANGLES), draw(ANGLES), draw(ANGLES))
    if kind == "CZ":
        a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
        return CzGate(a, b)
    leaves = draw(st.lists(qubit, min_size=1, max_size=min(3, num_qubits), unique=True))
    return MultiZRot(tuple(leaves), draw(ANGLES), draw(st.integers(0, 1)))


@st.composite
def flat_circuit(draw):
    """Elementary gates on a register whose work qubits sit anywhere."""
    num_logical, num_work = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    num_qubits = num_logical + num_work
    works = None
    if num_work and draw(st.booleans()):
        works = tuple(sorted(draw(st.permutations(range(num_qubits)))[:num_work]))
    gates = draw(st.lists(elementary_gate(num_qubits), max_size=12))
    return Circuit(num_logical, num_work, gates, work_qubits=works)


@given(flat_circuit())
@PROPERTY
def test_text_round_trip_keeps_gates(circuit):
    expressible = circuit.works == tuple(range(circuit.num_logical, circuit.num_qubits)) and not any(
        isinstance(g, MultiZRot) and g.kappa for g in circuit.gates
    )
    if not expressible:
        with pytest.raises(ValueError, match="cannot serialise"):
            serialize_circuit(circuit)
        return
    parsed = parse_circuit(serialize_circuit(circuit))
    assert (parsed.num_logical, parsed.num_work, parsed.works) == (circuit.num_logical, circuit.num_work, circuit.works)
    assert parsed.gates == circuit.gates


@given(flat_circuit(), st.integers(0, 2**16))
@PROPERTY
def test_run_unitary_matches_dense_oracle(circuit, seed):
    # the unitary run is a hybrid trajectory, so this is what checks the
    # shared gate kernels against code they share nothing with
    logicals = circuit.logicals
    psi = oracles.random_state(len(logicals), np.random.default_rng(seed))
    state, _ = run_unitary(circuit, StateVector(len(logicals), psi))
    expected = oracles.circuit_dense(circuit) @ oracles.embed_loop(psi, circuit.num_qubits, logicals)
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-10


@st.composite
def block_circuit(draw):
    """Elementary gates on the logical qubits mixed with LAMBDA2 blocks and
    multi-control Z ladders on the trailing work qubits, every rotation with
    a drawn preparation sign kappa."""
    num_logical, num_work = draw(st.integers(3, 4)), draw(st.integers(1, 2))
    logical = st.lists(st.integers(0, num_logical - 1), min_size=3, max_size=3, unique=True)
    steps = []
    for kind in draw(st.lists(st.sampled_from(["gate", "LAMBDA2", "LAMBDAZ"]), min_size=1, max_size=5)):
        if kind == "gate":
            steps.append([draw(elementary_gate(num_logical))])
        elif kind == "LAMBDA2":
            c1, c2, t = draw(logical)
            steps.append(expand_lambda2((c1, c2), (t,), draw(ANGLES)))
        else:
            controls = draw(st.integers(2, min(num_logical - 1, num_work + 1)))
            qubits = draw(st.permutations(range(num_logical)))
            work = tuple(range(num_logical, num_logical + controls - 1))
            steps.extend(expand_lambda_z_steps(tuple(qubits[:controls]), qubits[controls], work))
    kappa = st.integers(0, 1)
    steps = [[replace(g, kappa=draw(kappa)) if isinstance(g, MultiZRot) else g for g in step] for step in steps]
    return Circuit.from_steps(num_logical, num_work, steps)


@given(block_circuit(), st.integers(0, 2**16), st.booleans())
@PROPERTY
def test_hybrid_matches_unitary_with_work_qubits_and_kappa(circuit, seed, random_inputs):
    report = verify_equivalence(circuit, trials=2, seed=seed, random_inputs=random_inputs)
    assert report.passed, report.fidelities


@given(block_circuit() | flat_circuit(), st.integers(0, 2**16), st.data())
@PROPERTY
def test_frame_readout_matches_per_pattern_trajectories(circuit, seed, data):
    rotations = circuit.rotation_count()
    config = ExecutionConfig(
        shots=data.draw(st.integers(1, 24)),
        seed=seed,
        kappa=data.draw(st.sampled_from(["zero", "random"])),
        forced_outcomes=data.draw(st.none() | st.lists(st.integers(0, 1), min_size=rotations, max_size=rotations)),
    )
    assert oracles.check_frames_against_trajectories(circuit, config) >= 1


@given(flat_circuit(), st.integers(0, 2**16), st.data())
@PROPERTY
def test_run_json_matches_json_dumps(circuit, seed, data):
    rotations = circuit.rotation_count()
    symbolic = data.draw(st.booleans())
    config = ExecutionConfig(
        mode=data.draw(st.sampled_from(["hqcm", "both"])),
        shots=1 if symbolic else data.draw(st.integers(1, 8)),
        seed=seed,
        trace=data.draw(st.booleans()),
        symbolic=symbolic,
        kappa=data.draw(st.sampled_from(["zero", "random"])),
        include_work_readout=data.draw(st.booleans()),
        forced_outcomes=data.draw(st.none() | st.lists(st.integers(0, 1), min_size=rotations, max_size=rotations)),
    )
    if config.mode == "both":
        results, _, distribution, tv = run_both(circuit, config)
        extra = (distribution, tv)
    else:
        results, extra = run_hqcm(circuit, config), ()
    assert results_to_json(circuit, config, results, *extra) == oracles.run_json(circuit, config, results, *extra)
