"""Byte identity of the run payloads on a fixed corpus.

Each entry of data/payload_digests.json is the SHA-256 of one payload of one
circuit: the hqcm JSON, a random-kappa trace with work readout, forced
outcomes with trace, the symbolic JSON plus its text table, and the
`run_unitary` amplitudes plus the distribution with work qubits.  Both-mode
and verify fidelities are left out: a change in how the reference or a
trajectory rounds (gate fusion, say) may move them at the 1e-14 level.

A change that means to alter payload bytes regenerates the file with
``PYTHONPATH=src python tests/test_payload_digests.py`` and says so.
"""
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from hqcsim.circuit_text import parse_circuit, parse_circuit_file
from hqcsim.circuits import MultiZRot, build_grover, triple_control_z_circuit
from hqcsim.core import StateVector
from hqcsim.runner import ExecutionConfig, random_circuit, results_to_json, run_hqcm, run_unitary

import oracles

ROOT = Path(__file__).parent.parent
DIGESTS = Path(__file__).parent / "data" / "payload_digests.json"

EDGE_TEXT = """\
qubits 3 work 1
H 1
H 2
H 4
MZROT 0 1 2
MZROT pi 2 3 4
MZROT -pi 1 3
MZROT 2pi 1 2 3
SQ 4 pi/3 pi/5 0.7
CZ 1 4
RZ 3 -pi/2
MZROT 0.4 3 4
LAMBDAZ 1 2 : 3
SQ 2 0 0 pi
H 3
"""


def _edge_circuit():
    """Work qubit, kappa = 1 on every other rotation, MZROT at 0, +-pi, 2pi."""
    circuit = parse_circuit(EDGE_TEXT)
    rotations = 0
    gates = []
    for gate in circuit.gates:
        if isinstance(gate, MultiZRot):
            gate = replace(gate, kappa=rotations % 2)
            rotations += 1
        gates.append(gate)
    return replace(circuit, gates=gates)


def corpus() -> dict:
    circuits = {}
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        circuits[f"random{seed}"] = random_circuit(2 + seed % 4, 10 + 2 * seed, rng)
    circuits["edge"] = _edge_circuit()
    circuits["triple_control_z"] = triple_control_z_circuit()
    for n in (2, 3, 4):
        circuits[f"grover{n}"] = build_grover(n, (5 * n) % 2**n)
    for path in sorted((ROOT / "circuits").glob("*.hqc")):
        circuits[f"file:{path.name}"] = parse_circuit_file(str(path))
    return circuits


def _input(circuit, seed: int) -> StateVector:
    width = len(circuit.logicals)
    return StateVector(width, oracles.random_state(width, np.random.default_rng(seed)))


def payloads(circuit, seed: int) -> dict[str, bytes]:
    rotations = circuit.rotation_count()
    out = {}

    config = ExecutionConfig(shots=24, seed=seed)
    out["hqcm"] = results_to_json(circuit, config, run_hqcm(circuit, config)).encode()

    config = ExecutionConfig(shots=6, seed=seed, trace=True, kappa="random", include_work_readout=True)
    out["random_kappa_trace"] = results_to_json(circuit, config, run_hqcm(circuit, config)).encode()

    forced = [1 if r % 3 else 0 for r in range(rotations)]
    config = ExecutionConfig(shots=3, seed=seed, trace=True, forced_outcomes=forced)
    out["forced"] = results_to_json(circuit, config, run_hqcm(circuit, config)).encode()

    config = ExecutionConfig(seed=seed, symbolic=True)
    results = run_hqcm(circuit, config)
    out["symbolic"] = (results_to_json(circuit, config, results) + results[0].trace.format_text()).encode()

    state, distribution = run_unitary(circuit, _input(circuit, seed), include_work=True)
    out["unitary"] = state.amplitudes.tobytes() + json.dumps(distribution, sort_keys=True).encode()
    return out


def compute_digests() -> dict[str, str]:
    digests = {}
    for seed, (name, circuit) in enumerate(corpus().items()):
        for kind, payload in payloads(circuit, seed).items():
            digests[f"{name}/{kind}"] = hashlib.sha256(payload).hexdigest()
    return digests


def test_payload_digests_unchanged():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = compute_digests()
    changed = sorted(key for key in expected.keys() | actual.keys() if expected.get(key) != actual.get(key))
    assert not changed, f"{len(changed)} payloads changed: {changed}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
