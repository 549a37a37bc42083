"""The run JSON's schema writer, `runner.results_to_json`, byte for byte
against `oracles.run_json`: the payload as plain dicts through
`json.dumps(sort_keys=True, indent=2)`, in every run mode."""
from dataclasses import replace
from math import copysign, inf, nan

import numpy as np
import pytest

from hqcsim.circuit_text import parse_circuit
from hqcsim.circuits import MultiZRot, build_grover, triple_control_z_circuit
from hqcsim.runner import ExecutionConfig, random_circuit, results_to_json, run_both, run_hqcm, run_unitary

import oracles

# work qubit 3; MZROT at 0, +-pi and 2pi, and at 0 once more after H 1, where
# its angle parity is the outcome of the first rotation
EDGE_TEXT = """\
qubits 2 work 1
H 1
H 3
MZROT 0 1 2
MZROT pi 2 3
MZROT -pi 1 3
MZROT 2pi 1 2 3
H 1
MZROT 0 1
CZ 1 3
MZROT 0.4 1 3
"""

CIRCUITS = {
    "random": [random_circuit(2 + k % 3, 8 + 2 * k, np.random.default_rng(40 + k)) for k in range(6)],
    "edge": [parse_circuit(EDGE_TEXT)],
    "triple_control_z": [triple_control_z_circuit()],
    "grover3": [build_grover(3, 5)],
}
ALL = [(name, k) for name, circuits in CIRCUITS.items() for k in range(len(circuits))]


def assert_matches_oracle(circuit, config, results, *extra):
    text = results_to_json(circuit, config, results, *extra)
    assert text == oracles.run_json(circuit, config, results, *extra)
    return text


def with_kappa_one(circuit):
    gates = [replace(g, kappa=1) if isinstance(g, MultiZRot) else g for g in circuit.gates]
    return replace(circuit, gates=gates)


@pytest.mark.parametrize("name, k", ALL)
@pytest.mark.parametrize(
    "options",
    [
        {"shots": 30},
        {"shots": 12, "kappa": "random", "include_work_readout": True, "trace": True},
        {"shots": 4, "trace": True, "forced": True},
        {"shots": 10, "kappa_one": True},
        {"symbolic": True},
    ],
    ids=["hqcm", "random_kappa_work_trace", "forced_trace", "kappa_one", "symbolic"],
)
def test_hybrid_modes_match_json_dumps(name, k, options):
    circuit = CIRCUITS[name][k]
    options = dict(options)
    if options.pop("kappa_one", False):
        circuit = with_kappa_one(circuit)
    if options.pop("forced", False):
        options["forced_outcomes"] = [1 if r % 3 else 0 for r in range(circuit.rotation_count())]
    config = ExecutionConfig(seed=k + 3, **options)
    assert_matches_oracle(circuit, config, run_hqcm(circuit, config))


@pytest.mark.parametrize("name, k", ALL)
def test_both_mode_with_trace_matches_json_dumps(name, k):
    circuit = CIRCUITS[name][k]
    config = ExecutionConfig(mode="both", shots=8, seed=k, trace=True, include_work_readout=True)
    results, _, distribution, tv = run_both(circuit, config)
    assert_matches_oracle(circuit, config, results, distribution, tv)


@pytest.mark.parametrize("include_work", [False, True])
def test_unitary_mode_matches_json_dumps(include_work):
    circuit = parse_circuit(EDGE_TEXT)
    config = ExecutionConfig(mode="unitary", include_work_readout=include_work)
    _, distribution = run_unitary(circuit, include_work=include_work)
    text = assert_matches_oracle(circuit, config, [], distribution)
    assert '"histogram": {},' in text and '"shots": [],' in text


def test_rotation_free_circuit_writes_empty_outcomes():
    circuit = parse_circuit("qubits 2\nH 1\nCZ 1 2\nH 2\n")
    config = ExecutionConfig(shots=5, seed=2, trace=True)
    text = assert_matches_oracle(circuit, config, run_hqcm(circuit, config))
    assert text.count('"outcomes": [],\n      "s": ') == 5


def test_zero_angle_executed_as_both_signed_zeros():
    # rotation 1 runs theta = 0 negated when rotation 0's outcome is 1, so
    # one run holds both 0.0 and -0.0 for it, each with both of its outcomes
    circuit = parse_circuit("qubits 1\nMZROT 0.3 1\nH 1\nMZROT 0 1\nH 1\n")
    config = ExecutionConfig(shots=40, seed=5)
    results = run_hqcm(circuit, config)
    seen = {(copysign(1.0, r.rotations[1].theta_executed), r.rotations[1].outcome) for r in results}
    assert seen == {(1.0, 0), (1.0, 1), (-1.0, 0), (-1.0, 1)}
    text = assert_matches_oracle(circuit, config, results)
    assert '"theta_executed": -0.0' in text and '"theta_executed": 0.0' in text


def test_non_finite_and_bool_scalars_match_json_dumps():
    circuit = parse_circuit("qubits 1\nH 1\n")
    config = ExecutionConfig(mode="unitary", symbolic=True, include_work_readout=True)
    distribution = {"1": nan, "0": inf, "": -inf}
    text = assert_matches_oracle(circuit, config, [], distribution, -inf)
    assert '"symbolic": true' in text and '"0": Infinity' in text and '"tv_distance": -Infinity' in text
