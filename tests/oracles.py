"""Independent reference implementations for the tests.

The state references are built from explicit kron products and diagonals so
the checks do not share code paths with the package's tensor-contraction
engine.  Qubit 0 is the least significant bit of the basis index, matching the
package convention, so the kron chain runs from the highest qubit down to
qubit 0.  The run-JSON reference builds the payload as plain dicts and hands
it to `json.dumps`, the encoder the package's schema writer must match.
The frame reference reads every outcome pattern of an hqcm run out of the
pattern's own trajectory, the one-trajectory-per-pattern way.
"""
import json
from functools import reduce
from math import cos, sin, sqrt

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = (X + Z) / sqrt(2)


def rz(phi: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])


def axis_rotation(theta: float, phi: float, alpha: float) -> np.ndarray:
    direction = sin(theta) * cos(phi) * X + sin(theta) * sin(phi) * Y + cos(theta) * Z
    return cos(alpha / 2) * I2 - 1j * sin(alpha / 2) * direction


def op_on(matrix: np.ndarray, q: int, n: int) -> np.ndarray:
    factors = [I2] * n
    factors[q] = matrix
    return reduce(np.kron, reversed(factors))


def cz_dense(a: int, b: int, n: int) -> np.ndarray:
    dim = 2**n
    diag = np.ones(dim, dtype=complex)
    for i in range(dim):
        if (i >> a) & 1 and (i >> b) & 1:
            diag[i] = -1
    return np.diag(diag)


def cnot_dense(control: int, target: int, n: int) -> np.ndarray:
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << target) if (i >> control) & 1 else i
        mat[j, i] = 1
    return mat


def multi_z_dense(leaves, theta: float, n: int) -> np.ndarray:
    dim = 2**n
    diag = np.empty(dim, dtype=complex)
    for i in range(dim):
        parity = sum((i >> q) & 1 for q in leaves) % 2
        diag[i] = np.exp(-0.5j * theta * (1 if parity == 0 else -1))
    return np.diag(diag)


def controlled_on_ones(controls, inner: np.ndarray, inner_qubits, n: int) -> np.ndarray:
    """Apply `inner` (given on `inner_qubits`) only where all controls are 1."""
    dim = 2**n
    k = len(inner_qubits)
    # expand inner onto the full register
    full_inner = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub_col = sum(((col >> q) & 1) << pos for pos, q in enumerate(inner_qubits))
        for sub_row in range(2**k):
            amp = inner[sub_row, sub_col]
            if amp == 0:
                continue
            row = col
            for pos, q in enumerate(inner_qubits):
                bit = (sub_row >> pos) & 1
                row = (row & ~(1 << q)) | (bit << q)
            full_inner[row, col] += amp
    mat = np.eye(dim, dtype=complex)
    for col in range(dim):
        if all((col >> c) & 1 for c in controls):
            mat[:, col] = full_inner[:, col]
    return mat


def pauli_byproduct(xs, zs, n: int) -> np.ndarray:
    mat = np.eye(2**n, dtype=complex)
    for q in range(n):
        factor = np.eye(2, dtype=complex)
        if xs[q] % 2:
            factor = factor @ X
        if zs[q] % 2:
            factor = factor @ Z
        mat = op_on(factor, q, n) @ mat
    return mat


def circuit_dense(circuit) -> np.ndarray:
    """Full unitary of an IR circuit, built only from the helpers above."""
    from hqcsim.circuits import CzGate, MultiZRot, NamedGate, SingleQubit

    n = circuit.num_qubits
    unitary = np.eye(2**n, dtype=complex)
    named = {"X": X, "H": H, "Z": Z}
    for gate in circuit.gates:
        if isinstance(gate, NamedGate):
            mat = rz(gate.phi) if gate.name == "RZ" else named[gate.name]
            unitary = op_on(mat, gate.q, n) @ unitary
        elif isinstance(gate, SingleQubit):
            unitary = op_on(axis_rotation(gate.theta, gate.phi, gate.alpha), gate.q, n) @ unitary
        elif isinstance(gate, CzGate):
            unitary = cz_dense(gate.a, gate.b, n) @ unitary
        elif isinstance(gate, MultiZRot):
            unitary = multi_z_dense(gate.leaves, gate.theta, n) @ unitary
        else:
            raise TypeError(f"unsupported gate {gate!r}")
    return unitary


def gates_dense(gates, n: int) -> np.ndarray:
    from hqcsim.circuits import Circuit

    return circuit_dense(Circuit(n, 0, list(gates)))


def collapse_dense(psi: np.ndarray, q: int, ket: np.ndarray, n: int) -> np.ndarray:
    """Normalised projection of psi onto `ket` on qubit q."""
    projected = op_on(np.outer(ket, ket.conj()), q, n) @ psi
    return projected / np.linalg.norm(projected)


def embed_loop(psi: np.ndarray, n: int, logicals) -> np.ndarray:
    """Register amplitudes with bit pos of psi's index on qubit logicals[pos]
    and every other qubit in |+>, one basis index at a time."""
    works = n - len(logicals)
    amps = np.empty(2**n, dtype=complex)
    for i in range(2**n):
        k = sum(((i >> q) & 1) << pos for pos, q in enumerate(logicals))
        amps[i] = psi[k] / sqrt(2**works)
    return amps


def marginal_loop(probs: np.ndarray, n: int, logicals) -> np.ndarray:
    """Probabilities summed over every qubit outside `logicals`."""
    out = np.zeros(2 ** len(logicals))
    for i in range(2**n):
        out[sum(((i >> q) & 1) << pos for pos, q in enumerate(logicals))] += probs[i]
    return out


def random_state(n: int, rng) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def same_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Vectors or matrices equal up to one global phase."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    flat_a, flat_b = a.ravel(), b.ravel()
    idx = np.argmax(np.abs(flat_b))
    if np.abs(flat_b[idx]) < tol:
        return bool(np.max(np.abs(flat_a)) < tol)
    phase = flat_a[idx] / flat_b[idx]
    if abs(abs(phase) - 1) > 1e-6:
        return False
    return bool(np.max(np.abs(flat_a - phase * flat_b)) < tol)


def grover_success_probability(n: int, j: int, iterations: int) -> float:
    """Success probability from dense reflection algebra (no closed form)."""
    dim = 2**n
    oracle = np.eye(dim, dtype=complex) - 2 * np.outer(_basis(dim, j), _basis(dim, j).conj())
    uniform = np.full(dim, 1 / sqrt(dim), dtype=complex)
    diffusion = 2 * np.outer(uniform, uniform.conj()) - np.eye(dim, dtype=complex)
    state = uniform.copy()
    for _ in range(iterations):
        state = diffusion @ (oracle @ state)
    return float(abs(state[j]) ** 2)


def _basis(dim: int, j: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[j] = 1
    return v


def run_json(circuit, config, results, unitary_distribution=None, tv_distance=None) -> str:
    """`runner.results_to_json`'s bytes the plain way: the payload as dicts,
    then `json.dumps(sort_keys=True, indent=2)`."""

    def bits(values) -> str:
        return "".join(str(b) for b in values)

    histogram: dict[str, int] = {}
    for r in results:
        histogram[bits(r.corrected)] = histogram.get(bits(r.corrected), 0) + 1
    payload: dict = {
        "config": {
            "mode": config.mode,
            "shots": config.shots,
            "seed": config.seed,
            "symbolic": config.symbolic,
            "kappa": config.kappa,
            "include_work_readout": config.include_work_readout,
        },
        "circuit": {
            "num_logical": circuit.num_logical,
            "num_work": circuit.num_work,
            "num_gates": len(circuit.gates),
            "tau_max": circuit.tau_max,
        },
        "shots": [
            {
                "s": bits(r.raw),
                "s_corrected": bits(r.corrected),
                "outcomes": [
                    {
                        "leaves": [q + 1 for q in record.leaves],
                        "m": record.outcome,
                        "kappa": record.kappa,
                        "theta_requested": record.theta_requested,
                        "theta_executed": record.theta_executed,
                    }
                    for record in r.rotations
                ],
            }
            for r in results
        ],
        "histogram": histogram,
    }
    if results and results[0].fidelity is not None:
        payload["fidelities"] = [r.fidelity for r in results]
    if results and results[0].trace is not None:
        payload["trace"] = trace_records(results[0].trace)
    if unitary_distribution is not None:
        payload["unitary"] = {"distribution": unitary_distribution}
    if tv_distance is not None:
        payload["tv_distance"] = tv_distance
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def trace_records(trace) -> list[dict]:
    """A `TraceTable` as the list of row dicts the run JSON holds."""
    return [
        {
            "tau": row.tau,
            "i_x": [component_record(c) for c in row.ix],
            "i_z": [component_record(c) for c in row.iz],
            "angles": [{**a, "parity": component_record(a["parity"])} for a in row.angles],
            "outcomes": row.outcomes,
        }
        for row in trace.rows
    ]


def component_record(component):
    """A flow component in JSON: a bit as itself, an expression as text."""
    return component if isinstance(component, int) else str(component)


def check_frames_against_trajectories(circuit, config) -> int:
    """Check an hqcm run's frame readout against one explicit trajectory per
    outcome pattern, and return the number of distinct patterns.

    For every pattern m, the run's first pattern m0 read through the Pauli
    frame, p0[i ^ x(m) ^ x(m0)], must equal m's own `_trajectory`
    probabilities to 1e-12, and every shot's readout index must be the one
    m's own cumulative picks with the shot's readout uniform.  The run reads
    out the whole register, so the raw bits are the whole index.
    """
    from dataclasses import replace

    from hqcsim import runner

    config = replace(config, include_work_readout=True)
    results = runner.run_hqcm(circuit, config)
    compiled = runner._compile_flow(circuit)
    initial = runner._embed_logical(circuit, None)
    draws = list(runner._draw_outcomes(compiled, config))

    def x_mask(outcomes: int) -> int:
        return sum(bit << q for q, bit in enumerate(compiled.evaluate(outcomes).x))

    first = draws[0][1]
    p0 = runner._trajectory(compiled, first, initial).probabilities()
    cumulatives = {}
    for (_, outcomes, _, u), result in zip(draws, results, strict=True):
        assert sum(record.outcome << r for r, record in enumerate(result.rotations)) == outcomes
        if outcomes not in cumulatives:
            own = runner._trajectory(compiled, outcomes, initial).probabilities()
            frame = p0[np.arange(p0.size) ^ (x_mask(outcomes) ^ x_mask(first))]
            assert np.max(np.abs(frame - own)) <= 1e-12
            cumulatives[outcomes] = np.cumsum(own)
        total = cumulatives[outcomes]
        index = int(np.searchsorted(total, u * total[-1], side="right"))
        assert result.raw == tuple((index >> q) & 1 for q in range(circuit.num_qubits))
    return len(cumulatives)
