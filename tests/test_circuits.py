"""Macro decomposition and circuit text format tests."""
import numpy as np
import pytest

from hqcsim import circuits, core
from hqcsim.circuit_text import CircuitParseError, parse_angle, parse_circuit, serialize_circuit
from hqcsim.circuits import (
    Circuit,
    CzGate,
    MultiZRot,
    NamedGate,
    SingleQubit,
    build_diffusion,
    build_grover,
    build_oracle,
    expand_lambda1,
    expand_lambda2,
    expand_lambda_z,
    expand_lambda_z_steps,
    grover_iterations,
    triple_control_z_circuit,
)

import oracles


class TestIrValidation:
    def test_multizrot_constraints(self):
        with pytest.raises(ValueError):
            MultiZRot((), 0.1)
        with pytest.raises(ValueError):
            MultiZRot((0, 0), 0.1)
        with pytest.raises(ValueError):
            MultiZRot((0,), 0.1, kappa=3)

    def test_named_gate_names(self):
        with pytest.raises(ValueError):
            NamedGate(0, "T")

    def test_cz_distinct(self):
        with pytest.raises(ValueError):
            CzGate(1, 1)

    def test_circuit_validate(self):
        circuit = Circuit(2, 0, [NamedGate(5, "H")])
        with pytest.raises(ValueError):
            circuit.validate()
        with pytest.raises(ValueError):
            Circuit(2, 0, [NamedGate(0, "H")], steps=[(0, 1)]).validate()
        with pytest.raises(ValueError):
            Circuit(2, 1, [], work_qubits=(0, 1)).validate()

    def test_register_beyond_memory(self, monkeypatch):
        monkeypatch.setattr(core, "_physical_memory", lambda: 1 << 20)  # room for 16 qubits
        Circuit(14, 2, []).validate()
        with pytest.raises(ValueError, match="^a 17-qubit state needs 2097152 bytes"):
            Circuit(15, 2, []).validate()

    def test_default_works_trail_logicals(self):
        circuit = Circuit(3, 2, [])
        assert circuit.works == (3, 4)
        assert circuit.logicals == (0, 1, 2)
        assert circuit.num_qubits == 5

    def test_tau_max_defaults_to_gate_count(self):
        circuit = Circuit(2, 0, [NamedGate(0, "H"), CzGate(0, 1)])
        assert circuit.tau_max == 2


class TestLambda1:
    def test_structure(self):
        gates = expand_lambda1(0, (1, 2), -1.0)
        assert gates == [MultiZRot((0, 1, 2), 0.5), MultiZRot((1, 2), -0.5)]

    def test_emits_only_rotations(self):
        assert all(isinstance(g, MultiZRot) for g in expand_lambda1(3, (0,), 0.7))

    def test_dense_is_controlled_rz(self):
        angle = -np.pi / 2
        gates = expand_lambda1(0, (1,), angle)
        dense = oracles.gates_dense(gates, 2)
        expected = oracles.controlled_on_ones((0,), oracles.rz(angle), (1,), 2)
        np.testing.assert_allclose(dense, expected, atol=1e-12)

    def test_multi_target_dense(self):
        angle = 0.9
        gates = expand_lambda1(2, (0, 1), angle)
        dense = oracles.gates_dense(gates, 3)
        expected = oracles.controlled_on_ones((2,), oracles.multi_z_dense((0, 1), angle, 2), (0, 1), 3)
        np.testing.assert_allclose(dense, expected, atol=1e-12)

    def test_zero_angle_is_identity(self):
        dense = oracles.gates_dense(expand_lambda1(0, (1,), 0.0), 2)
        np.testing.assert_allclose(dense, np.eye(4), atol=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            expand_lambda1(0, (0, 1), 0.5)


class TestLambda2:
    def test_structure_and_order(self):
        gates = expand_lambda2((0, 1), (2,), np.pi)
        theta = np.pi / 4
        assert gates == [
            MultiZRot((0, 1, 2), theta),
            MultiZRot((1, 2), -theta),
            MultiZRot((0, 2), -theta),
            MultiZRot((2,), theta),
        ]

    def test_dense_matches_double_controlled_rz(self):
        angle = np.pi
        gates = expand_lambda2((0, 1), (2,), angle)
        dense = oracles.gates_dense(gates, 3)
        expected = oracles.controlled_on_ones((0, 1), oracles.rz(angle), (2,), 3)
        np.testing.assert_allclose(dense, expected, atol=1e-12)

    def test_control_swap_gives_same_dense(self):
        one = oracles.gates_dense(expand_lambda2((0, 1), (2,), 0.8), 3)
        two = oracles.gates_dense(expand_lambda2((1, 0), (2,), 0.8), 3)
        np.testing.assert_allclose(one, two, atol=1e-12)

    def test_multi_target(self):
        angle = 1.3
        gates = expand_lambda2((0, 1), (2, 3), angle)
        dense = oracles.gates_dense(gates, 4)
        expected = oracles.controlled_on_ones(
            (0, 1), oracles.multi_z_dense((0, 1), angle, 2), (2, 3), 4
        )
        np.testing.assert_allclose(dense, expected, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            expand_lambda2((0, 0), (1,), 0.5)
        with pytest.raises(ValueError):
            expand_lambda2((0, 1), (1,), 0.5)


class TestLambdaZ:
    def test_single_control_is_elementary_cz(self):
        assert expand_lambda_z((0,), 1, ()) == [CzGate(0, 1)]
        dense = oracles.gates_dense(expand_lambda_z((0,), 1, ()), 2)
        np.testing.assert_allclose(dense, oracles.cz_dense(0, 1, 2), atol=1e-12)

    def test_triple_control_gate_census(self):
        gates = expand_lambda_z((0, 1, 2), 5, (3, 4))
        assert len(gates) == 21
        rotations = [g for g in gates if isinstance(g, MultiZRot)]
        hadamards = [g for g in gates if isinstance(g, NamedGate) and g.name == "H"]
        czs = [g for g in gates if isinstance(g, CzGate)]
        assert (len(rotations), len(hadamards), len(czs)) == (16, 4, 1)
        steps = expand_lambda_z_steps((0, 1, 2), 5, (3, 4))
        assert [len(s) for s in steps] == [4, 1, 4, 1, 1, 1, 4, 1, 4]

    def test_emits_only_elementary_gates(self):
        for gate in expand_lambda_z((0, 1, 2, 3), 8, (4, 5, 6)):
            assert isinstance(gate, (MultiZRot, NamedGate, CzGate))

    def test_rotation_count_scales_linearly(self):
        for c in range(2, 7):
            controls = tuple(range(c))
            work = tuple(range(c, 2 * c - 1))
            gates = expand_lambda_z(controls, 2 * c - 1, work)
            rotations = sum(1 for g in gates if isinstance(g, MultiZRot))
            assert rotations == 8 * (c - 1)
        # linear beats 2^c once c grows
        assert 8 * (6 - 1) < 2**6

    def test_double_control_dense_with_plus_work(self):
        # register: controls 0,1; work 2 in |+>; target 3
        gates = expand_lambda_z((0, 1), 3, (2,))
        dense = oracles.gates_dense(gates, 4)
        rng = np.random.default_rng(0)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        for _ in range(20):
            logical = oracles.random_state(3, rng)  # qubits 0,1,3
            full = np.zeros(16, dtype=complex)
            for i in range(16):
                sub = ((i >> 0) & 1) | (((i >> 1) & 1) << 1) | (((i >> 3) & 1) << 2)
                full[i] = logical[sub] * plus[(i >> 2) & 1]
            out = dense @ full
            expected_logical = logical.copy()
            for i in range(8):
                if i == 0b111:
                    expected_logical[i] *= -1
            expected = np.zeros(16, dtype=complex)
            for i in range(16):
                sub = ((i >> 0) & 1) | (((i >> 1) & 1) << 1) | (((i >> 3) & 1) << 2)
                expected[i] = expected_logical[sub] * plus[(i >> 2) & 1]
            assert abs(np.abs(np.vdot(out, expected)) ** 2 - 1) < 1e-10

    def test_work_count_validation(self):
        with pytest.raises(ValueError):
            expand_lambda_z((0, 1, 2), 5, (3,))
        with pytest.raises(ValueError):
            expand_lambda_z((0, 1), 1, (2,))


class TestTripleControlCircuit:
    def test_layout(self):
        circuit = triple_control_z_circuit()
        assert circuit.num_qubits == 6
        assert circuit.works == (3, 4)
        assert circuit.logicals == (0, 1, 2, 5)
        assert circuit.tau_max == 9
        assert len(circuit.gates) == 21

    def test_dense_action_on_plus_works(self):
        circuit = triple_control_z_circuit()
        dense = oracles.circuit_dense(circuit)
        rng = np.random.default_rng(1)
        worst = 1.0
        for _ in range(50):
            logical = oracles.random_state(4, rng)
            full = _embed(logical, circuit)
            out = dense @ full
            flipped = logical.copy()
            flipped[0b1111] *= -1
            expected = _embed(flipped, circuit)
            worst = min(worst, float(abs(np.vdot(out, expected)) ** 2))
        assert worst >= 1 - 1e-10


def _embed(logical, circuit):
    n = circuit.num_qubits
    works = set(circuit.works)
    full = np.zeros(2**n, dtype=complex)
    for i in range(2**n):
        sub = 0
        for pos, q in enumerate(circuit.logicals):
            sub |= ((i >> q) & 1) << pos
        amp = logical[sub]
        for w in works:
            amp *= 1 / np.sqrt(2)
        full[i] = amp
    return full


class TestOracle:
    def test_all_ones_is_plain_cz(self):
        gates = build_oracle(2, 3)
        assert gates == [CzGate(0, 1)]
        np.testing.assert_allclose(oracles.gates_dense(gates, 2), np.diag([1, 1, 1, -1]), atol=1e-12)

    def test_all_zeros_conjugated(self):
        dense = oracles.gates_dense(build_oracle(2, 0), 2)
        np.testing.assert_allclose(dense, np.diag([-1, 1, 1, 1]), atol=1e-12)

    def test_three_qubit_oracle_matches_reflection(self):
        for j in range(8):
            circuit = Circuit(3, 1, build_oracle(3, j))
            dense = oracles.circuit_dense(circuit)
            reflection = np.eye(8, dtype=complex)
            reflection[j, j] = -1
            rng = np.random.default_rng(j)
            for _ in range(5):
                logical = oracles.random_state(3, rng)
                out = dense @ _embed(logical, circuit)
                expected = _embed(reflection @ logical, circuit)
                np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_marked_range_checked(self):
        with pytest.raises(ValueError):
            build_oracle(2, 4)
        with pytest.raises(ValueError):
            build_oracle(1, 0)

    def test_self_inverse(self):
        dense = oracles.gates_dense(build_oracle(2, 1), 2)
        assert oracles.same_up_to_phase(dense @ dense, np.eye(4))


class TestDiffusion:
    def test_two_qubit_dense(self):
        dense = oracles.gates_dense(build_diffusion(2), 2)
        uniform = np.full(4, 0.5, dtype=complex)
        expected = 2 * np.outer(uniform, uniform.conj()) - np.eye(4)
        assert oracles.same_up_to_phase(dense, expected, tol=1e-12)

    def test_fixes_uniform_state(self):
        dense = oracles.gates_dense(build_diffusion(2), 2)
        uniform = np.full(4, 0.5, dtype=complex)
        assert oracles.same_up_to_phase(dense @ uniform, uniform)

    def test_self_inverse(self):
        dense = oracles.gates_dense(build_diffusion(2), 2)
        assert oracles.same_up_to_phase(dense @ dense, np.eye(4))


class TestGrover:
    def test_iteration_counts(self):
        assert grover_iterations(2) == 1
        assert grover_iterations(3) == 2
        assert grover_iterations(4) == 3

    def test_build_shapes(self):
        circuit = build_grover(2, 3)
        circuit.validate()
        assert circuit.num_work == 0
        circuit = build_grover(3, 0)
        circuit.validate()
        assert circuit.num_work == 1
        assert circuit.works == (3,)

    def test_all_gates_elementary(self):
        for gate in build_grover(3, 5).gates:
            assert isinstance(gate, (NamedGate, CzGate, MultiZRot, SingleQubit))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            build_grover(1, 0)
        with pytest.raises(ValueError):
            build_grover(2, 9)

    def test_register_beyond_memory_fails_before_any_gate(self, monkeypatch):
        def no_gates(*args, **kwargs):
            raise AssertionError("a gate was built")

        monkeypatch.setattr(core, "_physical_memory", lambda: 1 << 20)  # room for 16 qubits
        monkeypatch.setattr(circuits, "NamedGate", no_gates)
        with pytest.raises(ValueError, match="^a 18-qubit state needs"):
            build_grover(10, 0)


class TestAngleLiterals:
    def test_pi_forms(self):
        assert parse_angle("pi") == np.pi
        assert parse_angle("-pi") == -np.pi
        assert parse_angle("pi/4") == np.pi / 4
        assert parse_angle("3pi/2") == 3 * np.pi / 2
        assert parse_angle("-3pi/4") == -3 * np.pi / 4

    def test_plain_floats(self):
        assert parse_angle("0.5") == 0.5
        assert parse_angle("-2e-3") == -2e-3

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("pie")


class TestParser:
    def test_basic_gates(self):
        text = """
        qubits 3 work 0
        # a comment line
        H 1
        X 2
        RZ 3 pi/2
        SQ 1 pi/2 0 pi
        CZ 1 2
        MZROT pi/4 1 3
        """
        circuit = parse_circuit(text)
        assert circuit.num_logical == 3 and circuit.num_work == 0
        assert circuit.gates[0] == NamedGate(0, "H")
        assert circuit.gates[1] == NamedGate(1, "X")
        assert circuit.gates[2] == NamedGate(2, "RZ", np.pi / 2)
        assert circuit.gates[3] == SingleQubit(0, np.pi / 2, 0.0, np.pi)
        assert circuit.gates[4] == CzGate(0, 1)
        assert circuit.gates[5] == MultiZRot((0, 2), np.pi / 4)

    def test_lambda_macros_expand(self):
        text = "qubits 3\nLAMBDA1 -pi/2 1 : 2 3\nLAMBDA2 pi 1 2 : 3\n"
        circuit = parse_circuit(text)
        assert circuit.gates[:2] == expand_lambda1(0, (1, 2), -np.pi / 2)
        assert circuit.gates[2:] == expand_lambda2((0, 1), (2,), np.pi)
        # each macro is one computation step
        assert circuit.tau_max == 2

    def test_lambdaz_uses_work_pool(self):
        text = "qubits 4 work 2\nLAMBDAZ 1 2 3 : 4\n"
        circuit = parse_circuit(text)
        assert circuit.gates == expand_lambda_z((0, 1, 2), 3, (4, 5))

    def test_lambdaz_needs_work(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 4 work 1\nLAMBDAZ 1 2 3 : 4\n")
        assert "line 2" in str(err.value)

    def test_grover_line(self):
        circuit = parse_circuit("qubits 3 work 1\nGROVER 3 5\n")
        reference = build_grover(3, 5)
        assert circuit.gates == reference.gates

    def test_grover_register_mismatch(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2 work 1\nGROVER 2 0\n")
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 3 work 1\nH 1\nGROVER 3 0\n")

    def test_missing_header(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("H 1\n")
        assert err.value.line_number == 1

    def test_qubit_out_of_range_carries_line(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 2\nH 1\nCZ 1 5\n")
        assert err.value.line_number == 3

    def test_unknown_gate(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 2\nFOO 1\n")
        assert "FOO" in str(err.value)

    def test_empty_file(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("# nothing here\n")

    def test_round_trip(self):
        text = "qubits 3 work 1\nH 1\nMZROT pi/4 1 2\nCZ 2 4\nRZ 3 -pi\nSQ 2 1.0 0.5 2.0\n"
        circuit = parse_circuit(text)
        again = parse_circuit(serialize_circuit(circuit))
        assert again.gates == circuit.gates
        assert (again.num_logical, again.num_work) == (circuit.num_logical, circuit.num_work)

    def test_serialize_refuses_what_text_cannot_express(self):
        # parsing would move the works to 5, 6 and turn qubit 4 logical
        with pytest.raises(ValueError, match="work qubits 4 5"):
            serialize_circuit(triple_control_z_circuit())
        with pytest.raises(ValueError, match="no kappa"):
            serialize_circuit(Circuit(2, 0, [NamedGate(0, "H"), MultiZRot((0, 1), 0.3, kappa=1)]))
