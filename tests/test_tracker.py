"""Byproduct tracker tests: GF(2) algebra, propagation matrices, adaptation
rules, and dense conjugation soundness."""
import numpy as np
import pytest

from hqcsim.core import BlochVector
from hqcsim.tracker import (
    Gf2Expr,
    InfoFlowVector,
    absorb_rotation_outcome,
    adapt_axis,
    adapt_angle,
    adapt_azimuth,
    adapt_rotation_angle,
    angle_parity,
    byproduct_to_unitary,
    correct_readout,
    init_flow,
    matrix_for,
    propagate,
)

import oracles


def var(label):
    return Gf2Expr.var(label)


def bit(component, outcomes):
    """Value of an outcome-bitset component once the rotation outcomes are
    the bits of `outcomes`."""
    return (component & outcomes).bit_count() & 1


class TestGf2Expr:
    def test_self_cancellation(self):
        e = var("m11")
        assert (e ^ e) == 0
        assert (e ^ e) == Gf2Expr()

    def test_canonical_equality(self):
        assert (var("a") ^ var("b")) == (var("b") ^ var("a"))

    def test_xor_with_zero(self):
        e = var("a")
        assert (e ^ 0) == e
        assert (0 ^ e) == e

    def test_nonzero_constant_rejected(self):
        with pytest.raises(TypeError):
            var("a") ^ 1

    def test_string_is_sorted(self):
        assert str(var("m13") ^ var("m11")) == "m11+m13"
        assert str(Gf2Expr()) == "0"


class TestInitFlow:
    def test_one_qubit(self):
        flow = init_flow(1)
        assert flow.x == [0] and flow.z == [0]

    def test_six_qubits_all_zero(self):
        flow = init_flow(6)
        assert flow.x == [0] * 6 and flow.z == [0] * 6

    def test_empty_expression_equals_zero(self):
        assert Gf2Expr() == 0
        assert init_flow(2) == InfoFlowVector([Gf2Expr(), 0], [0, Gf2Expr()])

    def test_bad_size(self):
        with pytest.raises(ValueError):
            init_flow(0)


class TestMatrices:
    def test_h_single_qubit(self):
        mat = matrix_for(("H", 0), 1).mat
        np.testing.assert_array_equal(mat, [[0, 1], [1, 0]])

    def test_phase_single_qubit(self):
        mat = matrix_for(("PHASE", 0), 1).mat
        np.testing.assert_array_equal(mat, [[1, 0], [1, 1]])

    def test_rotation_is_identity(self):
        np.testing.assert_array_equal(matrix_for(("R", 1), 3).mat, np.eye(6))
        np.testing.assert_array_equal(matrix_for(("MZROT", (0, 2)), 3).mat, np.eye(6))

    def test_cnot_action(self):
        # (x_a, x_b, z_a, z_b) = (1,0,0,0) -> (1,1,0,0)
        flow = InfoFlowVector([1, 0], [0, 0])
        out = propagate(flow, ("CNOT", 0, 1))
        assert (out.x, out.z) == ([1, 1], [0, 0])
        # z_b feeds z_a
        flow = InfoFlowVector([0, 0], [0, 1])
        out = propagate(flow, ("CNOT", 0, 1))
        assert (out.x, out.z) == ([0, 0], [1, 1])

    def test_cz_action(self):
        flow = InfoFlowVector([1, 0], [0, 0])
        out = propagate(flow, ("CZ", 0, 1))
        assert (out.x, out.z) == ([1, 0], [0, 1])

    def test_generator_forms_at_n3(self):
        # entries from the delta-function generators, written out directly
        a, b, n = 0, 2, 3
        cnot = matrix_for(("CNOT", a, b), n)
        for k in range(n):
            for l in range(n):
                assert cnot.cxx[k, l] == ((k == l) + (k == b and l == a)) % 2
                assert cnot.czz[k, l] == ((k == l) + (k == a and l == b)) % 2
                assert cnot.cxz[k, l] == 0 and cnot.czx[k, l] == 0
        h = matrix_for(("H", 1), n)
        for k in range(n):
            for l in range(n):
                delta = int(k == l) ^ int(k == 1 and l == 1)
                assert h.cxx[k, l] == delta and h.czz[k, l] == delta
                assert h.cxz[k, l] == int(k == 1 and l == 1)
                assert h.czx[k, l] == int(k == 1 and l == 1)
        phase = matrix_for(("PHASE", 2), n)
        for k in range(n):
            for l in range(n):
                assert phase.cxx[k, l] == int(k == l) and phase.czz[k, l] == int(k == l)
                assert phase.czx[k, l] == 0
                assert phase.cxz[k, l] == int(k == 2 and l == 2)
        cz = matrix_for(("CZ", a, b), n)
        for k in range(n):
            for l in range(n):
                assert cz.cxx[k, l] == int(k == l) and cz.czz[k, l] == int(k == l)
                assert cz.czx[k, l] == 0
                assert cz.cxz[k, l] == ((k == a and l == b) + (k == b and l == a)) % 2

    def test_two_qubit_needs_distinct(self):
        with pytest.raises(ValueError):
            matrix_for(("CZ", 1, 1), 2)

    def test_h_cz_h_equals_cnot(self):
        for n in (2, 3, 4):
            a, b = 0, n - 1
            h = matrix_for(("H", b), n)
            composed = h @ matrix_for(("CZ", a, b), n) @ h
            assert composed == matrix_for(("CNOT", a, b), n)

    def test_all_matrices_invertible_over_gf2(self):
        for gate in [("R", 0), ("H", 0), ("PHASE", 1), ("CNOT", 0, 1), ("CZ", 1, 0), ("MZROT", (0, 1))]:
            mat = matrix_for(gate, 2).mat.astype(int)
            assert _gf2_rank(mat) == mat.shape[0]

    def test_no_z_to_x_mixing_except_h(self):
        n = 3
        for gate in [("R", 0), ("PHASE", 1), ("CNOT", 0, 1), ("CZ", 1, 2), ("MZROT", (0, 1, 2))]:
            assert not matrix_for(gate, n).czx.any()
        assert matrix_for(("H", 1), n).czx.any()


def _gf2_rank(mat):
    mat = mat.copy() % 2
    rank = 0
    rows, cols = mat.shape
    for col in range(cols):
        pivot = None
        for row in range(rank, rows):
            if mat[row, col]:
                pivot = row
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        for row in range(rows):
            if row != rank and mat[row, col]:
                mat[row] = (mat[row] + mat[rank]) % 2
        rank += 1
    return rank


class TestPropagate:
    def test_h_twice_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            flow = InfoFlowVector(list(rng.integers(0, 2, 3)), list(rng.integers(0, 2, 3)))
            flow = InfoFlowVector([int(v) for v in flow.x], [int(v) for v in flow.z])
            out = propagate(propagate(flow, ("H", 1)), ("H", 1))
            assert out == flow

    def test_symbolic_h_swaps_components(self):
        flow = init_flow(6)
        flow.z[3] = 1 << 0 | 1 << 2
        out = propagate(flow, ("H", 3))
        assert out.x[3] == 0b101 and out.z[3] == 0

    def test_symbolic_cz_feeds_partner(self):
        flow = init_flow(6)
        flow.x[4] = 1 << 3
        flow.z[5] = 1 << 1
        out = propagate(flow, ("CZ", 4, 5))
        assert out.z[5] == 0b1010 and out.x[4] == 0b1000 and out.z[4] == 0

    def test_accepts_matrix_argument(self):
        flow = InfoFlowVector([1, 0], [0, 0])
        mat = matrix_for(("H", 0), 2)
        assert propagate(flow, mat) == propagate(flow, ("H", 0))


class TestAbsorb:
    def test_zero_outcome_is_noop(self):
        flow = InfoFlowVector([1, 0], [0, 1])
        assert absorb_rotation_outcome(flow, (0, 1), 0) == flow

    def test_double_control_pattern(self):
        # four rotations of a two-control block on controls 0,1 and target 2:
        # leaves {0,1,2}, {1,2}, {0,2}, {2} with outcomes m0..m3 as bits 0..3
        flow = init_flow(4)
        flow = absorb_rotation_outcome(flow, (0, 1, 2), 1 << 0)
        flow = absorb_rotation_outcome(flow, (1, 2), 1 << 1)
        flow = absorb_rotation_outcome(flow, (0, 2), 1 << 2)
        flow = absorb_rotation_outcome(flow, (2,), 1 << 3)
        assert flow.z == [0b0101, 0b0011, 0b1111, 0]
        assert flow.x == [0, 0, 0, 0]

    def test_numeric(self):
        flow = absorb_rotation_outcome(init_flow(3), (0, 2), 1)
        assert flow.z == [1, 0, 1]


class TestAngleAdaptation:
    def test_zero_flow_keeps_angle(self):
        assert adapt_rotation_angle(init_flow(3), (0, 1), 0.7) == 0.7

    def test_parity_flips_sign(self):
        flow = init_flow(5)
        flow.x[3] = 1
        assert adapt_rotation_angle(flow, (2, 3, 4), 0.7) == -0.7
        # a second x inside the leaves cancels
        flow.x[2] = 1
        assert adapt_rotation_angle(flow, (2, 3, 4), 0.7) == 0.7

    def test_leaves_outside_flow_ignored(self):
        flow = init_flow(5)
        flow.x[0] = 1
        assert adapt_rotation_angle(flow, (2, 3), 0.7) == 0.7

    def test_angle_rule(self):
        assert adapt_angle(0, 0.7) == 0.7 and adapt_angle(1, 0.7) == -0.7
        assert adapt_angle(2, -0.7) == -0.7 and adapt_angle(3, -0.7) == 0.7
        # the sign of a zero angle follows the rule too, so JSON writes -0.0
        assert str(adapt_angle(1, 0.0)) == "-0.0"

    def test_unevaluated_parity_rejected(self):
        # a multi-bit outcome bitset is a flow not yet evaluated for a shot
        with pytest.raises(ValueError, match=r"parity on \(0,\) is 2"):
            adapt_rotation_angle(InfoFlowVector([0b10], [0]), (0,), 0.5)

    def test_bitset_parity(self):
        flow = init_flow(5)
        flow.x[1], flow.x[3] = 0b011, 0b110
        assert angle_parity(flow, (0, 1, 3)) == 0b101
        assert angle_parity(flow, (0, 2)) == 0


class TestAxisAdaptation:
    def test_identity(self):
        # the axis itself, not a re-derived one: atan2 would map these into
        # other floats (phi outside (-pi, pi], negative theta), so the gate
        # matrix would no longer be the unitary run's
        rng = np.random.default_rng(4)
        for theta, phi in [(0.7, 1.2), (0.7, 4.0), (-0.3, 1.2), (2.0, -3.5), *rng.uniform(-7, 7, size=(50, 2))]:
            axis = BlochVector(theta, phi)
            assert adapt_axis(0, 0, axis) == axis
            assert adapt_axis(2, 0b110, axis) == axis

    def test_x_flips_z_axis(self):
        out = adapt_axis(1, 0, BlochVector(0, 0))
        np.testing.assert_allclose(out.components(), [0, 0, -1], atol=1e-12)

    def test_z_flips_x_axis(self):
        out = adapt_axis(0, 1, BlochVector(np.pi / 2, 0))
        np.testing.assert_allclose(out.components(), [-1, 0, 0], atol=1e-12)

    def test_component_formula_and_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            axis = BlochVector(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            x, z = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            rx, ry, rz = axis.components()
            expected = ((-1) ** z * rx, (-1) ** (x + z) * ry, (-1) ** x * rz)
            once = adapt_axis(x, z, axis)
            np.testing.assert_allclose(once.components(), expected, atol=1e-12)
            twice = adapt_axis(x, z, once)
            np.testing.assert_allclose(twice.components(), axis.components(), atol=1e-12)


class TestEulerAndAzimuth:
    def test_azimuth(self):
        assert adapt_azimuth(0) == np.pi / 2
        assert adapt_azimuth(1) == -np.pi / 2


class TestReadoutCorrection:
    def test_flip_by_x_part(self):
        flow = InfoFlowVector([1, 1], [0, 1])
        assert correct_readout([1, 0], flow) == [0, 1]

    def test_zero_flow_is_identity(self):
        assert correct_readout([1, 0, 1], init_flow(3)) == [1, 0, 1]

    def test_symbolic_rejected(self):
        flow = init_flow(2)
        flow.x[0] = var("m")
        with pytest.raises(ValueError):
            correct_readout([0, 0], flow)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            correct_readout([0], init_flow(2))

    def test_unevaluated_bitset_rejected(self):
        with pytest.raises(ValueError, match="qubit 0 has x = 2"):
            correct_readout([0], InfoFlowVector([0b10], [0]))


class TestByproduct:
    def test_zero_flow_empty(self):
        assert byproduct_to_unitary(init_flow(2)) == []

    def test_x_then_z_order(self):
        flow = InfoFlowVector([1], [1])
        assert byproduct_to_unitary(flow) == [("X", 0), ("Z", 0)]

    def test_unevaluated_bitset_rejected(self):
        with pytest.raises(ValueError, match="qubit 0 has x = 2"):
            byproduct_to_unitary(InfoFlowVector([0b10], [0b11]))

    def test_double_application_is_phase(self):
        rng = np.random.default_rng(3)
        flow = InfoFlowVector([1, 0, 1], [1, 1, 0])
        mat = oracles.pauli_byproduct(flow.x, flow.z, 3)
        state = oracles.random_state(3, rng)
        assert oracles.same_up_to_phase(mat @ (mat @ state), state)


class TestConjugationSoundness:
    """U_g B(v) is proportional to B(C(g) v) U_g on dense matrices."""

    def _all_flows(self, n):
        for bits in range(4**n):
            xs = [(bits >> i) & 1 for i in range(n)]
            zs = [(bits >> (n + i)) & 1 for i in range(n)]
            yield InfoFlowVector(xs, zs)

    def _dense(self, gate, n):
        kind = gate[0]
        if kind == "H":
            return oracles.op_on(oracles.H, gate[1], n)
        if kind == "PHASE":
            return oracles.op_on(oracles.rz(np.pi / 2), gate[1], n)
        if kind == "CNOT":
            return oracles.cnot_dense(gate[1], gate[2], n)
        if kind == "CZ":
            return oracles.cz_dense(gate[1], gate[2], n)
        raise AssertionError(gate)

    def test_clifford_gates_transform_flow(self):
        n = 2
        gates = [("H", 0), ("H", 1), ("PHASE", 0), ("PHASE", 1), ("CNOT", 0, 1), ("CNOT", 1, 0), ("CZ", 0, 1)]
        for gate in gates:
            dense = self._dense(gate, n)
            for flow in self._all_flows(n):
                before = oracles.pauli_byproduct(flow.x, flow.z, n)
                moved = propagate(flow, gate)
                after = oracles.pauli_byproduct(moved.x, moved.z, n)
                assert oracles.same_up_to_phase(dense @ before, after @ dense, tol=1e-12), (gate, flow)

    def test_rotations_transform_gate(self):
        # R_r(alpha) B = B R_r'(alpha) with the adapted axis
        rng = np.random.default_rng(4)
        for _ in range(25):
            axis = BlochVector(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            alpha = rng.uniform(0, 2 * np.pi)
            x, z = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            byproduct = oracles.pauli_byproduct([x], [z], 1)
            rotated = adapt_axis(x, z, axis)
            lhs = oracles.axis_rotation(axis.theta, axis.phi, alpha) @ byproduct
            rhs = byproduct @ oracles.axis_rotation(rotated.theta, rotated.phi, alpha)
            assert oracles.same_up_to_phase(lhs, rhs, tol=1e-12)

    def test_multi_z_rotation_flips_angle(self):
        rng = np.random.default_rng(6)
        n = 3
        for _ in range(25):
            theta = rng.uniform(0, 2 * np.pi)
            flow = InfoFlowVector(
                [int(b) for b in rng.integers(0, 2, n)], [int(b) for b in rng.integers(0, 2, n)]
            )
            leaves = tuple(int(q) for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            byproduct = oracles.pauli_byproduct(flow.x, flow.z, n)
            adapted = adapt_rotation_angle(flow, leaves, theta)
            lhs = oracles.multi_z_dense(leaves, theta, n) @ byproduct
            rhs = byproduct @ oracles.multi_z_dense(leaves, adapted, n)
            assert oracles.same_up_to_phase(lhs, rhs, tol=1e-12)


def test_symbolic_numeric_consistency():
    """Evaluating a flow of outcome bitsets at random outcomes replays the
    numeric flow pushed with those outcomes."""
    rng = np.random.default_rng(7)
    n = 4
    for _ in range(10):
        symbolic = init_flow(n)
        numeric = init_flow(n)
        outcomes = 0
        for step in range(12):
            choice = rng.integers(0, 3)
            if choice == 0:
                gate = ("H", int(rng.integers(0, n)))
                symbolic, numeric = propagate(symbolic, gate), propagate(numeric, gate)
            elif choice == 1:
                a, b = rng.choice(n, size=2, replace=False)
                gate = ("CZ", int(a), int(b))
                symbolic, numeric = propagate(symbolic, gate), propagate(numeric, gate)
            else:
                leaves = tuple(
                    int(q) for q in rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
                )
                value = int(rng.integers(0, 2))
                outcomes |= value << step
                symbolic = absorb_rotation_outcome(symbolic, leaves, 1 << step)
                numeric = absorb_rotation_outcome(numeric, leaves, value)
        assert [bit(c, outcomes) for c in symbolic.x] == numeric.x
        assert [bit(c, outcomes) for c in symbolic.z] == numeric.z
