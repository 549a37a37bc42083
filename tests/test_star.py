"""Star-graph rotation tests against dense oracles built from definitions."""
import numpy as np
import pytest

from hqcsim.core import (
    BlochVector,
    MeasurementSpec,
    RandomSource,
    StateVector,
    apply_named,
    fidelity,
    make_basis_state,
    measure,
)
from hqcsim.star import (
    AncillaPrep,
    StarGraph,
    apply_multi_z_unitary,
    build_star_state,
    check_stabilizer,
    draw_rotation,
    multi_z_rotation,
    reset_to_zero,
    rotation_action,
    rz_teleport_gadget,
)

import oracles

RT2 = 1 / np.sqrt(2)


def star_state_oracle(psi: np.ndarray, leaves, kappa: int, ancilla: int, n: int) -> np.ndarray:
    """(|0>_a psi + (-1)^kappa |1>_a Z^{x leaves} psi)/sqrt(2), by definition."""
    z_all = np.eye(2**n, dtype=complex)
    for leaf in leaves:
        z_all = oracles.op_on(oracles.Z, leaf, n) @ z_all
    flipped = z_all @ psi
    out = np.zeros(2 ** (n + 1) if ancilla == n else None, dtype=complex)
    assert ancilla == n, "oracle assumes the ancilla is the top qubit"
    out[: 2**n] = psi / np.sqrt(2)
    out[2**n :] = (-1) ** kappa * flipped / np.sqrt(2)
    return out


def embed_with_top_ancilla(psi: np.ndarray) -> StateVector:
    amps = np.concatenate([psi, np.zeros_like(psi)])
    return StateVector(int(np.log2(psi.size)) + 1, amps)


class TestTypes:
    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            AncillaPrep(2)

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            StarGraph(0, ())
        with pytest.raises(ValueError):
            StarGraph(0, (0, 1))
        with pytest.raises(ValueError):
            StarGraph(2, (1, 1))


class TestBuildStarState:
    def test_single_leaf_zero_input(self):
        state = make_basis_state(2, [0, 0])  # qubit 1 is the ancilla
        out = build_star_state(state, StarGraph(1, (0,)), AncillaPrep(0))
        np.testing.assert_allclose(out.amplitudes, [RT2, 0, RT2, 0], atol=1e-12)

    def test_single_leaf_one_input(self):
        state = make_basis_state(2, [1, 0])
        out = build_star_state(state, StarGraph(1, (0,)), AncillaPrep(0))
        np.testing.assert_allclose(out.amplitudes, [0, RT2, 0, -RT2], atol=1e-12)

    def test_two_leaves_ones_with_kappa(self):
        # Z(x)Z fixes |11>, so kappa=1 gives (|0> - |1>)_a |11> / sqrt(2)
        state = make_basis_state(3, [1, 1, 0])
        out = build_star_state(state, StarGraph(2, (0, 1)), AncillaPrep(1))
        expected = np.zeros(8, dtype=complex)
        expected[0b011] = RT2
        expected[0b111] = -RT2
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_matches_definition_for_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            size = int(rng.integers(1, n + 1))
            leaves = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
            kappa = int(rng.integers(0, 2))
            psi = oracles.random_state(n, rng)
            state = embed_with_top_ancilla(psi)
            out = build_star_state(state, StarGraph(n, leaves), AncillaPrep(kappa))
            expected = star_state_oracle(psi, leaves, kappa, n, n)
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_dirty_ancilla_rejected(self):
        state = make_basis_state(2, [0, 1])
        with pytest.raises(ValueError):
            build_star_state(state, StarGraph(1, (0,)), AncillaPrep(0))


class TestStabilizer:
    def test_sign_follows_kappa(self):
        rng = np.random.default_rng(1)
        for kappa in (0, 1):
            psi = oracles.random_state(2, rng)
            state = embed_with_top_ancilla(psi)
            graph = StarGraph(2, (0, 1))
            out = build_star_state(state, graph, AncillaPrep(kappa))
            assert abs(check_stabilizer(out, graph) - (-1) ** kappa) < 1e-10

    def test_product_state_gives_zero(self):
        state = make_basis_state(3, [0, 0, 0])
        assert abs(check_stabilizer(state, StarGraph(2, (0, 1)))) < 1e-12


class TestMultiZRotation:
    def test_zero_angle_identity_with_forced_zero(self):
        psi = oracles.random_state(2, np.random.default_rng(2))
        state = embed_with_top_ancilla(psi)
        record, out = multi_z_rotation(state, (0, 1), 0.0, AncillaPrep(0), 2, RandomSource(0, 0), forced=0)
        assert record.outcome == 0
        out = reset_to_zero(out, 2, RandomSource(0, 1))
        assert fidelity(out, embed_with_top_ancilla(psi)) >= 1 - 1e-10

    def test_zero_angle_byproduct_only(self):
        psi = oracles.random_state(2, np.random.default_rng(3))
        state = embed_with_top_ancilla(psi)
        record, out = multi_z_rotation(state, (0, 1), 0.0, AncillaPrep(0), 2, RandomSource(5, 0))
        out = reset_to_zero(out, 2, RandomSource(5, 1))
        flipped = psi.copy()
        if record.outcome:
            flipped = oracles.op_on(oracles.Z, 0, 2) @ oracles.op_on(oracles.Z, 1, 2) @ flipped
        assert fidelity(out, embed_with_top_ancilla(flipped)) >= 1 - 1e-10

    def test_single_qubit_phase_example(self):
        # theta=pi/2 on |0> with outcome 0 acts as Rz(pi/2)
        state = make_basis_state(2, [0, 0])
        record, out = multi_z_rotation(state, (0,), np.pi / 2, AncillaPrep(0), 1, RandomSource(0, 0), forced=0)
        out = reset_to_zero(out, 1, RandomSource(0, 1))
        expected = oracles.rz(np.pi / 2) @ np.array([1, 0], dtype=complex)
        assert fidelity(out, embed_with_top_ancilla(expected)) >= 1 - 1e-10
        # all weight stays on |0>: the rotation is diagonal
        assert abs(abs(out.amplitudes[0]) - 1) < 1e-10

    def test_two_qubit_rotation_against_dense_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            kappa = int(rng.integers(0, 2))
            psi = oracles.random_state(2, rng)
            state = embed_with_top_ancilla(psi)
            record, out = multi_z_rotation(
                state, (0, 1), theta, AncillaPrep(kappa), 2, RandomSource(10, trial)
            )
            out = reset_to_zero(out, 2, RandomSource(11, trial))
            expected = oracles.multi_z_dense((0, 1), theta, 2) @ psi
            if record.outcome:
                expected = oracles.op_on(oracles.Z, 0, 2) @ oracles.op_on(oracles.Z, 1, 2) @ expected
            assert fidelity(out, embed_with_top_ancilla(expected)) >= 1 - 1e-10

    def test_outcomes_are_unbiased(self):
        psi = oracles.random_state(1, np.random.default_rng(5))
        ones = 0
        shots = 2000
        for shot in range(shots):
            state = embed_with_top_ancilla(psi)
            record, _ = multi_z_rotation(state, (0,), 1.3, AncillaPrep(0), 1, RandomSource(77, shot))
            ones += record.outcome
        sigma = np.sqrt(shots * 0.25)
        assert abs(ones - shots / 2) < 4 * sigma

    def test_ancilla_disentangled_after_rotation(self):
        # a Z measurement plus re-preparation leaves the logical state alone
        psi = oracles.random_state(2, np.random.default_rng(6))
        state = embed_with_top_ancilla(psi)
        _, out = multi_z_rotation(state, (0, 1), 0.9, AncillaPrep(0), 2, RandomSource(3, 0))
        logical_before = out.amplitudes.reshape(2, 4)
        _, collapsed = measure(out, MeasurementSpec(2, BlochVector(0, 0)), RandomSource(3, 1))
        reset = reset_to_zero(collapsed, 2, RandomSource(3, 2))
        merged = reset.amplitudes.reshape(2, 4)[0]
        # compare against the pre-measurement logical state (trace out ancilla)
        stacked = logical_before[0] + logical_before[1]
        norm = np.linalg.norm(stacked)
        overlap = abs(np.vdot(merged, stacked / norm)) ** 2
        assert overlap >= 1 - 1e-12

    def test_permutation_symmetry(self):
        psi = oracles.random_state(2, np.random.default_rng(7))
        state = embed_with_top_ancilla(psi)
        _, one = multi_z_rotation(state, (0, 1), 0.7, AncillaPrep(0), 2, RandomSource(0, 0), forced=1)
        _, two = multi_z_rotation(state, (1, 0), 0.7, AncillaPrep(0), 2, RandomSource(0, 0), forced=1)
        assert fidelity(one, two) >= 1 - 1e-12

    def test_empty_leaves_rejected(self):
        state = make_basis_state(2, [0, 0])
        with pytest.raises(ValueError):
            multi_z_rotation(state, (), 0.1, AncillaPrep(0), 1, RandomSource(0, 0))


class TestResetToZero:
    def test_resets_and_preserves_logical(self):
        rng = np.random.default_rng(8)
        psi = oracles.random_state(2, rng)
        state = embed_with_top_ancilla(psi)
        state = apply_named(state, 2, "H")  # put the ancilla in |+>
        out = reset_to_zero(state, 2, RandomSource(1, 0))
        np.testing.assert_allclose(out.amplitudes[4:], 0, atol=1e-12)
        assert fidelity(out, embed_with_top_ancilla(psi)) >= 1 - 1e-12


class TestMultiZUnitary:
    def test_diagonal_phase_on_ones(self):
        state = make_basis_state(2, [1, 1])
        out = apply_multi_z_unitary(state, (0, 1), 0.8)
        assert abs(out.amplitudes[3] - np.exp(-0.4j)) < 1e-12

    def test_odd_parity_gets_conjugate_phase(self):
        state = make_basis_state(2, [1, 0])
        out = apply_multi_z_unitary(state, (0, 1), 0.8)
        assert abs(out.amplitudes[1] - np.exp(0.4j)) < 1e-12

    def test_matches_dense(self):
        rng = np.random.default_rng(9)
        psi = oracles.random_state(3, rng)
        out = apply_multi_z_unitary(StateVector(3, psi.copy()), (0, 2), 1.1)
        np.testing.assert_allclose(out.amplitudes, oracles.multi_z_dense((0, 2), 1.1, 3) @ psi, atol=1e-12)

    def test_validation(self):
        state = make_basis_state(2, [0, 0])
        with pytest.raises(ValueError):
            apply_multi_z_unitary(state, (), 0.1)
        with pytest.raises(ValueError):
            apply_multi_z_unitary(state, (0, 0), 0.1)
        with pytest.raises(ValueError):
            apply_multi_z_unitary(state, (7,), 0.1)


def bit_loop_multi_z(state: StateVector, leaves, theta: float) -> StateVector:
    """Per-bit loop reference for `apply_multi_z_unitary`: the shared parity
    helper must reproduce its output bit for bit."""
    mask = 0
    for leaf in leaves:
        mask |= 1 << leaf
    indices = np.arange(state.amplitudes.size)
    ones = indices & mask
    parity = np.zeros_like(indices)
    while mask:
        parity ^= ones & 1
        ones >>= 1
        mask >>= 1
    phases = np.exp(-0.5j * theta * np.where(parity == 0, 1.0, -1.0))
    return StateVector(state.num_qubits, state.amplitudes * phases)


def test_multi_z_unitary_bytes_match_bit_loop():
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        psi = oracles.random_state(n, rng)
        for _ in range(3):
            size = int(rng.integers(1, n + 1))
            leaves = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
            theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            out = apply_multi_z_unitary(StateVector(n, psi), leaves, theta)
            assert np.array_equal(out.amplitudes, bit_loop_multi_z(StateVector(n, psi), leaves, theta).amplitudes)


def test_zero_outcome_action_is_the_unitary_bit_for_bit():
    # the runner's unitary reference is the trajectory whose outcomes are all
    # 0, so rotation_action(theta, 0) must build apply_multi_z_unitary's phases
    rng = np.random.default_rng(13)
    grid = [*np.linspace(-4 * np.pi, 4 * np.pi, 161), np.pi, -np.pi, 2 * np.pi, np.pi / 2, 1e-300, -1e-300]
    psi = oracles.random_state(4, rng)
    for theta in grid:
        leaves = tuple(int(q) for q in rng.choice(4, size=int(rng.integers(1, 5)), replace=False))
        hybrid = rotation_action(StateVector(4, psi), leaves, float(theta), 0)
        unitary = apply_multi_z_unitary(StateVector(4, psi), leaves, float(theta))
        assert np.array_equal(hybrid.amplitudes, unitary.amplitudes), theta


class TestFusedRotation:
    """The register-only rotation as the runner runs it, `draw_rotation` then
    `rotation_action`, against the explicit star construction and its reset."""

    # pi - 1e-6 leaves both ancilla reset branches possible (one reset draw);
    # pi - 1e-8 pushes cos^2(theta/2) below 1e-14 (no reset draw)
    THETAS = (0.0, np.pi, -np.pi, 2 * np.pi, np.pi - 1e-6, np.pi - 1e-8, None)

    def test_matches_reference_rotation_by_rotation(self):
        rng = np.random.default_rng(31)
        case = 0
        for _ in range(8):
            for theta in self.THETAS:
                for kappa in (0, 1):
                    for forced in (None, 0, 1):
                        n = int(rng.integers(1, 7))
                        size = int(rng.integers(1, n + 1))
                        leaves = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
                        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi)) if theta is None else theta
                        psi = oracles.random_state(n, rng)
                        ref_rng, fused_rng = RandomSource(41, case), RandomSource(41, case)
                        ref_record, ref = multi_z_rotation(
                            embed_with_top_ancilla(psi), leaves, angle, AncillaPrep(kappa), n, ref_rng, forced=forced
                        )
                        ref = reset_to_zero(ref, n, ref_rng)
                        record = draw_rotation(leaves, angle, kappa, fused_rng, forced=forced)
                        out = rotation_action(StateVector(n, psi), leaves, angle, record.outcome)
                        assert record == ref_record, case
                        assert ref_rng.random() == fused_rng.random(), case
                        register = StateVector(n, ref.amplitudes[: 2**n])
                        assert fidelity(out, register) >= 1 - 1e-12, case
                        case += 1
        assert case >= 300

    def test_outcome_byproduct_and_requested_angle(self):
        state = make_basis_state(2, [1, 0])
        record = draw_rotation((0, 1), 0.8, 1, RandomSource(0, 0), forced=1, theta_requested=-0.8)
        out = rotation_action(state, record.leaves, 0.8, record.outcome)
        assert (record.outcome, record.kappa, record.theta_requested, record.theta_executed) == (1, 1, -0.8, 0.8)
        # odd parity: (-1)^m e^{+i theta/2}
        assert abs(out.amplitudes[1] + np.exp(0.4j)) < 1e-12

    def test_validation(self):
        state = make_basis_state(2, [0, 0])
        with pytest.raises(ValueError, match="at least one qubit"):
            rotation_action(state, (), 0.1, 0)
        with pytest.raises(ValueError, match="distinct"):
            rotation_action(state, (1, 1), 0.1, 0)
        with pytest.raises(ValueError, match="out of range"):
            rotation_action(state, (2,), 0.1, 0)
        with pytest.raises(ValueError, match="kappa"):
            draw_rotation((0,), 0.1, 2, RandomSource(0, 0))
        with pytest.raises(ValueError, match="forced"):
            draw_rotation((0,), 0.1, 0, RandomSource(0, 0), forced=2)


class TestTeleportGadget:
    def test_phi_zero_forced_is_hadamard(self):
        outcome, out = rz_teleport_gadget(make_basis_state(1, [0]), 0.0, AncillaPrep(0), RandomSource(0, 0), forced=0)
        assert outcome == 0
        np.testing.assert_allclose(out.amplitudes, [RT2, RT2], atol=1e-12)

    def test_quarter_turn_forced(self):
        outcome, out = rz_teleport_gadget(
            make_basis_state(1, [0]), np.pi / 2, AncillaPrep(0), RandomSource(0, 0), forced=0
        )
        expected = oracles.H @ oracles.rz(np.pi / 2) @ np.array([1, 0], dtype=complex)
        assert abs(np.abs(np.vdot(out.amplitudes, expected)) ** 2 - 1) < 1e-10

    def test_general_byproduct_form(self):
        rng = np.random.default_rng(10)
        for trial in range(30):
            phi = rng.uniform(-np.pi, np.pi)
            kappa = int(rng.integers(0, 2))
            psi = oracles.random_state(1, rng)
            outcome, out = rz_teleport_gadget(
                StateVector(1, psi.copy()), phi, AncillaPrep(kappa), RandomSource(20, trial)
            )
            expected = oracles.H @ oracles.rz(phi) @ psi
            if kappa:
                expected = oracles.Z @ expected
            if outcome:
                expected = oracles.X @ expected
            assert abs(np.abs(np.vdot(out.amplitudes, expected)) ** 2 - 1) < 1e-10

    def test_kappa_one_outcome_one(self):
        rng = np.random.default_rng(11)
        psi = oracles.random_state(1, rng)
        outcome, out = rz_teleport_gadget(
            StateVector(1, psi.copy()), 0.9, AncillaPrep(1), RandomSource(5, 0), forced=1
        )
        assert outcome == 1
        expected = oracles.X @ oracles.Z @ oracles.H @ oracles.rz(0.9) @ psi
        assert abs(np.abs(np.vdot(out.amplitudes, expected)) ** 2 - 1) < 1e-10

    def test_rejects_multi_qubit_input(self):
        with pytest.raises(ValueError):
            rz_teleport_gadget(make_basis_state(2, [0, 0]), 0.0, AncillaPrep(0), RandomSource(0, 0))


def test_gadget_property_random_draws():
    """200 random (state, theta, kappa, leaf set) draws against the dense oracle."""
    rng = np.random.default_rng(12)
    register = 4
    for trial in range(200):
        size = int(rng.integers(1, register + 1))
        leaves = tuple(int(q) for q in rng.choice(register, size=size, replace=False))
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        kappa = int(rng.integers(0, 2))
        psi = oracles.random_state(register, rng)
        state = embed_with_top_ancilla(psi)
        record, out = multi_z_rotation(
            state, leaves, theta, AncillaPrep(kappa), register, RandomSource(100, trial)
        )
        out = reset_to_zero(out, register, RandomSource(101, trial))
        expected = oracles.multi_z_dense(leaves, theta, register) @ psi
        if record.outcome:
            for leaf in leaves:
                expected = oracles.op_on(oracles.Z, leaf, register) @ expected
        assert fidelity(out, embed_with_top_ancilla(expected)) >= 1 - 1e-10
