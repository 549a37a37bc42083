"""Statevector engine tests: gates, measurement, fidelity, randomness."""
from itertools import combinations

import numpy as np
import pytest

from hqcsim import core
from hqcsim.core import (
    BlochVector,
    MeasurementSpec,
    RandomSource,
    StateVector,
    apply_cz,
    apply_named,
    apply_single_qubit,
    basis_kets,
    check_state_fits,
    embed_logical,
    fidelity,
    logical_marginal,
    make_basis_state,
    measure,
    measurement_projectors,
)

import oracles

RT2 = 1 / np.sqrt(2)


class TestBasisStates:
    def test_single_zero(self):
        state = make_basis_state(1, [0])
        np.testing.assert_allclose(state.amplitudes, [1, 0])

    def test_two_qubit_ones(self):
        state = make_basis_state(2, [1, 1])
        assert state.amplitudes[3] == 1
        assert np.sum(np.abs(state.amplitudes)) == 1

    def test_little_endian_placement(self):
        # bits [1, 0, 1] -> qubit0=1, qubit2=1 -> index 5
        state = make_basis_state(3, [1, 0, 1])
        assert state.amplitudes[5] == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_basis_state(2, [0])

    def test_bad_bit(self):
        with pytest.raises(ValueError):
            make_basis_state(1, [2])


class TestBlochVector:
    def test_unit_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            b = BlochVector(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            assert abs(np.linalg.norm(b.components()) - 1) < 1e-12

    def test_axes(self):
        np.testing.assert_allclose(BlochVector(0, 0).components(), [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(BlochVector(np.pi / 2, 0).components(), [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(
            BlochVector(np.pi / 2, np.pi / 2).components(), [0, 1, 0], atol=1e-15
        )


class TestSingleQubitRotation:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(1)
        state = StateVector(2, oracles.random_state(2, rng))
        out = apply_single_qubit(state, 0, BlochVector(0, 0), 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    def test_y_axis_pi_maps_zero_to_one(self):
        out = apply_single_qubit(make_basis_state(1, [0]), 0, BlochVector(np.pi / 2, np.pi / 2), np.pi)
        assert abs(abs(out.amplitudes[1]) ** 2 - 1) < 1e-12

    def test_hadamard_axis_angle_matches_named(self):
        # H equals the rotation around (x+z)/sqrt(2) by pi, up to global phase
        state = StateVector(1, oracles.random_state(1, np.random.default_rng(2)))
        via_axis = apply_single_qubit(state, 0, BlochVector(np.pi / 4, 0), np.pi)
        via_named = apply_named(state, 0, "H")
        assert fidelity(via_axis, via_named) >= 1 - 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            alpha = rng.uniform(0, 2 * np.pi)
            q = int(rng.integers(0, 3))
            state = StateVector(3, oracles.random_state(3, rng))
            out = apply_single_qubit(state, q, BlochVector(theta, phi), alpha)
            expected = oracles.op_on(oracles.axis_rotation(theta, phi, alpha), q, 3) @ state.amplitudes
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_single_qubit(make_basis_state(1, [0]), 1, BlochVector(0, 0), 0.1)


class TestNamedGates:
    def test_x_flips(self):
        out = apply_named(make_basis_state(1, [0]), 0, "X")
        np.testing.assert_allclose(out.amplitudes, [0, 1])

    def test_h_on_zero(self):
        out = apply_named(make_basis_state(1, [0]), 0, "H")
        np.testing.assert_allclose(out.amplitudes, [RT2, RT2], atol=1e-15)

    def test_rz_on_plus(self):
        plus = apply_named(make_basis_state(1, [0]), 0, "H")
        out = apply_named(plus, 0, "RZ", np.pi / 2)
        expected = np.array([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]) * RT2
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_z_is_exact(self):
        out = apply_named(make_basis_state(1, [1]), 0, "Z")
        np.testing.assert_allclose(out.amplitudes, [0, -1])

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            apply_named(make_basis_state(1, [0]), 0, "T")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_named(make_basis_state(2, [0, 0]), 5, "X")


class TestCz:
    def test_phase_on_11(self):
        out = apply_cz(make_basis_state(2, [1, 1]), 0, 1)
        assert out.amplitudes[3] == -1

    def test_no_phase_on_10(self):
        state = make_basis_state(2, [1, 0])
        out = apply_cz(state, 0, 1)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    def test_involution_and_symmetry(self):
        rng = np.random.default_rng(4)
        state = StateVector(2, oracles.random_state(2, rng))
        back = apply_cz(apply_cz(state, 0, 1), 1, 0)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-14)

    def test_cz_pairs_commute(self):
        rng = np.random.default_rng(5)
        state = StateVector(4, oracles.random_state(4, rng))
        one = apply_cz(apply_cz(state, 0, 1), 2, 3)
        other = apply_cz(apply_cz(state, 2, 3), 0, 1)
        np.testing.assert_allclose(one.amplitudes, other.amplitudes, atol=1e-14)

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            apply_cz(make_basis_state(2, [0, 0]), 1, 1)


class TestMeasure:
    def test_plus_in_x_basis_is_deterministic(self):
        plus = apply_named(make_basis_state(1, [0]), 0, "H")
        spec = MeasurementSpec(0, BlochVector(np.pi / 2, 0))
        for stream in range(5):
            outcome, post = measure(plus, spec, RandomSource(9, stream))
            assert outcome == 0
            assert fidelity(post, plus) >= 1 - 1e-12

    def test_zero_in_z_basis(self):
        outcome, _ = measure(
            make_basis_state(1, [0]), MeasurementSpec(0, BlochVector(0, 0)), RandomSource(0, 0)
        )
        assert outcome == 0

    def test_binomial_statistics(self):
        # |0> measured along x: 50/50 within 3 sigma over 10^4 shots
        state = make_basis_state(1, [0])
        spec = MeasurementSpec(0, BlochVector(np.pi / 2, 0))
        shots = 10_000
        ones = sum(measure(state, spec, RandomSource(42, s))[0] for s in range(shots))
        sigma = np.sqrt(shots * 0.25)
        assert abs(ones - shots / 2) < 3 * sigma

    def test_completeness(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            state = StateVector(2, oracles.random_state(2, rng))
            basis = BlochVector(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            p0, p1 = measurement_projectors(MeasurementSpec(0, basis))
            np.testing.assert_allclose(p0 + p1, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(p0 @ p1, np.zeros((2, 2)), atol=1e-12)
            # probabilities from the two branches sum to one
            amp = state.amplitudes.reshape(2, 2)
            prob = 0.0
            for proj in (p0, p1):
                branch = amp @ proj.T
                prob += float(np.sum(np.abs(branch) ** 2))
            assert abs(prob - 1) < 1e-12

    def test_collapse_idempotent(self):
        rng = np.random.default_rng(8)
        state = StateVector(3, oracles.random_state(3, rng))
        spec = MeasurementSpec(1, BlochVector(1.1, 0.4))
        outcome, post = measure(state, spec, RandomSource(1, 0))
        again, post2 = measure(post, spec, RandomSource(2, 0))
        assert again == outcome
        assert fidelity(post, post2) >= 1 - 1e-12

    def test_forced_outcome(self):
        plus = apply_named(make_basis_state(1, [0]), 0, "H")
        spec = MeasurementSpec(0, BlochVector(np.pi / 2, 0))
        outcome, _ = measure(plus, spec, RandomSource(0, 0), forced=0)
        assert outcome == 0
        with pytest.raises(ValueError):
            measure(plus, spec, RandomSource(0, 0), forced=1)  # orthogonal branch

    def test_denormalised_state_rejected(self):
        dead = StateVector(1, np.zeros(2, dtype=complex))
        with pytest.raises(ArithmeticError):
            measure(dead, MeasurementSpec(0, BlochVector(0, 0)), RandomSource(0, 0))


class TestEveryQubitPosition:
    """Each kernel against the dense oracles at every qubit, or ordered qubit
    pair, of 1- to 7-qubit states, so no stride of the index layout is missed."""

    @staticmethod
    def _state(n: int, seed: int) -> tuple[StateVector, np.ndarray]:
        amps = oracles.random_state(n, np.random.default_rng(seed))
        return StateVector(n, amps), amps.copy()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_single_qubit_gates(self, n):
        state, before = self._state(n, 100 + n)
        rng = np.random.default_rng(n)
        for q in range(n):
            phi = rng.uniform(-np.pi, np.pi)
            theta, axis_phi, alpha = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
            cases = [
                (apply_named(state, q, "X"), oracles.X),
                (apply_named(state, q, "Z"), oracles.Z),
                (apply_named(state, q, "H"), oracles.H),
                (apply_named(state, q, "RZ", phi), oracles.rz(phi)),
                (apply_single_qubit(state, q, BlochVector(theta, axis_phi), alpha),
                 oracles.axis_rotation(theta, axis_phi, alpha)),
            ]
            for out, matrix in cases:
                np.testing.assert_allclose(out.amplitudes, oracles.op_on(matrix, q, n) @ before, atol=1e-12)
        np.testing.assert_array_equal(state.amplitudes, before)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cz(self, n):
        state, before = self._state(n, 200 + n)
        for a in range(n):
            for b in range(n):
                if a != b:
                    out = apply_cz(state, a, b)
                    np.testing.assert_array_equal(out.amplitudes, oracles.cz_dense(a, b, n) @ before)
        np.testing.assert_array_equal(state.amplitudes, before)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_measure_collapses_onto_forced_branch(self, n):
        state, before = self._state(n, 300 + n)
        rng = np.random.default_rng(n)
        for q in range(n):
            basis = BlochVector(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            for forced, ket in enumerate(basis_kets(basis)):
                outcome, post = measure(state, MeasurementSpec(q, basis), RandomSource(0, 0), forced=forced)
                assert outcome == forced
                np.testing.assert_allclose(post.amplitudes, oracles.collapse_dense(before, q, ket, n), atol=1e-12)
        np.testing.assert_array_equal(state.amplitudes, before)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_logical_embedding_and_marginal(self, n):
        # every placement of the work qubits: at the front, at the end, in
        # the middle, and all mixtures
        rng = np.random.default_rng(400 + n)
        for k in range(1, n + 1):
            for logicals in combinations(range(n), k):
                psi = oracles.random_state(k, rng)
                embedded = embed_logical(psi, n, logicals)
                assert embedded.num_qubits == n
                np.testing.assert_array_equal(embedded.amplitudes, oracles.embed_loop(psi, n, logicals))
                probs = oracles.random_state(n, rng).real ** 2
                np.testing.assert_allclose(
                    logical_marginal(probs, n, logicals), oracles.marginal_loop(probs, n, logicals), atol=1e-15
                )


class TestFidelity:
    def test_self(self):
        state = StateVector(2, oracles.random_state(2, np.random.default_rng(0)))
        assert abs(fidelity(state, state) - 1) < 1e-12

    def test_global_phase_invariance(self):
        state = StateVector(2, oracles.random_state(2, np.random.default_rng(1)))
        rotated = StateVector(2, np.exp(0.73j) * state.amplitudes)
        assert abs(fidelity(state, rotated) - 1) < 1e-12

    def test_orthogonal(self):
        assert fidelity(make_basis_state(1, [0]), make_basis_state(1, [1])) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(make_basis_state(1, [0]), make_basis_state(2, [0, 0]))


class TestRandomSource:
    def test_reproducible(self):
        a = [RandomSource(123, 4).random() for _ in range(5)]
        b = [RandomSource(123, 4).random() for _ in range(5)]
        assert a == b

    def test_streams_differ(self):
        assert RandomSource(123, 0).random() != RandomSource(123, 1).random()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(-1)

    @pytest.mark.parametrize(
        "seed, stream, message",
        [
            (2**64, 0, r"seed must be below 2\*\*64, got 18446744073709551616"),
            (0, 2**64, r"stream must be below 2\*\*64, got 18446744073709551616"),
            (0, -1, "stream must be non-negative, got -1"),
        ],
    )
    def test_key_words_beyond_64_bits_rejected(self, seed, stream, message):
        with pytest.raises(ValueError, match=message):
            RandomSource(seed, stream)
        if not seed:
            with pytest.raises(ValueError, match=message):
                RandomSource(0).restart(stream)

    @pytest.mark.parametrize(
        "seed, stream", [(0, 0), (123, 4), (7, 2**64 - 1), (2**63 - 1, 5), (2**63, 1), (2**64 - 1, 0), (2**64 - 1, 9)]
    )
    def test_restart_matches_a_fresh_generator(self, seed, stream):
        source = RandomSource(seed, stream + 1 if stream < 2**64 - 1 else 0)
        source.uniforms(5)
        source.bit()  # leaves half of a 64-bit word buffered for the next bit
        source.restart(stream)
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        assert source.uniforms(64).tolist() == fresh.random(64).tolist()
        source.restart(stream)
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        assert [source.bit() for _ in range(64)] == fresh.integers(0, 2, 64).tolist()

    @pytest.mark.parametrize("seed, stream", [(0, 0), (123, 4), (2**63 - 1, 5)])
    def test_keys_below_two_to_the_63_unchanged(self, seed, stream):
        # a list key goes through int64 there, so it is the exact key
        fresh = np.random.Generator(np.random.Philox(key=[seed, stream]))
        assert RandomSource(seed, stream).uniforms(64).tolist() == fresh.random(64).tolist()

    def test_high_seeds_are_distinct_keys(self):
        # a list key of a seed >= 2**63 goes through float64, which merged
        # 2**63 with 2**63 + 5 and sent 2**64 - 1 to key word 0 on x86
        draws = [RandomSource(seed, 3).uniforms(4).tolist() for seed in (0, 2**63, 2**63 + 5, 2**64 - 1)]
        assert len({tuple(d) for d in draws}) == 4

    @pytest.mark.parametrize("count", [1, 3, 4, 5, 64, 768])
    def test_array_draw_equals_sequential_draws(self, count):
        array, sequential = RandomSource(17, count), RandomSource(17, count)
        assert array.uniforms(count).tolist() == [sequential.random() for _ in range(count)]
        assert array.random() == sequential.random()

    def test_sample_index(self):
        rng = RandomSource(3, 0)
        probs = np.array([0.0, 0.0, 1.0, 0.0])
        assert rng.sample_index(probs) == 2


class TestStateFits:
    # every test fixes the memory figure, so none depends on this host's size
    def test_limit_is_sixteen_bytes_per_amplitude(self, monkeypatch):
        monkeypatch.setattr(core, "_physical_memory", lambda: 1 << 20)
        check_state_fits(16)
        with pytest.raises(ValueError, match="^a 17-qubit state needs 2097152 bytes, more than the 1048576 bytes"):
            check_state_fits(17)

    def test_unknown_memory_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(core, "_physical_memory", lambda: None)
        check_state_fits(200)

    def test_memory_figure_is_positive_or_unknown(self):
        memory = core._physical_memory()
        assert memory is None or memory > 0


def test_norm_preserved_over_long_sequence():
    rng = np.random.default_rng(11)
    state = make_basis_state(4, [0, 0, 0, 0])
    count = 200
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            state = apply_named(state, int(rng.integers(0, 4)), "H")
        elif kind == 1:
            state = apply_single_qubit(
                state,
                int(rng.integers(0, 4)),
                BlochVector(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
                rng.uniform(0, 2 * np.pi),
            )
        else:
            a, b = rng.choice(4, size=2, replace=False)
            state = apply_cz(state, int(a), int(b))
    assert abs(state.norm() - 1) <= 1e-10 * count
