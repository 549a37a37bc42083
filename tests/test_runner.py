"""Executor tests: hybrid vs unitary runs, traces, equivalence, JSON output."""
import json
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hqcsim import core, runner, star, tracker
from hqcsim.circuit_text import parse_circuit
from hqcsim.circuits import (
    Circuit,
    CzGate,
    MultiZRot,
    NamedGate,
    SingleQubit,
    build_grover,
    expand_lambda_z_steps,
    triple_control_z_circuit,
)
from hqcsim.core import StateVector, make_basis_state
from hqcsim.runner import (
    ExecutionConfig,
    corrected_histogram,
    random_circuit,
    replay_flow,
    results_to_json,
    run_both,
    run_hqcm,
    run_unitary,
    total_variation,
    verify_equivalence,
)
from hqcsim.tracker import Gf2Expr, InfoFlowVector, absorb_rotation_outcome, angle_parity, init_flow, propagate

import oracles

SRC = Path(__file__).parent.parent / "src"


class TestRunUnitary:
    def test_multi_z_is_diagonal(self):
        circuit = Circuit(2, 0, [MultiZRot((0, 1), 0.9)])
        state, _ = run_unitary(circuit, make_basis_state(2, [1, 1]))
        assert abs(state.amplitudes[3] - np.exp(-0.45j)) < 1e-12

    def test_uniform_distribution_from_hadamards(self):
        circuit = Circuit(2, 0, [NamedGate(0, "H"), NamedGate(1, "H")])
        _, dist = run_unitary(circuit)
        for key in ("00", "01", "10", "11"):
            assert abs(dist[key] - 0.25) < 1e-12

    def test_distribution_marginalises_works(self):
        # one work qubit in |+>: logical distribution ignores it
        circuit = Circuit(1, 1, [NamedGate(0, "X")])
        _, dist = run_unitary(circuit)
        assert abs(dist["1"] - 1.0) < 1e-12
        _, full = run_unitary(circuit, include_work=True)
        assert abs(full["11"] - 0.5) < 1e-12 and abs(full["10"] - 0.5) < 1e-12

    def test_matches_dense_circuit(self):
        rng = np.random.default_rng(0)
        circuit = random_circuit(3, 12, rng)
        state, _ = run_unitary(circuit)
        start = np.zeros(8, dtype=complex)
        start[0] = 1
        expected = oracles.circuit_dense(circuit) @ start
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-10)


class TestRunHqcm:
    def test_empty_circuit_reads_input(self):
        circuit = Circuit(2, 0, [])
        results = run_hqcm(circuit, ExecutionConfig(shots=3), make_basis_state(2, [1, 0]))
        for result in results:
            assert result.raw == (1, 0)
            assert result.corrected == (1, 0)
            assert result.flow == InfoFlowVector([0, 0], [0, 0])

    def test_forced_outcomes_steer_rotations(self):
        circuit = Circuit(1, 0, [NamedGate(0, "H"), MultiZRot((0,), np.pi / 2)])
        results = run_hqcm(circuit, ExecutionConfig(forced_outcomes=[1]))
        record = results[0].rotations[0]
        assert record.outcome == 1
        assert results[0].flow.z == [1]

    def test_forced_length_validated(self):
        circuit = Circuit(1, 0, [MultiZRot((0,), 0.3)])
        with pytest.raises(ValueError):
            run_hqcm(circuit, ExecutionConfig(forced_outcomes=[0, 1]))

    def test_symbolic_multi_shot_rejected(self):
        circuit = Circuit(1, 0, [MultiZRot((0,), 0.3)])
        with pytest.raises(ValueError):
            run_hqcm(circuit, ExecutionConfig(symbolic=True, shots=2))

    def test_deterministic_given_seed(self):
        circuit = random_circuit(3, 8, np.random.default_rng(1))
        a = run_hqcm(circuit, ExecutionConfig(shots=20, seed=5))
        b = run_hqcm(circuit, ExecutionConfig(shots=20, seed=5))
        assert [r.raw for r in a] == [r.raw for r in b]
        assert [r.corrected for r in a] == [r.corrected for r in b]
        c = run_hqcm(circuit, ExecutionConfig(shots=20, seed=6))
        assert [r.raw for r in a] != [r.raw for r in c]

    def test_shots_are_order_independent(self):
        circuit = random_circuit(2, 6, np.random.default_rng(2))
        many = run_hqcm(circuit, ExecutionConfig(shots=5, seed=9))
        few = run_hqcm(circuit, ExecutionConfig(shots=1, seed=9))
        assert many[0].raw == few[0].raw

    def test_single_rotation_statistics(self):
        # Rz(theta) on |+> keeps a 50/50 readout; corrected histogram agrees
        circuit = Circuit(1, 0, [NamedGate(0, "H"), MultiZRot((0,), 1.1)])
        results = run_hqcm(circuit, ExecutionConfig(shots=2000, seed=3))
        histogram = corrected_histogram(results)
        assert abs(histogram.get("0", 0) - 1000) < 4 * np.sqrt(2000 * 0.25)

    def test_work_qubits_excluded_by_default(self):
        circuit = Circuit(1, 1, [NamedGate(0, "X")])
        results = run_hqcm(circuit, ExecutionConfig())
        assert results[0].raw == (1,)
        with_work = run_hqcm(circuit, ExecutionConfig(include_work_readout=True))
        assert len(with_work[0].raw) == 2


class TestTrace:
    def test_row_count_is_tau_max_plus_one(self):
        circuit = triple_control_z_circuit()
        results = run_hqcm(circuit, ExecutionConfig(trace=True, seed=0))
        assert len(results[0].trace.rows) == circuit.tau_max + 1

    def test_row_zero_is_all_zero(self):
        circuit = triple_control_z_circuit()
        results = run_hqcm(circuit, ExecutionConfig(trace=True, seed=1))
        row = results[0].trace.rows[0]
        assert all(c == 0 for c in row.ix + row.iz)

    def test_numeric_replay_reproduces_flow(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            circuit = random_circuit(4, 10, rng)
            results = run_hqcm(circuit, ExecutionConfig(seed=trial, trace=True))
            outcomes = [record.outcome for record in results[0].rotations]
            assert replay_flow(circuit, outcomes) == results[0].flow

    def test_symbolic_binding_matches_numeric_run(self):
        circuit = triple_control_z_circuit()
        symbolic = run_hqcm(circuit, ExecutionConfig(symbolic=True, seed=11))
        numeric = run_hqcm(circuit, ExecutionConfig(seed=11))
        assert symbolic[0].flow == numeric[0].flow
        assert symbolic[0].corrected == numeric[0].corrected

    def test_symbolic_table_entries(self):
        circuit = triple_control_z_circuit()
        trace = run_hqcm(circuit, ExecutionConfig(symbolic=True, seed=0))[0].trace
        row9 = trace.rows[9]
        expected_x4 = Gf2Expr.var("m31") ^ Gf2Expr.var("m32") ^ Gf2Expr.var("m71") ^ Gf2Expr.var("m72")
        assert row9.ix == [0, 0, 0, expected_x4, 0, 0]

    def test_cancelled_symbolic_component_is_int_zero(self):
        circuit = parse_circuit("qubits 2\nMZROT pi/3 1\nH 1\nCZ 1 2\nCZ 1 2\n")
        config = ExecutionConfig(symbolic=True, seed=0)
        payload = json.loads(results_to_json(circuit, config, run_hqcm(circuit, config)))
        assert payload["trace"][4]["i_z"] == [0, 0]


class TestCompiledFlow:
    def test_propagation_does_not_grow_with_shots(self, monkeypatch):
        calls = []
        original = tracker.propagate
        monkeypatch.setattr(tracker, "propagate", lambda *args: calls.append(args) or original(*args))
        circuit = build_grover(2, 3)
        counts = []
        for shots in (1, 10):
            calls.clear()
            run_hqcm(circuit, ExecutionConfig(shots=shots, seed=1))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_final_flow_matches_stepwise_propagation(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            gates = random_circuit(6, 14, rng).gates
            steps = [[g] for g in gates[:7]] + expand_lambda_z_steps((0, 1, 2), 3, (4, 5)) + [[g] for g in gates[7:]]
            circuit = Circuit.from_steps(4, 2, steps)
            forced = [int(b) for b in rng.integers(0, 2, circuit.rotation_count())]
            result = run_hqcm(circuit, ExecutionConfig(seed=trial, kappa="random", forced_outcomes=forced))[0]
            flow = init_flow(circuit.num_qubits)
            outcomes = iter(forced)
            for gate in circuit.gates:
                if isinstance(gate, NamedGate) and gate.name == "H":
                    flow = propagate(flow, ("H", gate.q))
                elif isinstance(gate, CzGate):
                    flow = propagate(flow, ("CZ", gate.a, gate.b))
                elif isinstance(gate, MultiZRot):
                    flow = absorb_rotation_outcome(flow, gate.leaves, next(outcomes))
            assert [r.outcome for r in result.rotations] == forced
            assert result.flow == flow
            assert replay_flow(circuit, forced) == flow


class TestHotPath:
    def test_hybrid_runs_never_call_the_reference_construction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reference star construction on the hot path")

        for owner, name in ((star, "multi_z_rotation"), (star, "reset_to_zero"), (star, "measure"), (core, "measure")):
            monkeypatch.setattr(owner, name, refuse)
        circuit = triple_control_z_circuit()
        run_hqcm(circuit, ExecutionConfig(shots=3, seed=1, kappa="random", trace=True))
        run_both(circuit, ExecutionConfig(mode="both", shots=3, seed=2))
        assert verify_equivalence(circuit, trials=2, seed=3, random_inputs=True).passed

    def test_verify_builds_no_distribution(self, monkeypatch):
        def refuse(bits):
            raise AssertionError("verify_equivalence built a bitstring distribution")

        monkeypatch.setattr(runner, "_bits_to_string", refuse)
        assert verify_equivalence(triple_control_z_circuit(), trials=2, seed=4, random_inputs=True).passed

    def test_verify_computes_a_fixed_input_reference_once(self, monkeypatch):
        calls = []
        unitary_state = runner._unitary_state
        monkeypatch.setattr(runner, "_unitary_state", lambda *args: calls.append(1) or unitary_state(*args))
        assert verify_equivalence(triple_control_z_circuit(), trials=20).passed
        assert len(calls) == 1
        assert verify_equivalence(triple_control_z_circuit(), trials=3, random_inputs=True).passed
        assert len(calls) == 1 + 3

    def test_input_embedded_once_per_run_or_random_input(self, monkeypatch):
        calls = []
        embed = runner.embed_logical
        monkeypatch.setattr(runner, "embed_logical", lambda *args: calls.append(1) or embed(*args))
        circuit = triple_control_z_circuit()
        expected = 0
        for run, embeddings in (
            (lambda: run_hqcm(circuit, ExecutionConfig(shots=5, seed=1)), 1),
            (lambda: run_both(circuit, ExecutionConfig(mode="both", shots=5, seed=1)), 1),
            (lambda: run_unitary(circuit), 1),
            (lambda: verify_equivalence(circuit, trials=4), 1),
            (lambda: verify_equivalence(circuit, trials=4, random_inputs=True), 4),
        ):
            run()
            expected += embeddings
            assert len(calls) == expected

    def test_angle_signs_come_from_the_tracker_rule(self, monkeypatch):
        calls = []
        adapt_angle = tracker.adapt_angle
        monkeypatch.setattr(tracker, "adapt_angle", lambda *args: calls.append(args) or adapt_angle(*args))
        circuit = Circuit(2, 0, [NamedGate(0, "H"), NamedGate(0, "RZ", 0.3), MultiZRot((0, 1), 0.7),
                                 NamedGate(1, "RZ", -0.2)])
        results = run_hqcm(circuit, ExecutionConfig(shots=8, seed=5))
        patterns = len({r.rotations[0].outcome for r in results})
        assert patterns == 2
        # each outcome pattern's records adapt the MZROT angle once, and the
        # run's one trajectory adapts both RZ angles and the MZROT angle once
        assert len(calls) == patterns * 1 + 3
        assert {theta for _, theta in calls} == {0.3, 0.7, -0.2}

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap settings are glibc's")
    def test_wide_trials_reuse_heap_memory(self):
        # Each gate frees a 256 KiB state; with glibc's default heap trimming
        # 20 trials took about 19 000 minor page faults, each paid in the kernel.
        circuit = random_circuit(14, 12, np.random.default_rng(3))
        verify_equivalence(circuit, trials=2, random_inputs=True)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert verify_equivalence(circuit, trials=20, random_inputs=True).passed
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 20 * 20


class TestConfigValidation:
    CIRCUIT = Circuit(2, 0, [NamedGate(0, "H"), MultiZRot((0, 1), 0.7), MultiZRot((1,), 0.2)])

    @pytest.mark.parametrize(
        "config, message",
        [
            (ExecutionConfig(kappa="bogus"), "kappa must be 'zero' or 'random' .*, got 'bogus'"),
            (ExecutionConfig(kappa=(0, 1)), r"kappa must be 'zero' or 'random' .*, got \(0, 1\)"),
            (ExecutionConfig(kappa=[0, 1]), r"per rotation: MultiZRot.kappa\), got \[0, 1\]"),
            (ExecutionConfig(forced_outcomes=[0]), "forced_outcomes has 1 entries for 2 rotations"),
            (ExecutionConfig(forced_outcomes=[True, 0]), r"forced_outcomes\[0\] must be the int 0 or 1, got True"),
            (ExecutionConfig(forced_outcomes=[0, 1.0]), r"forced_outcomes\[1\] must be the int 0 or 1, got 1.0"),
            (ExecutionConfig(forced_outcomes=[0, -1]), r"forced_outcomes\[1\] must be the int 0 or 1, got -1"),
            (ExecutionConfig(seed=2**64), r"seed must be below 2\*\*64, got 18446744073709551616"),
        ],
    )
    def test_rejected_before_any_state_work(self, monkeypatch, config, message):
        def refuse(*args):
            raise AssertionError("state work before the config was validated")

        monkeypatch.setattr(runner, "embed_logical", refuse)
        for run in (lambda: run_hqcm(self.CIRCUIT, config), lambda: run_both(self.CIRCUIT, config)):
            with pytest.raises(ValueError, match=message):
                run()

    @pytest.mark.parametrize("kappa", [2, True, 1.0])
    def test_gate_kappa_is_an_int_bit(self, kappa):
        with pytest.raises(ValueError, match=f"kappa must be the int 0 or 1, got {kappa!r}"):
            replace(self.CIRCUIT.gates[1], kappa=kappa)


def logging_source(log: list):
    """A RandomSource class whose instances append (stream, call, value) to
    `log` for every draw, an array draw value by value, and list themselves
    in its `instances`."""

    class LoggingSource(core.RandomSource):
        instances = []

        def __init__(self, seed, stream=0):
            super().__init__(seed, stream)
            self.instances.append(self)

        def random(self):
            value = super().random()
            log.append((self.stream, "random", value))
            return value

        def uniforms(self, count):
            values = super().uniforms(count)
            log.extend((self.stream, "random", value) for value in values.tolist())
            return values

        def bit(self):
            value = super().bit()
            log.append((self.stream, "bit", value))
            return value

    return LoggingSource


def interleaved_shot(circuit, config, shot, initial, source):
    """One hybrid shot with each rotation's draws made where the rotation
    runs (`star.draw_rotation`, then `star.rotation_action` on the live
    state), and the flow stepped gate by gate through the tracker rules.
    Returns (records, state before readout, final flow, readout index)."""
    rng = source(config.seed, shot)
    state, flow, records = initial, init_flow(circuit.num_qubits), []
    for gate in circuit.gates:
        if isinstance(gate, NamedGate) and gate.name == "RZ":
            state = core.apply_named(state, gate.q, "RZ", tracker.adapt_angle(flow.x[gate.q], gate.phi))
        elif isinstance(gate, NamedGate):
            state = core.apply_named(state, gate.q, gate.name)
            if gate.name == "H":
                flow = propagate(flow, ("H", gate.q))
        elif isinstance(gate, SingleQubit):
            axis = tracker.adapt_axis(flow.x[gate.q], flow.z[gate.q], core.BlochVector(gate.theta, gate.phi))
            state = core.apply_single_qubit(state, gate.q, axis, gate.alpha)
        elif isinstance(gate, CzGate):
            state = core.apply_cz(state, gate.a, gate.b)
            flow = propagate(flow, ("CZ", gate.a, gate.b))
        else:
            r = len(records)
            kappa = rng.bit() if config.kappa == "random" else gate.kappa
            forced = None if config.forced_outcomes is None else config.forced_outcomes[r]
            theta = tracker.adapt_angle(angle_parity(flow, gate.leaves), gate.theta)
            record = star.draw_rotation(gate.leaves, theta, kappa, rng, forced, gate.theta)
            state = star.rotation_action(state, gate.leaves, theta, record.outcome)
            records.append(record)
            flow = absorb_rotation_outcome(flow, gate.leaves, record.outcome)
    return records, state, flow, rng.sample_index(state.probabilities())


def special_angle_circuit() -> Circuit:
    """Rotations at 0, +-pi and 2pi (no reset draw) among general ones, with
    a work qubit, so every draw rule and gate kind appears."""
    return parse_circuit(
        "qubits 3 work 1\nH 1\nH 2\nMZROT 0 1 2\nSQ 3 0.4 1.2 2.1\nMZROT pi 1\nRZ 2 0.3\n"
        "LAMBDA2 pi/3 1 2 : 3\nMZROT -pi 2 3\nCZ 1 3\nMZROT 2pi 1 3\nH 3\nMZROT 0.9 3\n"
    )


class TestDrawThenTrajectory:
    CIRCUITS = [special_angle_circuit(), *(random_circuit(4, 12, np.random.default_rng(50 + k)) for k in range(3))]

    def cases(self):
        """(circuit, config) pairs; one gives every rotation its own kappa."""
        for circuit in self.CIRCUITS:
            rotations = circuit.rotation_count()
            bits = np.random.default_rng(rotations)
            kappas = iter(bits.integers(0, 2, rotations).tolist())
            signed = [replace(g, kappa=next(kappas)) if isinstance(g, MultiZRot) else g for g in circuit.gates]
            yield circuit, ExecutionConfig(shots=12, seed=3)
            yield circuit, ExecutionConfig(shots=12, seed=4, kappa="random", include_work_readout=True)
            yield replace(circuit, gates=signed), ExecutionConfig(shots=12, seed=5)
            yield circuit, ExecutionConfig(shots=12, seed=6, forced_outcomes=bits.integers(0, 2, rotations).tolist())
            yield circuit, ExecutionConfig(shots=12, seed=7, kappa="random", forced_outcomes=[1] * rotations)

    def test_draws_match_interleaved_rotations(self, monkeypatch):
        for circuit, config in self.cases():
            interleaved_log, run_log = [], []
            initial = runner._embed_logical(circuit, None)
            expected = [
                interleaved_shot(circuit, config, shot, initial, logging_source(interleaved_log))
                for shot in range(config.shots)
            ]
            source = logging_source(run_log)
            monkeypatch.setattr(runner, "RandomSource", source)
            results = run_hqcm(circuit, config)
            monkeypatch.undo()
            # the run re-keys one source per shot and, without random kappa,
            # makes each shot's draws as one array: the same numbers in order
            assert len(source.instances) == 1
            assert run_log == interleaved_log
            compiled = runner._compile_flow(circuit)
            for result, (records, state, flow, index) in zip(results, expected):
                assert result.rotations == records
                assert result.flow == flow
                reported = result.reported_qubits
                assert result.raw == tuple((index >> q) & 1 for q in reported)
                assert result.corrected == tuple(((index >> q) ^ flow.x[q]) & 1 for q in reported)
                outcomes = sum(record.outcome << r for r, record in enumerate(records))
                trajectory = runner._trajectory(compiled, outcomes, initial)
                assert np.array_equal(trajectory.amplitudes, state.amplitudes)

    def test_both_mode_matches_per_shot_recomputation(self):
        for circuit, config in self.cases():
            results, reference, _, _ = run_both(circuit, config)
            initial = runner._embed_logical(circuit, None)
            for shot, result in enumerate(results):
                records, state, flow, index = interleaved_shot(circuit, config, shot, initial, core.RandomSource)
                for name, q in tracker.byproduct_to_unitary(flow):
                    state = core.apply_named(state, q, name)
                assert result.fidelity == core.fidelity(state, reference)
                assert result.raw == tuple((index >> q) & 1 for q in result.reported_qubits)
                assert result.rotations == records

    def test_one_trajectory_per_hqcm_run(self, monkeypatch):
        calls = []
        trajectory = runner._trajectory
        monkeypatch.setattr(runner, "_trajectory", lambda *args: calls.append(args[1]) or trajectory(*args))
        circuit = special_angle_circuit()
        rotations = circuit.rotation_count()
        for config in (
            ExecutionConfig(shots=50, seed=1, forced_outcomes=([1, 0] * rotations)[:rotations]),
            ExecutionConfig(shots=50, seed=1, forced_outcomes=[0] * rotations, kappa="random"),
            ExecutionConfig(shots=50, seed=2, kappa="random", include_work_readout=True),
        ):
            calls.clear()
            run_hqcm(circuit, config)
            assert len(calls) == 1
        calls.clear()
        run_hqcm(Circuit(3, 0, [NamedGate(0, "H"), CzGate(0, 1), SingleQubit(2, 0.3, 0.1, 0.9)]),
                 ExecutionConfig(shots=50, seed=2))
        assert len(calls) == 1
        calls.clear()
        results = run_hqcm(circuit, ExecutionConfig(shots=100, seed=3))
        distinct = {tuple(record.outcome for record in r.rotations) for r in results}
        assert 1 < len(distinct) < 100
        # the one trajectory is the first shot's pattern; the others are frames
        assert calls == [sum(record.outcome << r for r, record in enumerate(results[0].rotations))]
        calls.clear()
        run_both(circuit, ExecutionConfig(mode="both", shots=100, seed=3))
        # both mode checks every pattern: one trajectory each, plus the
        # unitary reference, the all-zero pattern
        assert len(calls) == len(set(calls[1:])) + 1 == len(distinct) + 1 and calls[0] == 0
        calls.clear()
        assert verify_equivalence(circuit, trials=5, seed=3).passed
        assert len(calls) == 1 + 5

    def test_frames_match_per_pattern_trajectories(self):
        # work qubits, random and per-gate kappa, forced outcomes and
        # theta in {0, +-pi, 2pi}; each pattern beyond the first is a frame
        cases = [*self.cases()]
        for circuit in (build_grover(3, 5), triple_control_z_circuit()):
            cases += [(circuit, ExecutionConfig(shots=40, seed=8)),
                      (circuit, ExecutionConfig(shots=40, seed=9, kappa="random"))]
        patterns = [oracles.check_frames_against_trajectories(circuit, config) for circuit, config in cases]
        assert sum(patterns) > 5 * len(cases)

    def test_wide_run_holds_few_states(self):
        # 14 rotations make 2^14 outcome patterns, so 32 shots all differ and
        # each reads out through its own frame; a run that kept each
        # pattern's state or shifted cumulative would hold 32 arrays of
        # 128-256 KiB
        n = 14
        gates = [NamedGate(q, "H") for q in range(n)] + [MultiZRot((q, (q + 1) % n), 0.3 + q) for q in range(n)]
        circuit = Circuit(n, 0, gates + [NamedGate(q, "H") for q in range(n)])
        # a first run in a process allocates about 0.75 MB once (lazy imports)
        run_hqcm(Circuit(2, 0, [NamedGate(0, "H"), MultiZRot((0, 1), 0.3)]), ExecutionConfig(shots=2))
        tracemalloc.start()
        try:
            results = run_hqcm(circuit, ExecutionConfig(shots=32, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len({tuple(record.outcome for record in r.rotations) for r in results}) == 32
        assert peak < 6 * (16 << n), peak / (16 << n)


class TestInitialStateNorm:
    @pytest.mark.parametrize("scale", [2.0, 0.0, 1 + 1e-6])
    def test_non_unit_norm_rejected(self, scale):
        circuit = Circuit(2, 0, [NamedGate(0, "H"), MultiZRot((0, 1), 0.7)])
        initial = StateVector(2, scale * make_basis_state(2, [0, 1]).amplitudes)
        for run in (
            lambda: run_hqcm(circuit, ExecutionConfig(seed=0), initial),
            lambda: run_both(circuit, ExecutionConfig(mode="both", seed=0), initial),
            lambda: run_unitary(circuit, initial),
        ):
            with pytest.raises(ValueError, match="initial state must have norm 1, got "):
                run()

    def test_rounding_level_drift_accepted(self):
        circuit = Circuit(2, 0, [NamedGate(0, "H"), MultiZRot((0, 1), 0.7)])
        initial = StateVector(2, (1 + 1e-12) * make_basis_state(2, [0, 1]).amplitudes)
        results, _, _, _ = run_both(circuit, ExecutionConfig(mode="both", shots=2, seed=0), initial)
        assert min(r.fidelity for r in results) >= 1 - 1e-10


class TestEquivalence:
    def test_unitary_only_circuit_is_exact(self):
        circuit = Circuit(2, 0, [NamedGate(0, "H"), CzGate(0, 1), SingleQubit(1, 0.3, 0.4, 0.5)])
        report = verify_equivalence(circuit, trials=3, seed=0)
        assert report.min_fidelity >= 1 - 1e-12
        assert report.passed

    def test_random_circuits(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            circuit = random_circuit(4, 10, rng)
            report = verify_equivalence(circuit, trials=3, seed=trial)
            assert report.passed, (trial, report.min_fidelity)

    def test_triple_control_on_random_inputs(self):
        report = verify_equivalence(triple_control_z_circuit(), trials=10, seed=2, random_inputs=True)
        assert report.min_fidelity >= 1 - 1e-10

    def test_random_kappa_still_equivalent(self):
        circuit = Circuit(2, 0, [NamedGate(0, "H"), MultiZRot((0, 1), 0.8), NamedGate(1, "H")])
        results, _, _, _ = run_both(circuit, ExecutionConfig(shots=20, seed=7, kappa="random"))
        assert min(r.fidelity for r in results) >= 1 - 1e-10

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_equivalence(Circuit(1, 0, [NamedGate(0, "H")]), trials=0)

    def test_gate_kappa_applied(self):
        circuit = Circuit(1, 0, [MultiZRot((0,), 0.4, kappa=1)])
        results = run_hqcm(circuit, ExecutionConfig(seed=0))
        assert results[0].rotations[0].kappa == 1
        results, _, _, _ = run_both(circuit, ExecutionConfig(seed=0, shots=5))
        assert min(r.fidelity for r in results) >= 1 - 1e-10


class TestRunBoth:
    def test_fidelity_and_tv(self):
        circuit = Circuit(2, 0, [NamedGate(0, "H"), MultiZRot((0, 1), np.pi / 3), NamedGate(0, "H")])
        results, state, dist, tv = run_both(circuit, ExecutionConfig(shots=400, seed=1))
        assert min(r.fidelity for r in results) >= 1 - 1e-10
        assert tv < 0.1
        assert abs(sum(dist.values()) - 1) < 1e-12

    def test_total_variation_basics(self):
        assert total_variation({"0": 1.0}, {"0": 1.0}) == 0
        assert abs(total_variation({"0": 1.0}, {"1": 1.0}) - 1.0) < 1e-12

    def test_tv_independent_of_string_hashing(self):
        script = (
            "import numpy as np\n"
            "from hqcsim.runner import ExecutionConfig, random_circuit, run_both\n"
            "circuit = random_circuit(4, 10, np.random.default_rng(7))\n"
            "print(repr(run_both(circuit, ExecutionConfig(shots=3, seed=8))[3]))\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=60)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


class TestJson:
    def test_byte_identical_reruns(self):
        circuit = build_grover(2, 3)
        config = ExecutionConfig(shots=10, seed=42)
        one = results_to_json(circuit, config, run_hqcm(circuit, config))
        two = results_to_json(circuit, config, run_hqcm(circuit, config))
        assert one == two

    def test_payload_shape(self):
        circuit = Circuit(1, 0, [NamedGate(0, "H"), MultiZRot((0,), 0.3)])
        config = ExecutionConfig(shots=2, seed=0)
        payload = json.loads(results_to_json(circuit, config, run_hqcm(circuit, config)))
        assert payload["config"]["shots"] == 2
        assert payload["circuit"]["tau_max"] == 2
        assert len(payload["shots"]) == 2
        shot = payload["shots"][0]
        assert set(shot) == {"s", "s_corrected", "outcomes"}
        assert sum(payload["histogram"].values()) == 2

    def test_trace_serialised(self):
        circuit = triple_control_z_circuit()
        config = ExecutionConfig(symbolic=True, seed=0)
        payload = json.loads(results_to_json(circuit, config, run_hqcm(circuit, config)))
        assert len(payload["trace"]) == 10
        assert payload["trace"][9]["i_x"][3] == "m31+m32+m71+m72"


class TestGroverRuns:
    def test_two_qubit_search_always_succeeds(self):
        circuit = build_grover(2, 2)
        _, dist = run_unitary(circuit)
        assert abs(dist["01"] - 1.0) < 1e-9  # index 2 -> bits (0,1)
        results = run_hqcm(circuit, ExecutionConfig(shots=50, seed=0))
        assert corrected_histogram(results) == {"01": 50}

    def test_three_qubit_search_probability(self):
        circuit = build_grover(3, 6)
        _, dist = run_unitary(circuit)
        expected = oracles.grover_success_probability(3, 6, 2)
        assert abs(dist["011"] - expected) < 1e-9

    def test_hqcm_mode_three_qubits(self):
        circuit = build_grover(3, 6)
        results = run_hqcm(circuit, ExecutionConfig(shots=200, seed=8))
        hits = corrected_histogram(results).get("011", 0)
        expected = oracles.grover_success_probability(3, 6, 2)
        sigma = np.sqrt(200 * expected * (1 - expected))
        assert abs(hits - 200 * expected) < 4 * sigma
