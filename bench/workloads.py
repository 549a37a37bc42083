"""The benchmark's workloads.

Each workload turns the run's seed into circuit text (the only input the
program sees), parses that text at set-up, runs one closed-loop job per
iteration through the same `runner` functions the CLI calls, and checks each
job's output outside the timed region.  Every check is one that a correct
simulator fails with negligible probability (at most about 1e-12 per check).
"""
from __future__ import annotations

import json
import math
import random

# Circuits parsed at set-up for the workloads that use a fresh circuit per
# job.  The loop cycles through the pool, which is sized well above the job
# count of a 20 s run at today's speed (at most about 300), so that per-circuit
# caching cannot hide per-circuit costs until jobs get about 7x faster.
POOL_SIZE = 2000

# Failure probability allowed per statistical check.
CHECK_DELTA = 1e-12
FIDELITY_BOUND = 1.0 - 1e-10


def random_circuit_text(rng: random.Random, num_qubits: int, num_gates: int) -> str:
    """Circuit text with gates drawn uniformly from H, RZ, SQ, CZ and MZROT on
    at most three distinct qubits, the gate mix of `runner.random_circuit`."""
    lines = [f"qubits {num_qubits}"]
    for _ in range(num_gates):
        kind = rng.randrange(5)
        q = rng.randrange(num_qubits) + 1
        if kind == 0:
            lines.append(f"H {q}")
        elif kind == 1:
            lines.append(f"RZ {q} {rng.uniform(0, 2 * math.pi)!r}")
        elif kind == 2:
            theta, phi, alpha = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            lines.append(f"SQ {q} {theta!r} {phi!r} {alpha!r}")
        elif kind == 3:
            a, b = rng.sample(range(1, num_qubits + 1), 2)
            lines.append(f"CZ {a} {b}")
        else:
            leaves = rng.sample(range(1, num_qubits + 1), rng.randint(1, min(3, num_qubits)))
            lines.append(f"MZROT {rng.uniform(0, 2 * math.pi)!r} " + " ".join(map(str, leaves)))
    return "\n".join(lines) + "\n"


def grover_text(n: int, marked: int) -> str:
    return f"qubits {n} work {max(n - 2, 0)}\nGROVER {n} {marked}\n"


def bits_of(index: int, width: int) -> str:
    """Readout key of a basis index: qubit 0 first, as in the program's JSON."""
    return "".join(str((index >> q) & 1) for q in range(width))


def tv_bound(shots: int, outcomes: int, delta: float = CHECK_DELTA) -> float:
    """Total-variation distance an empirical histogram of `shots` draws over
    `outcomes` categories exceeds with probability at most delta
    (Bretagnolle-Huber-Carol: P(TV >= t) <= 2^k exp(-2 n t^2))."""
    return math.sqrt((outcomes * math.log(2) + math.log(1 / delta)) / (2 * shots))


def binomial_slack(trials: int, delta: float = CHECK_DELTA) -> float:
    """Two-sided Hoeffding deviation of a success fraction over `trials`."""
    return math.sqrt(math.log(2 / delta) / (2 * trials))


def grover_probability(n: int, iterations: int) -> float:
    """Analytic success probability sin^2((2k+1) asin(2^(-n/2)))."""
    return math.sin((2 * iterations + 1) * math.asin(2 ** (-n / 2))) ** 2


def check_histogram(histogram: dict[str, int], distribution: dict[str, float], shots: int) -> bool:
    if sum(histogram.values()) != shots or set(histogram) - set(distribution):
        return False
    tv = 0.5 * sum(abs(histogram.get(key, 0) / shots - p) for key, p in distribution.items())
    return tv <= tv_bound(shots, len(distribution))


def check_grover_hits(hits: int, shots: int, probability: float) -> bool:
    return shots > 0 and abs(hits / shots - probability) <= binomial_slack(shots)


def _evaluate(component, binding: dict[str, int]) -> int:
    if isinstance(component, int):
        return component & 1
    if component == "0":
        return 0
    value = 0
    for label in component.split("+"):
        value ^= binding[label] & 1
    return value


def check_symbolic_readout(payload: dict) -> bool:
    """s_corrected must equal s XOR the final trace row's i_x, evaluated with
    the outcome labels and values the same JSON reports."""
    trace = payload["trace"]
    binding = {o["label"]: o["value"] for row in trace for o in row["outcomes"]}
    final_ix = trace[-1]["i_x"]
    num_logical = payload["circuit"]["num_logical"]
    for shot in payload["shots"]:
        raw, corrected = shot["s"], shot["s_corrected"]
        if len(raw) != num_logical or len(corrected) != num_logical:
            return False
        for q in range(num_logical):
            if int(corrected[q]) != int(raw[q]) ^ _evaluate(final_ix[q], binding):
                return False
    return True


def check_report(report) -> bool:
    return report.trials == 1 and report.passed and report.min_fidelity >= FIDELITY_BOUND


def check_table1(golden: str) -> bool:
    """The symbolic trace the CLI's `table1` command prints equals `golden`."""
    from hqcsim import runner
    from hqcsim.circuits import triple_control_z_circuit

    results = runner.run_hqcm(triple_control_z_circuit(), runner.ExecutionConfig(symbolic=True, seed=0))
    return results[0].trace.format_text() == golden


class Workload:
    """One benchmark workload; subclasses fill in texts, job and check.

    The program is imported in `prepare`, which set-up times, and jobs reach
    it through module attributes so that the traced run's wrappers apply.
    """

    name = ""
    shots_per_job = 1
    trace_jobs = 20  # jobs in the traced run, fixed so its counts repeat exactly

    def texts(self, seed: int) -> list[str]:
        raise NotImplementedError

    def prepare(self, texts: list[str]) -> None:
        from hqcsim import circuit_text, runner

        self.runner = runner
        self.circuits = [circuit_text.parse_circuit(text) for text in texts]

    def job(self, k: int, job_seed: int):
        raise NotImplementedError

    def check(self, k: int, output) -> bool:
        raise NotImplementedError

    def check_run(self) -> bool:
        """Run-level check over every job checked so far."""
        return True

    def circuit(self, k: int):
        return self.circuits[k % len(self.circuits)]

    def hybrid_json(self, k: int, **config) -> str:
        """`run_hqcm` then `results_to_json`, the CLI's `run` and `grover` path."""
        circuit = self.circuit(k)
        config = self.runner.ExecutionConfig(**config)
        return self.runner.results_to_json(circuit, config, self.runner.run_hqcm(circuit, config))


class ShotsSmall(Workload):
    name = "shots_small"
    shots_per_job = 100
    trace_jobs = 30

    def texts(self, seed):
        rng = random.Random(seed)
        return [random_circuit_text(rng, 4, 10) for _ in range(POOL_SIZE)]

    def job(self, k, job_seed):
        return self.hybrid_json(k, shots=self.shots_per_job, seed=job_seed)

    def check(self, k, output):
        _, distribution = self.runner.run_unitary(self.circuit(k))
        return check_histogram(json.loads(output)["histogram"], distribution, self.shots_per_job)


class GroverDeep(Workload):
    name = "grover_deep"
    n = 5
    shots_per_job = 2
    trace_jobs = 20

    def __init__(self):
        self.hits = self.shots = 0

    def texts(self, seed):
        self.marked = random.Random(seed).randrange(2**self.n)
        return [grover_text(self.n, self.marked)]

    def prepare(self, texts):
        super().prepare(texts)
        from hqcsim.circuits import grover_iterations

        self.probability = grover_probability(self.n, grover_iterations(self.n))

    def job(self, k, job_seed):
        return self.hybrid_json(k, shots=self.shots_per_job, seed=job_seed)

    def check(self, k, output):
        histogram = json.loads(output)["histogram"]
        if sum(histogram.values()) != self.shots_per_job:
            return False
        self.hits += histogram.get(bits_of(self.marked, self.n), 0)
        self.shots += self.shots_per_job
        return True

    def check_run(self):
        return check_grover_hits(self.hits, self.shots, self.probability)


class WideVerify(Workload):
    name = "wide_verify"
    trace_jobs = 20

    def texts(self, seed):
        rng = random.Random(seed)
        return [random_circuit_text(rng, 14, 12) for _ in range(POOL_SIZE)]

    def job(self, k, job_seed):
        return self.runner.verify_equivalence(self.circuit(k), trials=1, seed=job_seed, random_inputs=True)

    def check(self, k, output):
        return check_report(output)


class TraceSymbolic(Workload):
    name = "trace_symbolic"
    n = 4
    trace_jobs = 60

    def texts(self, seed):
        return [grover_text(self.n, random.Random(seed).randrange(2**self.n))]

    def job(self, k, job_seed):
        return self.hybrid_json(k, seed=job_seed, symbolic=True)

    def check(self, k, output):
        return check_symbolic_readout(json.loads(output))


WORKLOADS = {w.name: w for w in (ShotsSmall, GroverDeep, WideVerify, TraceSymbolic)}
