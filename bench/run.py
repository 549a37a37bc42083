#!/usr/bin/env python3
"""hqcsim benchmark: one process, one client, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the circuit text; the program sees only that text.  The next
job starts when the previous one returns.  After each job its output is
checked outside the timed region.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics and the kernel
table with `--trace 1`.  See bench/README.md.
"""
import os

# BLAS threads are pinned before numpy loads; child processes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "table1_golden.txt"
sys.path.insert(0, str(SRC))  # the checkout's own program, never an installed copy

import kernels  # noqa: E402  (these three import hqcsim only when called)
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 100  # so that ten samples lie beyond p90
WALL_CAP_S = 120.0  # the loop stops here even below MIN_JOBS
SETUP_SAMPLES = 5  # set-ups, each in a fresh interpreter
REFERENCE_PROBE_S = 1.0e-3


class SpeedProbe:
    """Host speed, measured next to every piece of timed work.

    On small virtual hosts the CPU is often slowed 1.4-1.9x for seconds up to
    a minute at a time by contention outside the guest, so raw times of
    identical runs split into a fast and a slow mode.  The probe is a fixed
    numpy workload shaped like the program's hot path (2x2 gates applied to a
    256-amplitude state through moveaxis/tensordot), and it slows down with
    the host in step with the jobs.  Each job's time is scaled by
    REFERENCE_PROBE_S over the mean of the probes just before and just after
    it, which reports it in milliseconds of a host on which the probe takes
    1 ms (an uncontended 2-vCPU Xeon VM takes about 1.04 ms).
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.amps = np.full(256, 1 / 16, dtype=complex)
        self.gate = np.array([[0, 1], [1, 0]], dtype=complex)
        self.measure()

    def _once(self) -> float:
        np = self.np
        start = perf_counter()
        for _ in range(5):
            for axis in range(8):
                tensor = np.moveaxis(self.amps.reshape((2,) * 8), axis, 0)
                tensor = np.tensordot(self.gate, tensor, axes=([1], [0]))
                np.ascontiguousarray(np.moveaxis(tensor, 0, axis)).reshape(-1)
        return perf_counter() - start

    def measure(self) -> float:
        return min(self._once(), self._once())


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the probe and
    the work it scales always share a CPU (vCPUs are slowed independently)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def job_seed(seed: int, k: int) -> int:
    return (seed % 2**32) * 2**20 + k


def set_up(name: str, seed: int):
    """Import the program, parse and build the run's circuits, run the
    warm-up job.  Returns (workload, circuit texts, seconds taken)."""
    workload = workloads.WORKLOADS[name]()
    texts = workload.texts(seed)
    start = perf_counter()
    import hqcsim

    workload.prepare(texts)
    workload.job(0, job_seed(seed, 0))
    elapsed = perf_counter() - start
    if Path(hqcsim.__file__).resolve().parent != SRC / "hqcsim":
        raise SystemExit(f"error: imported hqcsim from {hqcsim.__file__}, not from {SRC}")
    return workload, texts, elapsed


def setup_samples(name: str, seed: int, probe: SpeedProbe) -> list[float]:
    """Scaled set-up times of SETUP_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = probe.measure()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(scaled(float(child.stdout.split()[-1]), before, probe.measure()))
    return samples


class Tally:
    """Job times (raw and scaled) and outcomes of one loop."""

    def __init__(self):
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.attempted = self.failed = self.shots = 0


def closed_loop(workload, seed: int, seconds: float, probe: SpeedProbe) -> Tally:
    """Jobs 1, 2, ... back to back until `seconds` of job time and MIN_JOBS
    jobs are done; each output is checked after its job's timer stops."""
    leftover = tracing.leftover_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers still installed: {leftover}")
    tally = Tally()
    wall_start = perf_counter()
    before = probe.measure()
    k = 0
    while (sum(tally.times) < seconds or k < MIN_JOBS) and perf_counter() - wall_start < WALL_CAP_S:
        k += 1
        tally.attempted += 1
        start = perf_counter()
        try:
            output = workload.job(k, job_seed(seed, k))
            raised = None
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            raised = exc
        elapsed = perf_counter() - start
        after = probe.measure()
        tally.times.append(elapsed)
        tally.scaled.append(scaled(elapsed, before, after))
        before = after
        if raised is not None:
            tally.failed += 1
            print(f"job {k} raised {raised!r}", file=sys.stderr)
        else:
            tally.shots += workload.shots_per_job
            tally.failed += not workload.check(k, output)
    return tally


def traced_jobs(workload, texts, seed: int, probe: SpeedProbe):
    """Set-up parsing and the first `trace_jobs` jobs with every wrapper
    installed; outputs are checked after the wrappers are gone."""
    tracer = tracing.Tracer()
    times, outputs = [], []
    with tracing.installed(tracer):
        workload.prepare(texts)
        before = probe.measure()
        for k in range(1, workload.trace_jobs + 1):
            start = perf_counter()
            outputs.append(workload.job(k, job_seed(seed, k)))
            elapsed = perf_counter() - start
            after = probe.measure()
            times.append(scaled(elapsed, before, after))
            before = after
    failed = sum(not workload.check(k, output) for k, output in enumerate(outputs, start=1))
    return tracer, times, failed


def _cache_bytes() -> dict[str, int | None]:
    """Total size of each cache level over its distinct instances."""
    seen: dict[tuple[str, str], int] = {}
    for index in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*"):
        try:
            kind, level, shared, size = (
                (index / name).read_text().strip() for name in ("type", "level", "shared_cpu_list", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            seen[(level, shared)] = int(size.rstrip("K")) * 1024
    return {f"l{lvl}_bytes": sum(v for (level, _), v in seen.items() if level == lvl) or None for lvl in ("2", "3")}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        **_cache_bytes(),
        # every workload runs the hybrid engine, whose register adds one ancilla
        "largest_state_bytes": 16 * 2 ** (max(c.num_qubits for c in workload.circuits) + 1),
        "git_commit": _git_commit(),
        "seed": seed,
        "workload": workload.name,
    }


def run(args) -> dict:
    pin_to_one_cpu()
    workload, texts, _ = set_up(args.workload, args.seed)
    probe = SpeedProbe()
    golden_ok = workloads.check_table1(GOLDEN.read_text(encoding="utf-8"))
    print("env " + json.dumps(environment(workload, args.seed), sort_keys=True))
    if args.trace:
        tally = closed_loop(workload, args.seed, args.seconds, probe)
        tracer, traced_times, traced_failed = traced_jobs(workload, texts, args.seed, probe)
        tally.attempted += len(traced_times)
        tally.failed += traced_failed
        metrics = tracer.metrics()
        untraced = sum(tally.scaled[: len(traced_times)])
        metrics["trace_overhead_frac"] = (sum(traced_times) / untraced - 1, "ratio")
        metrics.update(kernels.kernel_table(args.seed))
    else:
        setups = setup_samples(args.workload, args.seed, probe)
        tally = closed_loop(workload, args.seed, args.seconds, probe)
        jobs = len(tally.scaled)
        metrics = {
            "shots_per_s": (tally.shots / sum(tally.scaled), "1/s"),
            "job_ms_p50": (statistics.median(tally.scaled) * 1e3, "ms"),
            "job_ms_p90": (statistics.quantiles(tally.scaled, n=10)[-1] * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"{args.workload}: {jobs} jobs timed (p50 and p90 over {jobs} samples), {SETUP_SAMPLES} set-ups, "
              f"{tally.shots} trajectories; unscaled job_ms_p50 {statistics.median(tally.times) * 1e3:.3f}, "
              f"host speed factor {statistics.median(tally.times) / statistics.median(tally.scaled):.3f}")

    if not (workload.check_run() and golden_ok):
        print("run-level check failed: " + ("golden table1" if not golden_ok else "workload aggregate"))
        tally.failed = tally.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    # A metric that is 0 on correct code cannot carry a relative bound, so the
    # result line carries failed_frac as its attempted and failed fields.
    print(f"failed_frac {tally.failed / tally.attempted} 1")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and print it (internal)")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(set_up(args.workload, args.seed)[2])
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
