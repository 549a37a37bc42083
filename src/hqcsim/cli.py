"""Command-line interface.

Subcommands: run (execute a circuit file), grover (build and run a search
circuit), verify (hybrid/unitary equivalence harness), table1 (print the
symbolic classical-processing trace of the built-in triple-control-Z
circuit).  Exit codes: 0 success, 1 input error, 2 verification failure.
"""
from __future__ import annotations

import argparse
import os
import sys

from .circuit_text import CircuitParseError, parse_circuit_file
from .circuits import build_grover, triple_control_z_circuit
from .runner import (
    ExecutionConfig,
    corrected_histogram,
    results_to_json,
    run_both,
    run_hqcm,
    run_unitary,
    verify_equivalence,
)

__all__ = ["main"]


def _default_seed() -> int:
    text = os.environ.get("HQCSIM_SEED", "0")
    if not text.strip().isdecimal():
        raise ValueError(f"HQCSIM_SEED must be a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hqcsim", description="Hybrid quantum computation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a circuit file")
    run_p.add_argument("circuit_file")
    run_p.add_argument("--mode", choices=["hqcm", "unitary", "both"], default="hqcm")
    run_p.add_argument("--shots", type=int, default=1)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--trace", action="store_true", help="record the per-step flow table")
    run_p.add_argument("--symbolic", action="store_true", help="track outcomes as symbols (single shot)")
    run_p.add_argument("--random-kappa", action="store_true", help="draw a random preparation sign per rotation")
    run_p.add_argument("--include-work", action="store_true", help="include work qubits in the readout report")
    run_p.add_argument("--out", metavar="PATH", help="write the JSON result here instead of stdout")
    run_p.add_argument("--csv", metavar="PATH", help="also write the corrected histogram as CSV")

    grover_p = sub.add_parser("grover", help="run a search circuit")
    grover_p.add_argument("--n", type=int, required=True, help="search register size")
    grover_p.add_argument("--marked", type=int, required=True, help="marked basis index")
    grover_p.add_argument("--iterations", type=int, default=None)
    grover_p.add_argument("--shots", type=int, default=1)
    grover_p.add_argument("--seed", type=int, default=None)
    grover_p.add_argument("--mode", choices=["hqcm", "unitary", "both"], default="hqcm")
    grover_p.add_argument("--out", metavar="PATH")
    grover_p.add_argument("--csv", metavar="PATH")

    verify_p = sub.add_parser("verify", help="hybrid vs unitary equivalence check")
    verify_p.add_argument("circuit_file")
    verify_p.add_argument("--trials", type=int, default=20)
    verify_p.add_argument("--seed", type=int, default=None)
    verify_p.add_argument("--random-inputs", action="store_true", help="draw a random input state per trial")

    sub.add_parser("table1", help="print the symbolic trace of the triple-control-Z circuit")
    return parser


def _write_outputs(text: str, results, out_path: str | None, csv_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if csv_path:
        histogram = corrected_histogram(results)
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write("bitstring,count\n")
            for key in sorted(histogram):
                handle.write(f"{key},{histogram[key]}\n")


def _execute(circuit, args) -> int:
    if args.mode == "unitary" and args.csv:
        raise ValueError("--csv writes the shot histogram, but --mode unitary runs no shots")
    seed = args.seed if args.seed is not None else _default_seed()
    config = ExecutionConfig(
        mode=args.mode,
        shots=args.shots,
        seed=seed,
        trace=getattr(args, "trace", False),
        symbolic=getattr(args, "symbolic", False),
        kappa="random" if getattr(args, "random_kappa", False) else "zero",
        include_work_readout=getattr(args, "include_work", False),
    )
    if config.mode == "unitary":
        config.validate(circuit)
        _, distribution = run_unitary(circuit, include_work=config.include_work_readout)
        text = results_to_json(circuit, config, [], unitary_distribution=distribution)
        _write_outputs(text, [], args.out, None)
        return 0
    if config.mode == "both":
        results, _, distribution, tv = run_both(circuit, config)
        text = results_to_json(circuit, config, results, unitary_distribution=distribution, tv_distance=tv)
    else:
        results = run_hqcm(circuit, config)
        text = results_to_json(circuit, config, results)
    _write_outputs(text, results, args.out, args.csv)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _execute(parse_circuit_file(args.circuit_file), args)
        if args.command == "grover":
            return _execute(build_grover(args.n, args.marked, args.iterations), args)
        if args.command == "verify":
            circuit = parse_circuit_file(args.circuit_file)
            seed = args.seed if args.seed is not None else _default_seed()
            report = verify_equivalence(circuit, trials=args.trials, seed=seed, random_inputs=args.random_inputs)
            print(
                f"trials={report.trials} min_fidelity={report.min_fidelity:.12f} "
                f"mean_fidelity={report.mean_fidelity:.12f} {'PASS' if report.passed else 'FAIL'}"
            )
            return 0 if report.passed else 2
        if args.command == "table1":
            circuit = triple_control_z_circuit()
            results = run_hqcm(circuit, ExecutionConfig(symbolic=True, seed=_default_seed()))
            sys.stdout.write(results[0].trace.format_text())
            return 0
    except (CircuitParseError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
