"""Plain-text circuit format.

One gate per line, `#` starts a comment, qubit indices are 1-based::

    qubits <n> [work <w>]
    H <q>
    X <q>
    RZ <q> <angle>
    SQ <q> <theta> <phi> <alpha>
    CZ <a> <b>
    MZROT <angle> <q1> <q2> ...
    LAMBDA1 <angle> <c> : <t1> <t2> ...
    LAMBDA2 <angle> <c1> <c2> : <t1> ...
    LAMBDAZ <c1> <c2> ... : <t>
    GROVER <n> <j> [iterations]

Angles are floats or pi-literals such as ``pi``, ``-pi``, ``pi/4``, ``3pi/2``.
Work qubits follow the logical ones (indices n+1 .. n+w) and are prepared in
|+>; LAMBDAZ draws the work qubits it needs from that pool.  A GROVER line
must be the only gate line and must match the declared register.
"""
from __future__ import annotations

import re
from math import isfinite

from .circuits import (
    Circuit,
    CzGate,
    Gate,
    MultiZRot,
    NamedGate,
    SingleQubit,
    build_grover,
    expand_lambda1,
    expand_lambda2,
    expand_lambda_z_steps,
)

__all__ = ["CircuitParseError", "parse_circuit", "parse_circuit_file", "serialize_circuit"]

_PI_LITERAL = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$")


class CircuitParseError(ValueError):
    """Malformed circuit text; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_angle(token: str) -> float:
    from math import pi

    match = _PI_LITERAL.match(token)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        factor = float(match.group(2)) if match.group(2) else 1.0
        divisor = float(match.group(3)) if match.group(3) else 1.0
        if divisor == 0:
            raise ValueError("division by zero in angle")
        return sign * factor * pi / divisor
    return float(token)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.lineno = 0

    def fail(self, message: str):
        raise CircuitParseError(self.lineno, message)

    def angle(self, token: str) -> float:
        try:
            value = parse_angle(token)
        except ValueError:
            self.fail(f"bad angle {token!r}")
        if not isfinite(value):
            self.fail("angle must be finite")
        return value

    def qubit(self, token: str, num_qubits: int) -> int:
        try:
            q = int(token)
        except ValueError:
            self.fail(f"bad qubit index {token!r}")
        if not 1 <= q <= num_qubits:
            self.fail(f"qubit {q} outside register 1..{num_qubits}")
        return q - 1

    def split_on_colon(self, tokens: list[str]) -> tuple[list[str], list[str]]:
        if ":" not in tokens:
            self.fail("expected ':' separating controls from targets")
        i = tokens.index(":")
        return tokens[:i], tokens[i + 1 :]


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text into an elementary-gate Circuit."""
    p = _Parser(text)
    num_logical = num_work = None
    step_gates: list[list[Gate]] = []
    grover_circuit: Circuit | None = None

    for raw_line in p.lines:
        p.lineno += 1
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op = tokens[0].upper()

        if num_logical is None:
            if op != "QUBITS":
                p.fail("first line must declare the register: qubits <n> [work <w>]")
            if len(tokens) not in (2, 4) or (len(tokens) == 4 and tokens[2].lower() != "work"):
                p.fail("expected: qubits <n> [work <w>]")
            try:
                num_logical = int(tokens[1])
                num_work = int(tokens[3]) if len(tokens) == 4 else 0
            except ValueError:
                p.fail("register sizes must be integers")
            if num_logical < 1 or num_work < 0:
                p.fail("register sizes out of range")
            continue

        if grover_circuit is not None:
            p.fail("GROVER must be the only gate line")
        n_total = num_logical + num_work

        if op == "H" or op == "X":
            if len(tokens) != 2:
                p.fail(f"expected: {op} <q>")
            step_gates.append([NamedGate(p.qubit(tokens[1], n_total), op)])
        elif op == "RZ":
            if len(tokens) != 3:
                p.fail("expected: RZ <q> <angle>")
            step_gates.append([NamedGate(p.qubit(tokens[1], n_total), "RZ", p.angle(tokens[2]))])
        elif op == "SQ":
            if len(tokens) != 5:
                p.fail("expected: SQ <q> <theta> <phi> <alpha>")
            step_gates.append(
                [
                    SingleQubit(
                        p.qubit(tokens[1], n_total),
                        p.angle(tokens[2]),
                        p.angle(tokens[3]),
                        p.angle(tokens[4]),
                    )
                ]
            )
        elif op == "CZ":
            if len(tokens) != 3:
                p.fail("expected: CZ <a> <b>")
            a, b = p.qubit(tokens[1], n_total), p.qubit(tokens[2], n_total)
            if a == b:
                p.fail("CZ needs two distinct qubits")
            step_gates.append([CzGate(a, b)])
        elif op == "MZROT":
            if len(tokens) < 3:
                p.fail("expected: MZROT <angle> <q1> ...")
            theta = p.angle(tokens[1])
            leaves = tuple(p.qubit(t, n_total) for t in tokens[2:])
            if len(set(leaves)) != len(leaves):
                p.fail("duplicate rotation qubit")
            step_gates.append([MultiZRot(leaves, theta)])
        elif op == "LAMBDA1":
            body, targets = p.split_on_colon(tokens[1:])
            if len(body) != 2 or not targets:
                p.fail("expected: LAMBDA1 <angle> <c> : <t1> ...")
            control, target_qs = p.qubit(body[1], n_total), tuple(p.qubit(t, n_total) for t in targets)
            angle = p.angle(body[0])  # parsed outside the try, which would prefix the line number twice
            try:
                gates = expand_lambda1(control, target_qs, angle)
            except ValueError as exc:
                p.fail(str(exc))
            step_gates.append(gates)
        elif op == "LAMBDA2":
            body, targets = p.split_on_colon(tokens[1:])
            if len(body) != 3 or not targets:
                p.fail("expected: LAMBDA2 <angle> <c1> <c2> : <t1> ...")
            controls = (p.qubit(body[1], n_total), p.qubit(body[2], n_total))
            target_qs, angle = tuple(p.qubit(t, n_total) for t in targets), p.angle(body[0])
            try:
                gates = expand_lambda2(controls, target_qs, angle)
            except ValueError as exc:
                p.fail(str(exc))
            step_gates.append(gates)
        elif op == "LAMBDAZ":
            controls, targets = p.split_on_colon(tokens[1:])
            if len(targets) != 1 or not controls:
                p.fail("expected: LAMBDAZ <c1> ... : <t>")
            control_qs = tuple(p.qubit(c, n_total) for c in controls)
            target_q = p.qubit(targets[0], n_total)
            needed = len(control_qs) - 1
            if needed > num_work:
                p.fail(f"{len(control_qs)} controls need {needed} work qubits, register has {num_work}")
            work = tuple(range(num_logical, num_logical + needed))
            try:
                step_gates.extend(expand_lambda_z_steps(control_qs, target_q, work))
            except ValueError as exc:
                p.fail(str(exc))
        elif op == "GROVER":
            if step_gates:
                p.fail("GROVER must be the only gate line")
            if len(tokens) not in (3, 4):
                p.fail("expected: GROVER <n> <j> [iterations]")
            try:
                n, j = int(tokens[1]), int(tokens[2])
                iters = int(tokens[3]) if len(tokens) == 4 else None
            except ValueError:
                p.fail("GROVER arguments must be integers")
            if n != num_logical:
                p.fail(f"GROVER register is {n} qubits but the header declares {num_logical}")
            if max(n - 2, 0) != num_work:
                p.fail(f"GROVER on {n} qubits needs work {max(n - 2, 0)}, header declares {num_work}")
            try:
                grover_circuit = build_grover(n, j, iters)
            except ValueError as exc:
                p.fail(str(exc))
        else:
            p.fail(f"unknown gate {tokens[0]!r}")

    if num_logical is None:
        raise CircuitParseError(max(p.lineno, 1), "empty circuit file")
    if grover_circuit is not None:
        return grover_circuit

    circuit = Circuit.from_steps(num_logical, num_work, step_gates)
    return circuit


def parse_circuit_file(path: str) -> Circuit:
    with open(path, encoding="utf-8") as handle:
        return parse_circuit(handle.read())


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit as elementary-gate text (macro grouping is dropped).

    Work qubits not after the logical ones and kappa = 1 have no text form, so
    they raise ValueError instead of writing a different circuit."""
    if circuit.works != tuple(range(circuit.num_logical, circuit.num_qubits)):
        works = " ".join(str(q + 1) for q in circuit.works)
        raise ValueError(f"cannot serialise work qubits {works}: the text format puts them after the logical ones")
    lines = [f"qubits {circuit.num_logical} work {circuit.num_work}"]
    for gate in circuit.gates:
        if isinstance(gate, NamedGate):
            if gate.name == "RZ":
                lines.append(f"RZ {gate.q + 1} {gate.phi!r}")
            else:
                lines.append(f"{gate.name} {gate.q + 1}")
        elif isinstance(gate, SingleQubit):
            lines.append(f"SQ {gate.q + 1} {gate.theta!r} {gate.phi!r} {gate.alpha!r}")
        elif isinstance(gate, CzGate):
            lines.append(f"CZ {gate.a + 1} {gate.b + 1}")
        elif isinstance(gate, MultiZRot):
            if gate.kappa:
                raise ValueError(f"cannot serialise {gate!r}: the text format has no kappa")
            leaves = " ".join(str(q + 1) for q in gate.leaves)
            lines.append(f"MZROT {gate.theta!r} {leaves}")
        else:
            raise ValueError(f"cannot serialise {gate!r}")
    return "\n".join(lines) + "\n"
