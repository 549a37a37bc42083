"""Classical byproduct tracking: information flow vectors, GF(2) propagation
matrices, measurement-angle adaptation, and readout correction.

The byproduct accumulated on an n-qubit register is the Pauli product
prod_j X_j^{x_j} Z_j^{z_j} (phases dropped); it is stored as the flow vector
(x_1..x_n, z_1..z_n).  A component is a bit or an outcome bitset, an int
whose bit r stands for the outcome of rotation r; both support `^`, so one
set of update rules serves both.  `Gf2Expr` is how a symbolic trace prints a
bitset, as an XOR of outcome labels.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import atan2, hypot, pi
from typing import Mapping, Sequence

import numpy as np

from .core import BlochVector

__all__ = [
    "Gf2Expr",
    "InfoFlowVector",
    "PropagationMatrix",
    "absorb_rotation_outcome",
    "adapt_angle",
    "adapt_axis",
    "adapt_azimuth",
    "adapt_rotation_angle",
    "angle_parity",
    "byproduct_to_unitary",
    "correct_readout",
    "init_flow",
    "matrix_for",
    "propagate",
]


class Gf2Expr:
    """XOR of named binary symbols, e.g. m11 + m13 over GF(2)."""

    __slots__ = ("symbols",)

    def __init__(self, symbols=()):
        self.symbols = frozenset(symbols)

    @classmethod
    def var(cls, label: str) -> "Gf2Expr":
        return cls((label,))

    def __xor__(self, other):
        if isinstance(other, Gf2Expr):
            return Gf2Expr(self.symbols ^ other.symbols)
        if other == 0:
            return self
        raise TypeError("cannot mix a symbolic expression with a nonzero constant")

    __rxor__ = __xor__

    def __eq__(self, other) -> bool:
        if isinstance(other, Gf2Expr):
            return self.symbols == other.symbols
        if isinstance(other, int):
            return other == 0 and not self.symbols
        return NotImplemented

    def __hash__(self) -> int:
        return 0 if not self.symbols else hash(self.symbols)

    def __bool__(self) -> bool:
        return bool(self.symbols)

    def __str__(self) -> str:
        return "+".join(sorted(self.symbols)) if self.symbols else "0"

    def __repr__(self) -> str:
        return f"Gf2Expr({str(self)})"


@dataclass
class InfoFlowVector:
    """Per-qubit X and Z byproduct exponents: bits or outcome bitsets."""

    x: list
    z: list

    @property
    def n(self) -> int:
        return len(self.x)

    def copy(self) -> "InfoFlowVector":
        return InfoFlowVector(list(self.x), list(self.z))

    def require_bits(self, purpose: str) -> None:
        """Raise ValueError unless every component is 0 or 1, as in a flow evaluated for one shot."""
        for part, values in (("x", self.x), ("z", self.z)):
            for j, c in enumerate(values):
                if not isinstance(c, int) or c not in (0, 1):
                    raise ValueError(f"{purpose} needs an evaluated flow; qubit {j} has {part} = {c!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, InfoFlowVector):
            return NotImplemented
        return self.x == other.x and self.z == other.z


def init_flow(n: int) -> InfoFlowVector:
    """All-zero flow: the byproduct before any measurement is the identity."""
    if n < 1:
        raise ValueError("flow vector needs at least one qubit")
    return InfoFlowVector([0] * n, [0] * n)


@dataclass(frozen=True)
class PropagationMatrix:
    """2n x 2n binary block matrix [[Cxx, Czx], [Cxz, Czz]] acting on (x; z)."""

    n: int
    mat: np.ndarray

    @property
    def cxx(self) -> np.ndarray:
        return self.mat[: self.n, : self.n]

    @property
    def czx(self) -> np.ndarray:
        return self.mat[: self.n, self.n :]

    @property
    def cxz(self) -> np.ndarray:
        return self.mat[self.n :, : self.n]

    @property
    def czz(self) -> np.ndarray:
        return self.mat[self.n :, self.n :]

    def __matmul__(self, other: "PropagationMatrix") -> "PropagationMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return PropagationMatrix(self.n, (self.mat @ other.mat) % 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PropagationMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.mat, other.mat)

    def apply(self, flow: InfoFlowVector) -> InfoFlowVector:
        if flow.n != self.n:
            raise ValueError("flow size does not match matrix size")
        components = flow.x + flow.z
        result = [0] * (2 * self.n)
        rows, cols = np.nonzero(self.mat)
        for row, col in zip(rows.tolist(), cols.tolist()):
            result[row] = result[row] ^ components[col]
        return InfoFlowVector(result[: self.n], result[self.n :])


def _identity(n: int) -> np.ndarray:
    return np.eye(2 * n, dtype=np.uint8)


def matrix_for(gate: tuple, n: int) -> PropagationMatrix:
    """Propagation matrix of an elementary gate on an n-qubit register.

    Gate descriptors: ("R", j), ("H", j), ("PHASE", j), ("CNOT", a, b),
    ("CZ", a, b), ("MZROT", leaves).  Rotations (R, MZROT) leave the flow
    unchanged; only their angles adapt.
    """
    kind = gate[0]
    mat = _identity(n)
    if kind in ("R", "MZROT"):
        pass
    elif kind == "H":
        j = _check_index(gate[1], n)
        # swap x_j <-> z_j
        mat[j, j] = 0
        mat[n + j, n + j] = 0
        mat[j, n + j] = 1
        mat[n + j, j] = 1
    elif kind == "PHASE":
        j = _check_index(gate[1], n)
        # z_j += x_j
        mat[n + j, j] = 1
    elif kind == "CNOT":
        a, b = _check_pair(gate[1], gate[2], n)
        # x_b += x_a ; z_a += z_b
        mat[b, a] = 1
        mat[n + a, n + b] = 1
    elif kind == "CZ":
        a, b = _check_pair(gate[1], gate[2], n)
        # z_a += x_b ; z_b += x_a
        mat[n + a, b] = 1
        mat[n + b, a] = 1
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return PropagationMatrix(n, mat)


def _check_index(j: int, n: int) -> int:
    if not 0 <= j < n:
        raise ValueError(f"qubit {j} out of range for n={n}")
    return j


def _check_pair(a: int, b: int, n: int) -> tuple[int, int]:
    _check_index(a, n)
    _check_index(b, n)
    if a == b:
        raise ValueError("two-qubit gate needs distinct qubits")
    return a, b


def propagate(flow: InfoFlowVector, gate) -> InfoFlowVector:
    """Push the flow vector through a gate (descriptor or matrix) over GF(2)."""
    matrix = gate if isinstance(gate, PropagationMatrix) else matrix_for(gate, flow.n)
    return matrix.apply(flow)


def absorb_rotation_outcome(flow: InfoFlowVector, leaves: Sequence[int], m) -> InfoFlowVector:
    """Fold a multi-Z rotation outcome into the flow: z_j ^= m on every leaf."""
    out = flow.copy()
    for j in leaves:
        _check_index(j, flow.n)
        out.z[j] = out.z[j] ^ m
    return out


def angle_parity(flow: InfoFlowVector, leaves: Sequence[int]):
    """Parity of the x-components over the rotation's own qubits."""
    acc = 0
    for j in leaves:
        _check_index(j, flow.n)
        acc = acc ^ flow.x[j]
    return acc


def adapt_rotation_angle(flow: InfoFlowVector, leaves: Sequence[int], theta: float) -> float:
    """Sign-adapt a multi-Z rotation angle under a bit-valued flow:
    theta -> (-1)^parity * theta."""
    parity = angle_parity(flow, leaves)
    if not isinstance(parity, int) or parity not in (0, 1):
        raise ValueError(f"angle adaptation needs an evaluated flow; parity on {tuple(leaves)} is {parity!r}")
    return adapt_angle(parity, theta)


def adapt_angle(parity: int, theta: float) -> float:
    """Angle a Z rotation must execute after its qubits' X byproducts have
    the given parity: (-1)^parity * theta."""
    return -theta if parity & 1 else theta


def adapt_axis(x: int, z: int, axis: BlochVector) -> BlochVector:
    """Axis a rotation must use when executed after byproduct X^x Z^z.

    Components map to ((-1)^z rx, (-1)^{x+z} ry, (-1)^x rz); the rotation
    angle itself is unchanged.  With x and z both even the byproduct is the
    identity and `axis` itself comes back, with its own floats, so a
    zero-parity gate builds the same matrix as the unitary run.
    """
    if not (x | z) & 1:
        return axis
    rx, ry, rz = axis.components()
    rx *= (-1) ** (z & 1)
    ry *= (-1) ** ((x ^ z) & 1)
    rz *= (-1) ** (x & 1)
    return BlochVector(atan2(hypot(rx, ry), rz), atan2(ry, rx))


def adapt_azimuth(kappa: int) -> float:
    """Azimuth of the ancilla measurement basis: (-1)^kappa * pi/2."""
    return -pi / 2 if kappa & 1 else pi / 2


def correct_readout(raw: Sequence[int], flow: InfoFlowVector) -> list[int]:
    """Flip raw Z-readout bits by the x-part of the flow (z-part is invisible
    to a diagonal readout)."""
    if len(raw) != flow.n:
        raise ValueError(f"expected {flow.n} readout bits, got {len(raw)}")
    flow.require_bits("readout correction")
    return [(s ^ x) & 1 for s, x in zip(raw, flow.x)]


def byproduct_to_unitary(flow: InfoFlowVector) -> list[tuple[str, int]]:
    """The byproduct as a gate list [("X", j) then ("Z", j) per qubit].

    Applying the list twice returns any state to itself up to phase, so the
    same list also serves as the (phase-free) inverse in equivalence checks.
    """
    flow.require_bits("byproduct extraction")
    gates: list[tuple[str, int]] = []
    for j in range(flow.n):
        if flow.x[j] & 1:
            gates.append(("X", j))
        if flow.z[j] & 1:
            gates.append(("Z", j))
    return gates


def render_component(component, blocks: Mapping[str, frozenset] | None = None) -> str:
    """Canonical text for a flow component, contracting complete outcome
    blocks (all of m_j1..m_jk present) to their block symbol m_j."""
    if isinstance(component, int):
        return str(component & 1)
    symbols = set(component.symbols)
    parts = []
    if blocks:
        for label, atoms in blocks.items():
            if atoms and atoms <= symbols:
                parts.append(label)
                symbols -= atoms
    parts.extend(symbols)
    return "+".join(sorted(parts)) if parts else "0"


def render_flow(values, blocks: Mapping[str, frozenset] | None = None) -> str:
    return "(" + ", ".join(render_component(c, blocks) for c in values) + ")"
