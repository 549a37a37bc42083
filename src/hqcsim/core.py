"""Dense statevector engine: states, single-qubit and CZ unitaries, Bloch-basis
projective measurement with seedable randomness.

Conventions used throughout the package:

- Endianness: qubit ``j`` addresses bit ``j`` of the basis index, with qubit 0
  the least significant bit, i.e. basis index ``i = sum_j b_j * 2**j``.
  Only this module turns that into array layout: every state kernel and
  `star`'s parity masks address qubit q through `_bit_view`, a (high bits,
  bit q, low bits) view of the amplitudes, and `embed_logical` and
  `logical_marginal` place a circuit's logical qubits among its work qubits,
  and `xor_permuted` relabels the basis as a Pauli X frame does.
- Global phase is never normalised away; states are compared with `fidelity`.
- Every public operation returns a fresh, normalised StateVector; the input is
  never mutated.
"""
from __future__ import annotations

import ctypes
import os
import sys
from dataclasses import dataclass
from math import cos, sin, sqrt

import numpy as np

__all__ = [
    "BlochVector",
    "MeasurementSpec",
    "RandomSource",
    "StateVector",
    "apply_cz",
    "apply_named",
    "apply_single_qubit",
    "fidelity",
    "make_basis_state",
    "measure",
    "measurement_projectors",
]

_MIN_PROBABILITY = 1e-14  # below this a measurement branch is impossible

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_heap() -> None:
    """Keep freed state-sized blocks mapped in the process heap (glibc).

    Every gate allocates a fresh 2**n array and frees its input.  Under
    glibc's defaults a free trims the top of the heap back to the OS once
    about two such blocks lie free there, and the next gate faults the pages
    in again: a 14-qubit `verify_equivalence` trial took about 1300 minor
    page faults and a quarter of its time in the kernel, a share that moves
    with the host's memory load.  With these settings blocks up to 32 MiB (a
    21-qubit state) come from the heap and up to 64 MiB of it stays mapped
    when free, which is where glibc's own adaptive thresholds end up after a
    32 MiB block is freed.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library symbols, or no mallopt
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_retain_freed_heap()

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2)


@dataclass(frozen=True)
class BlochVector:
    """Measurement/rotation direction on the Bloch sphere, in radians."""

    theta: float
    phi: float

    def components(self) -> tuple[float, float, float]:
        """Cartesian unit vector (sin t cos p, sin t sin p, cos t)."""
        st = sin(self.theta)
        return (st * cos(self.phi), st * sin(self.phi), cos(self.theta))


@dataclass(frozen=True)
class MeasurementSpec:
    """A projective measurement of one qubit along a Bloch direction."""

    target: int
    basis: BlochVector


def check_seed(value: int, name: str = "seed") -> None:
    """Reject a seed (or stream index) that is not one 64-bit word of a
    Philox key, before any draw is made with it."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    if value >= 1 << 64:
        raise ValueError(f"{name} must be below 2**64, got {value}")


_NO_WORDS = np.zeros(4, dtype=np.uint64)


class RandomSource:
    """Counter-based random stream keyed by (seed, stream).

    Uses the Philox bit generator keyed by the two 64-bit words [seed,
    stream], so identical (seed, stream) pairs produce identical draw
    sequences regardless of platform or of how many other streams were
    consumed: independent shots can share a seed and differ only in the
    stream index.  `restart` re-keys the same bit generator to another
    stream of the seed, so a run builds one generator, not one per shot.
    """

    def __init__(self, seed: int, stream: int = 0):
        check_seed(seed)
        self.seed = seed
        self._bits = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bits)
        self.restart(stream)

    def restart(self, stream: int) -> None:
        """Rewind to the first draw of stream `stream` of this seed: the
        state a fresh RandomSource(seed, stream) starts in."""
        check_seed(stream, "stream")
        self.stream = stream
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": _NO_WORDS, "key": np.array([self.seed, stream], dtype=np.uint64)},
            "buffer": _NO_WORDS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def random(self) -> float:
        """Uniform draw in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, count: int) -> np.ndarray:
        """The next `count` uniform draws in [0, 1) as one array: the same
        numbers, in order, as `count` calls of `random`."""
        return self._gen.random(count)

    def bit(self) -> int:
        return int(self._gen.integers(0, 2))

    def sample_index(self, probabilities: np.ndarray) -> int:
        """Draw an index from a probability vector using a single uniform."""
        return int(pick_index(np.cumsum(probabilities), self.random()))


def pick_index(cumulative: np.ndarray, u):
    """The index that the uniform u in [0, 1) (or each entry of an array of
    them) selects from a cumulative sum of probabilities, which need not end
    exactly at 1."""
    return np.searchsorted(cumulative, u * cumulative[-1], side="right")


@dataclass
class StateVector:
    """Normalised amplitudes over the 2**num_qubits computational basis."""

    num_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())


def _physical_memory() -> int | None:
    """Installed memory in bytes, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def check_state_fits(num_qubits: int) -> None:
    """Reject a register whose state vector, 16 bytes per amplitude, would
    not fit in physical memory, before any work is done for it."""
    needed = 16 << num_qubits
    memory = _physical_memory()
    if memory is not None and needed > memory:
        raise ValueError(
            f"a {num_qubits}-qubit state needs {needed} bytes, more than the {memory} bytes of physical memory"
        )


def make_basis_state(num_qubits: int, bits: list[int] | tuple[int, ...]) -> StateVector:
    """Computational basis state with bits[j] on qubit j."""
    if len(bits) != num_qubits:
        raise ValueError(f"expected {num_qubits} bits, got {len(bits)}")
    index = 0
    for q, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {q} must be 0 or 1, got {b}")
        index |= b << q
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.num_qubits:
        raise ValueError(f"qubit {q} out of range for {state.num_qubits}-qubit state")


def _bit_view(amps: np.ndarray, q: int) -> np.ndarray:
    """`amps` as (high bits, bit q, low bits): [h, b, l] is the amplitude of
    index (h << (q + 1)) | (b << q) | l.  Callers write only into views of
    arrays they allocated, which are contiguous, so no write lands in a copy."""
    return amps.reshape(-1, 2, 1 << q)


def _matmul_on_bit(matrix: np.ndarray, amps: np.ndarray, q: int) -> np.ndarray:
    """`matrix` (k x 2) applied to qubit q's axis of `_bit_view(amps, q)`, as a
    (high, k, low) array.  numpy's matmul makes one call per batch, so unless
    the high axis is the shorter one, bit q is moved to the front first and
    the product is one call over all the other bits."""
    view = _bit_view(amps, q)
    high, _, low = view.shape
    if high < low:
        return np.matmul(matrix, view)
    front = np.matmul(matrix, view.transpose(1, 0, 2).reshape(2, -1))
    return front.reshape(-1, high, low).transpose(1, 0, 2)


def _apply_matrix(state: StateVector, q: int, matrix: np.ndarray) -> StateVector:
    return StateVector(state.num_qubits, _matmul_on_bit(matrix, state.amplitudes, q).reshape(-1))


def axis_angle_matrix(axis: BlochVector, alpha: float) -> np.ndarray:
    """2x2 unitary exp(-i alpha (r.sigma)/2) for the given rotation axis."""
    rx, ry, rz = axis.components()
    r_sigma = np.array([[rz, rx - 1j * ry], [rx + 1j * ry, -rz]], dtype=complex)
    return cos(alpha / 2) * np.eye(2) - 1j * sin(alpha / 2) * r_sigma


def apply_single_qubit(state: StateVector, q: int, axis: BlochVector, alpha: float) -> StateVector:
    """Rotate qubit q by angle alpha around the given Bloch axis."""
    _check_qubit(state, q)
    return _apply_matrix(state, q, axis_angle_matrix(axis, alpha))


def rz_matrix(phi: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * phi), 0], [0, np.exp(0.5j * phi)]], dtype=complex)


def apply_named(state: StateVector, q: int, gate: str, phi: float = 0.0) -> StateVector:
    """Apply an exact named gate: X, Z, H, or RZ(phi).

    The named path uses the literal matrices (bit-exact Pauli action), not the
    axis-angle exponential.
    """
    _check_qubit(state, q)
    if gate == "X":
        matrix = _X
    elif gate == "Z":
        matrix = _Z
    elif gate == "H":
        matrix = _H
    elif gate == "RZ":
        matrix = rz_matrix(phi)
    else:
        raise ValueError(f"unknown named gate {gate!r}")
    return _apply_matrix(state, q, matrix)


def apply_cz(state: StateVector, a: int, b: int) -> StateVector:
    """Controlled-Z between qubits a and b (symmetric)."""
    _check_qubit(state, a)
    _check_qubit(state, b)
    if a == b:
        raise ValueError("CZ needs two distinct qubits")
    lo, hi = sorted((a, b))
    amps = state.amplitudes.copy()
    # _bit_view for hi, with its low axis split again at lo
    amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)[:, 1, :, 1, :] *= -1
    return StateVector(state.num_qubits, amps)


def basis_kets(basis: BlochVector) -> tuple[np.ndarray, np.ndarray]:
    """Outcome kets (up, down) for a Bloch-direction measurement.

    up   = cos(t/2)|0> + e^{ip} sin(t/2)|1>       (outcome 0)
    down = -sin(t/2)|0> + e^{ip} cos(t/2)|1>      (outcome 1)
    """
    half = basis.theta / 2
    phase = np.exp(1j * basis.phi)
    up = np.array([cos(half), phase * sin(half)], dtype=complex)
    down = np.array([-sin(half), phase * cos(half)], dtype=complex)
    return up, down


def measurement_projectors(spec: MeasurementSpec) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 projectors (P0, P1) = (I +/- r.sigma)/2 for the measurement."""
    up, down = basis_kets(spec.basis)
    return np.outer(up, up.conj()), np.outer(down, down.conj())


def measure(
    state: StateVector,
    spec: MeasurementSpec,
    rng: RandomSource,
    forced: int | None = None,
) -> tuple[int, StateVector]:
    """Projectively measure one qubit; returns (outcome, collapsed state).

    Outcome 0 projects onto the basis "up" ket, outcome 1 onto "down".  If
    `forced` is given the corresponding branch is taken deterministically; a
    forced branch with probability below 1e-14 is rejected.
    """
    _check_qubit(state, spec.target)
    up, down = basis_kets(spec.basis)

    branches = _matmul_on_bit(np.array([up, down]).conj(), state.amplitudes, spec.target)
    branch0, branch1 = branches[:, 0, :], branches[:, 1, :]
    p0 = float(np.real(np.vdot(branch0, branch0)))
    p1 = float(np.real(np.vdot(branch1, branch1)))
    if p0 < _MIN_PROBABILITY and p1 < _MIN_PROBABILITY:
        raise ArithmeticError("state is not normalised: both outcomes have ~zero probability")

    if forced is not None:
        if forced not in (0, 1):
            raise ValueError("forced outcome must be 0 or 1")
        if (p0 if forced == 0 else p1) < _MIN_PROBABILITY:
            raise ValueError(f"forced outcome {forced} has probability below 1e-14")
        outcome = forced
    elif p0 < _MIN_PROBABILITY:
        outcome = 1
    elif p1 < _MIN_PROBABILITY:
        outcome = 0
    else:
        outcome = 0 if rng.random() < p0 / (p0 + p1) else 1

    ket, branch, p = (up, branch0, p0) if outcome == 0 else (down, branch1, p1)
    collapsed = ket[:, None] * (branch / sqrt(p))[:, None, :]
    return outcome, StateVector(state.num_qubits, collapsed.reshape(-1))


def embed_logical(psi: np.ndarray, num_qubits: int, logicals: tuple[int, ...]) -> StateVector:
    """Register state holding `psi` on the ascending qubits `logicals` (bit
    pos of psi's index on qubit logicals[pos]) and |+> on every other qubit."""
    shape = [2 if q in logicals else 1 for q in reversed(range(num_qubits))]
    amps = np.broadcast_to(psi.reshape(shape), (2,) * num_qubits) / sqrt(2 ** (num_qubits - len(logicals)))
    return StateVector(num_qubits, amps.reshape(-1))


def logical_marginal(probs: np.ndarray, num_qubits: int, logicals: tuple[int, ...]) -> np.ndarray:
    """Register probabilities summed over every qubit outside the ascending
    `logicals`, indexed like `embed_logical`'s psi."""
    works = tuple(num_qubits - 1 - q for q in range(num_qubits) if q not in logicals)
    return probs.reshape((2,) * num_qubits).sum(axis=works).reshape(-1)


def xor_permuted(values: np.ndarray, mask: int) -> np.ndarray:
    """values[i ^ mask] for every index i of a register-indexed array: the
    array read with each qubit in `mask` flipped, as an X on those qubits
    moves probability.  Mask 0 returns `values` itself."""
    if not mask:
        return values
    num_qubits = values.size.bit_length() - 1
    flipped = tuple(num_qubits - 1 - q for q in range(num_qubits) if mask >> q & 1)
    return np.flip(values.reshape((2,) * num_qubits), flipped).reshape(-1)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, the global-phase-insensitive overlap."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different qubit counts")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
