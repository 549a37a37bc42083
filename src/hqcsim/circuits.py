"""Gate IR, multi-control decompositions, and Grover circuit builders.

The elementary gate set is: arbitrary single-qubit rotations, the exact named
gates X/H/RZ, CZ, and the multi-qubit Z-rotation.  Multi-control Z gates are
decomposed into this set with a ladder of two-control rotation blocks acting
on work qubits; work qubits must enter in |+> and are restored by the mirrored
uncompute half.

Qubit indices in the IR are 0-based.  A circuit owns `num_logical + num_work`
register qubits; work qubits default to the trailing indices but builders may
place them elsewhere via `work_qubits`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import floor, pi, sqrt

from .core import check_state_fits

__all__ = [
    "Circuit",
    "CzGate",
    "MultiZRot",
    "NamedGate",
    "SingleQubit",
    "build_diffusion",
    "build_grover",
    "build_oracle",
    "expand_lambda1",
    "expand_lambda2",
    "expand_lambda_z",
    "grover_iterations",
    "triple_control_z_circuit",
]


@dataclass(frozen=True)
class SingleQubit:
    """Axis-angle rotation: exp(-i alpha (r.sigma)/2) on qubit q."""

    q: int
    theta: float
    phi: float
    alpha: float


@dataclass(frozen=True)
class NamedGate:
    """Exact named gate on qubit q: X, H, or RZ(phi)."""

    q: int
    name: str
    phi: float = 0.0

    def __post_init__(self):
        if self.name not in ("X", "H", "RZ"):
            raise ValueError(f"unknown named gate {self.name!r}")


@dataclass(frozen=True)
class CzGate:
    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("CZ needs two distinct qubits")


@dataclass(frozen=True)
class MultiZRot:
    """Measurement-based rotation exp(-i theta Z^{x k}/2) on `leaves`."""

    leaves: tuple[int, ...]
    theta: float
    kappa: int = 0

    def __post_init__(self):
        if not self.leaves:
            raise ValueError("rotation needs at least one qubit")
        if len(set(self.leaves)) != len(self.leaves):
            raise ValueError("rotation qubits must be distinct")
        if type(self.kappa) is not int or self.kappa not in (0, 1):
            raise ValueError(f"kappa must be the int 0 or 1, got {self.kappa!r}")


Gate = SingleQubit | NamedGate | CzGate | MultiZRot


def _gate_qubits(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, (SingleQubit, NamedGate)):
        return (gate.q,)
    if isinstance(gate, CzGate):
        return (gate.a, gate.b)
    return gate.leaves


@dataclass
class Circuit:
    """Ordered elementary gates over a register of logical plus work qubits.

    `steps` optionally groups consecutive gate indices into computation steps
    (a multi-control block counts as one step for the classical bookkeeping);
    ungrouped circuits default to one step per gate, so tau_max equals the
    gate count.
    """

    num_logical: int
    num_work: int = 0
    gates: list[Gate] = field(default_factory=list)
    steps: list[tuple[int, ...]] | None = None
    work_qubits: tuple[int, ...] | None = None

    @property
    def num_qubits(self) -> int:
        return self.num_logical + self.num_work

    @property
    def works(self) -> tuple[int, ...]:
        if self.work_qubits is not None:
            return self.work_qubits
        return tuple(range(self.num_logical, self.num_qubits))

    @property
    def logicals(self) -> tuple[int, ...]:
        workset = set(self.works)
        return tuple(q for q in range(self.num_qubits) if q not in workset)

    @property
    def tau_max(self) -> int:
        return len(self.step_groups())

    def step_groups(self) -> list[tuple[int, ...]]:
        if self.steps is None:
            return [(i,) for i in range(len(self.gates))]
        return list(self.steps)

    def rotation_count(self) -> int:
        return sum(1 for g in self.gates if isinstance(g, MultiZRot))

    def validate(self) -> None:
        if self.num_logical < 1:
            raise ValueError("circuit needs at least one logical qubit")
        if self.num_work < 0:
            raise ValueError("negative work qubit count")
        check_state_fits(self.num_qubits)
        if self.work_qubits is not None:
            if len(self.work_qubits) != self.num_work:
                raise ValueError("work_qubits length does not match num_work")
            if not all(0 <= q < self.num_qubits for q in self.work_qubits):
                raise ValueError("work qubit index out of range")
            if len(set(self.work_qubits)) != self.num_work:
                raise ValueError("duplicate work qubit")
        for gate in self.gates:
            for q in _gate_qubits(gate):
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"gate {gate} uses qubit {q} outside the register")
        if self.steps is not None:
            flat = [i for group in self.steps for i in group]
            if flat != list(range(len(self.gates))):
                raise ValueError("steps must partition gate indices in order")

    @classmethod
    def from_steps(
        cls,
        num_logical: int,
        num_work: int,
        step_gates: list[list[Gate]],
        work_qubits: tuple[int, ...] | None = None,
    ) -> "Circuit":
        gates: list[Gate] = []
        steps: list[tuple[int, ...]] = []
        for group in step_gates:
            steps.append(tuple(range(len(gates), len(gates) + len(group))))
            gates.extend(group)
        circuit = cls(num_logical, num_work, gates, steps, work_qubits)
        circuit.validate()
        return circuit


def _check_disjoint(controls, targets) -> None:
    controls, targets = set(controls), set(targets)
    if not controls or not targets:
        raise ValueError("controls and targets must be nonempty")
    if controls & targets:
        raise ValueError("controls and targets overlap")


def expand_lambda1(control: int, targets: tuple[int, ...], minus_two_theta: float) -> list[Gate]:
    """Single-control rotation as two multi-Z rotations.

    A rotation by `minus_two_theta` on the targets, applied only when the
    control is |1>, factors exactly as rot({control} + targets, theta) then
    rot(targets, -theta) with theta = -minus_two_theta / 2.
    """
    _check_disjoint((control,), targets)
    theta = -minus_two_theta / 2
    return [
        MultiZRot(tuple([control, *targets]), theta),
        MultiZRot(tuple(targets), -theta),
    ]


def expand_lambda2(controls: tuple[int, int], targets: tuple[int, ...], four_theta: float) -> list[Gate]:
    """Double-control rotation as four multi-Z rotations.

    With theta = four_theta / 4 and controls (c1, c2), the execution order is
    rot({c1,c2}+T, theta), rot({c2}+T, -theta), rot({c1}+T, -theta),
    rot(T, theta).
    """
    if len(controls) != 2 or controls[0] == controls[1]:
        raise ValueError("need exactly two distinct controls")
    _check_disjoint(controls, targets)
    c1, c2 = controls
    theta = four_theta / 4
    t = tuple(targets)
    return [
        MultiZRot((c1, c2, *t), theta),
        MultiZRot((c2, *t), -theta),
        MultiZRot((c1, *t), -theta),
        MultiZRot(t, theta),
    ]


def expand_lambda_z_steps(
    controls: tuple[int, ...], target: int, work: tuple[int, ...]
) -> list[list[Gate]]:
    """Multi-control Z as grouped computation steps.

    For c controls and c-1 work qubits (in |+>): chain the controls pairwise
    onto the work qubits with +pi two-control rotation blocks followed by H,
    apply CZ(last work, target), then uncompute with the mirrored -pi blocks.
    Each rotation block is one step.  c = 1 degenerates to the plain CZ.
    """
    controls = tuple(controls)
    work = tuple(work)
    if not controls:
        raise ValueError("need at least one control")
    everything = controls + work + (target,)
    if len(set(everything)) != len(everything):
        raise ValueError("controls, work qubits, and target must be disjoint")
    if len(work) != len(controls) - 1:
        raise ValueError(f"{len(controls)} controls need {len(controls) - 1} work qubits, got {len(work)}")

    if len(controls) == 1:
        return [[CzGate(controls[0], target)]]

    # work qubit k collects the pair (c0, c1) for k = 0, else (c_{k+1}, w_{k-1})
    pairs = [(controls[0], controls[1]), *zip(controls[2:], work)]

    def ladder(four_theta: float) -> list[list[Gate]]:
        steps: list[list[Gate]] = []
        for pair, w in zip(pairs, work):
            steps.append(expand_lambda2(pair, (w,), four_theta))
            steps.append([NamedGate(w, "H")])
        return steps

    return ladder(pi) + [[CzGate(work[-1], target)]] + ladder(-pi)[::-1]


def expand_lambda_z(controls: tuple[int, ...], target: int, work: tuple[int, ...]) -> list[Gate]:
    """Flat elementary-gate list for the multi-control Z (see the steps form)."""
    return [g for group in expand_lambda_z_steps(controls, target, work) for g in group]


def _oracle_steps(n: int, j: int, work: tuple[int, ...]) -> list[list[Gate]]:
    if not 0 <= j < 2**n:
        raise ValueError(f"marked index {j} out of range for n={n}")
    flips = [NamedGate(q, "X") for q in range(n) if not (j >> q) & 1]
    frame = [[g] for g in flips]
    core = expand_lambda_z_steps(tuple(range(n - 1)), n - 1, work)
    return frame + core + frame


def build_oracle(n: int, j: int, work: tuple[int, ...] | None = None) -> list[Gate]:
    """Phase oracle I - 2|j><j| on n qubits.

    X-conjugation on the qubits where j has bit 0 turns the all-ones
    multi-control Z into a phase flip of |j> alone.  `work` supplies the
    n - 2 work qubits the multi-control Z needs (defaults to n..2n-3).
    """
    if n < 2:
        raise ValueError("oracle needs at least two qubits")
    if work is None:
        work = tuple(range(n, n + max(n - 2, 0)))
    return [g for group in _oracle_steps(n, j, work) for g in group]


def _diffusion_steps(n: int, work: tuple[int, ...]) -> list[list[Gate]]:
    outer = [[NamedGate(q, "H")] for q in range(n)] + [[NamedGate(q, "X")] for q in range(n)]
    core = expand_lambda_z_steps(tuple(range(n - 1)), n - 1, work)
    closing = [[NamedGate(q, "X")] for q in range(n)] + [[NamedGate(q, "H")] for q in range(n)]
    return outer + core + closing


def build_diffusion(n: int, work: tuple[int, ...] | None = None) -> list[Gate]:
    """Inversion about the mean, 2|s><s| - I up to global sign, on n qubits."""
    if n < 2:
        raise ValueError("diffusion needs at least two qubits")
    if work is None:
        work = tuple(range(n, n + max(n - 2, 0)))
    return [g for group in _diffusion_steps(n, work) for g in group]


def grover_iterations(n: int) -> int:
    """Standard optimal iteration count floor(pi/4 * sqrt(2^n))."""
    return int(floor(pi / 4 * sqrt(2**n)))


def build_grover(n: int, j: int, iterations: int | None = None) -> Circuit:
    """Search circuit for the marked basis index j on n qubits.

    Starts from |0...0> with a Hadamard on every search qubit, then repeats
    (oracle; diffusion).  The multi-control Z inside both reflections uses
    n - 2 work qubits appended after the search register.
    """
    if n < 2:
        raise ValueError("search needs at least two qubits")
    if iterations is None:
        iterations = grover_iterations(n)
    if iterations < 0:
        raise ValueError("negative iteration count")
    num_work = max(n - 2, 0)
    check_state_fits(n + num_work)
    work = tuple(range(n, n + num_work))
    step_gates: list[list[Gate]] = [[NamedGate(q, "H")] for q in range(n)]
    for _ in range(iterations):
        step_gates.extend(_oracle_steps(n, j, work))
        step_gates.extend(_diffusion_steps(n, work))
    return Circuit.from_steps(n, num_work, step_gates)


def triple_control_z_circuit() -> Circuit:
    """Six-qubit register applying Z on qubit 6 iff qubits 1, 2, 3 are all |1>
    (1-based labels), with work qubits 4 and 5 in |+>.

    The layout keeps the work qubits at positions 4 and 5 so that trace
    vectors read in plain register order.
    """
    steps = expand_lambda_z_steps(controls=(0, 1, 2), target=5, work=(3, 4))
    return Circuit.from_steps(num_logical=4, num_work=2, step_gates=steps, work_qubits=(3, 4))
