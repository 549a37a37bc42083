"""Hybrid quantum computation simulator.

Single-qubit gates and CZ run as unitaries; multi-qubit Z-rotations run as
single measurements on star graph states, with the random Pauli byproducts
tracked classically and folded into the final readout.
"""
from .circuit_text import CircuitParseError, parse_circuit, parse_circuit_file, serialize_circuit
from .circuits import (
    Circuit,
    CzGate,
    MultiZRot,
    NamedGate,
    SingleQubit,
    build_diffusion,
    build_grover,
    build_oracle,
    expand_lambda1,
    expand_lambda2,
    expand_lambda_z,
    grover_iterations,
    triple_control_z_circuit,
)
from .core import (
    BlochVector,
    MeasurementSpec,
    RandomSource,
    StateVector,
    apply_cz,
    apply_named,
    apply_single_qubit,
    fidelity,
    make_basis_state,
    measure,
)
from .runner import (
    EquivalenceReport,
    ExecutionConfig,
    ShotResult,
    TraceTable,
    run_both,
    run_hqcm,
    run_unitary,
    verify_equivalence,
)
from .star import (
    AncillaPrep,
    RotationRecord,
    StarGraph,
    build_star_state,
    check_stabilizer,
    multi_z_rotation,
    rz_teleport_gadget,
)
from .tracker import (
    Gf2Expr,
    InfoFlowVector,
    PropagationMatrix,
    absorb_rotation_outcome,
    adapt_axis,
    adapt_azimuth,
    adapt_rotation_angle,
    byproduct_to_unitary,
    correct_readout,
    init_flow,
    matrix_for,
    propagate,
)

__version__ = "0.1.0"
