"""Seedable exact simulator of controller-gated quantum secret sharing.

A dealer spreads an N-qubit secret state over n players by entanglement
swapping through shared singlet pairs, while the two-bit Bell-measurement
records needed to finish the job go to m controllers.  Players cannot
reconstruct until enough controllers release their records; a withheld
record provably erases all knowledge of the matching qubit.  The package
also models decoy-state checking against an intercept-resend eavesdropper,
and counts the consumed entanglement and measurement resources.
"""

from types import ModuleType as _ModuleType

from .errors import (
    CapacityError,
    ControllerRefusal,
    CqssError,
    DecodeError,
    DimensionMismatch,
    IncompleteRun,
    InternalInconsistency,
    NotNormalized,
    PolicyError,
    ProtocolError,
    ResourceAccountingError,
    ScenarioError,
    SimulationError,
    SweepError,
    UnknownQubit,
)
from .qubits import (
    BASIS_X,
    BASIS_Z,
    CORRECTION_FOR_OUTCOME,
    MAX_ARRAY_QUBITS,
    BellKind,
    DensityMatrix,
    Pauli,
    QuantumRegister,
    QubitId,
    RandomSource,
    fidelity,
    pure_density,
    sealed_mixture,
    trace_distance,
)
from .protocol import (
    AccessPolicy,
    Message,
    ProtocolRun,
    Recovered,
    ResourceReport,
    Sealed,
    Transcript,
    setup,
)
from .security import (
    AuditReport,
    DecoyPlan,
    DecoyState,
    DetectionReport,
    EveModel,
    eve_tap,
    no_information_audit,
    verify_decoys,
)
from .scenario import (
    ScenarioConfig,
    SecretSpec,
    load_scenario,
    parse_scenario_text,
    scenario_to_text,
)
from .harness import (
    DetectionCurve,
    RunReport,
    SweepTable,
    TrialResult,
    demo_decode,
    demo_encode,
    detection_curve,
    expected_outcome,
    haar_random_state,
    mstar_sweep,
    run_scenario,
    run_trial,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules themselves are not exported.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
