"""Exception hierarchy shared across the package."""


class CqssError(Exception):
    """Base class for all errors raised by this package."""


# -- state-vector simulation ------------------------------------------------

class SimulationError(CqssError):
    pass


class CapacityError(SimulationError):
    """An array would span more than ``MAX_ARRAY_QUBITS`` qubits."""


class UnknownQubit(SimulationError):
    """Operation referenced a qubit id that is not live in the register."""


class DimensionMismatch(SimulationError):
    pass


class NotNormalized(SimulationError):
    pass


class InternalInconsistency(SimulationError):
    """Numerical state violated an invariant that should hold by construction."""


# -- protocol ----------------------------------------------------------------

class ProtocolError(CqssError):
    pass


class PolicyError(ProtocolError):
    """Roster, share-assignment or threshold constraints violated."""


class IncompleteRun(ProtocolError):
    """Operation requires an earlier protocol phase to have finished."""


class ControllerRefusal(ProtocolError):
    """A controller whose cooperation is required has withheld it."""


class ResourceAccountingError(ProtocolError):
    """Consumed resources disagree with the closed-form expected counts."""


# -- harness / interfaces ----------------------------------------------------

class DecodeError(CqssError):
    """State lies outside the image of the demo encoding."""


class ScenarioError(CqssError):
    """Scenario file or configuration is malformed; message names the field."""


class SweepError(CqssError):
    """Consent-sweep outcome contradicts the configured threshold."""
