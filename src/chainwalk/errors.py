"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(SimulationError):
    """Invalid sizes, exponents, or other configuration."""


class DomainError(SimulationError):
    """A point lies outside the function's (possibly restricted) domain."""


class ValidationError(SimulationError):
    """A table entry or state failed an internal consistency check."""


class CapacityError(SimulationError):
    """An enumeration or exclusion set grew past its supported size."""


class ImpossibleTargetError(SimulationError):
    """Amplification was asked to land on an empty component."""


class ContractViolationError(SimulationError):
    """An operation received input that breaks its stated contract."""


class FlaggedInstanceError(SimulationError):
    """The instance violates a statistical premise; it is skipped, not patched.

    Raised with the reason alone; the message prepends the sentence above.
    """

    def __str__(self) -> str:
        return (
            "The instance violates a statistical premise; it is skipped, not patched: "
            + super().__str__()
        )
