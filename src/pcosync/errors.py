"""Exception types shared across the package."""


class GraphTooLargeError(ValueError):
    """Raised when an exhaustive graph check is asked to exceed its node guard."""


class ScenarioValidationError(ValueError):
    """Raised when a scenario fails validation and the run was not forced.

    Carries the individual violation messages in ``violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnrunnableScenarioError(ScenarioValidationError):
    """Raised by ``ScenarioConfig.build`` on values no run can use, which
    forcing the run cannot get past."""


class ProtocolFault(RuntimeError):
    """A protocol precondition broke mid-run.

    Covers both scenario-configuration faults surfaced by the update rule
    (a node heard fewer pulses than its in-degree minus the fault bound)
    and internal trim/ratio underflows. Never silently clamped.
    """


class InvariantViolation(RuntimeError):
    """A runtime invariant failed (event budget, threshold overshoot,
    or a safety assertion running in strict mode)."""
