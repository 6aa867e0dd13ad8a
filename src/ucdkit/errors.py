"""Exception types shared across the package.

Everything user-facing derives from UcdError so the CLI can map domain
failures to a single exit code.
"""


class UcdError(Exception):
    """Base class for all domain errors raised by this package."""


class ScenarioError(UcdError):
    """A scenario document failed to parse or validate.

    Carries the list of individual violations when validation (rather
    than parsing) failed.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else []


class InfeasibleModeError(UcdError):
    """A commitment vector admits no feasible dispatch at some period."""

    def __init__(self, t, commitment, detail=""):
        self.t = t
        self.commitment = tuple(int(b) for b in commitment)
        bits = "".join(str(b) for b in self.commitment)
        msg = f"no feasible dispatch at period t={t} for commitment {bits}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class QpNumericalError(UcdError):
    """The QP kernel terminated without a certified KKT point."""


class BudgetExceededError(UcdError):
    """A mode-tree walk hit its evaluation budget."""

    def __init__(self, budget, message=""):
        self.budget = budget
        super().__init__(message or f"enumeration budget of {budget} evaluations exceeded")


class ModelMismatchError(UcdError):
    """A stored value model does not belong to the scenario it was asked to drive."""
