"""Shared exception types, and the exit codes the CLI and the scripts end with."""

USAGE_ERROR = 2
MISMATCH_ERROR = 3
BUDGET_ERROR = 4


class BudgetExceeded(RuntimeError):
    """A computation was refused because it would blow a configured budget.

    Carries enough context to tell the caller what to do instead (use the
    log variant, lower the horizon, raise the cap).
    """

    def __init__(self, message, *, required=None, limit=None):
        super().__init__(message)
        self.required = required
        self.limit = limit


class DegreeCapExceeded(BudgetExceeded):
    """A permutation action would exceed the configured degree cap."""
