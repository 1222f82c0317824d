"""Shared exception types, the exit codes the CLI and the scripts end with,
and ``exit_code``, which turns a run's refusals and bad values into them.

Every budget refuses through one rule, ``BudgetExceeded.refuse_above``:
strictly above its limit, carrying the compared number and the limit.
"""

import sys

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

    @classmethod
    def refuse_above(cls, required, limit, message: str) -> None:
        """Raise ``cls(message)`` carrying ``required`` and ``limit`` when required > limit."""
        if required > limit:
            raise cls(message, required=required, limit=limit)


class DegreeCapExceeded(BudgetExceeded):
    """A permutation action would exceed the configured degree cap."""


def exit_code(work, *args) -> int:
    """The exit status of ``work(*args)``: its value, with None read as 0.

    A refused budget prints ``refused: ...`` to stderr and gives
    BUDGET_ERROR; a bad value (ValueError) or an output that cannot be
    written (OSError) prints ``error: ...`` and gives USAGE_ERROR.
    """
    try:
        code = work(*args)
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if code is None else code
