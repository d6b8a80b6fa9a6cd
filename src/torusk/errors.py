"""Shared error types.

Exit-code mapping for the command line lives in cli.py: usage errors are 1,
verification failures 2, budget overruns 3.
"""


class VerificationError(Exception):
    """An exact check that must hold did not (bad certificate, table mismatch)."""


class BudgetError(Exception):
    """A size or time budget was exceeded before starting the computation."""
