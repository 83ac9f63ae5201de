"""Exception types shared across the package.

Each carries a short machine-readable code that the CLI surfaces in reports
and maps onto its exit status.
"""


class AdeleForgeError(Exception):
    code = "error"
    exit_status = 1


class DomainError(AdeleForgeError):
    """Violated mathematical precondition (zero denominator, off-curve point, ...)."""

    code = "domain"
    exit_status = 1


class SchemaError(AdeleForgeError):
    """Malformed configuration document."""

    code = "schema"
    exit_status = 2


class AuditError(AdeleForgeError):
    """The sign audit found no consistent assignment."""

    code = "audit"
    exit_status = 3
