"""Exception types shared across the package.

The CLI maps these to exit codes: DomainError / FormatError / StructureError
are usage problems (exit 2), CapabilityError marks an input beyond a
configured size limit (exit 3), CertificateError is a failed mathematical
check (exit 1).
"""


class DomainError(ValueError):
    """A parameter violates a documented precondition (e.g. fugacity <= 0)."""


class FormatError(ValueError):
    """Malformed input text; the message names the offending byte or line."""


class StructureError(ValueError):
    """Dimension mismatch in a linear program or certificate."""


class CapabilityError(RuntimeError):
    """Input exceeds a configured size limit for an exhaustive computation."""


class CertificateError(AssertionError):
    """A certificate check that must hold exactly has failed.

    Carries the offending item (configuration, triple, ...) in args so
    callers can report what broke; it reads as its message alone.
    """

    def __str__(self):
        return str(self.args[0]) if self.args else ""
