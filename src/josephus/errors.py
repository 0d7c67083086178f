"""Exception hierarchy shared by all josephus modules."""


class JosephusError(Exception):
    """Base class for errors raised by this package."""


class DomainError(JosephusError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class EnumerationCapError(DomainError):
    """Exhaustive enumeration was requested above the supported cap."""


class InvalidStateError(JosephusError):
    """A process state does not admit the requested transition."""


class CheckFailure(JosephusError):
    """A check command's documented postcondition does not hold."""


class KernelBuildError(JosephusError, RuntimeError):
    """The C kernel of the sampler and the CLT harness could not be built (say, no gcc)."""
