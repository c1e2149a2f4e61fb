"""Shared exception types."""


class ThinSectionsError(Exception):
    pass


class NotSquarefree(ThinSectionsError):
    pass


class NotIsolating(ThinSectionsError):
    pass


class FieldMismatch(ThinSectionsError):
    pass


class DivisionByZero(ThinSectionsError):
    pass


class AuditError(ThinSectionsError):
    """Internal invariant broke; should be unreachable."""


class NotSquare(ThinSectionsError):
    pass


class NegativeEntries(ThinSectionsError):
    pass


class NotAnEigenvalue(ThinSectionsError):
    pass


class InvalidSystem(ThinSectionsError):
    pass


class NotContained(ThinSectionsError):
    pass


class SelfTransmission(ThinSectionsError):
    pass


class PreconditionFailed(ThinSectionsError):
    pass


class NoAdmissibleMove(ThinSectionsError):
    pass


class AmbiguousMove(ThinSectionsError):
    pass


class OutOfSupport(ThinSectionsError):
    pass


class Halted(ThinSectionsError):
    pass


class NotFound(ThinSectionsError):
    pass


class NearSaddle(ThinSectionsError):
    pass


class EmptyWindow(ThinSectionsError):
    pass


class WindowTooLarge(ThinSectionsError):
    pass


class DepthExhausted(ThinSectionsError):
    pass
