"""Exception types shared across the engine."""


class CtxSatError(Exception):
    """Base class for all engine errors."""


class UnknownContext(CtxSatError):
    pass


class DuplicateContext(CtxSatError):
    pass


class NotALattice(CtxSatError):
    """Declaring this element would leave some pair without a unique glb."""


class NoUpperBound(CtxSatError):
    """No declared element lies above both join arguments."""


class NotBelow(CtxSatError):
    """An operation required lo <= hi in the context order."""


class UnknownNode(CtxSatError):
    pass


class UnknownSymbol(CtxSatError):
    pass


class ArityMismatch(CtxSatError):
    pass


class NegativeArity(CtxSatError):
    """A function symbol was declared with an arity below zero."""


class DuplicateSymbol(CtxSatError):
    pass


class DuplicateRule(CtxSatError):
    pass


class UnboundRhsVariable(CtxSatError):
    """A rewrite rule's right-hand side uses a variable its left-hand side does not bind."""


class NoFiniteTerm(CtxSatError):
    """Every derivation of the class is cyclic or violates the forbid constraint."""


class UnsupportedCorpus(CtxSatError):
    """The baseline encoder cannot represent this program."""


class DslError(CtxSatError):
    """Parse or command error, carrying a source position when known."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class DslSyntaxError(DslError):
    pass


class UnknownCommand(DslError):
    pass


class CommandArityError(DslError):
    pass
