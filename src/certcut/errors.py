"""Exception hierarchy.

Three families matter to the CLI exit-code contract: parse errors (exit 2),
precondition violations (exit 3), and budget overruns (exit 4).
"""


class CertcutError(Exception):
    pass


class PreconditionError(CertcutError):
    """Input violates a documented precondition of the operation."""


class BudgetExceeded(CertcutError):
    """An enumeration or retry bound was hit before the computation finished."""


class RetryLimitExceeded(BudgetExceeded):
    """A randomized generator exhausted its restart budget."""


class ParseError(CertcutError):
    """Malformed input at ``line``, when known; ``Graph.from_edges`` sets
    ``index``, the position of the pair it refuses."""

    index = None

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SelfLoop(ParseError):
    pass


class DuplicateEdge(ParseError):
    pass


class VertexOutOfRange(ParseError):
    pass


class LabelSizeMismatch(PreconditionError):
    pass


class OutOfRangeVertex(PreconditionError):
    pass


class InvalidEpsilon(PreconditionError):
    pass


class InvalidParameter(PreconditionError, ValueError):
    """A numeric parameter lies outside its documented range.

    Also a ``ValueError``, so callers of the library may catch either.
    """


class EpsilonTooLarge(PreconditionError):
    pass


class NotEnoughTriangles(PreconditionError):
    pass


class NotAPartition(PreconditionError):
    pass


class NotACutOfInducedSubgraph(PreconditionError):
    pass


class TooFewVertices(PreconditionError):
    pass


class ImproperColoring(PreconditionError):
    pass


class InfeasibleDegree(PreconditionError):
    pass


class InfeasibleSpec(PreconditionError):
    pass


class CliqueFound(PreconditionError):
    """A supposedly clique-free graph turned out to contain one.

    ``witness`` is the offending clique, as a sorted vertex tuple.
    """

    def __init__(self, witness):
        self.witness = tuple(sorted(witness))
        super().__init__(f"found a {len(self.witness)}-clique: {self.witness}")


class NotKrFree(PreconditionError):
    """The input graph contains an r-clique; ``witness`` holds one."""

    def __init__(self, witness):
        self.witness = tuple(sorted(witness))
        super().__init__(f"input is not clique-free: contains {self.witness}")
