"""Exception types shared across the package."""


class QBAGError(Exception):
    """Base class for every error raised by this package."""


class DuplicateArgument(QBAGError):
    """An argument name occurs more than once in a graph definition."""


class UnknownEndpoint(QBAGError):
    """An edge references an argument that is not part of the graph."""


class StrengthOutOfRange(QBAGError):
    """An initial strength lies outside the unit interval."""


class OverlappingRelation(QBAGError):
    """The same edge appears in both the attack and the support relation."""


class CyclicGraph(QBAGError):
    """The combined attack/support relation contains a directed cycle."""


class UnknownArgument(QBAGError):
    """An operation referenced an argument the graph does not contain."""


class NotDistinct(QBAGError):
    """An operation requires pairwise distinct arguments but got repeats."""


class DomainError(QBAGError):
    """An influence function received an aggregate outside its domain."""


class TooLarge(QBAGError):
    """A topic and its ancestors exceed the cap for exact coalition enumeration."""


class UnknownExample(QBAGError):
    """No built-in example is registered under the requested id."""


class GraphFormatError(QBAGError):
    """A graph file does not conform to the documented text format."""
