"""Exception types shared across the toolkit.

Every error raised by the library derives from PcError so callers can
catch toolkit failures without masking programming errors. OutOfRange,
TooSmall, UnsuitableBase and VertexOutOfRange flag a bad argument value,
so they also derive from ValueError for callers that catch that.
"""


class PcError(Exception):
    """Base class for all toolkit errors."""


class LoopEdge(PcError):
    """An edge joins a vertex to itself."""


class VertexOutOfRange(PcError, ValueError):
    """A vertex count is negative or not an int, an edge endpoint is not
    an int in 0..n-1, or a graph's edge list and rows disagree."""


class MalformedGraph6(PcError):
    """Input is not a valid short-form graph6 line."""


class OverlappingSets(PcError):
    """Two vertex sets were required to be disjoint but are not."""


class Disconnected(PcError):
    """The operation requires a connected graph."""


class TooLarge(PcError):
    """Input exceeds the desk-scale guard for this operation."""


class TooSmall(PcError, ValueError):
    """The graph has too few vertices for this operation."""


class OutOfRange(PcError, ValueError):
    """A size, length or order range argument lies outside its domain."""


class NotAPath(PcError):
    """A vertex sequence is not a simple path of the graph."""


class NotATree(PcError):
    """The operation requires a tree."""


class HasBridge(PcError):
    """The operation requires a bridgeless graph."""


class NotABridge(PcError):
    """The given edge is not a bridge of the composite graph."""


class VerificationFailed(PcError):
    """A constructed coloring failed re-verification (construction bug)."""


class DegreeTooLow(PcError):
    """A new vertex must attach with at least two edges."""


class VerificationExhausted(PcError):
    """The strong 3-coloring search of a bridgeless graph exhausted,
    which the guarantee for bridgeless graphs rules out: a bug."""


class UnsuitableBase(PcError, ValueError):
    """The base certificate of an extension does not have 2 colors, or
    its coloring is not properly connected."""


class ColoringGraphMismatch(PcError):
    """A coloring file does not match the given graph."""


class SearchBudgetExceeded(PcError):
    """Exact search ran out of budget; carries the bracketing interval.

    `lower` is the smallest palette size not yet ruled out, `upper` the
    best verified upper bound. This is a first-class result for survey
    bookkeeping, not a crash.
    """

    def __init__(self, lower: int, upper: int, detail: str = ""):
        self.lower = lower
        self.upper = upper
        msg = f"inconclusive: pc in [{lower}, {upper}]"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
