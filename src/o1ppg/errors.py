"""Exception types shared across the package."""


class O1ppgError(Exception):
    """Base class for all package errors."""


class MalformedRotation(O1ppgError):
    """A dart appears in zero or two rotation positions."""


class Disconnected(O1ppgError):
    """Operation requires a connected graph."""


class NotACycle(O1ppgError):
    """Vertex sequence does not describe a cycle of the graph."""


class NotProjectivePlane(O1ppgError):
    """Embedding is not a 2-cell embedding in the projective plane."""


class EmptySubgraph(O1ppgError):
    """Region decomposition needs a nonempty edge set."""


class NotSimple(O1ppgError):
    """Graph has a loop or a multi-edge."""


class NotP2(O1ppgError):
    """Candidate quadrangulation is not embedded in the projective plane."""


class FaceNot4(O1ppgError):
    """Candidate quadrangulation has a face whose walk length is not 4."""


class NotPolyhedral(O1ppgError):
    """Candidate is not 3-connected or not 3-representative."""


class NotSimpleResult(O1ppgError):
    """Adding crossing diagonals would duplicate an edge."""


class TooSmall(O1ppgError):
    """Instance below the supported order."""


class OddOrder(O1ppgError):
    """Operation requires an even number of vertices."""


class NoBlockerFound(O1ppgError):
    """No blocker set exists within the search cap (precondition violation
    or a genuine counterexample; callers report, never crash)."""


class NoHamPath(O1ppgError):
    """No Hamiltonian path between the requested endpoints was found."""


class SearchBudgetExceeded(O1ppgError):
    """An exponential search hit its budget before it settled the question;
    the message names the budget."""


class LinkNotCycle(O1ppgError):
    """Link walk of a vertex is not a cycle; signals a validation bug."""


class TooLarge(O1ppgError):
    """Exhaustive search space beyond the supported gate."""


class ReducibleSeed(O1ppgError):
    """A growth seed has a vertex of degree 2; growth keeps a class with
    one only from its canonical parent, which needs seeds of minimum
    degree at least 3."""


class MalformedManifest(O1ppgError):
    """A corpus manifest row is not a member row whose path can be trusted."""


class UnknownTheorem(O1ppgError):
    """A theorem id the audit does not know."""


class EmptyCorpus(O1ppgError):
    """Verification campaign needs at least one instance."""
