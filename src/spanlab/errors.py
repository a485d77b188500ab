"""Exception types shared across the package."""


class SpanlabError(Exception):
    """Base class for every error raised by spanlab."""


class EmptyGraphError(SpanlabError):
    """Graph construction with no vertices."""


class SelfLoopError(SpanlabError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(SpanlabError):
    """The same unordered edge was given twice."""


class DisconnectedError(SpanlabError):
    """The graph is not connected (a standing requirement here)."""


class VertexOutOfRangeError(SpanlabError):
    """A vertex id falls outside 0..n-1."""


class EdgeListSyntaxError(SpanlabError):
    """Malformed edge-list text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BadCharError(SpanlabError):
    """A graph6 byte outside the printable 63..126 range."""


class LengthMismatchError(SpanlabError):
    """A graph6 line whose length does not match its vertex count."""


class InvalidTracksError(SpanlabError):
    """A track pair that cannot belong to the given graph."""


class NotActiveConformantError(SpanlabError):
    """Tracks fed to a transformation do not follow the active rule."""


class NotLazyConformantError(SpanlabError):
    """Tracks fed to a transformation do not follow the lazy rule."""


class ParameterOutOfRangeError(SpanlabError):
    """A family parameter outside its documented range."""


class UnknownGraphIdError(SpanlabError):
    """No bundled graph under that name."""


class TooLargeError(SpanlabError):
    """Input exceeds the hard size cap of an exhaustive routine."""


class OrderTooSmallError(SpanlabError):
    """The cut-edge bound needs at least three vertices."""
