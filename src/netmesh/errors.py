"""Exception types shared across the grid kernel and the network solvers."""


class MeshError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(MeshError):
    """Coordinate or reference-coordinate length does not match the grid."""


class FactoryError(MeshError):
    """Invalid input to the grid factory or the growth queue."""


class SingularGeometryError(MeshError):
    """Geometry operation on a degenerate (zero-measure) simplex."""


class StaleEntityError(MeshError):
    """Entity handle or view used after the grid changed, or entity not in view."""


class LifecycleError(MeshError):
    """Adapt/grow phase method called out of order."""


class NeighborIndexError(MeshError):
    """Intersection outside/neighbor index out of range."""


class SingularSystemError(MeshError):
    """Linear system of a solver has no unique solution."""


class ScenarioError(MeshError):
    """Scenario file is missing keys or holds values that fail validation."""


class MshParseError(MeshError):
    """Mesh file cannot be parsed.

    ``line`` carries the 1-based offending line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def undecodable_line(err):
    """The 1-based line of a ``UnicodeDecodeError``'s bad byte, with lines ended
    by ``\\n``, ``\\r\\n`` or a lone ``\\r``, as ``Path.read_text`` ends them."""
    before = err.object[: err.start]
    return before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
