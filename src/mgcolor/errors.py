"""Exception types shared across the package."""


class Error(Exception):
    """Base class for every exception raised by this package."""


class InputError(Error, ValueError):
    """Invalid user-supplied data: graphs, parameters, or files."""


class SelfLoopError(InputError):
    def __init__(self, u: int):
        super().__init__(f"self-loop at vertex {u}")
        self.vertex = u


class DuplicateEdgeError(InputError):
    def __init__(self, u: int, v: int):
        super().__init__(f"duplicate edge ({u}, {v})")
        self.edge = (u, v)


class VertexRangeError(InputError):
    def __init__(self, v: int, n: int):
        super().__init__(f"vertex {v} out of range [0, {n})")
        self.vertex = v
        self.n = n


class BadParamsError(InputError):
    """Generator or CLI parameters outside their legal range."""


class BadPaletteError(InputError):
    """Palette size must be at least 1."""


class NotAnEdgeError(InputError):
    def __init__(self, u: int, v: int):
        super().__init__(f"({u}, {v}) is not an edge of the graph")
        self.edge = (u, v)


class ParseError(InputError):
    """Malformed text input; `line` is the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(f"{loc}{message}")
        self.line = line


class DimensionMismatchError(InputError):
    """A coloring's dimensions do not match the graph it is checked against."""


class TooLargeError(Error):
    """Instance exceeds the resource cap of an exponential-time routine."""


class PreconditionError(Error):
    """A documented call precondition does not hold."""


class EdgeAlreadyColoredError(PreconditionError):
    """Fan construction requires the anchor edge to be uncolored."""


class InvalidColorError(Error):
    """A recoloring would break properness.

    Raised by the validated recoloring path; hitting it from inside the
    algorithm indicates an implementation bug, not bad user input.
    """


class InvariantError(Error):
    """A runtime invariant check failed.

    Raised by the per-step lemma checks, which `extend_coloring(debug=True)`
    runs in one place (the fan and path building blocks have no debug
    mode), and by guards against a coloring state no proper coloring has.
    """


class FanInvariantError(InvariantError):
    """A sequence claimed to be a fan is not one."""


class PathInvariantError(InvariantError):
    """A sequence claimed to be an alternating path is not one."""


class NotMaximalError(InvariantError):
    """A fan or path required to be maximal is extendable."""


class SubfanError(InvariantError):
    """Subfan selection produced an invalid result.

    Unreachable for correct inputs; firing falsifies the subfan existence
    argument and therefore signals an implementation bug.
    """
