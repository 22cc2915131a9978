"""Exception types shared across the package."""


class GainLapError(Exception):
    """Base class for all errors raised by this package."""


class ZeroGain(GainLapError):
    """A gain of modulus zero cannot be projected onto the unit circle."""


class NotAWalk(GainLapError):
    """A vertex sequence does not follow edges of the graph."""


class NotACycle(GainLapError):
    """A vertex sequence is not a simple closed walk of length >= 3."""


class Disconnected(GainLapError):
    """An operation requiring connectivity met an unreachable vertex pair."""


class TooLarge(GainLapError):
    """A combinatorial enumeration, a dense matrix or a path count
    exceeded its configured limit; the CLI exits 3 on any of them."""


class PathExplosion(TooLarge):
    """A vertex pair has more distinct geodesic gains (or, when listed,
    more shortest paths) than the configured cap."""


class NotHermitian(GainLapError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class ParseError(GainLapError):
    """Input text could not be decoded as a graph document."""


class ValidationError(GainLapError, ValueError):
    """A structural invariant of the input data is violated.  It is also
    a ``ValueError``: the input has the right type but a bad value."""
