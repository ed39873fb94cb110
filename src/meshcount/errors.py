"""Exception types raised across the library."""


class MeshCountError(Exception):
    """Base class for all library-specific errors."""


# -- geometry ---------------------------------------------------------------

class TooFewPoints(MeshCountError):
    """Fewer correspondences than the minimum the estimator needs."""


class DegenerateConfiguration(MeshCountError):
    """Point configuration leaves the estimation problem rank-deficient."""


class NoConsensus(MeshCountError):
    """RANSAC found no consensus set of at least four correspondences."""


class PointAtInfinity(MeshCountError):
    """Projective division by a vanishing homogeneous coordinate."""


# -- matching ---------------------------------------------------------------

class DimensionMismatch(MeshCountError):
    """Vectors of incompatible length were combined."""


class IndexOutOfRange(MeshCountError):
    """A match refers to a feature index outside its set."""


# -- density ----------------------------------------------------------------

class OutOfBounds(MeshCountError):
    """A dot annotation or region lies outside the target map."""


class TooFewDots(MeshCountError):
    """Not enough dots for the requested neighbor count."""


class SigmaZero(MeshCountError):
    """A kernel bandwidth resolved to zero (coincident dots)."""


class ShapeMismatch(MeshCountError):
    """Two maps that must share a shape do not."""


# -- metrics ----------------------------------------------------------------

class EmptyInput(MeshCountError):
    """A metric was asked to average over nothing."""


class ZeroGroundTruth(MeshCountError):
    """A relative metric would divide by a zero ground-truth count."""


class TooSmall(MeshCountError):
    """Input smaller than the metric's window."""


# -- protocol ---------------------------------------------------------------

class CalibrationFailed(MeshCountError):
    """A neighbor pair could not be calibrated."""

    def __init__(self, node_i, node_j, reason=""):
        self.node_i = node_i
        self.node_j = node_j
        msg = f"calibration failed for pair ({node_i}, {node_j})"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


# -- rescoring --------------------------------------------------------------

class HeadMismatch(MeshCountError):
    """Loss applied to a scorer with the wrong head kind."""


class UnorderedThetas(MeshCountError):
    """Ordinal thresholds are not strictly increasing."""


class BadTuple(MeshCountError):
    """A rank-learning tuple does not cover each agreement level once."""


class EmptyAgreementLevel(MeshCountError):
    """An agreement level has no samples to draw from."""


class ConstantInput(MeshCountError):
    """Correlation of a constant sequence is undefined."""


class TrainingDiverged(MeshCountError):
    """Gradient descent left the finite numbers; the learning rate is too high."""


# -- annotate ---------------------------------------------------------------

class DegenerateSamples(MeshCountError):
    """Calibration samples cannot determine the fit."""


# -- io / synthesis ---------------------------------------------------------

class ParseError(MeshCountError):
    """Malformed input file, with the position of the failure."""

    def __init__(self, message, *, line=None, column=None, offset=None):
        self.line = line
        self.column = column
        self.offset = offset
        loc = ""
        if line is not None:
            loc = f" at line {line}"
            if column is not None:
                loc += f", column {column}"
        elif offset is not None:
            loc = f" at byte offset {offset}"
        super().__init__(message + loc)


class InfeasibleOverlap(MeshCountError):
    """Requested camera overlap cannot be realized by the generator."""
