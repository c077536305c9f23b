"""Exception types shared across the library, and the document checks that raise them."""
import json
from contextlib import contextmanager


class TangentTopoError(Exception):
    """Base class for all errors raised by this package."""


@contextmanager
def reading_document(error: type, kind: str):
    """Turn a missing or mistyped entry, met while the block reads a
    ``kind`` document, into ``error``."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        what = f"missing entry {exc}" if isinstance(exc, KeyError) else str(exc)
        raise error(f"malformed {kind} document: {what}") from exc


def load_document(path, error: type, kind: str):
    """The JSON document at ``path``; a repeated key in any of its objects,
    whose last copy ``json.load`` would keep, raises ``error``."""
    def unique(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            keys = [k for k, _ in pairs]
            repeated = next(k for k in keys if keys.count(k) > 1)
            raise error(f"malformed {kind} document: repeated key {repeated!r}")
        return obj
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=unique)


def integer_entry(error: type, value, what: str) -> int:
    """A document entry that must be an integer, as an int; raises
    ``error`` for a bool, text or a number with a fraction part."""
    n = int(value)
    if isinstance(value, bool) or n != value:
        raise error(f"{what} must be an integer, not {value!r}")
    return n


def numbers_entry(error: type, value, what: str):
    """A document entry of numbers, or of lists of them, unchanged; raises
    ``error`` where a bool or text stands for a number (``float`` and numpy
    read ``true`` as 1 and ``"0.5"`` as 0.5)."""
    if isinstance(value, (bool, str)):
        raise error(f"{what} must hold numbers, not {value!r}")
    for item in value if isinstance(value, list) else ():
        numbers_entry(error, item, what)
    return value


# --- geometry ---------------------------------------------------------------

class GeometryError(TangentTopoError):
    """Invalid polyhedron data or a failed geometric invariant."""


class SeparationViolation(GeometryError):
    """A cut plane does not isolate its vertex from the others."""


class DegenerateCut(GeometryError):
    """A cut plane grazes a vertex or cuts interact with each other."""


# --- sphere -----------------------------------------------------------------

class SphereError(TangentTopoError):
    """Degenerate input to a spherical primitive."""


class AntipodalEndpoints(SphereError):
    """Geodesic endpoints are antipodal; the arc is not unique."""


class AntipodalPair(SphereError):
    """Two triangle vertices are antipodal; the area is ill-defined."""


class OnBoundary(SphereError):
    """Reference direction lies on a triangle boundary within tolerance."""


class NotInPlane(SphereError):
    """Path samples are not orthogonal to the rotation axis."""


class MaxRefinement(SphereError):
    """Adaptive refinement budget exhausted."""


class NotClosed(SphereError):
    """Triangulation is not a closed oriented surface."""


class ResolutionTooCoarse(SphereError):
    """Discretization too coarse to trust an integer invariant."""


# --- fields -----------------------------------------------------------------

class FieldError(TangentTopoError):
    """Invalid tangent-field data."""


class CoarseSampling(FieldError):
    """Sampled data violates the step bound and cannot be refined."""


# --- invariants -------------------------------------------------------------

class InvariantError(TangentTopoError):
    """Failure while extracting or combining invariants."""


class NonConstantEdge(InvariantError):
    """Field is not constant along a truncated edge."""


class ParallelEndpoints(InvariantError):
    """Endpoint values on a cleaved edge are parallel; corrupt input."""


class ResidualTooLarge(InvariantError):
    """Winding residual too far from an integer to snap safely."""


class NotRegularValue(InvariantError):
    """Reference direction is not a regular value of the face map."""


class SOnBoundaryImage(InvariantError):
    """Reference direction lies on the image of a face boundary."""


class NoAdmissibleS(InvariantError):
    """No reference direction clears the face-normal margin."""


class DualRouteMismatch(InvariantError):
    """Integral and preimage wrapping routes disagree."""


class AntipodalFanPair(InvariantError):
    """Fan triangulation hit an antipodal or coincident vertex pair."""


class SOnTriangleBoundary(InvariantError):
    """Reference direction sits on a fan-triangle boundary."""


# --- synthesis --------------------------------------------------------------

class SynthesisError(TangentTopoError):
    """Representative construction failed."""


class SumRuleViolation(SynthesisError):
    """Requested invariants violate a sum rule."""


class GeodesicAntipodal(SynthesisError):
    """A boundary value coincides with the reference direction."""


class NonzeroWinding(SynthesisError):
    """Face boundary loop has nonzero winding; not contractible in S1."""
