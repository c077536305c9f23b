"""Exception types shared across the library, and the document checks that raise them."""
import json
from contextlib import contextmanager


class TangentTopoError(Exception):
    """Base class for all errors raised by this package, and itself the
    error of an input that is not a valid solid, field or invariant set
    (CLI exit 3)."""


class SumRuleViolation(TangentTopoError):
    """Requested invariants violate a sum rule (CLI exit 4)."""


class ResolutionTooCoarse(TangentTopoError):
    """Discretization too coarse to trust an integer invariant (CLI exit 5)."""


class SOnTriangleBoundary(ResolutionTooCoarse):
    """Reference direction sits on a fan-triangle boundary."""


class DualRouteMismatch(ResolutionTooCoarse):
    """Integral and preimage wrapping routes disagree."""


class NotRegularValue(TangentTopoError):
    """Reference direction is not a regular value of the face map."""


@contextmanager
def reading_document(kind: str):
    """Turn a missing or mistyped entry, met while the block reads a
    ``kind`` document, into a TangentTopoError."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        what = f"missing entry {exc}" if isinstance(exc, KeyError) else str(exc)
        raise TangentTopoError(f"malformed {kind} document: {what}") from exc


def load_document(path, kind: str):
    """The JSON document at ``path``; a repeated key in any of its objects,
    whose last copy ``json.load`` would keep, raises TangentTopoError."""
    def unique(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            keys = [k for k, _ in pairs]
            repeated = next(k for k in keys if keys.count(k) > 1)
            raise TangentTopoError(f"malformed {kind} document: repeated key {repeated!r}")
        return obj
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except (UnicodeDecodeError, RecursionError) as exc:
        # Text that is not UTF-8, or nesting deeper than the decoder
        # recurses, makes the file as unreadable as a missing one.
        raise OSError(f"cannot decode {path}: {exc}") from exc


def integer_entry(value, what: str) -> int:
    """A document entry that must be an integer, as an int; raises
    TangentTopoError for a bool, text or a number with a fraction part."""
    n = int(value)
    if isinstance(value, bool) or n != value:
        raise TangentTopoError(f"{what} must be an integer, not {value!r}")
    return n


def numbers_entry(value, what: str):
    """A document entry of numbers, or of lists of them, unchanged; raises
    TangentTopoError where a bool or text stands for a number (``float``
    and numpy read ``true`` as 1 and ``"0.5"`` as 0.5)."""
    if isinstance(value, (bool, str)):
        raise TangentTopoError(f"{what} must hold numbers, not {value!r}")
    for item in value if isinstance(value, list) else ():
        numbers_entry(item, what)
    return value
