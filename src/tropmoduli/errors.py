"""Exception taxonomy shared by all modules, the JSON shape checks that
raise it, and the default generator cap.

Domain errors (bad input) derive from ValueError so callers can treat them
uniformly; internal-consistency errors derive from RuntimeError because they
indicate a bug, not bad input, and must never fire in normal operation.
"""


class GraphError(ValueError):
    """Malformed graph data: disconnected, bad endpoint, bad marking."""


class UnstableTypeError(ValueError):
    """Requested (g, n) admits no stable types, i.e. 2g - 2 + n <= 0."""


class MalformedModelError(ValueError):
    """Stable-model description is structurally invalid."""


class RejectedModelError(ValueError):
    """Stable-model description induces an unstable dual graph."""


class ExtendedCurveError(ValueError):
    """Operation requires finite edge lengths but an infinite one is present."""


class InternalConsistencyError(RuntimeError):
    """A cross-check that must always hold has failed (a bug, not bad input)."""


class ResourceBoundExceeded(RuntimeError):
    """A configured size cap was hit; carries the partial size report."""

    def __init__(self, message, chain_ranks=None):
        super().__init__(message)
        self.chain_ranks = chain_ranks


#: Generator cap used when none is given.  It counts surviving cells (the
#: chain ranks), not matrix columns: (2, 4) has 2915 and 180.  (1, 6) needs
#: 14307, under the cap; (2, 5) needs 38365, so it and every larger job must
#: be opted into explicitly, although the orbit route now runs (2, 5) in
#: about a second.  The refusals the tests pin depend on this value.
DEFAULT_MAX_GENERATORS = 20_000


def is_integer(value) -> bool:
    """Whether value is an int and not a bool (JSON true loads as True)."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_list(data, field: str, error: type[ValueError]) -> list:
    """data[field], refused unless data is an object whose field is a list."""
    if not isinstance(data, dict):
        raise error(f"expected a JSON object with a {field!r} list, got {type(data).__name__}")
    if field not in data:
        raise error(f"missing field {field!r}")
    if not isinstance(data[field], list):
        raise error(f"field {field!r} must be a list, got {type(data[field]).__name__}")
    return data[field]


def json_records(data, field: str, keys: tuple[str, ...], error: type[ValueError]) -> list:
    """The objects listed in data[field], as tuples of their values at keys."""
    entries = json_list(data, field, error)
    for entry in entries:
        if not isinstance(entry, dict):
            raise error(f"each {field!r} entry must be an object, got {type(entry).__name__}")
        for key in keys:
            if key not in entry:
                raise error(f"missing field {key!r} in a {field!r} entry")
    return [tuple(entry[key] for key in keys) for entry in entries]
