"""Exception types shared across the package, and the rules every JSON document
and config field it reads keep, :func:`check_document` and :func:`check_value`.

The CLI maps these onto process exit codes: validation problems exit 1,
numerical failures exit 2, filesystem problems exit 3.
"""
import sys


class ValidationError(ValueError):
    """Malformed configuration, dataset, or argument structure."""


# the values each scalar shape admits, never a bool, and their name in messages
_SCALARS = {int: (int, "an integer"), float: ((int, float), "a finite number"), str: (str, "a string"),
            str | None: ((str, type(None)), "a string or null")}


def check_value(value, shape, name) -> None:
    """Raises ValidationError naming ``name`` unless ``value`` has ``shape``:
    ``int``, ``str`` or ``float`` (a finite int or float, at most the largest
    float in size) a scalar of that kind, ``str | None`` a string or None,
    ``[shape]`` a list or tuple of values of that shape, ``None`` any value."""
    if shape is None:
        return
    kinds, what = ((list, tuple), "a list") if isinstance(shape, list) else _SCALARS[shape]
    if isinstance(value, bool) or not isinstance(value, kinds) or (
            shape is float and not abs(value) <= sys.float_info.max):
        raise ValidationError(f"{name} must be {what}, got {value!r}")
    for i, item in enumerate(value if isinstance(shape, list) else ()):
        check_value(item, shape[0], f"{name}[{i}]")


def check_document(doc, what, shapes, optional=()) -> None:
    """The rule every JSON document the package reads keeps: ``doc`` is an object
    with every key of ``shapes`` but those in ``optional`` and no other, each value
    of its shape.  A violation raises ValidationError naming ``what`` and the key."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {doc!r}")
    missing = [key for key in shapes if key not in doc and key not in optional]
    for keys, problem in ((missing, "is missing"), (sorted(set(doc) - set(shapes)), "takes no")):
        if keys:
            raise ValidationError(f"{what} {problem} {', '.join(keys)}")
    for key, value in doc.items():
        check_value(value, shapes[key], f"{what} {key}")


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ParameterDomainError(DomainError):
    """A model or copula parameter lies outside its admissible range."""


class UndefinedMetricError(ValueError):
    """A metric has no defined value on the given data (e.g. no comparable pairs)."""


class NumericalFailure(RuntimeError):
    """A computation produced a non-finite value.

    ``record_index`` points at the offending record when the failure arose
    from a per-record term, and ``point_index`` at the parameter point when
    it arose in an evaluation at several points at once.  ``epoch`` counts
    the accepted iterations when training fails mid-run.  The optimizer
    leaves the parameters at the last accepted iterate, or, when the
    validation loss of an iterate fails, at that iterate: ``epoch`` is then
    its index.
    """

    def __init__(self, message, record_index=None, epoch=None, point_index=None):
        super().__init__(message)
        self.record_index = record_index
        self.epoch = epoch
        self.point_index = point_index
