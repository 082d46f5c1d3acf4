"""Exception types shared across the package.

The CLI maps these onto process exit codes: validation problems exit 1,
numerical failures exit 2, filesystem problems exit 3.
"""
import math


class ValidationError(ValueError):
    """Malformed configuration, dataset, or argument structure."""


def check_numbers(obj, ints=(), reals=()) -> None:
    """Raises ValidationError unless every attribute of ``obj`` named in
    ``ints`` is an int and every one named in ``reals`` a finite int or
    float; a bool is neither."""
    for name in ints:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    for name in reals:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValidationError(f"{name} must be a finite number, got {value!r}")


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ParameterDomainError(DomainError):
    """A model or copula parameter lies outside its admissible range."""


class UndefinedMetricError(ValueError):
    """A metric has no defined value on the given data (e.g. no comparable pairs)."""


class NumericalFailure(RuntimeError):
    """A computation produced a non-finite value.

    ``record_index`` points at the offending record when the failure arose
    from a per-record term; ``epoch`` and ``last_state`` are populated when
    training fails mid-run so the caller can inspect the last finite state.
    ``model`` names the experiment arm's model (``copula`` or
    ``independence``) whose fit or evaluation failed, once the experiment
    runner has set it.
    """

    def __init__(self, message, record_index=None, epoch=None, last_state=None, model=None):
        super().__init__(message)
        self.record_index = record_index
        self.epoch = epoch
        self.last_state = last_state
        self.model = model
