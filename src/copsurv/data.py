"""Datasets and every on-disk format of the package.

A dataset is columnar: covariates ``x`` of shape (n, d), observed times
``t_obs`` (strictly positive), and event indicators ``delta`` (1 = event,
0 = censored).  Its CSV layout is ``x0,...,x{d-1},time,event``.

Every file the package reads or writes goes through this module, and one
format rule holds for all of them: UTF-8 with LF line endings.  A CSV file
has a header row; a float cell is the ``repr`` of the float (the shortest
text that reads back bit-exactly), an int cell its decimal digits, and a
missing value an empty cell.  A numeric column is formatted in blocks of
``CELL_BLOCK`` rows as the writer reaches them (:func:`column_cells`), so a
write's memory does not grow with the row count.  A JSON file is indented by
2 with sorted keys and ends in a newline.  The config dataclasses read and
write plain JSON objects through :class:`Config`.

A numeric CSV file (a dataset, a regression table) is read by numpy's C
tokenizer, which parses a float cell through the same routine as ``float()``
and so yields the same doubles.  A row-by-row loop re-reads a file only when
that parse refuses it, to name the failing line (:func:`read_table`).
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import chain

import numpy as np

from .errors import ValidationError, check_document, check_value


def write_csv(path, header, rows) -> None:
    """Writes ``header`` and ``rows``, sequences of cells already formatted as str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def csv_cell(value) -> str:
    """One CSV cell: None and "" empty, a str as is, an int in decimal, a float by repr."""
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# rows of a column formatted at a time.  Writing 9,000 rows of 12 columns (generate's
# dataset) grew peak RSS by 3.6 MB with whole columns, 1.5 MB in blocks of 4,096 rows,
# 0.4 MB of 1,024 and 0.1 MB of 256; at 50,000 rows the traced peak fell from 18 MB to
# 0.13 MB.  Block sizes from 4,096 down to 16 formatted equally fast within the run-to-run
# spread, and a block below 256 would save under 0.1 MB more for one more slice per block.
CELL_BLOCK = 256


def column_cells(values):
    """The CSV cells of a float or int array, as csv_cell formats them, but faster.

    The cells are made lazily, ``CELL_BLOCK`` rows at a time, as the writer reaches them."""
    values = np.asarray(values)
    return chain.from_iterable(map(repr, values[start:start + CELL_BLOCK].tolist())
                               for start in range(0, len(values), CELL_BLOCK))


# whitespace that numpy's C tokenizer strips from a cell and float() refuses
_C_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def read_table(path, check_header, event_last: bool = False):
    """(header, float table) of a numeric CSV file.

    ``check_header(header)`` raises ValidationError on a header it refuses.
    Every body cell is a float, or with ``event_last`` the last one an event
    indicator: an int cell (``int()`` reads it, so "1.0" is refused) of 0 or 1.
    Blank lines are skipped.  numpy's C tokenizer parses the body; it reads
    every float cell through the same routine as ``float()``, so the doubles
    are the same.  A body it refuses, or parses to no rows, to a width other
    than the header's or to an event outside {0, 1}, is re-read one row at a
    time by ``_parse_rows``, which raises ValidationError naming the path and
    line.  The few cells that ``float()`` reads and the C tokenizer does not
    (a quoted cell, digits grouped by "_", non-ASCII digits) parse there too.
    """
    table = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ValidationError(f"{path}: empty file")
            check_header(header)
            if not _holds_c_only_space(path):
                try:
                    with warnings.catch_warnings():  # on no data rows, which _parse_rows names
                        warnings.simplefilter("ignore", UserWarning)
                        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                           converters={-1: int} if event_last else None)
                except ValueError:  # UnicodeDecodeError too: _parse_rows meets it again
                    pass
        if (table is None or not len(table) or table.shape[1] != len(header)
                or event_last and not np.isin(table[:, -1], (0, 1)).all()):
            table = _parse_rows(path, len(header), _event_row if event_last else _float_row)
    except UnicodeDecodeError:  # in the header, or in a body _parse_rows reads
        raise ValidationError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # a cell past the csv module's field size limit
        raise ValidationError(f"{path}: {exc}") from None
    return header, table


def _holds_c_only_space(path) -> bool:
    with open(path, "rb") as fh:
        raw = fh.read()
    return any(space in raw for space in _C_ONLY_SPACE)


def _float_row(row):
    return [*map(float, row)]


def _event_row(row):
    event = int(row[-1])
    if event not in (0, 1):  # a larger one could overflow the float table
        raise ValueError(f"event must be 0 or 1, got {row[-1]!r}")
    return [*map(float, row[:-1]), event]


def _parse_rows(path, width, parse):
    """The float table of a CSV file's body, parsed by ``parse(row)`` one row at
    a time.  A missing row, a row of the wrong width and a cell that does not
    parse (ValueError) raise ValidationError naming the path and line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValidationError(f"{path}:{lineno}: expected {width} cells")
            try:
                rows.append(parse(row))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return np.array(rows)


def write_json(path, doc) -> str:
    """Writes ``doc`` as JSON and returns the text written."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return text


def read_json(path):
    """The JSON value in ``path``; bad text raises ValidationError at ``path:line:col``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        except ValueError as exc:  # not UTF-8, or an integer past int()'s digit limit
            raise ValidationError(f"{path}: {exc}") from None


# a config field's shape by its annotation, as text under ``from __future__ import annotations``
_FIELD_SHAPES = {"int": int, "float": float, "str": str, "Optional[str]": str | None,
                 "Tuple[float, ...]": [float], "Tuple[int, ...]": [int]}


class Config:
    """Base of the config dataclasses, stored as JSON objects.  Construction checks each
    field by its annotation: a shape of ``_FIELD_SHAPES``, a tuple field stored as a tuple
    (of floats for ``Tuple[float, ...]``), or a config class, which decodes a dict."""

    def __post_init__(self):
        configs = {cls.__name__: cls for cls in Config.__subclasses__()}
        for f in fields(self):
            shape, value = _FIELD_SHAPES.get(f.type), getattr(self, f.name)
            check_value(value, shape, f"{type(self).__name__} {f.name}")
            if isinstance(shape, list):
                setattr(self, f.name, tuple(map(float, value) if shape == [float] else value))
            elif f.type in configs and not isinstance(value, configs[f.type]):
                setattr(self, f.name, configs[f.type].from_dict(value))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        """``cls(**doc)`` once ``doc`` holds every field without a default and no other key."""
        own = fields(cls)
        check_document(doc, cls.__name__, dict.fromkeys(f.name for f in own),
                       [f.name for f in own if (f.default, f.default_factory) != (MISSING, MISSING)])
        return cls(**doc)


@dataclass
class SurvivalDataset:
    x: np.ndarray
    t_obs: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.t_obs = np.asarray(self.t_obs, dtype=float)
        self.delta = np.asarray(self.delta)
        if self.x.ndim != 2:
            raise ValidationError(f"x must be 2-d, got shape {self.x.shape}")
        n = self.x.shape[0]
        if self.t_obs.shape != (n,) or self.delta.shape != (n,):
            raise ValidationError(
                f"column lengths disagree: x {self.x.shape}, t_obs {self.t_obs.shape}, delta {self.delta.shape}"
            )
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.t_obs)):
            raise ValidationError("covariates and times must be finite")
        if np.any(self.t_obs <= 0.0):
            bad = int(np.argmax(self.t_obs <= 0.0))
            raise ValidationError(f"t_obs must be strictly positive (record {bad})")
        if not np.all(np.isin(self.delta, (0, 1))):
            raise ValidationError("delta entries must be 0 or 1")
        self.delta = self.delta.astype(np.int64)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.delta.sum())

    def subset(self, idx) -> "SurvivalDataset":
        idx = np.asarray(idx)
        return SurvivalDataset(self.x[idx], self.t_obs[idx], self.delta[idx])

    def save_csv(self, path) -> None:
        header = [f"x{i}" for i in range(self.dim)] + ["time", "event"]
        write_csv(path, header, zip(*map(column_cells, [*self.x.T, self.t_obs, self.delta])))

    @classmethod
    def load_csv(cls, path) -> "SurvivalDataset":
        def check_header(header):
            if len(header) < 3 or header[-2:] != ["time", "event"]:
                raise ValidationError(
                    f"{path}: expected header x0,...,time,event, got {header}"
                )
            d = len(header) - 2
            if header[:d] != [f"x{i}" for i in range(d)]:
                raise ValidationError(f"{path}: covariate columns must be x0..x{d-1}")

        header, table = read_table(path, check_header, event_last=True)
        d = len(header) - 2
        return cls(table[:, :d].copy(), table[:, d].copy(), table[:, d + 1].astype(np.int64))


def load_regression_csv(path, target: str):
    """Reads a numeric regression CSV; returns (X, y)."""

    def check_header(header):
        if target not in header:
            raise ValidationError(f"{path}: no column named {target!r} in {header}")

    header, table = read_table(path, check_header)
    t_idx = header.index(target)
    return np.delete(table, t_idx, axis=1), table[:, t_idx].copy()
