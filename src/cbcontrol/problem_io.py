"""Problem-file parsing and CSV serialization for the command-line front end.

Problem files are JSON with explicit field names:

    {
      "system": {"A": [[...], ...], "B": [[...], ...]},
      "task": {
        "x0": [...], "xf": [...],
        "b": 10,
        "h": 2,                       // or "auto"
        "regime": "repetitive"        // or "non-repetitive"
      },
      "tolerances": {                 // optional overrides
        "charge_balance": 1e-9, "terminal": 1e-6, "reach": 1e-8,
        "rank_slack": 100.0, "max_order": 64
      }
    }

Numbers are decimal doubles and matrices are lists of rows. CSV output
uses a comma delimiter, a header row, '.' as the decimal separator,
"\r\n" line ends, no quoting, and 17 significant digits so every double
round-trips exactly. Numeric tables are formatted a chunk of rows at a
time, so writing costs one string-format call per chunk, not per cell.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .design import REGIMES, SteeringTask
from .errors import DimensionError, ProblemFormatError
from .system import LtiSystem
from .tolerances import DEFAULT, Tolerances, is_integer

FLOAT_FMT = "%.17g"
# rows formatted per string-format call; bounds the memory of one write
_CHUNK_ROWS = 1024
# characters that csv quoting would wrap; write_csv never quotes
_QUOTED = (",", '"', "\r", "\n")

_TOLERANCE_KEYS = {field.name for field in fields(Tolerances)}


@dataclass(frozen=True, eq=False)
class Problem:
    """A parsed problem file: plant, steering task, block length, tolerances.

    ``h`` is None when the file requested automatic block-length selection.
    """

    system: LtiSystem
    task: SteeringTask
    h: int | None
    tolerances: Tolerances


def _require(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ProblemFormatError(f"problem file: missing field '{where}.{key}'"
                                 if where else f"problem file: missing field '{key}'")
    return mapping[key]


# ndim -> (what the field is, what its shape must be)
_ARRAY_KINDS = {2: ("matrix", "a list of rows"), 1: ("vector", "a flat list of numbers")}


def _as_array(value, where, ndim: int) -> np.ndarray:
    kind, shape = _ARRAY_KINDS[ndim]
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"problem file: field '{where}' is not a numeric {kind}") from exc
    if arr.ndim != ndim:
        raise ProblemFormatError(f"problem file: field '{where}' must be {shape}")
    if not np.isfinite(arr).all():
        # json reads NaN and Infinity, which are not numbers a plant can have
        raise ProblemFormatError(f"problem file: field '{where}' has a non-finite entry")
    return arr


def parse_problem(text: str, source: str = "problem", overrides=None) -> Problem:
    """Parse problem-file text; raises ProblemFormatError with diagnostics.

    ``overrides`` maps dotted field names ("task.b", "tolerances.terminal")
    to values that replace the text's before any check, as if written there.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{source}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{source}: top level must be an object")
    for name, value in (overrides or {}).items():
        section, key = name.split(".")
        if isinstance(doc.setdefault(section, {}), dict):
            doc[section][key] = value

    system_doc = _require(doc, "system", "")
    A = _as_array(_require(system_doc, "A", "system"), "system.A", 2)
    B = _as_array(_require(system_doc, "B", "system"), "system.B", 2)
    try:
        system = LtiSystem(A=A, B=B)
    except (DimensionError, ValueError) as exc:
        raise ProblemFormatError(f"{source}: invalid system matrices: {exc}") from exc

    task_doc = _require(doc, "task", "")
    x0 = _as_array(_require(task_doc, "x0", "task"), "task.x0", 1)
    xf = _as_array(_require(task_doc, "xf", "task"), "task.xf", 1)
    if x0.size != system.n or xf.size != system.n:
        raise ProblemFormatError(
            f"{source}: task vectors must have length {system.n}, "
            f"got x0 of {x0.size} and xf of {xf.size}"
        )
    b = _require(task_doc, "b", "task")
    if not is_integer(b) or b < 1:
        raise ProblemFormatError(f"{source}: field 'task.b' must be a positive integer")
    h_raw = task_doc.get("h", "auto")
    if h_raw == "auto" or h_raw is None:
        h = None
    elif is_integer(h_raw) and h_raw >= 2:
        h = h_raw
    else:
        raise ProblemFormatError(
            f"{source}: field 'task.h' must be an integer >= 2 or \"auto\""
        )
    regime = _require(task_doc, "regime", "task")
    if regime not in REGIMES:
        raise ProblemFormatError(
            f"{source}: field 'task.regime' must be one of {REGIMES}, got {regime!r}"
        )

    tol_doc = doc.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        raise ProblemFormatError(f"{source}: field 'tolerances' must be an object")
    unknown = set(tol_doc) - _TOLERANCE_KEYS
    if unknown:
        raise ProblemFormatError(
            f"{source}: unknown tolerance fields {sorted(unknown)}"
        )
    try:
        tolerances = replace(DEFAULT, **tol_doc) if tol_doc else DEFAULT
    except ValueError as exc:
        raise ProblemFormatError(f"{source}: {exc}") from exc

    task = SteeringTask(x0=x0, xf=xf, b=b, regime=regime)
    return Problem(system=system, task=task, h=h, tolerances=tolerances)


def load_problem(path, overrides=None) -> Problem:
    """Read and parse a problem file from disk, with parse_problem's ``overrides``."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(f"cannot read problem file {path}: {exc}") from exc
    return parse_problem(text, source=str(path), overrides=overrides)


@contextlib.contextmanager
def _writing(path, newline=None):
    """path opened for writing; an OSError becomes a ProblemFormatError naming it."""
    try:
        with Path(path).open("w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ProblemFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_text(path, text: str):
    """Write text to path; ProblemFormatError when it cannot be written."""
    with _writing(path) as fh:
        fh.write(text)


def _row_format(cells) -> str:
    """The line format of one row of strings and numbers."""
    formats = []
    for cell in cells:
        if isinstance(cell, str):
            if any(char in cell for char in _QUOTED) or (cell == "" and len(cells) == 1):
                raise ValueError(f"CSV cell {cell!r} would need quoting")
            formats.append("%s")
        else:
            formats.append(FLOAT_FMT)
    return ",".join(formats) + "\r\n"


def write_csv(path, header, rows):
    """Write a header row and data rows as CSV, numbers to 17 significant digits.

    ``rows`` is a 2-D numeric array, written a chunk of rows per format
    call, or an iterable of rows that mix strings and numbers. A string
    cell that CSV would have to quote raises ValueError; a path that
    cannot be written raises ProblemFormatError.
    """
    with _writing(path, newline="") as fh:
        fh.write(_row_format(header) % tuple(header))
        if isinstance(rows, np.ndarray):
            line = ",".join([FLOAT_FMT] * rows.shape[1]) + "\r\n"
            for start in range(0, len(rows), _CHUNK_ROWS):
                chunk = rows[start:start + _CHUNK_ROWS]
                fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))
        else:
            for row in rows:
                fh.write(_row_format(row) % tuple(row))


def read_inputs_csv(path, m: int) -> np.ndarray:
    """Parse an inputs.csv (columns k, u_1 .. u_m) into an (N, m) array.

    The rows are parsed in one streaming pass. Raises ProblemFormatError
    when the file cannot be read, is empty, has a header that is not
    m + 1 columns wide, or has a malformed row (a blank line, a row of the
    wrong width, or a cell that is not a finite number).
    """
    path = Path(path)
    try:
        # undecodable bytes become U+FFFD and so fail as non-numeric cells
        with path.open(errors="replace") as fh:
            first = fh.readline()
            if not first:
                raise ProblemFormatError(f"{path}: empty CSV")
            header = next(csv.reader([first]), [])
            if len(header) != m + 1:
                raise ProblemFormatError(
                    f"{path}: expected {m + 1} columns (k, u_1..u_{m}), got {len(header)}"
                )
            # loadtxt skips blank lines, which are malformed rows here, so
            # count the lines it reads and compare with the rows it returns
            lines = itertools.count()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # a file with no rows
                    table = np.loadtxt(
                        (line for line, _ in zip(fh, lines)),
                        delimiter=",", comments=None, ndmin=2,
                    )
            except ValueError:
                table = None
            count = next(lines)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read inputs file {path}: {exc}") from exc
    if count == 0:
        return np.zeros((0, m))
    if table is None or table.shape != (count, m + 1) or not np.isfinite(table).all():
        raise ProblemFormatError(f"{path}: malformed row {_first_malformed_row(path, m)}")
    return np.ascontiguousarray(table[:, 1:])


def _first_malformed_row(path: Path, m: int) -> int:
    """1-based index of the first data row that is not m + 1 finite numbers."""
    rows = path.read_text(errors="replace").split("\n")[1:]
    if rows and not rows[-1]:
        rows.pop()  # the piece after the final line end
    for index, line in enumerate(rows, 1):
        if not line:
            return index
        try:
            row = np.loadtxt([line], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return index
        if row.shape[1] != m + 1 or not np.isfinite(row).all():
            return index
    raise AssertionError(f"{path}: no malformed row")
