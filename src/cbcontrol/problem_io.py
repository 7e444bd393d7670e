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
uses a comma delimiter, a header row, '.' as the decimal separator, and
17 significant digits so every double round-trips exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .design import REGIMES
from .errors import DimensionError, ProblemFormatError
from .system import LtiSystem
from .tolerances import DEFAULT, Tolerances, is_integer

FLOAT_FMT = "{:.17g}"

_TOLERANCE_KEYS = {field.name for field in fields(Tolerances)}


@dataclass(frozen=True, eq=False)
class Problem:
    """A parsed problem file: plant, steering task fields, tolerances.

    ``h`` is None when the file requested automatic block-length selection.
    """

    system: LtiSystem
    x0: np.ndarray
    xf: np.ndarray
    b: int
    h: int | None
    regime: str
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
    return arr


def parse_problem(text: str, source: str = "problem") -> Problem:
    """Parse problem-file text; raises ProblemFormatError with diagnostics."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{source}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{source}: top level must be an object")

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

    overrides = doc.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ProblemFormatError(f"{source}: field 'tolerances' must be an object")
    unknown = set(overrides) - _TOLERANCE_KEYS
    if unknown:
        raise ProblemFormatError(
            f"{source}: unknown tolerance fields {sorted(unknown)}"
        )
    try:
        tolerances = DEFAULT.with_overrides(**overrides) if overrides else DEFAULT
    except ValueError as exc:
        raise ProblemFormatError(f"{source}: {exc}") from exc

    return Problem(
        system=system, x0=x0, xf=xf, b=b, h=h, regime=regime, tolerances=tolerances
    )


def load_problem(path) -> Problem:
    """Read and parse a problem file from disk."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read problem file {path}: {exc}") from exc
    return parse_problem(text, source=str(path))


def write_csv(path, header, rows):
    """Write a CSV with the shared float format (17 significant digits)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [cell if isinstance(cell, str) else FLOAT_FMT.format(cell) for cell in row]
            )


def read_csv(path):
    """Read a CSV written by write_csv: (header, rows) with float cells.

    Non-numeric cells are returned as strings, so status columns survive.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ProblemFormatError(f"{path}: empty CSV") from None
        rows = []
        for raw in reader:
            row = []
            for cell in raw:
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
            rows.append(row)
    return header, rows


def read_inputs_csv(path, m: int) -> np.ndarray:
    """Parse an inputs.csv (columns k, u_1 .. u_m) into an (N, m) array."""
    header, rows = read_csv(path)
    if len(header) != m + 1:
        raise ProblemFormatError(
            f"{path}: expected {m + 1} columns (k, u_1..u_{m}), got {len(header)}"
        )
    inputs = np.zeros((len(rows), m))
    for idx, row in enumerate(rows):
        if len(row) != m + 1 or any(isinstance(cell, str) for cell in row):
            raise ProblemFormatError(f"{path}: malformed row {idx + 1}")
        inputs[idx] = row[1:]
    return inputs
