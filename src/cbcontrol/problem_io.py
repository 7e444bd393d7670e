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
      "tolerances": {"terminal": 1e-6}  // optional override
    }

The Tolerances field terminal may be overridden; any other key is refused.
The plant is held between parses (one, the latest): problems whose A and
B are equal bit for bit share one LtiSystem, so a run of commands on one
plant decomposes A and decides PBH once.

Numbers are decimal doubles and matrices are lists of rows. write_csv
writes a table of doubles behind a step column: a comma delimiter, a
header row, '.' as the decimal separator, "\r\n" line ends, no quoting,
steps as integers and C's '%.17g' for every other cell, so every double
round-trips exactly. It is written at most _CHUNK_CELLS cells at a time.
A chunk of _KERNEL_MIN_CELLS (512) cells or more goes through
_format_chunk, a numpy kernel that prints the same bytes as '%.17g', at
half its cost from 2,048 cells. It forms each cell's 17 digits from a
double-double product that errs by less than 2**-100 of the scaled
value, and leaves to '%' itself every cell it cannot prove (the set is
stated in _scaled_digits). A smaller chunk costs one '%' call.

An identical-block plan's inputs (period h) and block table (period 1)
repeat. From _PERIODIC_MIN_CELLS cells on, write_csv formats one period
of such rows and prints the steps into it, and read_inputs_csv parses
the step column and each distinct text past the step cell once, in
whatever order the rows repeat it: the same bytes and arrays as every
row formatted or parsed.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .design import REGIMES, SteeringTask
from .errors import DimensionError, ProblemFormatError
from .system import LtiSystem, _period
from .tolerances import DEFAULT, Tolerances, is_integer

FLOAT_FMT = "%.17g"
# cells formatted at a time (whole rows, at least one); bounds the memory
# of one write, and the kernel's arrays stay in cache
_CHUNK_CELLS = 8192
# a smaller chunk goes through FLOAT_FMT: the kernel costs about 70 us a
# call plus 105 ns a cell and '%' 255 ns a cell, crossing near 480 cells
_KERNEL_MIN_CELLS = 512
# from this many cells on, a table is written one period at a time and an
# inputs file read one distinct row tail at a time, when the period (or the
# distinct tails) hold at most this many rows' cells; ungated, cli-session's
# op_p50_ms rose 1.3% and its peak_rss_mb 4.5 MB (writer) or op_p50_ms 2.1%
# (reader), and at 2048 its b = 150 plans' 1,500-cell tables lost the
# op_p90_ms gain (measured in CHANGES.md)
_PERIODIC_MIN_CELLS = 1024

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


def _require(mapping, key, where, source):
    if not isinstance(mapping, dict) or key not in mapping:
        field = f"{where}.{key}" if where else key
        raise ProblemFormatError(f"{source}: missing field '{field}'")
    return mapping[key]


# ndim -> (what the field is, what its shape must be)
_ARRAY_KINDS = {2: ("matrix", "a list of rows"), 1: ("vector", "a flat list of numbers")}


def _as_array(value, where, ndim: int, source) -> np.ndarray:
    kind, shape = _ARRAY_KINDS[ndim]
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{source}: field '{where}' is not a numeric {kind}") from exc
    except OverflowError as exc:  # json reads an integer of any size
        raise ProblemFormatError(f"{source}: field '{where}' exceeds float64's range") from exc
    if arr.ndim != ndim:
        raise ProblemFormatError(f"{source}: field '{where}' must be {shape}")
    # numpy would convert json's true, false and "1": only numbers are entries
    entries = itertools.chain.from_iterable(value) if ndim == 2 else value
    if not set(map(type, entries)) <= {int, float}:
        raise ProblemFormatError(f"{source}: field '{where}' is not a numeric {kind}")
    if not np.isfinite(arr).all():
        # json reads NaN and Infinity, which are not numbers a plant can have
        raise ProblemFormatError(f"{source}: field '{where}' has a non-finite entry")
    return arr


@functools.lru_cache(maxsize=1)
def _shared_system(a_shape, a_bytes, b_shape, b_bytes) -> LtiSystem:
    """The LtiSystem of the float64 arrays with these shapes and bytes."""
    return LtiSystem(A=np.frombuffer(a_bytes).reshape(a_shape),
                     B=np.frombuffer(b_bytes).reshape(b_shape))


def parse_problem(text: str, source: str = "problem", overrides=None) -> Problem:
    """Parse problem-file text; raises ProblemFormatError with diagnostics.

    ``overrides`` maps dotted field names ("task.b", "tolerances.terminal")
    to values that replace the text's before any check, as if written there.
    The plant comes from a one-entry cache keyed by A's and B's shapes and
    bytes: a parse on the latest plant built returns that immutable
    LtiSystem, with the eigen-decomposition, modal screen and PBH decision
    it has cached. A miss builds the system anew; a failure is not kept.
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

    system_doc = _require(doc, "system", "", source)
    A = _as_array(_require(system_doc, "A", "system", source), "system.A", 2, source)
    B = _as_array(_require(system_doc, "B", "system", source), "system.B", 2, source)
    try:
        system = _shared_system(A.shape, A.tobytes(), B.shape, B.tobytes())
    except (DimensionError, ValueError) as exc:
        raise ProblemFormatError(f"{source}: invalid system matrices: {exc}") from exc

    task_doc = _require(doc, "task", "", source)
    x0 = _as_array(_require(task_doc, "x0", "task", source), "task.x0", 1, source)
    xf = _as_array(_require(task_doc, "xf", "task", source), "task.xf", 1, source)
    if x0.size != system.n or xf.size != system.n:
        raise ProblemFormatError(
            f"{source}: task vectors must have length {system.n}, "
            f"got x0 of {x0.size} and xf of {xf.size}"
        )
    b = _require(task_doc, "b", "task", source)
    if not is_integer(b) or b < 1:
        raise ProblemFormatError(f"{source}: field 'task.b' must be a positive integer")
    h_raw = task_doc.get("h", "auto")
    if h_raw == "auto":
        h = None
    elif is_integer(h_raw) and h_raw >= 2:
        h = h_raw
    else:
        raise ProblemFormatError(
            f"{source}: field 'task.h' must be an integer >= 2 or \"auto\""
        )
    regime = _require(task_doc, "regime", "task", source)
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
def _writing(path):
    """path opened for writing, with no line-end translation; an OSError
    becomes a ProblemFormatError naming it."""
    try:
        with Path(path).open("w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ProblemFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_text(path, text: str):
    """Write text to path, its line ends as given; ProblemFormatError when
    it cannot be written."""
    with _writing(path) as fh:
        fh.write(text)


# The kernel proves its digits for |v| in this range only: there every
# intermediate of the double-double product below is a normal double.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# 10**k is held as hi + lo for k in this range: hi the nearest double,
# lo the nearest double to 10**k - hi, so the sum is within 2**-106 of it
_POW_MIN, _POW_MAX = -300, 300
# The product errs by less than 2**-100 of the scaled value, under 1e-13
# below 1e17; _scaled_digits proves no cell nearer than this to a tie
_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
_CELL_WORDS = 13  # uint32 words per formatted cell, see _format_chunk
# the longest '%.17g' of a double, as in "-2.2250738585072014e-308"
_CELL_CHARS = 24
_EXP_BIAS = 300  # exponent e is at index e + _EXP_BIAS; 0 means none


class _Tables(NamedTuple):
    """Lookup tables of the '%.17g' kernel, indexed as _format_chunk does."""

    hi: np.ndarray  # 10**k rounded to a double, k = _POW_MIN + index
    hi_head: np.ndarray  # hi split into halves of at most 26 bits
    hi_tail: np.ndarray
    lo: np.ndarray  # 10**k - hi, rounded
    pow10: np.ndarray  # 10**j as int64, j = 0 .. 17
    # the four ASCII digits of g < 10**4 as one uint32: leading zeros as
    # NUL pads at index g, every zero shown at g + 10**4, trailing zeros
    # as pads at g + 2 * 10**4
    groups: np.ndarray
    heads: np.ndarray  # words 0 and 1 of a cell: sign and "0.000" prefix
    exponents: np.ndarray  # words 11 and 12 of a cell: "e+17" .. "e-308"


@functools.cache
def _kernel_tables() -> _Tables:
    """Build the kernel's tables from Python ints, on first use (about 3 ms)."""
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        high = num / den  # int true division rounds correctly
        high_num, high_den = high.as_integer_ratio()
        hi.append(high)
        lo.append((num * high_den - high_num * den) / (den * high_den))
    hi = np.array(hi)
    split = hi * _SPLIT
    hi_head = split - (split - hi)

    def two_words(texts):
        """Each text NUL-padded to 8 bytes, as two uint32 words."""
        packed = b"".join(t.ljust(8, b"\0") for t in texts)
        return np.frombuffer(packed, "<u4").reshape(-1, 2).T.copy()

    g = np.arange(10_000)[:, None]
    place = np.array([1000, 100, 10, 1])
    digits = (g // place % 10 + ord("0")).astype(np.uint8)
    lead = np.where(g >= place, digits, 0)  # a leading zero: g < place
    trail = np.where(g % (10 * place) != 0, digits, 0)  # a trailing zero
    # byte 7 of a head stays a pad for the first digit of the integer part
    heads = two_words((b"-" if negative else b"\0") + (b"0." + b"0" * (zeros - 1) if zeros else b"")
                      for negative in (False, True) for zeros in range(5))
    exponents = two_words([b""] + [b"e%+03d" % e for e in range(1 - _EXP_BIAS, _EXP_BIAS)])
    return _Tables(
        hi=hi, hi_head=hi_head, hi_tail=hi - hi_head, lo=np.array(lo),
        pow10=10 ** np.arange(18, dtype=np.int64),
        groups=np.concatenate([lead, digits, trail]).view("<u4").ravel(),
        heads=heads,
        exponents=exponents,
    )


def _scale(a, e, tables: _Tables):
    """a * 10**(16 - e) as an unevaluated sum p + t of doubles.

    p is the rounded product a * hi and t its exact rounding error
    (Dekker 1971) plus a * lo, so p + t errs by less than 2**-100 of it.
    """
    k = 16 - e - _POW_MIN
    hi, head, tail = tables.hi[k], tables.hi_head[k], tables.hi_tail[k]
    p = a * hi
    split = a * _SPLIT
    a_head = split - (split - a)
    a_tail = a - a_head
    error = (((a_head * head - p) + a_head * tail) + a_tail * head) + a_tail * tail
    return p, error + a * tables.lo[k]


def _scaled_digits(cells, tables: _Tables):
    """Each cell's 17 significant digits q, decimal exponent e, and proof.

    q is round-half-even(|v| * 10**(16 - e)) in [1e16, 1e17). A cell is
    proved when |v| is in [_FAST_MIN, _FAST_MAX] = [1e-280, 1e280] and its
    scaled value is farther than _MARGIN (1e-6) from a rounding tie and
    from 10**16, which the product's error bound makes safe. Zeros,
    non-finite values and every other cell are not proved, and the kernel
    leaves them to FLOAT_FMT; their q and e are meaningless.
    """
    a = np.abs(cells)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)  # False for 0, inf and nan
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    p, t = _scale(a, e, tables)
    # near a power of ten log10 can put e one off: step it by one, so the
    # scaled value lands in [1e16, 1e17)
    step = ((p - 1e17) + t >= 0).astype(np.intp) - ((p - 1e16) + t < 0)
    stepped = np.flatnonzero(step)
    if stepped.size:
        e[stepped] += step[stepped]
        p[stepped], t[stepped] = _scale(a[stepped], e[stepped], tables)
    # p >= 1e16 > 2**53 is a whole number, so t holds the fraction
    whole = np.floor(t)
    fraction = t - whole
    proved = fast & (np.abs(fraction - 0.5) >= _MARGIN)
    proved &= ((p - 1e16) + t >= _MARGIN) & ((p - 1e17) + t < 0)
    q = p.astype(np.int64) + whole.astype(np.int64) + (fraction > 0.5)
    carry = q == 10**17  # rounded up to the next power of ten
    q[carry] = 10**16
    return q, e + carry, proved


def _format_chunk(chunk) -> str:
    """Rows of numbers as CSV lines of '%.17g' cells, from array operations.

    Byte for byte what FLOAT_FMT prints (Gay's correctly rounded digits,
    1990), at a fraction of its per-cell cost. Each cell is laid out in 13
    uint32 words, with NUL pads where a character is absent; the pads are
    then dropped:

        0-1    sign, "0." prefix and leading zeros, first integer digit
        2-5    the integer part's other 16 digits, leading zeros as pads
        6      the point and the fraction's first digit
        7-10   the fraction's other 16 digits, trailing zeros as pads
        11-12  the exponent, as in "e-308", and the separator

    The integer part is q // 10**d and the fraction the remaining d digits
    of q, left-aligned. '%g' prints fixed notation for exponents -4 ..
    16: d = 16 - e, but 17 for e < 0, whose digits follow a "0.000"
    prefix. Otherwise d = 16 and an exponent follows. A cell the kernel
    could not prove is formatted by FLOAT_FMT and copied in.
    """
    tables = _kernel_tables()
    cells = np.asarray(chunk, dtype=float).ravel()
    q, e, proved = _scaled_digits(cells, tables)
    fixed = (e >= -4) & (e <= 16)
    zeros = np.where(fixed & (e < 0), -e, 0)
    d = np.where(fixed, np.minimum(16 - e, 17), 16)
    scale = tables.pow10[d]
    integer = q // scale
    fraction = (q - integer * scale) * tables.pow10[17 - d]
    words = np.zeros((cells.size, _CELL_WORDS), np.uint32)
    head = zeros + 5 * np.signbit(cells)
    words[:, 0] = tables.heads[0][head]
    words[:, 1] = tables.heads[1][head]
    # the integer part from its last group up: a group's leading zeros are
    # digits when a group above it is nonzero; stop when all are zero
    rest = integer
    for col in (5, 4, 3, 2):
        above = rest // 10**4
        words[:, col] = tables.groups[rest - above * 10**4 + 10**4 * (above > 0)]
        rest = above
        if not rest.any():
            break
    else:  # all four groups: a 17th digit may lead
        words[:, 1] |= np.where(rest > 0, rest + ord("0"), 0).astype(np.uint32) << 24
    # the fraction from its first digit on: a group's trailing zeros are
    # digits when a group below it is nonzero; stop when all are zero
    first = fraction // 10**16
    words[:, 6] = (np.where(fraction > 0, first + ord("0"), 0) << 24
                   | ((fraction > 0) & (zeros == 0)) * (ord(".") << 16)).astype(np.uint32)
    rest = fraction - first * 10**16
    for col, place in zip((7, 8, 9, 10), (10**12, 10**8, 10**4, 1)):
        group = rest // place
        rest = rest - group * place
        words[:, col] = tables.groups[group + 2 * 10**4 - 10**4 * (rest > 0)]
        if not rest.any():
            break
    exponent = np.where(fixed, 0, e + _EXP_BIAS)
    words[:, 11] = tables.exponents[0][exponent]
    words[:, 12] = tables.exponents[1][exponent]
    ncols = chunk.shape[1]
    separators = np.full(ncols, ord(",") << 16, np.uint32)
    separators[-1] = int.from_bytes(b"\0\0\r\n", "little")
    words.reshape(-1, ncols, _CELL_WORDS)[:, :, -1] |= separators
    text = words.view(np.uint8)
    unproved = np.flatnonzero(~proved)
    if unproved.size:
        exact = np.array([FLOAT_FMT % v for v in cells[unproved].tolist()], f"S{_CELL_CHARS}")
        text[unproved, :-2] = 0  # all but the separator
        text[unproved, :_CELL_CHARS] = exact.view(np.uint8).reshape(-1, _CELL_CHARS)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _format_rows(rows) -> str:
    """Rows of numbers as CSV lines: _format_chunk from _KERNEL_MIN_CELLS
    cells on, else one FLOAT_FMT call."""
    if rows.size >= _KERNEL_MIN_CELLS:
        return _format_chunk(rows)
    line = ",".join([FLOAT_FMT] * rows.shape[1]) + "\r\n"
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def write_csv(path, header, columns):
    """Write a header row, then row k of a 2-D float64 array as "k,<its cells>".

    The header's names, the step column's among them, are joined by commas
    as given. A step k prints as an integer, FLOAT_FMT's bytes for float(k)
    (k < 2**53), and a cell of ``columns`` as C's '%.17g'. Rows go out
    _CHUNK_CELLS cells at a time, step cells included (whole rows, at least
    one), each chunk with its steps stacked on as floats: through
    _format_chunk's exact kernel from _KERNEL_MIN_CELLS cells, which hands
    the cells it cannot prove (see _scaled_digits) to FLOAT_FMT, else
    through one FLOAT_FMT call. A table of _PERIODIC_MIN_CELLS cells or more
    whose rows repeat bit for bit (by system._period), with a period p of at
    most _PERIODIC_MIN_CELLS cells, has its first p rows formatted once;
    each chunk then prints its steps by one '%d' call into a format that
    holds the period's text. Equal bits print equal text, so the bytes are
    the same. A path that cannot be written raises ProblemFormatError.
    """
    with _writing(path) as fh:
        fh.write(",".join(header) + "\r\n")
        n, width = len(columns), columns.shape[1] + 1  # cells a row, step included
        per_chunk = max(1, _CHUNK_CELLS // width)  # rows
        period = _period(columns) if n * width >= _PERIODIC_MIN_CELLS else n
        if period * width <= _PERIODIC_MIN_CELLS and period < n:
            # '%' leaves the tails alone: '%.17g' never prints a '%'
            tails = _format_rows(columns[:period]).split("\r\n")[:-1]
            lines = [f"%d,{tail}\r\n" for tail in tails]
            for start in range(0, n, per_chunk):
                steps = range(start, min(start + per_chunk, n))
                cycle = itertools.islice(itertools.cycle(lines), start % period, None)
                fh.write("".join(itertools.islice(cycle, len(steps))) % tuple(steps))
        else:
            for start in range(0, n, per_chunk):
                steps = np.arange(start, min(start + per_chunk, n), dtype=float)
                fh.write(_format_rows(np.column_stack((steps, columns[start:start + per_chunk]))))


def read_inputs_csv(path, m: int) -> np.ndarray:
    """Parse an inputs.csv (columns k, u_1 .. u_m) into an (N, m) array.

    The file is read once, as its header line and a list of row lines.
    A file of _PERIODIC_MIN_CELLS cells or more whose row lines take few
    distinct texts past their first comma has each of those parsed once
    (see _interned_inputs); any other file, or one with an irregular row,
    is parsed by one np.loadtxt of every row. Both give the same array,
    bit for bit.
    Raises ProblemFormatError when the file cannot be read, is empty, has
    a header that is not m + 1 columns wide, or has a malformed row (a
    blank line, a row of the wrong width, a cell that is not a finite
    number, or a k that is not the row's 0-based index).
    """
    path = Path(path)
    try:
        # undecodable bytes become U+FFFD and so fail as non-numeric cells
        with path.open(errors="replace") as fh:
            first = fh.readline()
            rows = fh.readlines()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read inputs file {path}: {exc}") from exc
    if not first:
        raise ProblemFormatError(f"{path}: empty CSV")
    header = next(csv.reader([first]), [])
    if len(header) != m + 1:
        raise ProblemFormatError(
            f"{path}: expected {m + 1} columns (k, u_1..u_{m}), got {len(header)}"
        )
    if not rows:
        return np.zeros((0, m))
    if len(rows) * (m + 1) >= _PERIODIC_MIN_CELLS:
        inputs = _interned_inputs(rows, m)
        if inputs is not None:
            return inputs
    table = _parse_lines(rows)
    if (table is None or table.shape != (len(rows), m + 1) or not np.isfinite(table).all()
            or not np.array_equal(table[:, 0], np.arange(len(rows)))):
        raise ProblemFormatError(f"{path}: malformed row {_first_malformed_row(rows, m)}")
    return np.ascontiguousarray(table[:, 1:])


def _parse_lines(lines, ndmin=2):
    """np.loadtxt of CSV lines, or None where it raises ValueError.

    loadtxt skips blank lines, which are malformed rows here, so the
    table then has fewer rows than there are lines.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # lines that are all blank
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=ndmin)
    except ValueError:
        return None


def _interned_inputs(rows: list[str], m: int) -> np.ndarray | None:
    """The (N, m) inputs of row lines with few distinct tails, else None.

    A line's tail is its text past its first comma. Each distinct tail
    is parsed once and the rows take their values from it; every step
    cell is parsed, to be checked against its row's index. None past
    _PERIODIC_MIN_CELLS // (m + 1) distinct tails, or on any irregular
    line, so the full parse reports it.
    """
    first_use, which, steps, cap = {}, [], [], _PERIODIC_MIN_CELLS // (m + 1)
    for line in rows:
        step, _, tail = line.partition(",")
        index = first_use.get(tail)
        if index is None:
            if len(first_use) == cap:
                return None
            index = first_use[tail] = len(first_use)
        which.append(index)
        steps.append(step)
    values, steps = _parse_lines(list(first_use)), _parse_lines(steps, ndmin=1)
    if values is None or steps is None or values.shape != (len(first_use), m):
        return None
    if not (np.isfinite(values).all() and np.array_equal(steps, np.arange(len(rows)))):
        return None
    return values.take(which, axis=0)


def _first_malformed_row(rows: list[str], m: int) -> int:
    """1-based index of the first of the row lines (each with its line end,
    as readlines gives them) that is not m + 1 finite numbers led by its
    0-based index."""
    for index, line in enumerate(rows, 1):
        if line == "\n":
            return index
        row = _parse_lines([line])
        if (row is None or row.shape[1] != m + 1 or not np.isfinite(row).all()
                or row[0, 0] != index - 1):
            return index
    raise AssertionError("no malformed row")
