"""Deterministic report serialization: JSON lines and flattened CSV.

All report records are mappings.  JSONL writes one compact object per line;
integers too large for a double are written as decimal strings so no reader
silently rounds them.  CSV flattens nested mappings with dotted column names
and keeps the column order of first appearance, so identical inputs always
produce identical bytes.  The optional header line carries the only
timestamp; data lines never depend on the clock.

Records convert one at a time, each straight into its JSON line or its
flat CSV row.  Every JSON text, rows, the header and CSV list cells alike,
comes from one compact encoder built once per process, not one per call,
with the bytes of json.dumps(value, separators=(",", ":")).  A list of
strings is its own JSON-safe image and is not copied.  emit_report writes
nothing before every record has converted, so a record that cannot be
serialized leaves the stream untouched.

Census labels, the (coords, height_squared) pairs of
enumeration.enumerate_labels, cannot fail to serialize, so emit_labels
streams them in constant memory, with the bytes emit_report writes for
the row {"coords": [...], "heightSquared": ...} of exact_str values.  The
rows of one census share their width, so they come from one %-template
per call, filled a batch of labels at a time; a batch the template cannot
take (a label of another width, or an integer past the int -> str digit
limit) falls back to exact_str row by row.  A line census handed over in
runs (enumeration.census_runs) is written by emit_line_runs with the same
bytes, from one head string per run and one tail string per value.
"""

from __future__ import annotations

import csv
import decimal
import itertools
import json
import math
import sys
from collections.abc import Iterable, Mapping, Sequence
from datetime import datetime, timezone
from fractions import Fraction
from typing import IO

from .errors import SerializationError

JSONL = "jsonl"
CSV = "csv"
FORMATS = (JSONL, CSV)

_FLOAT_SAFE_INT = 2**53
# str() of an int is limited to sys.get_int_max_str_digits() digits (4300 by
# default, at least 640); below 2^2000 (603 digits) it is always allowed.
_STR_SAFE_BITS = 2000


def _compact_encoder():
    """The text of json.dumps(value, separators=(",", ":")), from one C
    encoder built here: JSONEncoder.encode builds a new one on every call."""
    base = json.JSONEncoder(separators=(",", ":"))
    make = json.encoder.c_make_encoder
    if make is None:  # an interpreter without the _json accelerator
        return base.encode
    encoder = make(
        None, base.default, json.encoder.encode_basestring_ascii, None,
        base.key_separator, base.item_separator, False, False, True,
    )
    return lambda value: "".join(encoder(value, 0))


# the one compact encoder for rows, the header and CSV list cells
_encode = _compact_encoder()


def exact_str(value: int | Fraction) -> str:
    """Decimal text of an int, or 'p/q' of a Fraction, of any size.

    Large integers go through the decimal module, which is not subject to
    the interpreter's int -> str digit limit; that limit stays in place,
    since it guards the parsing of untrusted input.
    """
    # exact types first: isinstance(value, Fraction) goes through the
    # numbers ABCs and costs more than the conversion
    if type(value) is not int and isinstance(value, Fraction):
        num = exact_str(value.numerator)
        return num if value.denominator == 1 else f"{num}/{exact_str(value.denominator)}"
    if value.bit_length() < _STR_SAFE_BITS:
        return str(value)
    return str(decimal.Decimal(value))


# exact decimal scaling: the digits of man * 5^k never exceed this
_EXACT = decimal.Context(prec=decimal.MAX_PREC)


def sci_str(value, digits: int = 6, rounding: str | None = None) -> str:
    """value, an mpf, a dyadic Fraction (a power-of-two denominator) or a
    dyadic (man, exp), as d.ddd...e+-NN with the given number of decimals.
    Without a rounding mode, an mpf or a Fraction prints as
    f"{float(value):.{digits}e}" prints it when float(value) is a normal
    double or zero; otherwise the exact value man 2^exp prints, rounded half
    to even: a deviation far below the double range prints as itself, not
    as 0.  With a decimal rounding mode (decimal.ROUND_FLOOR, ROUND_CEILING,
    ...) the exact value is always the one printed, rounded in that mode,
    so an interval end prints outward.
    """
    if rounding is None and type(value) is not tuple:
        f = float(value)
        if f == 0 == value or (math.isfinite(f) and abs(f) >= sys.float_info.min):
            return f"{f:.{digits}e}"
    if type(value) is Fraction:
        den = value.denominator
        if den & (den - 1):
            raise ValueError(f"{value} is not a dyadic fraction")
        value = (value.numerator, 1 - den.bit_length())
    pair = type(value) is tuple
    man, exp = value if pair else value.man_exp
    man = -man if not pair and value < 0 else man
    if man == 0:  # Decimal would print 0.000000e+6: the digits go into its exponent
        return f"{0.0:.{digits}e}"
    if exp >= 0:
        exact = decimal.Decimal(man << exp)
    else:
        exact = decimal.Decimal(man * 5**-exp).scaleb(exp, _EXACT)
    # rounded here to digits + 1 significant digits, the format is exact
    shown = decimal.Context(
        prec=digits + 1, rounding=rounding or decimal.ROUND_HALF_EVEN,
        Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
    ).plus(exact)
    mantissa, power = f"{shown:.{digits}e}".split("e")
    return f"{mantissa}e{int(power):+03d}"


def _convert_scalar(value):
    """JSON-safe image of one scalar value."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value if abs(value) < _FLOAT_SAFE_INT else exact_str(value)
    if isinstance(value, Fraction):
        return exact_str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SerializationError("non-finite float in report")
        return value
    raise SerializationError(f"cannot serialize {type(value).__name__} values")


def _convert(value):
    """JSON-safe image of a report value.  Exact types are tested first:
    isinstance against the Mapping ABC costs more than most conversions."""
    kind = type(value)
    if kind is str:
        return value
    if kind is int:
        return value if abs(value) < _FLOAT_SAFE_INT else exact_str(value)
    if kind is dict or (kind is not list and isinstance(value, Mapping)):
        return {str(k): _convert(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        kinds = {type(x) for x in value if x is not None}
        if len(kinds) > 1:
            names = sorted(k.__name__ for k in kinds)
            raise SerializationError(f"mixed-type list in report: {names}")
        if kinds <= {str}:  # strings and None are their own images
            return value if kind is list else list(value)
        return [_convert(x) for x in value]
    return _convert_scalar(value)


def _csv_cell(value) -> str:
    kind = type(value)
    if kind is str:
        return value
    if value is None:
        return ""
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, (int, float, list)):
        return _encode(value)
    raise SerializationError(f"cannot place {type(value).__name__} in a CSV cell")


def _flatten(record: dict, prefix: str = "") -> dict:
    """CSV cells of a converted record, nested keys joined with dots."""
    out = {}
    for key, value in record.items():
        name = prefix + key if prefix else key
        if type(value) is dict:
            out.update(_flatten(value, prefix=f"{name}."))
        else:
            out[name] = _csv_cell(value)
    return out


def header_line(command: str) -> dict:
    return {
        "type": "header",
        "command": command,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _converted(records: Sequence[Mapping]):
    """Each record checked and converted, in order."""
    for record in records:
        if type(record) is not dict and not isinstance(record, Mapping):
            raise SerializationError("report records must be mappings")
        yield _convert(record)


def _write_header(fmt: str, stream: IO[str], command: str) -> None:
    if fmt == JSONL:
        stream.write(_encode(header_line(command)) + "\n")
    else:
        stream.write(f"# {command} {header_line(command)['generated']}\n")


def emit_report(
    records: Sequence[Mapping],
    fmt: str,
    stream: IO[str],
    command: str = "",
    no_header: bool = False,
) -> None:
    """Write records to the stream in the requested format.

    Records must all be mappings.  An empty list still produces the header
    (unless suppressed).  Every record is converted before anything is
    written, so a failure raises SerializationError and leaves the stream
    untouched.
    """
    if fmt not in FORMATS:
        raise SerializationError(f"unknown format {fmt!r}")

    if fmt == JSONL:
        lines = [_encode(record) + "\n" for record in _converted(records)]
        if not no_header:
            _write_header(fmt, stream, command)
        stream.writelines(lines)
        return

    rows = [_flatten(record) for record in _converted(records)]
    columns: dict[str, None] = {}
    for row in rows:
        for name in row:
            if name not in columns:
                columns[name] = None
    if not no_header:
        _write_header(fmt, stream, command)
    if columns:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row.get(name, "") for name in columns] for row in rows)


# The text around a label's coordinates and its squared height: the JSONL
# row {"coords":["1","0"],"heightSquared":"1"} and the CSV row
# "[""1"",""0""]",1 (the quoted JSON list cell that the csv module writes).
_LABEL_ROW = {
    JSONL: ('{"coords":["', '","', '"],"heightSquared":"', '"}\n'),
    CSV: ('"[""', '"",""', '""]",', "\n"),
}
# rows joined per write: few calls into the stream, bounded memory
_LABEL_CHUNK = 2048


def _census_start(items: Iterable, fmt: str, stream: IO[str], command: str, no_header: bool):
    """(first item, the rest) of a census stream, the first drawn before
    anything is written: the header (unless suppressed), then the CSV
    column row when there is a first item."""
    if fmt not in FORMATS:
        raise SerializationError(f"unknown format {fmt!r}")
    items = iter(items)
    first = next(items, None)
    if not no_header:
        _write_header(fmt, stream, command)
    if first is not None and fmt == CSV:
        stream.write("coords,heightSquared\n")
    return first, items


def emit_labels(
    labels: Iterable[tuple[Sequence[int], int]],
    fmt: str,
    stream: IO[str],
    command: str = "",
    no_header: bool = False,
) -> None:
    """Write census labels (coords, height_squared) as they are drawn, one
    row each, with the bytes emit_report writes for the rows
    {"coords": [exact_str(c), ...], "heightSquared": exact_str(h2)}.

    Each batch of _LABEL_CHUNK labels is one write, formatted with one
    %-template of the first label's width: str prints what exact_str
    prints for every int it accepts.  A batch the template refuses
    (TypeError: a label of another width; ValueError: an int past the
    int -> str digit limit) is formatted again row by row with exact_str.

    The first label is drawn before anything is written, so an error the
    label stream raises at once leaves the stream untouched.  No labels
    give the header alone (unless suppressed): no CSV column row.
    """
    first, labels = _census_start(labels, fmt, stream, command, no_header)
    if first is None:
        return
    start, sep, middle, end = _LABEL_ROW[fmt]
    # %s, not %d: %d would print 1.5, Fraction(3, 2) and True as 1
    template = f"{start}{sep.join(['%s'] * len(first[0]))}{middle}%s{end}"

    def exact_row(label) -> str:
        coords, h2 = label
        return f"{start}{sep.join(map(exact_str, coords))}{middle}{exact_str(h2)}{end}"

    labels = itertools.chain((first,), labels)
    while batch := list(itertools.islice(labels, _LABEL_CHUNK)):
        try:
            chunk = "".join([template % (*coords, h2) for coords, h2 in batch])
        except (TypeError, ValueError):  # another width, or past the digit limit
            chunk = "".join(map(exact_row, batch))
        stream.write(chunk)


# tail strings a line-run writer keeps for reuse before it starts afresh;
# in R^3 at H^2 <= 500, 76% of the rows reuse a kept tail
_TAIL_CACHE = 1 << 16


def emit_line_runs(
    runs: Iterable[tuple[Sequence[int], int, Sequence[int]]],
    fmt: str,
    stream: IO[str],
    command: str = "",
    no_header: bool = False,
) -> None:
    """Write a line census given in runs, enumeration.census_runs, with the
    bytes emit_labels writes for its labels (prefix + (v,), sq + v^2).

    The rows of a run share their text up to the last coordinate: one head
    per run, prefix and separators, and one tail per value, the last
    coordinate and the squared height.  A tail depends only on (sq, v), so
    the tails of a run are kept under (sq, values) and serve every later
    run with that key, up to _TAIL_CACHE kept tails.  Runs are written
    together once they hold _LABEL_CHUNK rows.  An integer past the
    int -> str digit limit makes its run go through exact_str.

    The first run is drawn before anything is written, so an error the run
    stream raises at once leaves the stream untouched.  No runs give the
    header alone (unless suppressed): no CSV column row.
    """
    first, runs = _census_start(runs, fmt, stream, command, no_header)
    if first is None:
        return
    start, sep, middle, end = _LABEL_ROW[fmt]
    tails: dict[tuple[int, Sequence[int]], list[str]] = {}
    kept = 0
    parts: list[str] = []
    rows = 0
    for prefix, sq, values in itertools.chain((first,), runs):
        try:
            head = f"{start}{sep.join(map(str, prefix))}{sep}"
            key = (sq, values)
            run_tails = tails.get(key)
            if run_tails is None:
                run_tails = [f"{v}{middle}{sq + v * v}{end}" for v in values]
                if kept >= _TAIL_CACHE:
                    tails.clear()
                    kept = 0
                tails[key] = run_tails
                kept += len(run_tails)
        except ValueError:  # past the int -> str digit limit
            head = f"{start}{sep.join(map(exact_str, prefix))}{sep}"
            run_tails = [f"{exact_str(v)}{middle}{exact_str(sq + v * v)}{end}" for v in values]
        parts.append(head)
        parts.append(head.join(run_tails))
        rows += len(run_tails)
        if rows >= _LABEL_CHUNK:
            stream.write("".join(parts))
            parts, rows = [], 0
    if parts:
        stream.write("".join(parts))
