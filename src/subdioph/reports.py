"""Deterministic report serialization: JSON lines and flattened CSV.

All report records are mappings.  JSONL writes one compact object per line;
integers too large for a double are written as decimal strings so no reader
silently rounds them.  CSV flattens nested mappings with dotted column names
and keeps the column order of first appearance, so identical inputs always
produce identical bytes.  The optional header line carries the only
timestamp; data lines never depend on the clock.
"""

from __future__ import annotations

import csv
import decimal
import json
import math
from collections.abc import Mapping, Sequence
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


def exact_str(value: int | Fraction) -> str:
    """Decimal text of an int, or 'p/q' of a Fraction, of any size.

    Large integers go through the decimal module, which is not subject to
    the interpreter's int -> str digit limit; that limit stays in place,
    since it guards the parsing of untrusted input.
    """
    if isinstance(value, Fraction):
        num = exact_str(value.numerator)
        return num if value.denominator == 1 else f"{num}/{exact_str(value.denominator)}"
    if value.bit_length() < _STR_SAFE_BITS:
        return str(value)
    return str(decimal.Decimal(value))


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
    kind = type(value)
    if kind is str or kind is int:
        return _convert_scalar(value)
    if kind is not list and isinstance(value, Mapping):
        return {str(k): _convert(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        kinds = {type(x) for x in value if x is not None}
        if len(kinds) > 1:
            names = sorted(k.__name__ for k in kinds)
            raise SerializationError(f"mixed-type list in report: {names}")
        return [_convert(x) for x in value]
    return _convert_scalar(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return json.dumps(value)
    if isinstance(value, list):
        return json.dumps(value, separators=(",", ":"))
    raise SerializationError(f"cannot place {type(value).__name__} in a CSV cell")


def _flatten(record: Mapping, prefix: str = "") -> dict:
    out = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
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


def emit_report(
    records: Sequence[Mapping],
    fmt: str,
    stream: IO[str],
    command: str = "",
    no_header: bool = False,
) -> None:
    """Write records to the stream in the requested format.

    Records must all be mappings.  An empty list still produces the header
    (unless suppressed); failures raise SerializationError before anything
    is written.
    """
    if fmt not in FORMATS:
        raise SerializationError(f"unknown format {fmt!r}")
    for record in records:
        if not isinstance(record, Mapping):
            raise SerializationError("report records must be mappings")
    converted = [_convert(record) for record in records]

    if fmt == JSONL:
        lines = []
        if not no_header:
            lines.append(json.dumps(header_line(command), separators=(",", ":")))
        lines.extend(
            json.dumps(record, separators=(",", ":")) for record in converted
        )
        for line in lines:
            stream.write(line + "\n")
        return

    flat = [_flatten(record) for record in converted]
    columns: list[str] = []
    for row in flat:
        for name in row:
            if name not in columns:
                columns.append(name)
    if not no_header:
        stream.write(f"# {command} {header_line(command)['generated']}\n")
    if columns:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for row in flat:
            writer.writerow([row.get(name, "") for name in columns])
