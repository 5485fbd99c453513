"""Report bytes against a reference encoder, and all-or-nothing writes.

The reference below is the serializer as first written: isinstance-based
conversion, one json.dumps call per row and per CSV list cell.  emit_report
must write the same bytes on every value kind a report can hold.
"""

import csv
import decimal
import io
import json
import math
import sys
import types
from collections import OrderedDict
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from subdioph import reports
from subdioph.errors import SerializationError


def ref_convert(value):
    if isinstance(value, Mapping):
        return {str(k): ref_convert(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        kinds = {type(x) for x in value if x is not None}
        if len(kinds) > 1:
            raise SerializationError("mixed-type list")
        return [ref_convert(x) for x in value]
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value if abs(value) < 2**53 else reports.exact_str(value)
    if isinstance(value, Fraction):
        return reports.exact_str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SerializationError("non-finite float")
        return value
    raise SerializationError(type(value).__name__)


def ref_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return json.dumps(value)
    return json.dumps(value, separators=(",", ":"))


def ref_flatten(record, prefix=""):
    out = {}
    for key, value in record.items():
        if isinstance(value, Mapping):
            out.update(ref_flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = ref_cell(value)
    return out


def reference_bytes(records, fmt):
    """The data stream of emit_report(..., no_header=True), by the reference."""
    converted = [ref_convert(r) for r in records]
    if fmt == reports.JSONL:
        return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in converted)
    flat = [ref_flatten(r) for r in converted]
    columns = []
    for row in flat:
        columns.extend(name for name in row if name not in columns)
    out = io.StringIO()
    if columns:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in flat:
            writer.writerow([row.get(name, "") for name in columns])
    return out.getvalue()


def emitted(records, fmt, **kwargs):
    stream = io.StringIO()
    reports.emit_report(records, fmt, stream, command="test", **kwargs)
    return stream.getvalue()


CORPUS = [
    {"coords": ["1", "-2", "3"], "heightSquared": "14"},
    {"small": 2**53 - 1, "edge": 2**53, "neg": -(2**53), "big": 3**40},
    {"huge": 2**2000 + 1, "neg_huge": -(7**800), "digits": 10**700},
    {"fractions": [Fraction(1, 3), Fraction(-(2**70), 3), Fraction(6, 3)],
     "wide": Fraction(2**2001 + 1, 7)},
    {"floats": [0.1, -0.0, 1e308, 5e-324], "third": 1 / 3, "flag": True,
     "off": False, "missing": None},
    {"text": "psi ≥ θ — 日本語 é  ", "quote": 'a,"b"\nc', "emoji": "\U0001F600"},
    {"nested": {"level": {"deep": [1, 2, 3], "label": "x"}, "h": 2**60},
     "lists": [[1, 2], [3]], "maybe": ["x", None, "y"], "pair": (4, 5)},
    OrderedDict([("z", 1), ("a", [True, False])]),
    types.MappingProxyType({"proxy": Fraction(5, 2), 7: "int key"}),
    {"rows": [{"k": 1}, {"k": 2**64}], "empty": [], "blank": ""},
    {"coords": ["9"], "extra": {"only": "here"}},
]


@pytest.mark.parametrize("fmt", reports.FORMATS)
def test_bytes_match_the_reference_encoder(fmt):
    assert emitted(CORPUS, fmt, no_header=True) == reference_bytes(CORPUS, fmt)
    for record in CORPUS:
        assert emitted([record], fmt, no_header=True) == reference_bytes([record], fmt)


@pytest.mark.parametrize("fmt", reports.FORMATS)
def test_header_precedes_the_same_body(fmt):
    lines = emitted(CORPUS, fmt).splitlines(keepends=True)
    assert "".join(lines[1:]) == reference_bytes(CORPUS, fmt)
    if fmt == reports.JSONL:
        header = json.loads(lines[0])
        assert list(header) == ["type", "command", "generated"]
        assert lines[0] == json.dumps(header, separators=(",", ":")) + "\n"
    else:
        assert lines[0].startswith("# test ")


BAD_LAST = [
    {"x": float("nan")},
    {"x": float("inf")},
    {"nested": {"x": -float("inf")}},
    {"values": [1, "two"]},
    {"obj": object()},
    ["not", "a", "mapping"],
]


@pytest.mark.parametrize("fmt", reports.FORMATS)
@pytest.mark.parametrize("no_header", [False, True])
@pytest.mark.parametrize(
    "bad", BAD_LAST, ids=["nan", "inf", "nested-inf", "mixed-list", "object", "non-mapping"]
)
def test_a_bad_last_record_leaves_the_stream_empty(fmt, no_header, bad):
    stream = io.StringIO()
    with pytest.raises(SerializationError):
        reports.emit_report(
            [*CORPUS, bad], fmt, stream, command="test", no_header=no_header
        )
    assert stream.getvalue() == ""


def _label(*coords):
    return tuple(coords), sum(c * c for c in coords)


LABELS = [
    _label(1, 0),
    _label(0, 1, -2),
    _label(3, -4, 5, 0, -7),
    _label(2**999, 1),  # squared height of 1999 bits: plain str
    _label(math.isqrt(2**1999) + 1, -5),  # 2000 bits: exact_str
    _label(2**2000 + 1, -(3**1300), 0),  # coordinates of 2001 bits and more
    _label(7**6000, -1),  # 16,902 digits, beyond the int -> str digit limit
]


def label_rows(labels):
    return [
        {"coords": [reports.exact_str(c) for c in coords],
         "heightSquared": reports.exact_str(h2)}
        for coords, h2 in labels
    ]


@pytest.mark.parametrize("fmt", reports.FORMATS)
@pytest.mark.parametrize("no_header", [False, True])
@pytest.mark.parametrize("labels", [LABELS, []], ids=["labels", "empty"])
def test_label_rows_are_the_report_rows(monkeypatch, fmt, no_header, labels):
    """emit_labels writes the bytes of emit_report over exact_str rows,
    across chunk boundaries and past every str() bound."""
    fixed = {"type": "header", "command": "enumerate", "generated": "2000-01-01T00:00:00+00:00"}
    monkeypatch.setattr(reports, "header_line", lambda command: fixed)
    monkeypatch.setattr(reports, "_LABEL_CHUNK", 3)
    expected, got = io.StringIO(), io.StringIO()
    reports.emit_report(label_rows(labels), fmt, expected, "enumerate", no_header)
    reports.emit_labels(iter(labels), fmt, got, "enumerate", no_header)
    assert got.getvalue() == expected.getvalue()
    if not labels:
        assert got.getvalue().count("\n") == (0 if no_header else 1)


def emitted_labels(labels, fmt, no_header=True):
    """(emit_labels bytes, emit_report bytes of the exact_str rows)."""
    expected, got = io.StringIO(), io.StringIO()
    reports.emit_report(label_rows(labels), fmt, expected, "enumerate", no_header)
    reports.emit_labels(iter(labels), fmt, got, "enumerate", no_header)
    return got.getvalue(), expected.getvalue()


@pytest.mark.parametrize("fmt", reports.FORMATS)
def test_a_batch_past_the_digit_limit_falls_back_alone(monkeypatch, fmt):
    """The first batch takes the template; the second holds a coordinate
    past the int -> str digit limit, and only it goes through exact_str."""
    monkeypatch.setattr(reports, "_LABEL_CHUNK", 3)
    first = [_label(1, 0, 2), _label(0, 1, -2), _label(3, -4, 5)]
    second = [_label(2, 2, 1), _label(7**6000, -1, 0), _label(1, 1, 1)]
    _, want = emitted_labels([*first, *second], fmt)
    seen, got = [], io.StringIO()
    exact_str = reports.exact_str
    monkeypatch.setattr(reports, "exact_str", lambda v: seen.append(v) or exact_str(v))
    reports.emit_labels(iter([*first, *second]), fmt, got, no_header=True)
    assert got.getvalue() == want
    assert seen and set(seen) <= {v for coords, h2 in second for v in (*coords, h2)}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str limit")
@pytest.mark.parametrize("fmt", reports.FORMATS)
def test_labels_under_the_least_digit_limit(fmt):
    """At the least limit the interpreter allows, 640 digits, a 700-digit
    coordinate still prints in full."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        big = 10**699 + 7
        got, want = emitted_labels([_label(1, 2), _label(big, -3), _label(0, 1)], fmt)
    finally:
        sys.set_int_max_str_digits(before)
    assert got == want and str(big)[:600] in got


@pytest.mark.parametrize("fmt", reports.FORMATS)
def test_an_empty_label_stream_writes_no_rows(fmt):
    assert emitted_labels((), fmt) == ("", "")
    got, _ = emitted_labels((), fmt, no_header=False)
    assert got.count("\n") == 1


@pytest.mark.parametrize("rounding", [None, decimal.ROUND_FLOOR, decimal.ROUND_CEILING])
@pytest.mark.parametrize("digits", [3, 6, 18])
def test_sci_str_prints_zero_with_exponent_zero(rounding, digits):
    want = f"{0.0:.{digits}e}"
    assert reports.sci_str(mp.mpf(0), digits, rounding) == want
    for exp in (0, -40, 7):
        assert reports.sci_str((0, exp), digits, rounding) == want


def test_label_writer_rejects_an_unknown_format():
    stream = io.StringIO()
    with pytest.raises(SerializationError):
        reports.emit_labels([_label(1)], "xml", stream)
    assert stream.getvalue() == ""


@pytest.mark.parametrize("value, text", [
    (0.25, "2.500000e-01"), (25, "2.500000e+01"), (-0.25, "-2.500000e-01"), (1, "1.000000e+00"),
])
def test_sci_str_prints_two_exponent_digits_on_the_exact_path(value, text):
    """With a rounding mode, or from a dyadic (man, exp), sci_str prints the
    exact value in the shape of its float path: e+-NN."""
    x = mp.mpf(value)
    assert f"{value:.6e}" == reports.sci_str(x) == text
    assert reports.sci_str(x, 6, decimal.ROUND_FLOOR) == text
    man, exp = x.man_exp
    assert reports.sci_str((-man if x < 0 else man, exp), 6, decimal.ROUND_CEILING) == text


@settings(max_examples=300, deadline=None)
@given(
    man=st.integers(-(2**80), 2**80),
    exp=st.integers(-4000, 900),
    digits=st.sampled_from([6, 18]),
    rounding=st.sampled_from([None, decimal.ROUND_FLOOR, decimal.ROUND_CEILING]),
)
@example(man=3, exp=-2000, digits=6, rounding=None)
@example(man=2**64 + 1, exp=-1090, digits=18, rounding=None)
def test_sci_str_prints_a_dyadic_fraction_as_its_mpf(man, exp, digits, rounding):
    """A Fraction with a power-of-two denominator prints as the equal mpf:
    the float path while the double is normal, the exact one elsewhere."""
    value = Fraction(man) * Fraction(2) ** exp
    assert reports.sci_str(value, digits, rounding) == reports.sci_str(mp.ldexp(man, exp), digits, rounding)


def test_sci_str_prints_no_fraction_that_is_not_dyadic_exactly():
    """A Fraction whose double is normal prints from it; the exact path
    takes dyadic ones only."""
    assert reports.sci_str(Fraction(1, 3)) == f"{1 / 3:.6e}"
    with pytest.raises(ValueError):
        reports.sci_str(Fraction(1, 3), 6, decimal.ROUND_FLOOR)


def test_sci_str_prints_a_dyadic_below_the_double_range_as_its_mpf():
    for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
        got = reports.sci_str((3, -2000), 18, rounding)
        assert got == reports.sci_str(mp.ldexp(3, -2000), 18, rounding)
        assert got.startswith("2.61294294486516500") and got.endswith("e-602")
