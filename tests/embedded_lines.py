"""The line engine on any two coordinate axes of R^n.

scan_records places a line target's plane records on axes (0, 1).  The
tests that place them elsewhere run the engine's gate, _line_scan, on
their axes and build the records as scan_records does (_line_records).
"""

from subdioph import estimation as est
from subdioph.enumeration import EnumSpec


def embedded_line_records(target, n, height_squared_max, axes=(0, 1)):
    """The records of every line in R^n against a plane line target
    embedded on the given axes."""
    spec = EnumSpec(n, 1, height_squared_max)
    engine, raw, _keyed_rows, place = est._line_scan(target, spec, axes=axes)
    return est._line_records(engine, raw, place)
