"""The command line under malformed input: every run ends in exit code 0,
1 or 2, never a Python traceback, and a usage error (exit 2) writes
nothing to the data stream.

Each case is a verb, its flags and the JSON files it reads (basis, label
or instance descriptors).  Payloads mix well-formed values with wrong
types, bad fractions and out-of-range shapes; flag values stay small, so
every run that is accepted stays cheap.
"""

import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from subdioph.cli import run_command
from subdioph.enumeration import STRATEGIES

JUNK = (
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.sampled_from(["", "x", "3", "5/2", "1/0", "inf", "-2", 0.5, float("nan")])
    | st.lists(st.integers(-2, 3), max_size=3)
    | st.dictionaries(st.sampled_from(["n", "x"]), st.integers(0, 3), max_size=2)
)


def _field(valid, odds=8):
    """Junk one time in odds, else a well-formed value."""
    return st.integers(1, odds).flatmap(lambda k: JUNK if k == odds else valid)


@st.composite
def _object(draw, fields):
    """An object that drops each field one time in ten, or (as rarely)
    no object at all."""
    if draw(st.integers(1, 10)) == 10:
        return draw(JUNK)
    return {
        key: draw(_field(value)) for key, value in fields.items() if draw(st.integers(1, 10)) < 10
    }


SCALAR = _field(st.integers(-4, 4) | st.sampled_from(["3", "-1/2", "7/3"]), odds=30)


@st.composite
def _basis(draw):
    n = draw(st.integers(1, 4))
    e = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(SCALAR, min_size=e, max_size=e), min_size=n, max_size=n))
    return draw(_object({"n": st.just(n), "e": st.just(e), "basis": st.just(rows)}))


@st.composite
def _label(draw):
    # every primitive vector with a positive lead is the label of a line
    # or a hyperplane; other shapes mostly get coordinates off the
    # Pluecker relations
    n = draw(st.integers(-1, 5))
    e = draw(st.integers(-1, n + 1))
    size = math.comb(n, e) if 0 <= e <= n else draw(st.integers(0, 3))
    coords = draw(st.lists(_field(st.integers(-3, 3)), min_size=size, max_size=size))
    return draw(_object({"n": st.just(n), "e": st.just(e), "coords": st.just(coords)}))


@st.composite
def _instance(draw):
    ell = draw(st.integers(1, 2))
    beta = draw(st.sampled_from(["3", "11/4" if ell == 1 else "5/2", "2", "inf", 3]))
    fields = {"ell": st.just(ell), "beta": st.just(beta), "seed": st.integers(0, 3)}
    if draw(st.booleans()):
        fields["variant"] = st.sampled_from(["finite", "infinite", "weird"])
    if draw(st.booleans()):
        fields["theta"] = st.sampled_from([3, 5, 53, 4])
    return draw(_object(fields))


def _flag(*valid, junk=("x",)):
    """A flag value, junk one time in ten."""
    return st.integers(1, 10).flatmap(
        lambda k: st.sampled_from(junk if k == 10 else [str(v) for v in valid])
    )


FORMAT = {"--format": _flag("jsonl", "csv", junk=("xml",))}
SEED = {"--seed": _flag(0, 1)}
PRECISION = {
    "--precision-bits": _flag(64, 128, junk=("-1", "0", "8", "x")),
    "--target-rel-err": _flag("1e-5", "1/1000", junk=("0", "-1", "x", "1/0")),
}
INSTANCE_FLAGS = {
    "--ell": _flag(1, 2, junk=("-1", "0", "x")),
    "--beta": _flag("3", "5/2", "11/4", "inf", junk=("2", "x", "1/0", "0")),
    "--theta": _flag(3, 5, 53, junk=("4", "x")),
}
SHAPE = {
    "--n": _flag(1, 2, 3, 4, junk=("-1", "0", "x")),
    "--e": _flag(1, 2, 3, junk=("-1", "0", "x")),
    "--hmax-squared": _flag(1, 2, 10, 20, junk=("-1", "0", "x")),
    "--strategy": _flag(*STRATEGIES, junk=("nope",)),
}
# per verb: its shape flags, its rarer flags (the output format, and the
# seed and precision where the verb reads them) and the files it reads
VERBS = {
    "height": ({}, FORMAT, ("--basis",)),
    "pluecker": ({}, FORMAT, ("--basis",)),
    "decode": ({}, FORMAT, ("--pluecker",)),
    "angles": ({}, {**FORMAT, **PRECISION}, ("--basis", "--basis-b")),
    "enumerate": (
        {**SHAPE, "--shards": _flag(1, 3, junk=("-1", "0", "x")),
         "--shard-index": _flag(0, 2, junk=("-1", "x"))},
        FORMAT,
        (),
    ),
    "construct": (
        {**INSTANCE_FLAGS, "--nmax": _flag(1, 2, junk=("-1", "0", "x")),
         "--depth": _flag(3, 4, junk=("-1", "0", "1", "x"))},
        {**FORMAT, **SEED},
        ("--instance",),
    ),
    "records": (
        {**INSTANCE_FLAGS, **SHAPE, "--j": _flag(1, 2, junk=("-1", "0", "x"))},
        {**FORMAT, **SEED, **PRECISION},
        ("--basis", "--instance"),
    ),
}
FILE_PAYLOADS = {
    "--basis": _basis(), "--basis-b": _basis(), "--instance": _instance(), "--pluecker": _label(),
}
SWITCHES = {"construct": ("--certify",)}


@st.composite
def cli_cases(draw):
    """(argv without the file flags, [(file flag, payload)])."""
    verb = draw(st.sampled_from(sorted(VERBS)))
    valued, rare, file_flags = VERBS[verb]
    flags = {**rare, **valued}
    argv = [verb]
    # each shape flag two times in three, each rarer one a time in eight
    for flag in sorted(flags):
        if draw(st.integers(1, 24)) <= (16 if flag in valued else 3):
            argv += [flag, draw(flags[flag])]
    for switch in ("--no-header", *SWITCHES.get(verb, ())):
        if draw(st.booleans()):
            argv.append(switch)
    # records takes a target basis, an instance, both or neither
    files = [
        (flag, draw(FILE_PAYLOADS[flag]))
        for flag in file_flags
        if verb != "records" or draw(st.booleans())
    ]
    return argv, files


def _instance_case(payload):
    return ["construct", "--nmax", "1"], [("--instance", payload)]


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cli_cases())
@example(case=_instance_case({"ell": 1, "beta": "3", "theta": "x"}))
@example(case=_instance_case({"ell": 1, "beta": "3", "theta": [2]}))
@example(case=_instance_case({"ell": 1, "beta": None, "variant": "finite"}))
@example(case=_instance_case({"ell": 1, "beta": [1], "variant": "finite"}))
@example(case=_instance_case({"ell": 1, "beta": "1/0"}))
@example(case=_instance_case({"ell": 1, "beta": "3", "variant": "weird"}))
@example(case=(["decode"], [("--pluecker", {"n": -1, "e": 1, "coords": []})]))
@example(case=(["records", "--ell", "1", "--beta", "3", "--hmax-squared", "-1"], []))
def test_cli_never_leaks_a_traceback(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for index, (flag, payload) in enumerate(files):
            path = os.path.join(tmp, f"input{index}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            argv = [*argv, flag, path]
        out, err = io.StringIO(), io.StringIO()
        code = run_command(argv, stdout=out, stderr=err)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
