"""Fuzzing of the CLI parsers: every input ends in a documented exit code.

``--monic`` and ``--eigs`` strings and ``.sgn`` / ``.mat`` file text are
fed through ``cli.main`` for n <= 4.  Whatever they hold, the command must
exit 0, 2, 64 or 65 and must not end in an exception (a traceback for a
user).  The runs are derandomized, so the same examples are tried every
time.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sapcert.cli import main  # noqa: E402

EXITS = {0, 2, 64, 65}
FUZZ = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _check(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in EXITS, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


numbers = st.one_of(
    st.integers(-20, 20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "infinity", "1e400", "-0", "", " ", "x", "1e", "--1"]),
)
imaginary = st.one_of(
    numbers.map(lambda v: v + "i"),
    st.tuples(numbers, st.sampled_from(["+", "-"]), numbers).map(lambda t: t[0] + t[1] + t[2] + "i"),
    st.sampled_from(["i", "-i", "nani", "infi", "1+nani", "(1+2i)", "2j", "1i+2"]),
)
junk = st.text(alphabet="0123456789+-.,eijnaf() \t", max_size=12)


def _joined(token, count):
    return st.lists(token, min_size=count, max_size=count).map(",".join)


@st.composite
def family_and_count(draw):
    n = draw(st.integers(2, 4))
    r = draw(st.integers(2, n))
    # mostly the right number of values, so that parsing gets past the count
    count = draw(st.one_of(st.just(n), st.integers(0, 5)))
    return n, r, count


@FUZZ
@given(family_and_count(), st.data())
def test_fuzz_realize_monic(shape, data):
    n, r, count = shape
    value = data.draw(st.one_of(_joined(numbers, count), junk))
    _check(["realize", "--n", str(n), "--r", str(r), "--monic", value])


@FUZZ
@given(family_and_count(), st.data())
def test_fuzz_realize_eigs(shape, data):
    n, r, count = shape
    value = data.draw(st.one_of(_joined(st.one_of(numbers, imaginary), count), junk))
    _check(["realize", "--n", str(n), "--r", str(r), "--eigs", value])


signs = st.text(alphabet="+-0", min_size=0, max_size=5)
entries = st.one_of(st.integers(-3, 3).map(str), numbers)


@st.composite
def grid_text(draw, cell, sep):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=30))
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4))
    header = draw(st.sampled_from([f"{n} {m}", f"{n}", f"{n} x", ""]))
    rows = draw(st.lists(st.lists(cell, max_size=5).map(sep.join), max_size=5))
    return "\n".join([header, *rows]) + draw(st.sampled_from(["", "\n"]))


@FUZZ
@given(
    grid_text(signs, ""),
    grid_text(entries, " "),
    st.lists(st.integers(-1, 5), max_size=6).map(lambda v: ",".join(map(str, v))),
)
def test_fuzz_njverify_files(pattern_text, matrix_text, positions):
    with tempfile.TemporaryDirectory() as tmp:
        sgn, mat = Path(tmp, "p.sgn"), Path(tmp, "m.mat")
        sgn.write_text(pattern_text, encoding="utf-8")
        mat.write_text(matrix_text, encoding="utf-8")
        _check(["njverify", "--pattern", str(sgn), "--matrix", str(mat), "--positions", positions or "1,1"])
