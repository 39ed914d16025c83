"""The CLI contract under generated inputs.

``cli.main`` runs in process on generated CSV text (byte order mark, CRLF,
a missing header, one row, all censored, zero or negative times, ``1e308``,
``nan``) and generated flag values.  Whatever the input, the exit code is
0, 2 or 3, no traceback appears, and stdout stays empty unless the exit
code is 0.  Each draw breaks at most two of its inputs, so that most
draws get past the flag checks to a fit.  Size flags are drawn small or
past ``MAX_SIZE``, so no draw allocates an array of a capped size.
"""
import contextlib
import io
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from curetail import cli

OVER_CAP = str(cli.MAX_SIZE + 1)


def either(valid, *edge):
    """A flag's (valid, edge) strategies: a draw from ``valid``, or one of the
    ``edge`` spellings, some of which are valid too."""
    return valid, st.sampled_from(edge)


def pick(*values):
    return st.sampled_from(values)


DATA_FLAGS = {
    "model": either(pick(*cli.MODEL_NAMES), "pn", "nope", ""),
    "k": either(st.integers(2, 7).map(str) | pick("0.3", "0.5", "0.9"),
                "0", "1", "-2", "40", "0.99", "1.5", "nan", "inf", "1e400", "abc"),
    "lambda": either(pick("kn", "0", "0.5", "1e12"), "1e308", "-1", "nan", "inf", "x"),
    "grid": either(st.integers(10, 64).map(str), "9", "0", "-1", "abc", OVER_CAP),
    "tol": either(pick("1e-10", "1e-3"), "0", "-1", "nan", "inf", "abc"),
}
STRESS_FLAGS = {"fractions": either(pick("0,0.1", "0", "0.2,0.05"),
                                    "0.45", "0.5", "-0.1", "nan", "", "x", ",")}
SIMULATE_FLAGS = {
    "scenario": either(st.integers(1, 10).map(str), "0", "99", "x"),
    "n": either(st.integers(20, 60).map(str), "-1", "0", "1", "10", OVER_CAP),
    "reps": either(pick("1", "2"), "-1", "0", OVER_CAP),
    "p": either(pick("0.5", "0.8"), "-0.5", "0", "1", "1.5", "nan"),
    "seed": either(st.integers(0, 100).map(str), "-1", str(2**70)),
    "estimators": either(pick("pn", "gumbel-pot,pn", "pareto,lognormal,weibull"),
                         "bogus", "", ","),
}
DIAG_FLAGS = {
    "gamma-c": either(st.floats(-5.0, -0.01).map(repr) | pick("-1", "-1e-300", "-1e308"),
                      "0", "0.5", "nan", "inf", "abc"),
    "k": either(st.integers(1, 200).map(str), "-1", "0", "x", OVER_CAP),
}
VALID_TIMES = st.floats(0.01, 100.0).map(repr) | pick("0", "1e308", "1e-300", " 2 ")
EDGE_ROWS = st.tuples(pick("-1", "-0", "nan", "inf", "x", ""), pick("0", "1")) | st.tuples(
    VALID_TIMES, pick("2", "-1", "x", "", "1.0"))


@st.composite
def flags(draw, spec, broken):
    """``--name=value`` for every flag of ``spec``, edge values for ``broken``."""
    return [f"--{name}={draw(spec[name][name in broken])}" for name in spec]


def broken_inputs(*names):
    """At most two of ``names``, the inputs a draw gives edge values."""
    return st.sets(pick(*names), max_size=2)


@st.composite
def datasets(draw, broken):
    """CSV text of a sample of 8 to 40 valid rows under an accepted header;
    when ``broken``, one edge row, a wrong or missing header, or one row."""
    rows = draw(st.lists(st.tuples(VALID_TIMES, pick("0", "1")), min_size=8, max_size=40))
    if draw(st.booleans()):
        rows = [(t, "0") for t, _ in rows]  # all censored
    header = draw(pick("time,status", "\ufefftime,status", " time , status "))
    flaw = draw(pick("row", "header", "one row")) if broken else None
    if flaw == "row":
        rows.insert(draw(st.integers(0, len(rows))), draw(EDGE_ROWS))
    elif flaw == "header":
        header = draw(pick("status,time", "time", None))
    elif flaw == "one row":
        rows = rows[:1]
    lines = ([header] if header is not None else []) + [f"{t},{s}" for t, s in rows]
    return draw(pick("\n", "\r\n")).join(lines) + draw(pick("", "\n"))


def run(argv, stdin=""):
    """Exit code, stdout and stderr of ``cli.main(argv)`` reading ``stdin``."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses the flags
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, stdin=""):
    code, out, err = run(argv, stdin)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert code == 0 or out == "", (argv, code, out)


@settings(max_examples=150)
@given(st.data())
def test_data_verbs_keep_the_contract(data):
    verb = data.draw(pick("fit", "gof", "stress"))
    spec = {**DATA_FLAGS, **(STRESS_FLAGS if verb == "stress" else {})}
    broken = data.draw(broken_inputs(*spec, "data"))
    check_contract([verb, "--input", "-", *data.draw(flags(spec, broken))],
                   data.draw(datasets("data" in broken)))


@settings(max_examples=40)
@given(st.data())
def test_simulate_keeps_the_contract(data):
    broken = data.draw(broken_inputs(*SIMULATE_FLAGS))
    check_contract(["simulate", *data.draw(flags(SIMULATE_FLAGS, broken)), "--rep-csv=-"])


@settings(max_examples=40)
@given(st.data())
def test_diag_keeps_the_contract(data):
    broken = data.draw(broken_inputs(*DIAG_FLAGS))
    check_contract(["diag", *data.draw(flags(DIAG_FLAGS, broken))])
