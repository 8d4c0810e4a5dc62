"""Seeded fuzzing of the command line, in process.

Whatever the parameters, rate, scan ranges, grid, shot count and input files,
every run ends in a contract exit code (0, 1, 2 or 3), stderr holds no
traceback and no warning, and exit 1 is exactly one ``error:`` line; an
exception escaping ``main`` fails the example with its traceback.

Each example starts from a valid command line and malforms a few of its
fields, so that runs reach the later stages (the observable search, the
records, the plan) as often as the argument checks.  A full standard
output is fuzzed too: in process it fails the write, and
``tests/test_cli.py`` checks the same in a real process.
"""

import contextlib
import errno
import io
import json
import os
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strobetomo import cli

FUZZ = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

#: Grids above this many points are refused, which keeps every fuzzed scan
#: small; the cap is checked before anything is built.
FUZZ_SCAN_CAP = 2_000

DIM = {"two-level": 2, "three-level": 3}

#: In-domain points: generic, tied, near-tied, a four-rate chain, the
#: qutrit acceptance design and near the float limit of gamma * a.
POINTS = {
    "two-level": [
        "0.1,0.2,0.3", "0.2,0.2,0.3", "0.1,0.2,0.2000000001", "0,0,0", "0.3,0.3,0.3",
        "1e-320,2e-320,3e-320", "0.01,0.5,0.49",
    ],
    "three-level": [
        "0.1,0.15,0.2,0.05,0.08,0.06",
        "0.19095,0.30485,0.0,0.282583,0.139698,0.403958",
        "0.15,0.150000003283,0.150000006566,0.1,0.12,0.069999990151",
        "0.1,0.1,0.2,0.05,0.08,0.06", "0,0,0,0,0,0",
    ],
}

EDGE_NUMBERS = [
    "0", "-0", "1", "-1", "0.5", "1e-320", "5e-324", "1e-8", "1e308", "1.5e308", "-1e308",
    "1e400", "-1e400", "inf", "-inf", "nan", "NaN", "Infinity", "1_000", "0x10", "",
    " 0.1 ", "1e", ".", "-", "9" * 400, "100000000000000000000", "9223372036854775808",
]
numbers = st.one_of(
    st.sampled_from(EDGE_NUMBERS),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 0.4).map(repr),
    st.integers(-(10**25), 10**25).map(str),
)
junk = st.text(alphabet="0123456789.,:-+eEinfatx _\t", max_size=24)

#: Rates near the float limit, where gamma times an eigenvalue can overflow,
#: and on either side of the largest rate each model accepts.
huge_gammas = st.one_of(
    st.floats(sys.float_info.max / 20, sys.float_info.max).map(repr),
    st.sampled_from(["1.7e308", "2.2e307", "2.3e307", "1.3e307", "1.4e307"]),
)
gammas = st.sampled_from(["1", "1", "0.5", "2", "1e200", "1.3e307"])
fuzzed_gammas = st.one_of(numbers, huge_gammas, junk)


def number_list(min_size, max_size):
    return st.lists(numbers, min_size=min_size, max_size=max_size).map(",".join)


def fuzzed_params(model):
    d = len(cli.MODELS[model].axes)
    return st.one_of(number_list(d, d), number_list(0, 8), junk)


# JSON tokens, raw, so that what json.dumps never writes (1e400, NaN, deep
# nesting) reaches the loader too.
json_scalars = st.one_of(
    numbers.filter(lambda s: s.strip() != ""),
    st.sampled_from(["null", "true", "false", '"1"', '"x"', "{}", "[]", "[1]", "[1, 2, 3]"]),
)
pair = st.tuples(json_scalars, json_scalars).map(lambda t: f"[{t[0]}, {t[1]}]")


def hermitian(n):
    """A Hermitian unit-trace (where the trace allows) n x n matrix document."""

    def build(xs):
        m = [[0j] * n for _ in range(n)]
        for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i, n)):
            z = complex(xs[2 * k], xs[2 * k + 1] if i != j else 0.0)
            m[i][j], m[j][i] = z, z.conjugate()
        trace = sum(m[i][i].real for i in range(n))
        scale = trace if abs(trace) > 1e-3 else 1.0
        data = [[(z / scale).real, (z / scale).imag] for row in m for z in row]
        return json.dumps({"rows": n, "cols": n, "data": data})

    size = n * (n + 1)
    return st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size).map(build)


def fuzzed_matrix():
    """A matrix document with malformed shape fields or entries."""
    shapes = st.one_of(st.sampled_from(["1", "2", "3", "4"]), json_scalars)
    entries = st.lists(st.one_of(pair, json_scalars), max_size=17)
    return st.tuples(shapes, shapes, entries).map(
        lambda t: f'{{"rows": {t[0]}, "cols": {t[1]}, "data": [{", ".join(t[2])}]}}'
    )


fuzzed_documents = st.one_of(
    hermitian(2),
    hermitian(3),
    fuzzed_matrix(),
    st.sampled_from(["", "{", "[]", "null", '{"rows": 2}', "[" * 100_000 + "]" * 100_000]),
    st.binary(max_size=40),
)

record_fields = st.one_of(numbers, st.sampled_from(["exact", "1000", "1", "0", "\x00"]), junk)
fuzzed_records = st.one_of(
    st.tuples(
        st.sampled_from(["t,value,shots", "t,value", " t , value , shots", ""]),
        st.lists(st.lists(record_fields, min_size=2, max_size=4).map(",".join), max_size=10),
    ).map(lambda t: "\n".join([t[0], *t[1]]) + "\n"),
    st.sampled_from(["t,value,shots\n" + "x" * 200_000 + "\n", "t,value,shots\n1,\x00,exact\n"]),
    st.binary(max_size=40),
)


def records(p):
    """A records file of p rows at increasing instants, values in [-2, 2]."""
    row = st.tuples(st.floats(1e-3, 1.0), st.floats(-2.0, 2.0),
                    st.sampled_from(["exact", "1000"]))
    return st.lists(row, min_size=p, max_size=p).map(
        lambda rows: "t,value,shots\n" + "".join(
            f"{sum(r[0] for r in rows[:k + 1])!r},{v!r},{s}\n" for k, (_, v, s) in enumerate(rows)
        )
    )


def grid(p):
    steps = st.lists(st.floats(1e-3, 2.0), min_size=p, max_size=p)
    explicit = steps.map(lambda xs: ",".join(repr(sum(xs[:k + 1])) for k in range(p)))
    return st.one_of(st.just("default"), explicit)


class FullStdout(io.StringIO):
    """A block-buffered standard output on a full disk: writes are held,
    and the flush that would deliver them fails."""

    def flush(self):
        if self.getvalue():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def run(argv, full=False):
    """Exit code and stdout of ``main(argv)``, after the contract checks."""
    out, err = (FullStdout() if full else io.StringIO()), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err and "Warning" not in err, err
    assert not caught, [str(w.message) for w in caught]
    if full and out.getvalue():  # a report was written, never delivered
        assert code == 1, code
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert full or out.getvalue() == ""
    return code, out.getvalue()


@st.composite
def command(draw, fields, valid, fuzzed):
    """A command line whose fields hold valid values, up to two malformed."""
    bad = draw(st.sets(st.sampled_from(fields), max_size=2))
    return {f: draw(fuzzed[f] if f in bad else valid[f]) for f in fields}


def common_fields(model):
    valid = {"params": st.sampled_from(POINTS[model]), "gamma": gammas}
    fuzzed = {"params": fuzzed_params(model), "gamma": fuzzed_gammas}
    return valid, fuzzed


models = st.sampled_from(sorted(DIM))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def write(path, content):
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return str(path)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


@FUZZ
@given(model=models, raw=st.data(), full=st.booleans())
def test_analyze(model, raw, full):
    valid, fuzzed = common_fields(model)
    args = raw.draw(command(["params", "gamma"], valid, fuzzed))
    run(["analyze", "--model", model, f"--params={args['params']}",
         f"--gamma={args['gamma']}"], full)


@FUZZ
@given(model=models, raw=st.data(), full=st.booleans())
def test_check_observable(workdir, model, raw, full):
    valid, fuzzed = common_fields(model)
    valid["observable"], fuzzed["observable"] = hermitian(DIM[model]), fuzzed_documents
    args = raw.draw(command(["params", "gamma", "observable"], valid, fuzzed))
    q = write(workdir / "q.json", args["observable"])
    run(["check-observable", "--model", model, f"--params={args['params']}",
         f"--gamma={args['gamma']}", "--observable", q], full)


@FUZZ
@given(model=models, raw=st.data(), full=st.booleans())
def test_reconstruct(workdir, model, raw, full):
    n = DIM[model]
    p = n * n - 1
    valid, fuzzed = common_fields(model)
    seeds = st.integers(0, 2**32).map(str)
    valid.update(
        observable=st.one_of(st.none(), hermitian(n)), rho0=hermitian(n),
        records=st.one_of(st.none(), records(p)),
        shots=st.one_of(st.just("exact"), st.integers(1, 10**6).map(str)),
        seed=seeds, grid=grid(p),
    )
    fuzzed.update(
        observable=fuzzed_documents, rho0=fuzzed_documents, records=fuzzed_records,
        shots=st.one_of(numbers, junk), grid=number_list(0, 9),
        seed=st.one_of(st.none(), junk, st.integers(-(2**70), -1).map(str)),
    )
    args = raw.draw(command(list(valid), valid, fuzzed))
    argv = ["reconstruct", "--model", model, f"--params={args['params']}",
            f"--gamma={args['gamma']}"]
    if args["observable"] is None:
        argv += ["--observable-seed", "3"]
    else:
        argv += ["--observable", write(workdir / "obs.json", args["observable"])]
    if args["records"] is not None:
        argv += ["--records", write(workdir / "records.csv", args["records"])]
    else:
        argv += ["--rho0", write(workdir / "rho.json", args["rho0"]),
                 f"--shots={args['shots']}", f"--grid={args['grid']}"]
        if args["seed"] is not None:
            argv += [f"--seed={args['seed']}"]
    run(argv, full)


ranges = st.one_of(
    numbers,
    st.tuples(numbers, numbers, numbers).map(":".join),
    junk,
)


@FUZZ
@given(model=models, raw=st.data(), full=st.booleans())
def test_scan(monkeypatch, model, raw, full):
    monkeypatch.setattr(cli, "SCAN_POINT_CAP", FUZZ_SCAN_CAP)
    names = cli.MODELS[model].axes
    lows = raw.draw(st.sampled_from(POINTS[model])).split(",")
    span = st.tuples(st.floats(0.0, 0.05), st.floats(1e-3, 0.05))
    valid = {
        name: st.one_of(st.just(lo), span.map(lambda t, lo=lo: f"{lo}:{float(lo) + t[0]}:{t[1]}"))
        for name, lo in zip(names, lows)
    }
    valid["gamma"] = gammas
    fuzzed = {name: ranges for name in names}
    fuzzed["gamma"] = fuzzed_gammas
    args = raw.draw(command([*names, "gamma"], valid, fuzzed))
    code, out = run(["scan", "--model", model] + [f"--{k}={v}" for k, v in args.items()], full)
    if code == 0:
        rows = out.splitlines()
        assert 2 <= len(rows) <= FUZZ_SCAN_CAP + 1
        assert {row.count(",") for row in rows} == {len(names) + 4}


# ---------------------------------------------------------------------------
# reproducers: inputs that ended in a traceback, a warning or extra stderr
# lines, run on every pass
# ---------------------------------------------------------------------------

QUBIT = ["--model", "two-level", "--params=0.1,0.2,0.3"]
RHO = json.dumps({"rows": 2, "cols": 2, "data": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]})
RHO3 = json.dumps({"rows": 3, "cols": 3, "data": [[0, 0]] * 4 + [[1, 0]] + [[0, 0]] * 4})
Q = json.dumps({"rows": 2, "cols": 2, "data": [[0.3, 0], [0.2, 0.4], [0.2, -0.4], [-0.5, 0]]})
HUGE_Q = json.dumps({"rows": 2, "cols": 2, "data": [[1e308, 0], [0, 0], [0, 0], [0, 0]]})
RECORDS = "t,value,shots\n1,{},exact\n2,0,exact\n3,0,exact\n"

REPRODUCERS = {
    "analyze-full-stdout": (["analyze", *QUBIT], {}, True, 1),
    "analyze-float-limit": (["analyze", "--model", "two-level", "--params=1e308,1.5e308,0.2"],
                            {}, False, 1),
    "analyze-tie-overflow": (["analyze", "--model", "two-level", "--params=0.2,0.2,0.3",
                              "--gamma=1e200"], {}, False, 2),
    "scan-tie-overflow": (["scan", "--model", "two-level", "--a1=0.2", "--a2=0.2", "--a3=0.3",
                           "--gamma=1e200"], {}, False, 0),
    "scan-float-limit": (["scan", "--model", "two-level", "--a1=1e308", "--a2=1.5e308",
                          "--a3=0.2"], {}, False, 0),
    "scan-float-limit-qutrit": (["scan", "--model", "three-level"] + [
        f"--a{k}={a}" for k, a in enumerate(["1e308"] * 5 + ["-1e308"], 1)], {}, False, 0),
    "scan-gamma-overflow": (["scan", "--model", "two-level", "--a1=0", "--a2=0", "--a3=0.9",
                             "--gamma=1.7e308"], {}, False, 1),
    "analyze-gamma-overflow": (["analyze", "--model", "two-level", "--params=0.1,0.2,0.6",
                                "--gamma=1.7e308"], {}, False, 1),
    "observable-gamma-overflow": (["check-observable", "--model", "two-level",
                                   "--params=0.1,0.2,0.6", "--gamma=1.7e308", "--observable",
                                   "q.json"], {"q.json": Q}, False, 1),
    "rho0-late-instants": (["reconstruct", "--model", "three-level",
                            "--params=0.1,0.15,0.2,0.05,0.08,0.06", "--gamma=1e200",
                            "--observable-seed=1", "--rho0", "rho.json",
                            "--grid=1,2,3,4,5,6,7,8"], {"rho.json": RHO3}, False, 3),
    "observable-null-entry": (["check-observable", *QUBIT, "--observable", "q.json"], {
        "q.json": '{"rows": 2, "cols": 2, "data": [[null, 0], [0, 0], [0, 0], [0, 0]]}'},
        False, 1),
    "observable-object-entry": (["check-observable", *QUBIT, "--observable", "q.json"], {
        "q.json": '{"rows": 2, "cols": 2, "data": [{}, [0, 0], [0, 0], [0, 0]]}'}, False, 1),
    "observable-rows-1e400": (["check-observable", *QUBIT, "--observable", "q.json"], {
        "q.json": '{"rows": 1e400, "cols": 2, "data": []}'}, False, 1),
    "observable-deep-nesting": (["check-observable", *QUBIT, "--observable", "q.json"], {
        "q.json": "[" * 100_000 + "]" * 100_000}, False, 1),
    "observable-huge-entry": (["reconstruct", *QUBIT, "--observable", "q.json", "--rho0",
                               "rho.json"], {"q.json": HUGE_Q, "rho.json": RHO}, False, 1),
    "rho0-null-entry": (["reconstruct", *QUBIT, "--observable-seed=1", "--rho0", "rho.json"], {
        "rho.json": '{"rows": 2, "cols": 2, "data": [[null, 0], [0, 0], [0, 0], [0, 0]]}'},
        False, 1),
    "rho0-rows-1e400": (["reconstruct", *QUBIT, "--observable-seed=1", "--rho0", "rho.json"], {
        "rho.json": '{"rows": 1e400, "cols": 2, "data": []}'}, False, 1),
    "shots-2**63-1": (["reconstruct", *QUBIT, "--observable-seed=1", "--rho0", "rho.json",
                       "--shots=9223372036854775807", "--seed=1"], {"rho.json": RHO}, False, 0),
    "shots-2**63": (["reconstruct", *QUBIT, "--observable-seed=1", "--rho0", "rho.json",
                     "--shots=9223372036854775808", "--seed=1"], {"rho.json": RHO}, False, 1),
    "shots-1e20": (["reconstruct", *QUBIT, "--observable-seed=1", "--rho0", "rho.json",
                    "--shots=100000000000000000000", "--seed=1"], {"rho.json": RHO}, False, 1),
    "records-inf": (["reconstruct", *QUBIT, "--observable-seed=1", "--records", "r.csv"],
                    {"r.csv": RECORDS.format("inf")}, False, 1),
    "records-nan": (["reconstruct", *QUBIT, "--observable-seed=1", "--records", "r.csv"],
                    {"r.csv": RECORDS.format("nan")}, False, 1),
    "records-1e308": (["reconstruct", *QUBIT, "--observable-seed=1", "--records", "r.csv"],
                      {"r.csv": RECORDS.format("1e308")}, False, 1),
    "records-header-only": (["reconstruct", *QUBIT, "--observable-seed=1", "--records", "r.csv"],
                            {"r.csv": "t,value,shots\n"}, False, 1),
    "records-long-field": (["reconstruct", *QUBIT, "--observable-seed=1", "--records", "r.csv"],
                           {"r.csv": "t,value,shots\n" + "1" * 200_000 + "\n"}, False, 1),
}


@pytest.mark.parametrize("case", sorted(REPRODUCERS))
def test_reproducer(workdir, case):
    argv, files, full, expected = REPRODUCERS[case]
    paths = {name: write(workdir / name, text) for name, text in files.items()}
    assert run([paths.get(arg, arg) for arg in argv], full)[0] == expected
