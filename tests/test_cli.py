import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamondeq import (
    MMWConfig,
    ValidationError,
    build_instance,
    solve_equilibrium,
)
from diamondeq import cli, mmw
from diamondeq.cli import (
    main,
    matrix_to_json,
    parse_channel_file,
    report_to_dict,
    trace_to_records,
    write_trace,
)
from diamondeq.estimator import solve_and_report
from diamondeq.oracles import constant_diamond, random_density, random_unitary, unitary_diamond
from tests.conftest import (
    I2,
    KET0,
    KET1,
    PAULI_X,
    PAULI_Z,
    PHASE_S,
    first_closed_round,
    random_kraus_pair_spec,
    random_specs,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def spec_doc(kind, input_dim, output_dim, matrices, env_dim=None):
    doc = {
        "kind": kind,
        "input_dim": input_dim,
        "output_dim": output_dim,
        "matrices": [matrix_to_json(m) for m in matrices],
    }
    if env_dim is not None:
        doc["env_dim"] = env_dim
    return doc


def write_channels(tmp_path, spec0, spec1, name="channels.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"channels": [spec0, spec1]}))
    return str(path)


@pytest.fixture
def unitary_pair_file(tmp_path):
    return write_channels(
        tmp_path,
        spec_doc("unitary", 2, 2, [I2]),
        spec_doc("unitary", 2, 2, [PAULI_Z]),
    )


def read_records(path):
    """The records of a written JSONL trace."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def file_instance(path):
    """The reduced instance the CLI builds from a channel file."""
    return build_instance(*parse_channel_file(path))


def solved_result(path, records, **cfg):
    """The result of an in-process solve of the channel file ``path``, after
    checking that it is the run whose trace file holds ``records``."""
    result = solve_equilibrium(file_instance(path), MMWConfig(**cfg))
    assert trace_to_records(result) == records
    return result


@pytest.fixture
def identity_pair_file(tmp_path):
    return write_channels(
        tmp_path,
        spec_doc("unitary", 2, 2, [I2]),
        spec_doc("unitary", 2, 2, [I2]),
    )


@pytest.fixture
def open_kraus_pair_file(tmp_path):
    # Seeded Kraus pair whose certified bracket stays wider than delta = 0.02
    # until round 8 (it closes in round 1 at delta = 0.2).
    rng = np.random.default_rng(5)
    specs = [random_kraus_pair_spec(rng) for _ in range(2)]
    return write_channels(tmp_path, *(spec_doc("kraus", 2, 2, s.matrices) for s in specs))


@pytest.fixture
def phase_pair_file(tmp_path):
    return write_channels(
        tmp_path,
        spec_doc("unitary", 2, 2, [I2]),
        spec_doc("unitary", 2, 2, [PHASE_S]),
    )


class TestParseChannelFile:
    def test_unitary_pair_roundtrip(self, unitary_pair_file):
        spec0, spec1 = parse_channel_file(unitary_pair_file)
        assert spec0.kind == spec1.kind == "unitary"
        assert spec0.input_dim == spec0.output_dim == 2
        assert np.allclose(spec1.matrices[0], PAULI_Z)

    def test_non_trace_preserving_kraus_names_residual(self, tmp_path):
        bad = [np.diag([1.0, 0.0]), np.array([[0.0, math.sqrt(0.9)], [0.0, 0.0]])]
        path = write_channels(
            tmp_path,
            spec_doc("kraus", 2, 2, bad),
            spec_doc("unitary", 2, 2, [I2]),
        )
        with pytest.raises(ValidationError) as err:
            parse_channel_file(path)
        assert "/channels/0" in str(err.value)
        assert "1.000e-01" in str(err.value)

    def test_stinespring_infers_env(self, tmp_path):
        a = np.zeros((4, 2))
        a[0, 0] = a[3, 1] = 1.0
        path = write_channels(
            tmp_path,
            spec_doc("stinespring", 2, 2, [a]),
            spec_doc("unitary", 2, 2, [I2]),
        )
        spec0, _ = parse_channel_file(path)
        assert spec0.env_dim == 2

    def test_schema_pointer_on_bad_entry(self, tmp_path):
        doc = spec_doc("unitary", 2, 2, [I2])
        doc["matrices"][0][0][1] = [1.0]  # not a [re, im] pair
        path = write_channels(tmp_path, doc, spec_doc("unitary", 2, 2, [I2]))
        with pytest.raises(ValidationError, match=r"/channels/0/matrices/0/0/1"):
            parse_channel_file(path)

    def test_boolean_entry_is_rejected(self, tmp_path, capsys):
        # JSON true/false are not numbers, although Python's bool is an int.
        doc = spec_doc("unitary", 2, 2, [I2])
        doc["matrices"][0][0][0] = [True, False]
        path = write_channels(tmp_path, doc, spec_doc("unitary", 2, 2, [I2]))
        with pytest.raises(ValidationError, match=r"/channels/0/matrices/0/0/0"):
            parse_channel_file(path)
        assert main(["bounds", path]) == 1
        assert "/channels/0/matrices/0/0/0" in capsys.readouterr().err

    @pytest.mark.parametrize("digits, message", [
        (400, "too large for a float"),  # parses, but complex() overflows
        (5000, "not valid JSON"),  # over Python's int-string digit limit
    ])
    def test_oversized_int_entry_is_rejected(self, tmp_path, capsys, digits, message):
        doc = spec_doc("unitary", 2, 2, [I2])
        text = json.dumps({"channels": [doc, spec_doc("unitary", 2, 2, [I2])]})
        path = tmp_path / "big.json"
        path.write_text(text.replace("[1.0, 0.0]", "[" + "9" * digits + ", 0.0]", 1))
        assert main(["bounds", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        if digits == 400:
            assert "/channels/0/matrices/0/0/0" in err

    def test_nesting_past_the_recursion_limit_is_not_valid_json(self, tmp_path, capsys):
        # orjson refuses the NaN, and the stdlib decoder it falls back to
        # runs out of recursion on the array around it.
        doc = {"channels": [spec_doc("unitary", 2, 2, [I2]), spec_doc("unitary", 2, 2, [PHASE_S])]}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc)[:-1] + ', "note": ' + "[" * 100_000 + "NaN"
                        + "]" * 100_000 + "}")
        assert main(["bounds", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not valid JSON" in err

    def test_missing_channels_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pair": []}))
        with pytest.raises(ValidationError, match="/channels"):
            parse_channel_file(str(path))

    def test_dim_mismatch_names_dims(self, tmp_path):
        path = write_channels(
            tmp_path,
            spec_doc("unitary", 2, 2, [I2]),
            spec_doc("unitary", 3, 3, [np.eye(3)]),
        )
        with pytest.raises(ValidationError, match=r"\(2->2\) vs \(3->3\)"):
            parse_channel_file(path)


def _mutate(obj, kind, i, j, k):
    """A malformed copy of the JSON matrix ``obj`` (at least 2 rows)."""
    out = json.loads(json.dumps(obj))
    entry = out[i][j]
    if kind == "ragged":
        out[i].append([0.5, 0.5])
    elif kind == "empty_row":
        out[i] = []
    elif kind == "short_entry":
        out[i][j] = entry[:1]
    elif kind == "long_entry":
        out[i][j] = entry + [0.0]
    elif kind == "extra_level":
        out[i][j] = [entry]
    elif kind == "extra_level_matrix":
        out = [out]
    elif kind == "all_bool":
        out = [[[x > 0.0 for x in e] for e in row] for row in out]
    else:
        entry[k] = {"string": "1.0", "null": None, "true": True,
                    "oversized": 10 ** 400}[kind]
    return out


def _parse_outcome(parse, obj):
    try:
        return parse(obj, "/m").tobytes()
    except ValidationError as exc:
        return str(exc)


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 0, 1, -1]),
    st.integers(-2**53, 2**53),
    st.integers(-2**70, 2**70),  # past int64: the walk converts these
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), rows=st.integers(2, 5), cols=st.integers(1, 5),
       kind=st.sampled_from(["ragged", "empty_row", "short_entry", "long_entry", "string",
                             "null", "true", "all_bool", "oversized", "extra_level",
                             "extra_level_matrix"]))
def test_array_parse_matches_entry_walk(data, rows, cols, kind):
    # The one-np.array conversion returns exactly the walk's matrix on valid
    # input and the walk's exact error text on every malformed mutation.
    obj = data.draw(st.lists(st.lists(st.lists(_NUMBER, min_size=2, max_size=2),
                                      min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    obj = json.loads(json.dumps(obj))
    walked = cli._walk_complex_matrix(obj, "/m")
    assert walked.shape == (rows, cols)
    parsed = cli._as_complex_matrix(obj, "/m")
    assert parsed.dtype == np.complex128 and parsed.shape == (rows, cols)
    assert parsed.tobytes() == walked.tobytes()

    i, j, k = (data.draw(st.integers(0, n - 1)) for n in (rows, cols, 2))
    bad = _mutate(obj, kind, i, j, k)
    want = _parse_outcome(cli._walk_complex_matrix, bad)
    assert isinstance(want, str) and want.startswith("/m")
    assert _parse_outcome(cli._as_complex_matrix, bad) == want


def stdlib_channel_pair(path):
    """``parse_channel_file`` on the stdlib decoder alone: the file opened as
    UTF-8 text and read by ``json.load``."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return cli._channel_pair(doc)


def _file_outcome(parse, path):
    try:
        specs = parse(path)
    except ValidationError as exc:
        return str(exc)
    return [(s.kind, s.input_dim, s.output_dim, s.env_dim, [m.tobytes() for m in s.matrices])
            for s in specs]


def _int_read_as_double(token):
    """Whether orjson reads the JSON integer ``token`` as a double."""
    try:
        return isinstance(orjson.loads(token), float) and isinstance(json.loads(token), int)
    except ValueError:
        return False


#: Number spellings where the decoders could part: integers past 2**63 and
#: 2**64, past the double range and past Python's digit limit, signed zeros,
#: exponents at and past the double range, and the stdlib's NaN and Infinity.
_NUMBER_TOKENS = (
    str(2**63), str(2**63 + 1), str(2**64 - 1), str(2**64), str(2**64 + 1), str(-2**63),
    str(-2**63 - 1), str(-2**64 - 3), str(10**30 + 1), "9" * 400, "-" + "9" * 400, "9" * 5000,
    "-0.0", "-0", "0e0", "-0E-7", "1e308", "1.7976931348623157e308", "1e309", "-1E+400",
    "1e-400", "5e-324", "2.4703282292062328e-324", "NaN", "Infinity", "-Infinity",
)
_NUMBER_TEXT = st.one_of(
    st.sampled_from(_NUMBER_TOKENS),
    st.integers(-2**80, 2**80).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,24})?([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True),
)
_ZERO_TEXT = st.sampled_from(["0.0", "-0.0", "0", "-0", "0e0", "-0E-7"])


#: The cases named outright, as (mutation, token): entries past 2**63 and
#: 2**64, 400 digits, -0.0, an exponent past the double range, NaN and
#: Infinity; dimensions at 2**63 and 2**64; a lone surrogate in ``kind`` and
#: in an extra key; a UTF-8 BOM and an invalid UTF-8 byte.
_NAMED_CASES = (
    [("entry", t) for t in (str(2**63 + 1), str(2**64 + 1), "9" * 400, "-0.0", "1e309",
                            "NaN", "Infinity")]
    + [("dim", str(2**63)), ("dim", str(2**64)), ("kind", "0"), ("note", "0"), ("bom", "0"),
       ("bad_utf8", "0")]
)


def _with_named_cases(test):
    for mutation, token in _NAMED_CASES:
        test = example(theta=0.5, spelling="{!r}", zeros=["-0.0", "0", "0e0", "0.0"],
                       crlf=True, mutation=mutation, token=token, at=30)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(theta=st.floats(-4.0, 4.0),
       spelling=st.sampled_from(["{!r}", "{:.17e}", "{:.25g}", "{:.4E}"]),
       zeros=st.lists(_ZERO_TEXT, min_size=4, max_size=4), crlf=st.booleans(),
       mutation=st.sampled_from(["none", "entry", "dim", "kind", "note", "bom", "bad_utf8",
                                 "cut"]),
       token=_NUMBER_TEXT, at=st.integers(0, 10**6))
@_with_named_cases
def test_channel_file_decode_matches_stdlib(tmp_path_factory, theta, spelling, zeros, crlf,
                                            mutation, token, at):
    # parse_channel_file decodes with orjson, or with the stdlib when orjson
    # refuses the document; either way it returns the matrices, or the error
    # text, of the stdlib decoder alone. The file is a rotation in
    # stinespring form, its numbers spelled several ways, next to I; ``at``
    # picks the slot or byte a mutation lands on.
    c, s, minus_s = (spelling.format(x) for x in
                     (math.cos(theta), math.sin(theta), -math.sin(theta)))
    e = [c, zeros[0], minus_s, zeros[1], s, zeros[2], c, zeros[3]]
    dims = {"input_dim": "2", "output_dim": "2", "env_dim": "1"}
    kind, note = '"stinespring"', ""
    if mutation == "entry":
        e[at % 8] = token
    elif mutation == "dim":
        dim_key = list(dims)[at % 3]
        dims[dim_key] = token
    elif mutation == "kind":
        kind = '"\\ud800"'
    elif mutation == "note":
        note = '"note": "\\ud800", '
    matrix = f"[[[{e[0]}, {e[1]}], [{e[2]}, {e[3]}]], [[{e[4]}, {e[5]}], [{e[6]}, {e[7]}]]]"
    spec0 = "".join([f'{{"kind": {kind}, ', *(f'"{k}": {v}, ' for k, v in dims.items()),
                     f'"matrices": [{matrix}]}}'])
    text = f'{{{note}"channels": [{spec0}, {json.dumps(spec_doc("unitary", 2, 2, [I2]))}]}}'
    if crlf:
        text = text.replace(", ", ",\r\n ")
    raw = text.encode("utf-8")
    if mutation == "bom":
        raw = b"\xef\xbb\xbf" + raw
    elif mutation == "bad_utf8":
        bad = (b"\xff", b"\xc3\x28", b"\xed\xa0\x80")[at % 3]
        raw = raw[:at % (len(raw) + 1)] + bad + raw[at % (len(raw) + 1):]
    elif mutation == "cut":
        raw = raw[:at % len(raw)]
    path = tmp_path_factory.getbasetemp() / "decode_property.json"
    path.write_bytes(raw)
    got = _file_outcome(parse_channel_file, str(path))
    if mutation == "dim" and _int_read_as_double(token):
        # The one difference: orjson reads an integer outside
        # [-2**63, 2**64) as a double, which is no dimension.
        assert got == f"/channels/0/{dim_key}: expected a positive integer"
        return
    assert got == _file_outcome(stdlib_channel_pair, str(path))


class TestRunConfig:
    """The run's configuration, read from argv by the one parser."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["bounds", "--delta", "0"],
                     "argument --delta: delta must lie in (0, 1), got 0.0", id="delta-0"),
        pytest.param(["bounds", "--delta", "1"],
                     "argument --delta: delta must lie in (0, 1), got 1.0", id="delta-1"),
        pytest.param(["qcd", "--delta", "nan", "--a", "1.9", "--b", "0.1"],
                     "argument --delta: delta must lie in (0, 1), got nan", id="delta-nan"),
        pytest.param(["bounds", "--delta", "inf"],
                     "argument --delta: delta must lie in (0, 1), got inf", id="delta-inf"),
        pytest.param(["bounds", "--rounds", "0"],
                     "rounds must lie in [1, 1000000], got 0", id="rounds-0"),
        pytest.param(["qcd", "--rounds", "1000001", "--a", "1.9", "--b", "0.1"],
                     "rounds must lie in [1, 1000000], got 1000001", id="rounds-1000001"),
        pytest.param(["oracle", "--seed", "-1"],
                     "argument --seed: seed must be >= 0, got -1", id="seed--1"),
        pytest.param(["oracle", "--trials", "0"],
                     "argument --trials: trials must be >= 1, got 0", id="trials-0"),
        pytest.param(["oracle", "--trials", "-1"],
                     "argument --trials: trials must be >= 1, got -1", id="trials--1"),
        pytest.param(["oracle", "--restarts", "0"],
                     "argument --restarts: restarts must be >= 1, got 0", id="restarts-0"),
        pytest.param(["oracle", "--restarts", "-1"],
                     "argument --restarts: restarts must be >= 1, got -1", id="restarts--1"),
        pytest.param(["qcd", "--a", "1.4"],
                     "the following arguments are required: --b", id="qcd-without-b"),
        pytest.param(["bounds", "--a", "1.9", "--b", "0.1"],
                     "unrecognized arguments: --a 1.9 --b 0.1", id="bounds-with-promise"),
    ])
    def test_bad_value_exits_one(self, identity_pair_file, capsys, argv, message):
        # Every check on a flag is a usage error: exit 1, nothing on stdout
        # and one line on stderr that names the flag.
        command, *flags = argv
        assert main([command, identity_pair_file, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["qcd", "bounds"])
    def test_seed_only_on_oracle(self, identity_pair_file, capsys, command):
        # Only the oracle's randomized searches read a seed; the solver is
        # deterministic, so the other commands do not take the flag.
        promise = ["--a", "1.9", "--b", "0.1"] if command == "qcd" else []
        assert main([command, identity_pair_file, "--seed", "1", *promise]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_equilibrium_is_not_a_command(self, identity_pair_file, capsys):
        # bounds is the one interval command; a usage error exits 1, not
        # the refusal code 2.
        assert main(["equilibrium", identity_pair_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "invalid choice: 'equilibrium'" in err

    def test_unknown_command(self, identity_pair_file, capsys):
        # The parser names the commands it takes; anything else is a usage
        # error with nothing on stdout.
        assert main(["solve", identity_pair_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "invalid choice: 'solve'" in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: diamondeq" in capsys.readouterr().out


class TestCommands:
    def test_qcd_close_exit_zero(self, identity_pair_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["qcd", identity_pair_file, "--a", "1.9", "--b", "0.1",
                     "--report-out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["decision"] == "close"
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_bounds_contains_analytic_value(self, phase_pair_file, capsys):
        assert main(["bounds", phase_pair_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        lo, hi = doc["interval"]
        assert lo <= 1.41421 <= hi

    def test_unitary_pair_closes_on_the_value_floor(self, unitary_pair_file, capsys):
        # I against Z: lambda = 0 and D = 2. Round 1's upper certificate is
        # within delta of the zero effect's floor, so the run stops there
        # with the exact interval.
        assert main(["bounds", unitary_pair_file, "--delta", "0.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] == 1 and doc["stop_reason"] == "bracket"
        assert doc["lower_cert"] == 0.0
        assert doc["interval"] == [2.0, 2.0]

    def test_gap_too_small_exit_two(self, identity_pair_file, capsys):
        assert main(["qcd", identity_pair_file, "--a", "1.0", "--b", "0.9"]) == 2
        assert "out of scope" in capsys.readouterr().err

    def test_bad_file_exit_one(self, tmp_path, capsys):
        assert main(["bounds", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--report-out"],
        ["bounds", "--trace-out"],
        ["oracle", "--trials", "5", "--restarts", "1", "--report-out"],
    ], ids=["bounds-report", "bounds-trace", "oracle-report"])
    def test_unwritable_output_exits_one_with_empty_stdout(self, identity_pair_file, tmp_path,
                                                           capsys, argv):
        # An output path that is a directory: the files are written before
        # the report is printed, so the run exits 1 with nothing on stdout.
        command, *flags = argv
        assert main([command, identity_pair_file, *flags, str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and repr(str(tmp_path)) in captured.err

    def test_overflowing_unitary_names_its_channel(self, tmp_path, capsys):
        # A*A overflows to NaN for entries of 1e200: the isometry gate must
        # refuse the input where it enters, naming it, and not pass the NaN
        # residual on to the solver.
        big = np.array([[1e200, 1e200], [1e200, -1e200]])
        path = write_channels(tmp_path, spec_doc("unitary", 2, 2, [big]),
                              spec_doc("unitary", 2, 2, [I2]))
        with np.errstate(all="ignore"):
            assert main(["bounds", path]) == 1
        err = capsys.readouterr().err
        assert "/channels/0" in err and "not an isometry" in err

    def test_constant_dilation_refusal_names_its_channel(self, tmp_path, capsys):
        # sigma = diag(1 + 0.9e-9, 0) passes the density check, but at n = 2
        # its dilation's isometry residual is 0.9e-9 sqrt(2) > ISO_TOL. The
        # refusal comes from the spec, so it carries the spec's pointer.
        sigma = np.diag([1.0 + 0.9e-9, 0.0])
        doc = spec_doc("constant", 2, 2, [sigma])
        assert main(["bounds", write_channels(tmp_path, doc, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: /channels/0: ")
        assert "||A*A - I||_F = 1.273e-09" in err

    def test_trace_output(self, identity_pair_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["bounds", identity_pair_file, "--rounds", "25",
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert lines[-1]["kind"] == "summary"
        assert lines[0]["rounds"] == 25
        assert lines[-1]["stop_reason"] == "bracket"
        result = solved_result(identity_pair_file, lines, rounds=25)
        assert sum(1 for rec in lines if rec["kind"] == "iter") == first_closed_round(result)

    @pytest.mark.parametrize("env, threads", [
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "5"}, 3),
        ({"OMP_NUM_THREADS": "5"}, 5),
        ({}, None),
        ({"OPENBLAS_NUM_THREADS": "\u00b2"}, "\u00b2"),  # a digit that int() refuses
    ])
    def test_trace_meta_names_numpy_and_blas(self, identity_pair_file, tmp_path, capsys,
                                             monkeypatch, env, threads):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        trace_path = tmp_path / "trace.jsonl"
        assert main(["bounds", identity_pair_file, "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        meta = json.loads(trace_path.read_text().splitlines()[0])
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert meta["numpy"] == np.__version__
        assert (meta["blas_name"], meta["blas_version"]) == (blas["name"], blas["version"])
        # The thread count is the environment's setting, named as such.
        assert meta["blas_threads_env"] == threads
        assert "blas_threads" not in meta
        # The game runs on one 2 x 2 density.
        assert meta["dim"] == 2
        # E = 0 is a feasible effect of value 0, the floor of every bracket.
        assert meta["value_floor"] == 0.0
        # The meta record names the learning-rate rule; there is no epsilon.
        assert meta["learning_rate"] == "min(1/2, sqrt(8 ln N / t))"
        assert "epsilon" not in meta
        # The exponent bound is the largest eta_t (t - 1), at t = T = 278.
        assert meta["rounds"] == 278
        eta = math.sqrt(8.0 * math.log(2) / 278)
        assert meta["exponent_norm_bound"] == pytest.approx(eta * 277)

    def test_round_cap_keeps_partial_trace(self, open_kraus_pair_file, tmp_path, capsys):
        # T = 7 ends the run one round before its bracket closes: the run
        # reports the bracket it has and writes the trace of its 7 rounds.
        trace_path = tmp_path / "t.jsonl"
        code = main(["bounds", open_kraus_pair_file, "--delta", "0.02", "--rounds", "7",
                     "--trace-out", str(trace_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stop_reason"] == "rounds" and doc["iterations"] == 7
        lines = read_records(trace_path)
        assert sum(1 for rec in lines if rec["kind"] == "iter") == 7
        assert lines[0]["rounds"] == 7
        assert lines[-1]["lambda"] == doc["lambda"] == doc["upper_cert"]
        assert lines[-1]["stop_reason"] == "rounds"
        result = solved_result(open_kraus_pair_file, lines, delta=0.02, rounds=7)
        assert result.iterations == 7 and result.rounds == 7
        assert first_closed_round(result) is None

    def test_bracket_stop_before_the_cap(self, open_kraus_pair_file, tmp_path, capsys):
        # The same pair's bracket closes before a limit of 200 rounds: the
        # run reports where it stopped.
        trace_path = tmp_path / "t.jsonl"
        code = main(["bounds", open_kraus_pair_file, "--delta", "0.02", "--rounds", "200",
                     "--trace-out", str(trace_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        lines = read_records(trace_path)
        result = solved_result(open_kraus_pair_file, lines, delta=0.02, rounds=200)
        assert doc["stop_reason"] == lines[-1]["stop_reason"] == "bracket"
        assert doc["iterations"] == first_closed_round(result) == 8
        assert doc["upper_cert"] - doc["lower_cert"] <= doc["delta"]
        assert doc["lambda"] == doc["upper_cert"] == lines[-1]["lambda"]
        assert 0.0 < doc["widening"] <= 1e-9

    def test_set_and_clamped_round_limits_run_alike(self, open_kraus_pair_file, tmp_path,
                                                    capsys, monkeypatch):
        # One limit, one path: T = 3 from --rounds and T = 3 from the clamp
        # give the same report and the same trace.
        def bounds(tag, *flags):
            report, trace = tmp_path / f"{tag}.json", tmp_path / f"{tag}.jsonl"
            code = main(["bounds", open_kraus_pair_file, "--delta", "0.02", *flags, "--report-out",
                         str(report), "--trace-out", str(trace)])
            capsys.readouterr()
            return code, report.read_bytes(), trace.read_text().splitlines()

        set_code, set_report, set_trace = bounds("set", "--rounds", "3")
        monkeypatch.setattr(mmw, "MAX_ROUNDS", 3)
        clamped_code, clamped_report, clamped_trace = bounds("clamped")
        assert set_code == clamped_code == 0
        assert set_report == clamped_report
        assert json.loads(set_report)["stop_reason"] == "rounds"
        assert set_trace == clamped_trace
        assert sum(json.loads(line)["kind"] == "iter" for line in set_trace) == 3

    def test_tiny_delta_runs_to_the_clamp(self, open_kraus_pair_file, capsys,
                                          monkeypatch):
        # delta^2 underflows to 0 at 1e-300 and the quotient overflows at
        # 1e-160: both give T = MAX_ROUNDS, not a traceback.
        monkeypatch.setattr(mmw, "MAX_ROUNDS", 2)
        for delta in ("1e-300", "1e-160"):
            assert main(["bounds", open_kraus_pair_file, "--delta", delta]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["stop_reason"] == "rounds" and doc["iterations"] == 2

    def test_qcd_refused_after_solving_writes_its_trace(self, tmp_path, capsys):
        # After one round the interval of U = I, V = diag(1, i, i), about
        # [0.547, 1.789], reaches both b and a, whose gap clears the
        # pre-solve check: the decision is refused, the trace is kept.
        path = write_channels(
            tmp_path,
            spec_doc("unitary", 3, 3, [np.eye(3)]),
            spec_doc("unitary", 3, 3, [np.diag([1.0, 1j, 1j])]),
        )
        trace_path = tmp_path / "t.jsonl"
        code = main(["qcd", path, "--a", "1.75", "--b", "0.56", "--delta", "0.1",
                     "--rounds", "1", "--trace-out", str(trace_path)])
        assert code == 2
        assert "neither side" in capsys.readouterr().err
        records = read_records(trace_path)
        assert [rec["kind"] for rec in records] == ["meta", "iter", "summary"]
        assert records[-1]["stop_reason"] == "rounds"

    def test_qcd_refused_before_solving_writes_no_trace(self, identity_pair_file,
                                                         tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        code = main(["qcd", identity_pair_file, "--a", "1.0", "--b", "0.9",
                     "--trace-out", str(trace_path)])
        assert code == 2
        assert "gap too small" in capsys.readouterr().err
        assert not trace_path.exists()

    def test_trace_summary_keeps_factor_loss_sums(self, tmp_path, capsys):
        # The channel-pair game runs on one n x n density, so the summary
        # holds its one n x n loss sum.
        path = write_channels(
            tmp_path,
            spec_doc("unitary", 3, 3, [np.eye(3)]),
            spec_doc("unitary", 3, 3, [np.diag([1.0, 1j, -1.0])]),
        )
        trace_path = tmp_path / "t.jsonl"
        assert main(["bounds", path, "--rounds", "20", "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        records = read_records(trace_path)
        summary = records[-1]
        assert set(summary) == {"kind", "lambda", "stop_reason", "loss_sums"}
        sums = [np.array(m) for m in summary["loss_sums"]]
        assert [m.shape for m in sums] == [(3, 3, 2)]
        assert records[0]["dim"] == 3

    def test_bounds_on_single_input_dimension(self, tmp_path, capsys):
        # n = 1 is state discrimination: one density, one exact round.
        path = write_channels(
            tmp_path,
            spec_doc("constant", 1, 2, [KET0]),
            spec_doc("constant", 1, 2, [KET1]),
        )
        trace_path = tmp_path / "t.jsonl"
        assert main(["bounds", path, "--trace-out", str(trace_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] == 1
        lo, hi = doc["interval"]
        assert lo <= 2.0 <= hi
        records = read_records(trace_path)
        assert [rec["kind"] for rec in records] == ["meta", "iter", "summary"]
        assert records[0]["dim"] == 1
        assert [np.array(m).shape for m in records[-1]["loss_sums"]] == [(1, 1, 2)]

    def test_oracle_command(self, tmp_path, capsys):
        path = write_channels(
            tmp_path,
            spec_doc("constant", 2, 2, [KET0]),
            spec_doc("constant", 2, 2, [KET1]),
        )
        assert main(["oracle", path, "--trials", "20", "--restarts", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["constant_diamond"] == pytest.approx(2.0)
        assert doc["unitary_diamond"] is None
        assert doc["lower_search"] == pytest.approx(2.0, abs=1e-9)
        assert doc["naive_ub"] <= 2e-2
        assert doc["fmax"] >= 2.0 - 2e-2

    def test_main_wires_arguments(self, identity_pair_file, capsys):
        code = main(["qcd", identity_pair_file, "--a", "1.9", "--b", "0.1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "close"

    def test_main_rejects_promise_on_bounds(self, identity_pair_file, capsys):
        code = main(["qcd", identity_pair_file])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the following arguments are required: --a, --b\n")


def _fresh_main(argv, env=None):
    """``main(argv)`` in a new interpreter; returns (exit code, stdout)."""
    code = "import sys; from diamondeq.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    return proc.returncode, proc.stdout


class TestProcess:
    def test_repeated_main_calls_share_the_parser(self, phase_pair_file, tmp_path, capsys):
        # One process builds one parser; every call through it must behave
        # as a call in a fresh interpreter.
        runs = [
            ["qcd", phase_pair_file, "--a", "1.9", "--b", "0.3"],
            ["bounds", phase_pair_file, "--delta", "0.1"],
            ["oracle", phase_pair_file, "--trials", "20", "--restarts", "3"],
        ]
        for k, argv in enumerate(runs):
            argv = argv + ["--report-out", str(tmp_path / f"{k}.json")]
            assert cli._parser() is cli._parser()
            got = main(argv), capsys.readouterr().out
            report = (tmp_path / f"{k}.json").read_bytes()
            assert _fresh_main(argv) == got
            assert (tmp_path / f"{k}.json").read_bytes() == report
        for argv in (["bounds"], ["bounds", phase_pair_file, "--delta", "x"]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: ")

    def test_reports_identical_across_blas_threads(self, tmp_path):
        rng = np.random.default_rng(17)
        u3 = [random_unitary(rng, 3) for _ in range(2)]
        kraus = [random_kraus_pair_spec(rng, n=3, k=3) for _ in range(2)]
        files = [
            write_channels(tmp_path, *(spec_doc("unitary", 3, 3, [u]) for u in u3), "u.json"),
            write_channels(tmp_path, *(spec_doc("kraus", 3, 3, s.matrices) for s in kraus),
                           "k.json"),
        ]
        env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
        for path in files:
            reports = []
            for threads in ("1", "2"):
                out = tmp_path / f"report-{threads}.json"
                code, _ = _fresh_main(["bounds", path, "--delta", "0.1",
                                       "--report-out", str(out)],
                                      dict(env, OPENBLAS_NUM_THREADS=threads))
                assert code == 0
                reports.append(out.read_bytes())
            assert reports[0] == reports[1]

    def test_intervals_and_decisions_hold_across_blas_threads(self, tmp_path):
        # bounds and qcd on five pairs of known distance D, in one fresh
        # interpreter per BLAS thread count: the README pair, seeded
        # unitary, Pauli-channel (kraus) and constant pairs, and a far
        # constant pair at (n, m) = (4, 2) with rank-one targets |0><0| and
        # |psi><psi|, whose 16 x 16 difference output has exact-zero
        # eigenvalues. Each qcd promise has D on its far side when D > 1.4,
        # else on its close side.
        with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as handle:
            readme_pair = re.search(r"^```json\n(.*?)^```", handle.read(), re.M | re.S).group(1)
        (tmp_path / "readme.json").write_text(readme_pair)
        rng = np.random.default_rng(23)
        u, v = random_unitary(rng, 3), random_unitary(rng, 3)
        paulis = (I2, PAULI_X, np.array([[0.0, -1j], [1j, 0.0]]), PAULI_Z)
        p, q = rng.dirichlet(np.ones(4), size=2)
        sigmas = [random_density(rng, 3) for _ in range(2)]
        pure = [np.outer(x, x).astype(complex)
                for x in (np.array([1.0, 0.0]), np.array([math.cos(1.2), math.sin(1.2)]))]
        pairs = {
            str(tmp_path / "readme.json"): math.sqrt(2.0),
            write_channels(tmp_path, *(spec_doc("unitary", 3, 3, [w]) for w in (u, v)),
                           "u.json"): unitary_diamond(u, v),
            write_channels(tmp_path, *(spec_doc("kraus", 2, 2, [math.sqrt(x) * s
                                                                for x, s in zip(w, paulis)])
                                       for w in (p, q)), "k.json"): float(np.abs(p - q).sum()),
            write_channels(tmp_path, *(spec_doc("constant", 2, 3, [w]) for w in sigmas),
                           "c.json"): constant_diamond(*sigmas),
            write_channels(tmp_path, *(spec_doc("constant", 4, 2, [w]) for w in pure),
                           "c4.json"): constant_diamond(*pure),
        }
        runs = []  # (argv without outputs, D, decision)
        for path, d in pairs.items():
            (a, b), want = ((d, 0.0), "far") if d > 1.4 else ((2.0, d), "close")
            runs += [(["bounds", path, "--delta", "0.1"], d, None),
                     (["qcd", path, "--delta", "0.1", "--a", repr(a), "--b", repr(b)], d, want)]
        code = ("import json, sys; from diamondeq.cli import main; "
                "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
        for threads in ("1", "2"):
            tags = [str(tmp_path / f"{k}-{threads}") for k in range(len(runs))]
            argvs = [argv + ["--report-out", f"{tag}.json", "--trace-out", f"{tag}.jsonl"]
                     for (argv, _, _), tag in zip(runs, tags)]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=SRC)
            proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                                  capture_output=True, text=True, timeout=120, check=False)
            assert proc.returncode == 0, proc.stderr
            for (argv, d, want), tag in zip(runs, tags):
                with open(f"{tag}.json", encoding="utf-8") as handle:
                    report = json.load(handle)
                lo, hi = report["interval"]
                assert lo - 1e-9 <= d <= hi + 1e-9, (argv, threads)
                assert report["decision"] == want, (argv, threads)
                assert read_records(f"{tag}.jsonl")[0]["blas_threads_env"] == int(threads)


class TestSerialization:
    # Reports and traces are write-only: each file is checked against the
    # writer's output for the same run in process.
    def test_report_file_is_report_to_dict(self, identity_pair_file, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["qcd", identity_pair_file, "--a", "1.9", "--b", "0.1",
                     "--rounds", "30", "--report-out", str(path)]) == 0
        capsys.readouterr()
        report = solve_and_report(file_instance(identity_pair_file),
                                  MMWConfig(delta=0.2, rounds=30), (1.9, 0.1))
        assert report.decision == "close"
        text = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == text.encode("utf-8")

    def test_trace_roundtrip_records(self, phase_instance):
        result = solve_equilibrium(phase_instance, MMWConfig(delta=0.2, rounds=40))
        records = trace_to_records(result)
        assert json.loads(json.dumps(records)) == records
        iters = [rec for rec in records if rec["kind"] == "iter"]
        assert [rec["t"] for rec in iters] == list(range(1, result.iterations + 1))
        for key in result.iters[0]:
            assert [rec[key] for rec in iters] == [row[key] for row in result.iters]
        summary = records[-1]
        assert summary["lambda"] == result.value
        assert summary["stop_reason"] == result.stop_reason
        sums = [np.array(m) for m in summary["loss_sums"]]
        for got, want in zip(sums, result.loss_sums, strict=True):
            np.testing.assert_array_equal(got[..., 0] + 1j * got[..., 1], want)

    @pytest.mark.parametrize("kinds", [
        ("unitary", "unitary"), ("kraus", "kraus"), ("stinespring", "stinespring"),
        ("constant", "constant"), ("unitary", "kraus"),
    ], ids=["unitary", "kraus", "stinespring", "constant", "padded"])
    def test_iter_records_hold_plain_numbers_under_the_readme_keys(self, kinds):
        # orjson refuses numpy scalars, so every iter value must be a Python
        # int or float, or None for a round that evaluated no upper
        # candidate (``cand_loss``). The padded pair is z = 1 against z = 3.
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
            readme = handle.read()
        head = "one `iter` record per round:"
        listed = readme[readme.index(head) + len(head):readme.index("The bracket after round")]
        keys = set(re.findall(r"`([a-z_]+)`", listed))
        rng = np.random.default_rng(29)
        inst = build_instance(*random_specs(rng, kinds, 2, 2, (2, 3)))
        result = solve_equilibrium(inst, MMWConfig(delta=0.05, rounds=6))
        iters = [rec for rec in trace_to_records(result) if rec["kind"] == "iter"]
        assert len(iters) == result.iterations
        for rec in iters:
            assert set(rec) == keys | {"kind"}
            assert all(type(v) in (int, float) for k, v in rec.items()
                       if k != "kind" and not (k == "cand_loss" and v is None)), rec

    def test_trace_roundtrip_file(self, phase_instance, tmp_path):
        result = solve_equilibrium(phase_instance, MMWConfig(delta=0.2, rounds=40))
        path = tmp_path / "trace.jsonl"
        write_trace(result, str(path))
        assert read_records(path) == trace_to_records(result)

    def test_trace_file_is_trace_to_records(self, phase_pair_file, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["bounds", phase_pair_file, "--rounds", "40",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        result = solve_equilibrium(file_instance(phase_pair_file),
                                   MMWConfig(delta=0.2, rounds=40))
        assert read_records(path) == trace_to_records(result)

    def test_reports_byte_identical(self, phase_pair_file, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["bounds", phase_pair_file, "--rounds", "50",
                         "--report-out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # stdout holds each printed report, the report file's bytes.
        assert capsys.readouterr().out.encode("utf-8") == paths[0].read_bytes() * 2
