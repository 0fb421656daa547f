import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondeq import (
    MMWConfig,
    ValidationError,
    build_instance,
    kron_sum,
    normalize,
    solve_equilibrium,
)
from diamondeq import cli, mmw
from diamondeq.cli import (
    RunConfig,
    main,
    matrix_to_json,
    parse_channel_file,
    report_to_dict,
    run,
    trace_to_records,
    write_trace,
)
from diamondeq.estimator import solve_and_report
from diamondeq.oracles import random_unitary
from tests.conftest import (
    I2,
    KET0,
    KET1,
    PAULI_Z,
    PHASE_S,
    first_closed_round,
    random_kraus_pair_spec,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
    return build_instance(*map(normalize, parse_channel_file(path)))


def solved_trace(path, records, **cfg):
    """The trace of an in-process solve of the channel file ``path``, after
    checking that it is the run whose trace file holds ``records``."""
    result = solve_equilibrium(file_instance(path), MMWConfig(**cfg))
    assert trace_to_records(result) == records
    return result.trace


@pytest.fixture
def identity_pair_file(tmp_path):
    return write_channels(
        tmp_path,
        spec_doc("unitary", 2, 2, [I2]),
        spec_doc("unitary", 2, 2, [I2]),
    )


@pytest.fixture
def open_kraus_pair_file(tmp_path):
    # Seeded Kraus pair whose certified bracket stays wider than delta = 0.2
    # until round 86.
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


class TestRunConfig:
    def test_qcd_requires_promise(self):
        with pytest.raises(ValidationError, match="--a and --b"):
            RunConfig(command="qcd", channel_path="x.json")

    def test_promise_only_for_qcd(self):
        with pytest.raises(ValidationError, match="only apply"):
            RunConfig(command="bounds", channel_path="x.json", a=1.9, b=0.1)

    def test_delta_range(self):
        with pytest.raises(ValidationError, match="delta"):
            RunConfig(command="bounds", channel_path="x.json", delta=1.0)

    def test_negative_seed(self, identity_pair_file, capsys):
        with pytest.raises(ValidationError, match="seed"):
            RunConfig(command="oracle", channel_path="x.json", seed=-1)
        assert main(["oracle", identity_pair_file, "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: seed")

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

    @pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: diamondeq" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["trials", "restarts"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_counts_below_one(self, identity_pair_file, capsys, flag, count):
        with pytest.raises(ValidationError, match=flag):
            RunConfig(command="oracle", channel_path="x.json", **{flag: count})
        assert main(["oracle", identity_pair_file, f"--{flag}", str(count)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}")

    def test_unknown_command(self):
        with pytest.raises(ValidationError, match="unknown command"):
            RunConfig(command="solve", channel_path="x.json")


class TestCommands:
    def test_qcd_close_exit_zero(self, identity_pair_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        config = RunConfig(command="qcd", channel_path=identity_pair_file,
                           a=1.9, b=0.1, report_path=str(report_path))
        assert run(config) == 0
        doc = json.loads(report_path.read_text())
        assert doc["decision"] == "close"
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_bounds_contains_analytic_value(self, phase_pair_file, capsys):
        config = RunConfig(command="bounds", channel_path=phase_pair_file)
        assert run(config) == 0
        doc = json.loads(capsys.readouterr().out)
        lo, hi = doc["interval"]
        assert lo <= 1.41421 <= hi

    def test_gap_too_small_exit_two(self, identity_pair_file, capsys):
        config = RunConfig(command="qcd", channel_path=identity_pair_file, a=1.0, b=0.9)
        assert run(config) == 2
        assert "out of scope" in capsys.readouterr().err

    def test_bad_file_exit_one(self, tmp_path, capsys):
        config = RunConfig(command="bounds", channel_path=str(tmp_path / "nope.json"))
        assert run(config) == 1
        assert "error" in capsys.readouterr().err

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

    def test_trace_output(self, identity_pair_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        config = RunConfig(command="bounds", channel_path=identity_pair_file,
                           rounds=25, trace_path=str(trace_path))
        assert run(config) == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert lines[-1]["kind"] == "summary"
        assert lines[0]["rounds"] == 25
        assert lines[-1]["stop_reason"] == "bracket"
        trace = solved_trace(identity_pair_file, lines, rounds=25)
        assert sum(1 for rec in lines if rec["kind"] == "iter") == first_closed_round(trace)

    @pytest.mark.parametrize("env, threads", [
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "5"}, 3),
        ({"OMP_NUM_THREADS": "5"}, 5),
        ({}, None),
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
        assert meta["blas_threads"] == threads
        assert meta["dim"] == 4

    def test_round_cap_keeps_partial_trace(self, open_kraus_pair_file, tmp_path, capsys):
        # T = 10 ends the run before its bracket closes: the run reports the
        # bracket it has and writes the trace of its 10 rounds.
        trace_path = tmp_path / "t.jsonl"
        code = main(["bounds", open_kraus_pair_file, "--rounds", "10",
                     "--trace-out", str(trace_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stop_reason"] == "rounds" and doc["iterations"] == 10
        lines = read_records(trace_path)
        assert sum(1 for rec in lines if rec["kind"] == "iter") == 10
        assert lines[0]["rounds"] == 10
        assert lines[-1]["lambda"] == doc["lambda"] == doc["upper_cert"]
        assert lines[-1]["stop_reason"] == "rounds"
        trace = solved_trace(open_kraus_pair_file, lines, rounds=10)
        assert trace.executed == 10 and trace.rounds == 10
        assert first_closed_round(trace) is None

    def test_bracket_stop_before_the_cap(self, open_kraus_pair_file, tmp_path, capsys):
        # The same pair's bracket closes before a limit of 200 rounds: the
        # run reports where it stopped.
        trace_path = tmp_path / "t.jsonl"
        code = main(["bounds", open_kraus_pair_file, "--rounds", "200",
                     "--trace-out", str(trace_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        lines = read_records(trace_path)
        trace = solved_trace(open_kraus_pair_file, lines, rounds=200)
        assert doc["stop_reason"] == lines[-1]["stop_reason"] == "bracket"
        assert 10 < doc["iterations"] == first_closed_round(trace) <= 200
        assert doc["upper_cert"] - doc["lower_cert"] <= doc["delta"]
        assert doc["lambda"] == doc["upper_cert"] == lines[-1]["lambda"]
        assert 0.0 < doc["widening"] <= 1e-9

    def test_set_and_clamped_round_limits_run_alike(self, open_kraus_pair_file, tmp_path,
                                                    capsys, monkeypatch):
        # One limit, one path: T = 3 from --rounds and T = 3 from the clamp
        # give the same report and the same trace.
        def bounds(tag, *flags):
            report, trace = tmp_path / f"{tag}.json", tmp_path / f"{tag}.jsonl"
            code = main(["bounds", open_kraus_pair_file, *flags, "--report-out",
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
        # One round leaves the bracket of U = I, V = diag(1, i, -1) across
        # both thresholds: the decision is refused, the trace is kept.
        path = write_channels(
            tmp_path,
            spec_doc("unitary", 3, 3, [np.eye(3)]),
            spec_doc("unitary", 3, 3, [np.diag([1.0, 1j, -1.0])]),
        )
        trace_path = tmp_path / "t.jsonl"
        code = main(["qcd", path, "--a", "2.0", "--b", "1.4", "--delta", "0.1",
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
        # The summary holds one n x n loss sum per factor, never the
        # n^2 x n^2 Kronecker sum.
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
        assert [m.shape for m in sums] == [(3, 3, 2)] * 2
        assert records[0]["dim"] == 9
        assert kron_sum([m[..., 0] + 1j * m[..., 1] for m in sums]).shape == (9, 9)

    def test_bounds_on_single_input_dimension(self, tmp_path, capsys):
        # n = 1 is state discrimination: one density, one exact round.
        path = write_channels(
            tmp_path,
            spec_doc("constant", 1, 2, [KET0]),
            spec_doc("constant", 1, 2, [KET1]),
        )
        assert main(["bounds", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] == 1
        lo, hi = doc["interval"]
        assert lo <= 2.0 <= hi

    def test_oracle_command(self, tmp_path, capsys):
        path = write_channels(
            tmp_path,
            spec_doc("constant", 2, 2, [KET0]),
            spec_doc("constant", 2, 2, [KET1]),
        )
        config = RunConfig(command="oracle", channel_path=path, trials=20, restarts=5)
        assert run(config) == 0
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
        assert "--a and --b" in capsys.readouterr().err


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
        trace = result.trace
        records = trace_to_records(result)
        assert json.loads(json.dumps(records)) == records
        iters = [rec for rec in records if rec["kind"] == "iter"]
        assert [rec["t"] for rec in iters] == list(range(1, trace.executed + 1))
        for name, key in mmw.SERIES:
            assert [rec[key] for rec in iters] == getattr(trace, name).tolist()
        summary = records[-1]
        assert summary["lambda"] == result.value
        assert summary["stop_reason"] == trace.stop_reason
        sums = [np.array(m) for m in summary["loss_sums"]]
        for got, want in zip(sums, trace.loss_sums, strict=True):
            np.testing.assert_array_equal(got[..., 0] + 1j * got[..., 1], want)

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

    def test_reports_byte_identical(self, phase_pair_file, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            config = RunConfig(command="bounds", channel_path=phase_pair_file,
                               rounds=50, report_path=str(p))
            with open(tmp_path / "sink", "w") as sink:
                assert run(config, stream=sink) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
