"""Command-line entry point, channel-file ingestion, and serialization.

Commands: ``bounds`` (the interval), ``qcd`` (a promise decision) and
``oracle`` (reference computations); the first two run ``estimator``'s steps.

Channel file format (JSON): an object ``{"channels": [spec, spec]}`` where
each spec is

    {
      "kind": "stinespring" | "kraus" | "unitary" | "constant",
      "input_dim": n,
      "output_dim": m,
      "env_dim": z,              # optional, stinespring only
      "matrices": [matrix, ...]  # complex entries as [re, im] pairs
    }

Matrices are row-major; flattened tensor indices put the leftmost factor
most significant. Reports are JSON objects: ``lambda`` is the upper
certificate, ``interval`` is the Fuchs-van de Graaf image of the certified
bracket [``lower_cert``, ``upper_cert``] (see ``estimator``), ``widening``
is the measured eigendecomposition error added to it, ``iterations`` the
rounds run and ``stop_reason`` why they stopped: 'bracket' when the bracket
closed to delta, 'rounds' when the round limit T ran out first. T is
``--rounds`` when given, else ceil(16 ln n^2 / delta^2) clamped to
``mmw.MAX_ROUNDS``; below the formula the interval stays sound but may be
wider, and ``qcd`` may refuse. Traces are line-delimited JSON: a
leading meta record, one ``iter`` record per round with the keys of
``mmw.SERIES``, and a trailing summary record with the value, the stop
reason and the per-factor loss sums ``loss_sums`` (two n x n matrices for a
channel pair). Both are write-only, built from the solver's
``EquilibriumResult``; nothing here parses them back. Identical inputs and
configuration produce byte-identical output.

Exit codes: 0 on a decision or bounds, 2 when the promise gap is too small
for a direct decision or the certified bracket reaches both thresholds, 1 on
any other error, usage errors included. Every run that solves writes its
trace to ``--trace-out`` as soon as the solver returns, so a ``qcd`` run
refused after solving leaves its trace too; a refusal before solving writes
none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from . import oracles
from .channels import ChannelSpec, normalize
from .errors import (
    CertificateViolation,
    EigendecompositionError,
    GapTooSmallError,
    OracleBoundError,
    ValidationError,
)
from .estimator import DiamondReport, build_report, require_gap
from .mmw import SERIES, EquilibriumResult, MMWConfig, solve_equilibrium
from .reduction import build_instance

COMMANDS = ("qcd", "bounds", "oracle")


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation."""

    command: str
    channel_path: str
    delta: float = 0.2
    a: float | None = None
    b: float | None = None
    seed: int = 0
    rounds: int | None = None
    trials: int = 2000
    restarts: int = 50
    trace_path: str | None = None
    report_path: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must lie in (0, 1), got {self.delta}")
        needs_promise = self.command == "qcd"
        has_promise = self.a is not None and self.b is not None
        if needs_promise and not has_promise:
            raise ValidationError("qcd requires both --a and --b")
        if not needs_promise and (self.a is not None or self.b is not None):
            raise ValidationError(f"--a/--b only apply to the qcd command, not {self.command}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for name in ("trials", "restarts"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")

    def mmw_config(self) -> MMWConfig:
        return MMWConfig(delta=self.delta, rounds=self.rounds)


# ---------------------------------------------------------------------------
# Channel file parsing.

def _fail(pointer: str, message: str):
    raise ValidationError(f"{pointer}: {message}")


def _as_complex_matrix(obj, pointer: str) -> np.ndarray:
    """The complex matrix of a JSON list of rows of [re, im] entries.

    One ``np.array`` call converts a well-formed matrix: shape (r, c, 2),
    numeric dtype, no JSON boolean. numpy turns ``true`` among numbers into
    1, so booleans are looked for by type. Anything else (ragged or empty
    rows, ``null``, strings, ints too large for int64) goes to
    ``_walk_complex_matrix``, which names the first bad entry.
    """
    if isinstance(obj, list):
        try:
            a = np.array(obj)
        except ValueError:  # ragged
            pass
        else:
            if (a.ndim == 3 and a.shape[2] == 2 and a.dtype.kind in "iuf"
                    and bool not in map(type, chain.from_iterable(chain.from_iterable(obj)))):
                return np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0]
    return _walk_complex_matrix(obj, pointer)


def _walk_complex_matrix(obj, pointer: str) -> np.ndarray:
    """``_as_complex_matrix`` entry by entry: raises ValidationError naming
    the first bad row or entry in row-major order."""
    if not isinstance(obj, list) or not obj:
        _fail(pointer, "expected a non-empty list of rows")
    width = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            _fail(f"{pointer}/{i}", "expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{pointer}/{i}", f"row length {len(row)} differs from {width}")
        entries = []
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in entry)
            ):
                _fail(f"{pointer}/{i}/{j}", "complex entry must be a [re, im] pair")
            try:
                entries.append(complex(entry[0], entry[1]))
            except OverflowError:
                _fail(f"{pointer}/{i}/{j}", "complex entry part is too large for a float")
        rows.append(entries)
    return np.array(rows, dtype=np.complex128)


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _parse_spec(obj, pointer: str) -> ChannelSpec:
    if not isinstance(obj, dict):
        _fail(pointer, "expected a channel object")
    for key in ("kind", "input_dim", "output_dim", "matrices"):
        if key not in obj:
            _fail(f"{pointer}/{key}", "missing required field")
    kind = obj["kind"]
    if kind not in ("stinespring", "kraus", "unitary", "constant"):
        _fail(f"{pointer}/kind", f"unknown kind {kind!r}")
    for key in ("input_dim", "output_dim"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] <= 0:
            _fail(f"{pointer}/{key}", "expected a positive integer")
    env_dim = obj.get("env_dim")
    if env_dim is not None and (
        not isinstance(env_dim, int) or isinstance(env_dim, bool) or env_dim <= 0
    ):
        _fail(f"{pointer}/env_dim", "expected a positive integer")
    if not isinstance(obj["matrices"], list) or not obj["matrices"]:
        _fail(f"{pointer}/matrices", "expected a non-empty list of matrices")
    mats = [
        _as_complex_matrix(m, f"{pointer}/matrices/{k}")
        for k, m in enumerate(obj["matrices"])
    ]
    try:
        return ChannelSpec(
            kind=kind,
            input_dim=obj["input_dim"],
            output_dim=obj["output_dim"],
            matrices=tuple(mats),
            env_dim=env_dim,
        )
    except ValidationError as exc:
        raise ValidationError(f"{pointer}: {exc}") from exc


def parse_channel_file(path: str) -> tuple[ChannelSpec, ChannelSpec]:
    """Load and validate a channel pair from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, or an int over Python's digit limit
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "channels" not in doc:
        _fail("/channels", "missing top-level 'channels' array")
    chans = doc["channels"]
    if not isinstance(chans, list) or len(chans) != 2:
        _fail("/channels", f"expected exactly 2 channel specs, got "
                           f"{len(chans) if isinstance(chans, list) else type(chans).__name__}")
    spec0 = _parse_spec(chans[0], "/channels/0")
    spec1 = _parse_spec(chans[1], "/channels/1")
    if spec0.input_dim != spec1.input_dim or spec0.output_dim != spec1.output_dim:
        raise ValidationError(
            "channel dimension mismatch: "
            f"({spec0.input_dim}->{spec0.output_dim}) vs "
            f"({spec1.input_dim}->{spec1.output_dim})"
        )
    return spec0, spec1


# ---------------------------------------------------------------------------
# Report and trace serialization (write-only).

def report_to_dict(report: DiamondReport) -> dict:
    result = report.result
    return {
        "lambda": result.value,
        "delta": result.trace.delta,
        "delta1": result.trace.delta1,
        "interval": list(report.interval),
        "decision": report.decision,
        "promise": None if report.promise is None else list(report.promise),
        "thresholds": None if report.thresholds is None else list(report.thresholds),
        "lower_cert": result.lower_cert,
        "upper_cert": result.upper_cert,
        "iterations": result.iterations,
        "widening": result.widening,
        "stop_reason": result.trace.stop_reason,
    }


def trace_to_records(result: EquilibriumResult) -> list:
    trace = result.trace
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    records = [{
        "kind": "meta",
        "dim": trace.dim,
        "epsilon": trace.epsilon,
        "rounds": trace.rounds,
        "delta": trace.delta,
        "delta1": trace.delta1,
        "exponent_norm_bound": trace.exponent_norm_bound,
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(threads) if threads and threads.strip().isdigit() else threads,
    }]
    keys = ["t"] + [key for _, key in SERIES]
    columns = [range(1, trace.executed + 1)] + [getattr(trace, name).tolist()
                                                for name, _ in SERIES]
    records += [dict(zip(keys, row), kind="iter") for row in zip(*columns)]
    records.append({
        "kind": "summary",
        "lambda": result.value,
        "stop_reason": trace.stop_reason,
        "loss_sums": [matrix_to_json(s) for s in trace.loss_sums],
    })
    return records


def write_trace(result: EquilibriumResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in trace_to_records(result):
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


# ---------------------------------------------------------------------------
# Commands.

def _emit(doc: dict, config: RunConfig, stream) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text, file=stream)
    if config.report_path:
        with open(config.report_path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")


def _oracle_report(config: RunConfig) -> dict:
    spec0, spec1 = parse_channel_file(config.channel_path)
    doc = {
        "unitary_diamond": None,
        "constant_diamond": None,
        "lower_search": None,
        "naive_lb": None,
        "naive_ub": None,
        "fmax": None,
    }
    if spec0.kind == "unitary" and spec1.kind == "unitary":
        doc["unitary_diamond"] = oracles.unitary_diamond(spec0.matrices[0], spec1.matrices[0])
    if spec0.kind == "constant" and spec1.kind == "constant":
        doc["constant_diamond"] = oracles.constant_diamond(spec0.matrices[0], spec1.matrices[0])
    doc["lower_search"] = oracles.diamond_lower_search(
        spec0, spec1, trials=config.trials, seed=config.seed
    )
    if spec0.input_dim <= 3:
        inst = build_instance(normalize(spec0), normalize(spec1))
        lb, ub = oracles.naive_equilibrium(inst, iters=10, seed=config.seed)
        doc["naive_lb"] = lb
        doc["naive_ub"] = ub
        doc["fmax"] = oracles.fmax_estimate(inst, restarts=config.restarts, seed=config.seed)
    return doc


def run(config: RunConfig, stream=None) -> int:
    """Execute one command; returns the process exit code."""
    stream = sys.stdout if stream is None else stream
    try:
        if config.command == "oracle":
            _emit(_oracle_report(config), config, stream)
            return 0
        spec0, spec1 = parse_channel_file(config.channel_path)
        inst = build_instance(normalize(spec0), normalize(spec1))
        cfg = config.mmw_config()
        promise = (config.a, config.b) if config.command == "qcd" else None
        require_gap(promise, cfg)
        result = solve_equilibrium(inst, cfg)
        if config.trace_path:
            write_trace(result, config.trace_path)
        _emit(report_to_dict(build_report(result, promise)), config, stream)
        return 0
    except GapTooSmallError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError, EigendecompositionError,
            OracleBoundError, CertificateViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError and so exit 1, not argparse's 2
    (the refusal code). Sub-parsers are built from this class too."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser. A flag left out is left out of the parsed
    namespace too, so its default is the ``RunConfig`` field's."""
    parser = _Parser(
        prog="diamondeq",
        description="Distinguishability decisions and diamond-norm intervals "
                    "for quantum channel pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("qcd", "decide a distinguishability promise (requires --a/--b)"),
        ("bounds", "report a rigorous interval for the diamond distance"),
        ("oracle", "run independent reference computations for cross-checks"),
    ):
        p = sub.add_parser(name, help=blurb, argument_default=argparse.SUPPRESS)
        p.add_argument("channels", help="path to the channel-pair JSON file")
        p.add_argument("--report-out", help="also write the report here")
        if name == "oracle":
            p.add_argument("--seed", type=int,
                           help="seed of the randomized reference searches")
            p.add_argument("--trials", type=int,
                           help="samples for the lower-bound search")
            p.add_argument("--restarts", type=int,
                           help="restarts for the max-fidelity ascent")
        else:
            p.add_argument("--delta", type=float,
                           help="target precision of the solved value")
            p.add_argument("--rounds", type=int,
                           help="round limit T in place of the iteration-count "
                                "formula; the interval stays sound but may widen, "
                                "and qcd may refuse")
            p.add_argument("--trace-out",
                           help="write the per-iteration trace here (JSONL)")
        if name == "qcd":
            p.add_argument("--a", type=float,
                           help="promise: diamond distance is either >= a ...")
            p.add_argument("--b", type=float,
                           help="... or <= b")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use. ``parse_args`` reads
    it and leaves it unchanged, so every ``main`` call can share it."""
    return build_parser()


#: Parsed argument names that differ from their ``RunConfig`` field.
_FIELDS = {"channels": "channel_path", "trace_out": "trace_path",
           "report_out": "report_path"}


def main(argv=None) -> int:
    try:
        args = vars(_parser().parse_args(argv))
        config = RunConfig(**{_FIELDS.get(k, k): v for k, v in args.items()})
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
