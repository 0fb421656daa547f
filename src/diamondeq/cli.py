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
bracket [``lower_cert``, ``upper_cert``] that stopped the solver (see
``estimator``), ``widening`` is the measured eigendecomposition error and
loss-rounding bound added to it (and an upper candidate's rounding bounds,
when one set the upper end), ``iterations`` the rounds run and
``stop_reason`` why they stopped: 'bracket' when the bracket closed to
delta, 'rounds' when the round limit T ran out first. T is
``--rounds`` when given, else ceil(16 ln n / delta^2) clamped to
``mmw.MAX_ROUNDS``; below the formula the interval stays sound but may be
wider, and ``qcd`` may refuse. The solver's learning rate is
``mmw.learning_rate``, eta_t = min(1/2, sqrt(8 ln N / t)), whatever the
flags. Traces are line-delimited JSON: a leading meta record (N, the rule
``mmw.LEARNING_RATE_RULE``, T, delta, delta1, the exponent bound, the value
floor and the numeric environment), one ``iter`` record per round (the
solver's ``EquilibriumResult.iters`` row with ``kind`` added), and a
trailing summary record with the value, the stop reason and the per-factor
loss sums ``loss_sums`` (one n x n matrix for a channel pair). Both are
write-only, built from the solver's ``EquilibriumResult``; nothing here
parses them back. Traces are encoded with orjson: values read back
exactly, and separators and exponent spelling are orjson's. Reports keep the stdlib encoder's indented,
key-sorted layout. Channel files are decoded with orjson, falling back to
the stdlib decoder for the documents orjson refuses (``parse_channel_file``).
Identical inputs and configuration produce byte-identical output.

Exit codes: 0 on a decision or bounds, 2 when the promise gap is too small
for a direct decision or the reported interval lies neither above b nor
below a, 1 on any other error, usage errors included. Output files are
written before the report is printed, so a failed write exits 1 with
nothing on stdout. Every run that solves
writes its trace to ``--trace-out`` as soon as the solver returns, so a
``qcd`` run refused after solving leaves its trace too; a refusal before
solving writes none.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from functools import cache
from itertools import chain

import numpy as np
import orjson

from .channels import KINDS, ChannelSpec
from .errors import (
    CertificateViolation,
    EigendecompositionError,
    GapTooSmallError,
    OracleBoundError,
    ValidationError,
)
from .estimator import DiamondReport, build_report, require_gap
from .mmw import (
    LEARNING_RATE_RULE,
    MAX_ROUNDS,
    EquilibriumResult,
    MMWConfig,
    solve_equilibrium,
)
from .reduction import build_instance

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
    if kind not in KINDS:
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
    """Load and validate a channel pair from a JSON file.

    orjson decodes the file's bytes. A document it refuses goes to the
    stdlib decoder, read as text the way ``open`` reads it, universal
    newlines included: that decoder accepts NaN and Infinity literals, lone
    surrogates and integers past the double range, and words every refusal.
    orjson reads an integer outside [-2**63, 2**64) as the nearest double.
    For a matrix entry that is the value ``complex`` would give; a
    dimension that large is refused as not a positive integer.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        doc = orjson.loads(raw)
    except orjson.JSONDecodeError:
        try:
            doc = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a huge int, deep nesting
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return _channel_pair(doc)


def _channel_pair(doc) -> tuple[ChannelSpec, ChannelSpec]:
    """The validated channel pair of a decoded channel file."""
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
        "delta": result.delta,
        "delta1": result.delta1,
        "interval": list(report.interval),
        "decision": report.decision,
        "promise": None if report.promise is None else list(report.promise),
        "thresholds": None if report.thresholds is None else list(report.thresholds),
        "lower_cert": result.lower_cert,
        "upper_cert": result.upper_cert,
        "iterations": result.iterations,
        "widening": result.widening,
        "stop_reason": result.stop_reason,
    }


def trace_to_records(result: EquilibriumResult) -> list:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    records = [{
        "kind": "meta",
        "dim": result.dim,
        "learning_rate": LEARNING_RATE_RULE,
        "rounds": result.rounds,
        "delta": result.delta,
        "delta1": result.delta1,
        "exponent_norm_bound": result.exponent_norm_bound,
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": int(threads) if threads and threads.strip().isdecimal() else threads,
        "value_floor": result.value_floor,
    }]
    records += [dict(row, kind="iter") for row in result.iters]
    records.append({
        "kind": "summary",
        "lambda": result.value,
        "stop_reason": result.stop_reason,
        "loss_sums": [matrix_to_json(s) for s in result.loss_sums],
    })
    return records


def write_trace(result: EquilibriumResult, path: str) -> None:
    """Write ``trace_to_records(result)`` as JSON lines, keys sorted, in one
    write.

    The one ``null`` is an ``iter`` record's ``cand_loss`` in a round that
    evaluated no upper candidate. orjson would write NaN or +-inf as
    ``null`` too, but a returned result holds neither: its numbers come
    through gates of the form ``not x <= bound``, which every NaN fails.
    Each loss and loss sum reaches ``herm_eig``, whose gate refuses the NaN
    residuals a non-finite entry gives, so the spectra, their error bounds,
    the Gibbs densities built from them and the sums themselves are finite.
    The round and candidate values, their best-response errors and the loss
    spectrum's extremes are gated in the loop, and the certificates must not
    cross (``EquilibriumResult``).
    """
    option = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
    data = b"".join(orjson.dumps(record, option=option) for record in trace_to_records(result))
    with open(path, "wb") as handle:
        handle.write(data)


# ---------------------------------------------------------------------------
# Commands.

def _emit(doc: dict, path: str | None) -> None:
    """Write the report to ``path``, when given, then print it, so a failed
    write leaves stdout empty."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)


def _oracle_report(args: argparse.Namespace) -> dict:
    from . import oracles  # only this command reads it; bounds and qcd skip its import

    spec0, spec1 = parse_channel_file(args.channels)
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
        spec0, spec1, trials=args.trials, seed=args.seed
    )
    if spec0.input_dim <= 3:
        inst = build_instance(spec0, spec1)
        lb, ub = oracles.naive_equilibrium(inst, iters=10, seed=args.seed)
        doc["naive_lb"] = lb
        doc["naive_ub"] = ub
        doc["fmax"] = oracles.fmax_estimate(inst, restarts=args.restarts, seed=args.seed)
    return doc


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError and so exit 1, not argparse's 2
    (the refusal code). Sub-parsers are built from this class too."""

    def error(self, message):
        raise ValidationError(message)


def _checked(convert, accept, message: str):
    """An argparse ``type`` that converts the text, then refuses a value that
    ``accept`` rejects with ``message``. It carries the converter's name, so
    a text the converter cannot read is still an "invalid float value"."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(message.format(value))
        return value

    parse.__name__ = convert.__name__
    return parse


def _count(name: str):
    return _checked(int, lambda v: v >= 1, name + " must be >= 1, got {}")


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, the one place each option is declared,
    defaulted and checked; a value out of range is a usage error. The
    solver's defaults are ``MMWConfig``'s. ``--rounds`` is left to
    ``MMWConfig``'s check and the promise to ``promise_thresholds``'s, the
    library's own entry checks."""
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
        p = sub.add_parser(name, help=blurb)
        p.add_argument("channels", help="path to the channel-pair JSON file")
        p.add_argument("--report-out", help="also write the report here")
        if name == "oracle":
            p.add_argument("--seed", type=_checked(int, lambda v: v >= 0,
                                                   "seed must be >= 0, got {}"),
                           default=0, help="seed of the randomized reference searches, "
                                           ">= 0 (default %(default)s)")
            p.add_argument("--trials", type=_count("trials"), default=2000,
                           help="samples for the lower-bound search, >= 1 "
                                "(default %(default)s)")
            p.add_argument("--restarts", type=_count("restarts"), default=50,
                           help="restarts for the max-fidelity ascent, >= 1 "
                                "(default %(default)s)")
        else:
            p.add_argument("--delta", type=_checked(float, lambda d: 0.0 < d < 1.0,
                                                    "delta must lie in (0, 1), got {}"),
                           default=MMWConfig.delta,
                           help="target precision of the solved value, in (0, 1) "
                                "(default %(default)s)")
            p.add_argument("--rounds", type=int,
                           help=f"round limit T in [1, {MAX_ROUNDS}] in place of the "
                                f"formula ceil(16 ln N / delta^2) clamped to {MAX_ROUNDS}; "
                                "the interval stays sound but may widen, and qcd may "
                                "refuse")
            p.add_argument("--trace-out",
                           help="write the per-iteration trace here (JSONL)")
        if name == "qcd":
            p.add_argument("--a", type=float, required=True,
                           help="promise: diamond distance is either >= a ...")
            p.add_argument("--b", type=float, required=True,
                           help="... or <= b, with 0 <= b < a <= 2")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use. ``parse_args`` reads
    it and leaves it unchanged, so every ``main`` call can share it."""
    return build_parser()


def main(argv=None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``); returns the
    process exit code."""
    try:
        args = _parser().parse_args(argv)
        if args.command == "oracle":
            _emit(_oracle_report(args), args.report_out)
            return 0
        cfg = MMWConfig(delta=args.delta, rounds=args.rounds)
        inst = build_instance(*parse_channel_file(args.channels))
        promise = (args.a, args.b) if args.command == "qcd" else None
        require_gap(promise, cfg)
        result = solve_equilibrium(inst, cfg)
        if args.trace_out:
            write_trace(result, args.trace_out)
        _emit(report_to_dict(build_report(result, promise)), args.report_out)
        return 0
    except GapTooSmallError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError, EigendecompositionError,
            OracleBoundError, CertificateViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
