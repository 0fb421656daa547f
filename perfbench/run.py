"""Known-answer benchmark for diamondeq.

Run from the repository root:

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 30 --trace 0

Generates the workload's channel-pair files from the seed, runs the CLI entry
point ``diamondeq.cli.main`` in process on each file for whole passes until
``--seconds`` is used up, and checks every report against the pair's
closed-form diamond distance and the solver's guarantees. The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

#: BLAS threads for the benchmark and its set-up children. Must be set before
#: numpy loads. One thread: every matrix here is at most 576 wide, and a
#: second thread did not speed up the n = 12 solve.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import gen  # noqa: E402
from spans import Tracer, span_totals, write_spans  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPS = 9
#: The set-up warm-up invocation: one small pair, the same for every
#: workload, drawn from a random stream that no workload uses.
SETUP_SLOT = gen.Slot("arc", (2,), 1.0)
SETUP_STREAM = 1 << 20
SETUP_DELTA = 0.4
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from diamondeq.cli import main; sys.exit(main(sys.argv[2:]))")
SETUP_TIMEOUT_S = 60

#: Absolute slack on every comparison with a closed form.
TOL = 1e-6


def log(*args) -> None:
    print(*args, file=sys.stderr, flush=True)


def import_package():
    """Import diamondeq from the checkout's own ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "diamondeq")):
        raise ImportError(f"no diamondeq package under {SRC}")
    sys.path.insert(0, SRC)
    import diamondeq
    import diamondeq.cli
    where = os.path.realpath(diamondeq.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"diamondeq imported from {where}, not from {SRC}")
    return diamondeq


def argv_for(path: str, command: str, delta: float, tag: str) -> list:
    argv = [command, path, "--delta", repr(delta),
            "--report-out", f"{tag}.report.json", "--trace-out", f"{tag}.trace.jsonl"]
    if command == "qcd":
        argv += ["--a", repr(gen.QCD_PROMISE[0]), "--b", repr(gen.QCD_PROMISE[1])]
    return argv


def measure_setup(path: str, workdir: str) -> float:
    """Median wall time of a fresh interpreter importing diamondeq and
    finishing one warm-up invocation."""
    argv = argv_for(path, "bounds", SETUP_DELTA, os.path.join(workdir, "setup"))
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=SETUP_TIMEOUT_S, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up invocation exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return statistics.median(times)


def fvdg_interval(v_lo: float, v_hi: float) -> tuple:
    """Fuchs-van de Graaf interval for D from lambda in [v_lo, v_hi]."""
    v_lo = min(1.0, max(0.0, v_lo))
    v_hi = min(1.0, max(0.0, v_hi))
    return max(0.0, 2.0 * (1.0 - v_hi)), min(2.0, 2.0 * math.sqrt(1.0 - v_lo * v_lo))


def check_report(pair: gen.Pair, delta: float, report: dict) -> list:
    """Violations of the closed-form distance and the method's guarantees."""
    d = pair.distance
    lam, d1 = report["lambda"], report["delta1"]
    lo, hi = report["interval"]
    lam_min, lam_max = 1.0 - d / 2.0, math.sqrt(max(0.0, 1.0 - d * d / 4.0))
    n = pair.input_dim
    cap = math.ceil(16.0 * math.log(n * n) / (delta * delta))
    problems = []
    if report["delta"] != delta:
        problems.append(f"report delta {report['delta']} != requested {delta}")
    if not lo - TOL <= d <= hi + TOL:
        problems.append(f"D={d} outside interval [{lo}, {hi}]")
    if not lam_min - TOL <= lam <= lam_max + delta + d1 + TOL:
        problems.append(f"lambda={lam} outside [{lam_min}, {lam_max} + delta + delta1]")
    if report["lower_cert"] > lam_max + TOL:
        problems.append(f"lower_cert={report['lower_cert']} above {lam_max}")
    if report["upper_cert"] < lam_min - TOL:
        problems.append(f"upper_cert={report['upper_cert']} below {lam_min}")
    if not 1 <= report["iterations"] <= cap:
        problems.append(f"iterations={report['iterations']} outside [1, {cap}]")
    if pair.slot.command == "qcd":
        a, b = gen.QCD_PROMISE
        want = "far" if d >= a else "close" if d <= b else None
        if want is None or report["decision"] != want:
            problems.append(f"decision {report['decision']!r} for D={d}, promise ({a}, {b})")
    return problems


def bracket_round_share(trace_path: str, delta: float) -> float:
    """First round t with min(loss[:t]) - max(2 m_min_eig[:t] - 1) <= delta,
    over the rounds executed; 1 if the bracket never closes."""
    upper, lower, closed, executed = math.inf, -math.inf, None, 0
    with open(trace_path, "r", encoding="utf-8") as handle:
        for line in handle:
            rec = json.loads(line)
            if rec["kind"] != "iter":
                continue
            executed = rec["t"]
            upper = min(upper, rec["loss"])
            lower = max(lower, 2.0 * rec["m_min_eig"] - 1.0)
            if closed is None and upper - lower <= delta:
                closed = executed
    return 1.0 if closed is None else closed / executed


class Runner:
    """Runs passes over a workload's pairs and accumulates the outcome."""

    def __init__(self, package, workload: gen.Workload, pairs: list, workdir: str):
        self.cli = package.cli
        self.workload = workload
        self.pairs = pairs
        self.paths = []
        for k, pair in enumerate(pairs):
            path = os.path.join(workdir, f"pair{k}.json")
            gen.write_pair(pair, path)
            self.paths.append(path)
        self.tags = [os.path.join(workdir, f"out{k}") for k in range(len(pairs))]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = None

    def invoke(self, k: int) -> tuple:
        """Run invocation ``k``; returns (seconds, report or None)."""
        pair = self.pairs[k]
        argv = argv_for(self.paths[k], pair.slot.command, self.workload.delta, self.tags[k])
        report_path = f"{self.tags[k]}.report.json"
        for stale in (report_path, f"{self.tags[k]}.trace.jsonl"):
            if os.path.exists(stale):
                os.remove(stale)
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = self.attempted
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(argv)
        except Exception:  # a crash inside the program is a failed operation
            code = None
            log(f"invocation {argv} raised:\n{traceback.format_exc()}")
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            log(f"invocation {argv} failed with exit code {code}")
            return elapsed, None
        with open(report_path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        for problem in check_report(pair, self.workload.delta, report):
            self.problems.append(f"pair {k} ({pair.slot}): {problem}")
        return elapsed, report

    def one_pass(self) -> dict:
        wall, rounds, widths, cert_widths, shares, trace_bytes = 0.0, 0, [], [], [], 0
        for k in range(len(self.pairs)):
            elapsed, report = self.invoke(k)
            wall += elapsed
            if report is None:
                continue
            rounds += report["iterations"]
            lo, hi = report["interval"]
            widths.append(hi - lo)
            delta, d1, lam = report["delta"], report["delta1"], report["lambda"]
            c_lo, c_hi = fvdg_interval(max(report["lower_cert"], lam - delta - d1),
                                       min(report["upper_cert"], lam))
            cert_widths.append(c_hi - c_lo)
            if self.tracer is not None:
                trace_path = f"{self.tags[k]}.trace.jsonl"
                trace_bytes += os.path.getsize(trace_path)
                shares.append(bracket_round_share(trace_path, delta))
        return {"wall": wall, "rounds": rounds, "widths": widths,
                "cert_widths": cert_widths, "shares": shares, "trace_bytes": trace_bytes}

    def passes(self, seconds: float, after_pass=None) -> list:
        """Whole passes while the next one is expected to end within
        ``seconds``; at least one. ``after_pass`` runs after each pass."""
        out = []
        start = time.perf_counter()
        while True:
            out.append(self.one_pass())
            if after_pass is not None:
                after_pass()
            used = time.perf_counter() - start
            if used + used / len(out) > seconds:
                return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> dict:
    passes = runner.passes(seconds)
    widths = passes[0]["widths"]
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(p["wall"] for p in passes), "s"),
        "rounds_total": metric(passes[0]["rounds"], "rounds"),
        "width_mean": metric(sum(widths) / max(1, len(widths)), "diamond"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB"),
    }


#: Per-layer timings and counts read from the span totals: metric name ->
#: (span key, column, unit). Column 0 counts calls, 1 is inclusive seconds,
#: 2 is self seconds.
SPAN_METRICS = {
    "mmw.herm_eig.s": ("mmw.herm_eig", 1, "s"),
    "mmw.herm_eig.calls": ("mmw.herm_eig", 0, "count"),
    "reduction.difference_output.s": ("reduction.difference_output", 1, "s"),
    "reduction.difference_output.calls": ("reduction.difference_output", 0, "count"),
    "reduction.difference_adjoint.s": ("reduction.difference_adjoint", 1, "s"),
    "reduction.difference_adjoint.calls": ("reduction.difference_adjoint", 0, "count"),
    "linalg.pos_proj.s": ("linalg.pos_proj", 1, "s"),
    "linalg.pos_proj.calls": ("linalg.pos_proj", 0, "count"),
    "linalg.as_cmatrix.calls": ("linalg.as_cmatrix", 0, "count"),
    "linalg.partial_trace.calls": ("linalg.partial_trace", 0, "count"),
    "linalg.partial_trace.s": ("linalg.partial_trace", 1, "s"),
    "linalg.herm_eig.calls": ("linalg.herm_eig", 0, "count"),
    "mmw.mmw_run.self_s": ("mmw.mmw_run", 2, "s"),
    "estimator.solve_and_report.self_s": ("estimator.solve_and_report", 2, "s"),
    "reduction.build_instance.s": ("reduction.build_instance", 1, "s"),
    "channels.normalize.s": ("channels.normalize", 1, "s"),
    "cli.parse_channel_file.s": ("cli.parse_channel_file", 1, "s"),
    "cli.write_trace.s": ("cli.write_trace", 1, "s"),
}


def per_layer(runner: Runner, package, seconds: float, spans_path: str) -> dict:
    """Half the time untraced, half traced; per-layer figures are per pass,
    averaged over the traced passes. The last traced pass's spans are written
    to ``spans_path`` at the end."""
    plain = runner.passes(seconds / 2.0)
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install(package)
    sums, last = {}, []

    def fold():
        last[:] = tracer.drain()
        for key, row in span_totals(last).items():
            acc = sums.setdefault(key, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]

    try:
        traced = runner.passes(seconds / 2.0, after_pass=fold)
    finally:
        tracer.uninstall()
        runner.tracer = None
    write_spans(last, spans_path)

    count = len(traced)
    missing = [0, 0.0, 0.0]
    out = {name: metric(sums.get(key, missing)[column] / count, unit)
           for name, (key, column, unit) in SPAN_METRICS.items()}
    run_s = sums.get("mmw.mmw_run", missing)[1]
    rounds = sum(p["rounds"] for p in traced)
    out["mmw.ms_per_round"] = metric(1000.0 * run_s / max(1, rounds), "ms")
    out["mmw.cert_s"] = metric((sums.get("mmw.solve_generic", missing)[1] - run_s) / count, "s")
    shares = [s for p in traced for s in p["shares"]]
    out["mmw.bracket_round_share"] = metric(sum(shares) / max(1, len(shares)), "ratio")
    out["cli.trace_bytes"] = metric(sum(p["trace_bytes"] for p in traced) / count, "bytes")
    cert = traced[0]["cert_widths"]
    out["cert_width_mean"] = metric(sum(cert) / max(1, len(cert)), "diamond")
    out["trace.overhead"] = metric(
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in plain), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        package = import_package()
    except ImportError as exc:
        log(f"error: cannot import the program: {exc}")
        return 2

    workload = gen.WORKLOADS[args.workload]
    pairs = gen.make_pairs(workload, args.seed)
    gen.self_check(pairs)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        if not args.trace:
            rng = np.random.default_rng([args.seed, SETUP_STREAM])
            setup_pair = gen.make_pair(rng, SETUP_SLOT)
            gen.self_check([setup_pair])
            setup_path = os.path.join(workdir, "setup.json")
            gen.write_pair(setup_pair, setup_path)
            setup_s = measure_setup(setup_path, workdir)
        runner = Runner(package, workload, pairs, workdir)
        runner.invoke(0)  # warm-up: lazy BLAS/LAPACK set-up and first imports
        if args.trace:
            spans_path = os.path.join(WORK, f"spans-{workload.name}.jsonl")
            metrics = per_layer(runner, package, args.seconds, spans_path)
        else:
            metrics = end_to_end(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in runner.problems:
        log(f"check failed: {problem}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
