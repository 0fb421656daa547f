"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time

import numpy as np
import pytest

from diamondeq import (
    GapTooSmallError,
    MMWConfig,
    build_instance,
    build_report,
    fidelity,
    hs_inner,
    kron_sum,
    normalize,
    partial_trace,
    regret_check,
    solve_and_report,
    solve_equilibrium,
    trace_norm,
)
from diamondeq.oracles import (
    fmax_estimate,
    naive_equilibrium,
    random_density,
    random_unitary,
    unitary_diamond,
)
from tests.conftest import (
    I2,
    KET0,
    KET1,
    PHASE_S,
    constant_spec,
    difference_adjoint,
    difference_output,
    first_closed_round,
    mat_exp_hermitian,
    min_eig_projector,
    random_kraus_pair_spec,
    unitary_instance,
    unitary_spec,
)

DELTA = 0.2
DELTA1 = 0.02
SLACK = DELTA + DELTA1

#: All solver traces produced by this module, for the regret criterion.
ALL_RUNS = []

#: All constructed instances, for the reduction-identity criterion.
ALL_INSTANCES = []


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num:02d}: {status} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def tracked_instance(ch0, ch1):
    inst = build_instance(ch0, ch1)
    ALL_INSTANCES.append(inst)
    return inst


def tracked_solve(name, inst, cfg):
    result = solve_equilibrium(inst, cfg)
    ALL_RUNS.append((name, result.trace))
    return result


@pytest.fixture(scope="module")
def cfg():
    return MMWConfig(delta=DELTA)


@pytest.fixture(scope="module")
def identical_run(cfg):
    inst = tracked_instance(normalize(unitary_spec(I2)), normalize(unitary_spec(I2)))
    start = time.perf_counter()
    result = tracked_solve("identical", inst, cfg)
    return inst, result, time.perf_counter() - start


@pytest.fixture(scope="module")
def orthogonal_run(cfg):
    inst = tracked_instance(
        normalize(constant_spec(KET0)), normalize(constant_spec(KET1))
    )
    start = time.perf_counter()
    result = tracked_solve("orthogonal", inst, cfg)
    return inst, result, time.perf_counter() - start


@pytest.fixture(scope="module")
def unitary_runs(cfg):
    rng = np.random.default_rng(2024)
    pairs = [(I2, PHASE_S)]
    pairs += [(random_unitary(rng, 2), random_unitary(rng, 2)) for _ in range(49)]
    runs = []
    for k, (u, v) in enumerate(pairs):
        inst = tracked_instance(normalize(unitary_spec(u)), normalize(unitary_spec(v)))
        runs.append((u, v, tracked_solve(f"unitary-{k}", inst, cfg)))
    return runs


@pytest.fixture(scope="module")
def random_channel_runs(cfg):
    # Mix of general (Kraus) and unitary channel pairs; best-response
    # sandwiches on unitary pairs usually converge tightly, exercising the
    # hard accuracy bound.
    rng = np.random.default_rng(7)
    instances = []
    for _ in range(6):
        instances.append(tracked_instance(
            normalize(random_kraus_pair_spec(rng)),
            normalize(random_kraus_pair_spec(rng)),
        ))
    for _ in range(6):
        instances.append(tracked_instance(
            normalize(unitary_spec(random_unitary(rng, 2))),
            normalize(unitary_spec(random_unitary(rng, 2))),
        ))
    runs = []
    for k, inst in enumerate(instances):
        result = tracked_solve(f"random-{k}", inst, cfg)
        sandwich = naive_equilibrium(inst, iters=10, seed=100 + k)
        runs.append((inst, result, sandwich))
    return runs


def test_criterion_01_promise_thresholds(identical_run, orthogonal_run, cfg):
    inst_id, res_id, dt_id = identical_run
    inst_or, res_or, dt_or = orthogonal_run
    checks = [
        res_id.value >= 0.95 - SLACK,
        res_or.value <= 0.3122 + SLACK,
        res_id.trace.rounds == 555,
        res_or.trace.rounds == 555,
        res_id.iterations == first_closed_round(res_id.trace),
        res_or.iterations == first_closed_round(res_or.trace),
        solve_and_report(inst_id, cfg, (1.9, 0.1)).decision == "close",
        solve_and_report(inst_or, cfg, (1.9, 0.1)).decision == "far",
        dt_id < 10.0,
        dt_or < 10.0,
    ]
    report_line(
        1, all(checks),
        f"identical lambda={res_id.value:.4f} in {dt_id:.2f}s, "
        f"orthogonal lambda={res_or.value:.4f} in {dt_or:.2f}s, T=555, "
        f"bracket closed at rounds {res_id.iterations}/{res_or.iterations}, "
        "decisions close/far",
    )


def test_criterion_02_solver_accuracy(random_channel_runs):
    worst = 0.0
    tight = 0
    ok = True
    for _, result, (lb, ub) in random_channel_runs:
        mid, half = 0.5 * (lb + ub), 0.5 * (ub - lb)
        gap = abs(result.value - mid)
        worst = max(worst, gap - half)
        ok &= gap <= SLACK + half + 1e-9
        if ub - lb <= 2e-2:
            tight += 1
            ok &= max(abs(result.value - lb), abs(result.value - ub)) <= SLACK + 1e-9
    report_line(
        2, ok and tight > 0,
        f"{len(random_channel_runs)} random qubit channel pairs, worst "
        f"|lambda-mid|-half = {worst:.4f} <= {SLACK}, hard bound checked on "
        f"{tight} tight sandwiches",
    )


def test_criterion_03_unitary_containment(unitary_runs):
    ok = True
    phase_interval = None
    for u, v, result in unitary_runs:
        lo, hi = build_report(result).interval
        truth = unitary_diamond(u, v)
        ok &= lo - 1e-9 <= truth <= hi + 1e-9
        if phase_interval is None:
            phase_interval = (lo, hi)
    ok &= phase_interval[0] <= 1.41421 <= phase_interval[1]
    report_line(
        3, ok,
        f"50 seeded unitary pairs contained; phase-gate interval "
        f"[{phase_interval[0]:.4f}, {phase_interval[1]:.4f}] holds sqrt(2)",
    )


def test_criterion_04_regret_bound(identical_run, orthogonal_run, unitary_runs,
                                   random_channel_runs):
    assert len(ALL_RUNS) >= 62
    worst = math.inf
    for _, trace in ALL_RUNS:
        slack = regret_check(trace, min_eig_projector(kron_sum(trace.loss_sums)))
        worst = min(worst, slack)
    report_line(
        4, worst >= -1e-6,
        f"{len(ALL_RUNS)} solver runs, minimum regret slack {worst:.3e} >= -1e-6",
    )


def test_criterion_05_exp_linear_bound():
    rng = np.random.default_rng(55)
    worst = math.inf
    shrink_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        _, u = np.linalg.eigh(0.5 * (g + g.conj().T))
        m = (u * rng.uniform(0.0, 1.0, dim)) @ u.conj().T
        eps = float(rng.uniform(1e-8, 0.5))
        eps_prime = -math.expm1(-eps)
        gap = (np.eye(dim) - eps_prime * m) - mat_exp_hermitian(-eps * m)
        worst = min(worst, float(np.linalg.eigvalsh(gap)[0]))
        shrink_ok &= eps_prime >= eps * (1.0 - eps)
    report_line(
        5, worst >= -1e-10 and shrink_ok,
        f"100 random (M, eps): min eigenvalue of linear-minus-exp gap "
        f"{worst:.3e} >= -1e-10, shrink factor bound exact",
    )


def test_criterion_06_fuchs_van_de_graaf():
    rng = np.random.default_rng(66)
    worst_low, worst_high = math.inf, math.inf
    for dim in (2, 3):
        for _ in range(100):
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            f = fidelity(rho, sigma)
            d = 0.5 * trace_norm(rho - sigma)
            worst_low = min(worst_low, f - (1.0 - d))
            worst_high = min(worst_high, math.sqrt(max(0.0, 1.0 - d * d)) - f)
    ok = worst_low >= -1e-9 and worst_high >= -1e-9
    report_line(
        6, ok,
        f"200 qubit/qutrit pairs: lower slack {worst_low:.3e}, "
        f"upper slack {worst_high:.3e}, both >= -1e-9",
    )


def test_criterion_07_max_fidelity_crosscheck():
    rng = np.random.default_rng(77)
    ok = True
    worst = 0.0
    for k in range(10):
        u, v = random_unitary(rng, 2), random_unitary(rng, 2)
        inst = tracked_instance(normalize(unitary_spec(u)), normalize(unitary_spec(v)))
        doubled = fmax_estimate(inst, restarts=30, seed=k)
        truth = unitary_diamond(u, v)
        ok &= doubled <= truth + 1e-9          # one-sided from below
        ok &= truth - doubled <= 5e-2
        worst = max(worst, truth - doubled)
    report_line(
        7, ok,
        f"10 unitary pairs: doubled max fidelity within {worst:.3e} <= 5e-2 "
        "below the analytic diamond distance",
    )


def test_criterion_08_reduction_identity(identical_run, orthogonal_run,
                                         unitary_runs, random_channel_runs):
    worst_iso, worst_basis = 0.0, 0.0
    for inst in ALL_INSTANCES:
        n, m, z = inst.input_dim, inst.output_dim, inst.env_dim
        for stack in (inst.stack_plus, inst.stack_minus):
            worst_iso = max(
                worst_iso,
                float(np.linalg.norm(stack.conj().T @ stack - np.eye(n))),
            )
        half = m * z
        a0 = math.sqrt(2.0) * inst.stack_plus[:half]
        a1 = math.sqrt(2.0) * inst.stack_plus[half:]
        for i in range(n):
            for j in range(n):
                x = np.zeros((n, n), dtype=complex)
                x[i, j] = 1.0
                lhs = partial_trace(
                    2.0 * inst.stack_plus @ x @ inst.stack_minus.conj().T,
                    (2, m, z), (1,),
                )
                rhs = partial_trace(a0 @ x @ a0.conj().T, (m, z), (0,)) \
                    - partial_trace(a1 @ x @ a1.conj().T, (m, z), (0,))
                worst_basis = max(worst_basis, float(np.linalg.norm(lhs - rhs)))
    ok = worst_iso <= 1e-10 and worst_basis <= 1e-9
    report_line(
        8, ok,
        f"{len(ALL_INSTANCES)} instances: isometry residual {worst_iso:.3e} "
        f"<= 1e-10, basis identity residual {worst_basis:.3e} <= 1e-9",
    )


def test_criterion_09_duality_residual(identical_run, orthogonal_run):
    rng = np.random.default_rng(99)
    instances = [identical_run[0], orthogonal_run[0],
                 unitary_instance(I2, PHASE_S)]
    worst = 0.0
    for inst in instances:
        for _ in range(100):
            rho = random_density(rng, inst.pair_dim)
            g = rng.standard_normal((inst.witness_dim, inst.witness_dim)) \
                + 1j * rng.standard_normal((inst.witness_dim, inst.witness_dim))
            _, u = np.linalg.eigh(0.5 * (g + g.conj().T))
            effect = (u * rng.uniform(0.0, 1.0, inst.witness_dim)) @ u.conj().T
            lhs = hs_inner(effect, difference_output(inst, rho))
            rhs = hs_inner(difference_adjoint(inst, effect), rho)
            worst = max(worst, abs(lhs - rhs))
    report_line(
        9, worst <= 1e-10,
        f"3 instances x 100 random (rho, effect) pairs: worst duality "
        f"residual {worst:.3e} <= 1e-10",
    )


def test_criterion_10_refusal_contract(cfg):
    quad = 1.0 ** 2 - (4 * 0.3 - 0.3 ** 2)
    with pytest.raises(GapTooSmallError, match="out of scope"):
        solve_and_report(build_instance(normalize(unitary_spec(I2)),
                                        normalize(unitary_spec(I2))), cfg, (1.0, 0.3))
    report_line(
        10, quad <= 0,
        f"pdn promise (a, b) = (1.0, 0.3) has condition value {quad:.2f} <= 0 "
        "and is refused with the out-of-scope error",
    )
