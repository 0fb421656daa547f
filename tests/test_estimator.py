import dataclasses
import functools
import math

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamondeq import (
    ChannelSpec,
    GapTooSmallError,
    MMWConfig,
    build_instance,
    build_report,
    partial_trace,
    require_gap,
    solve_and_report,
    solve_equilibrium,
    trace_norm,
)
from diamondeq.estimator import _fvdg_interval, promise_thresholds
from diamondeq.oracles import constant_diamond, naive_equilibrium, random_unitary, unitary_diamond
from tests.conftest import (
    I2,
    KET0,
    KET1,
    PAULI_X,
    PAULI_Z,
    SPEC_KINDS,
    column,
    constant_spec,
    first_closed_round,
    random_kraus_pair_spec,
    random_specs,
    unitary_instance,
    unitary_spec,
)

FAST = MMWConfig(delta=0.2)


def _decide_specs(spec0, spec1, promise, cfg):
    """The report of a promise (a, b) on two channel descriptions."""
    return solve_and_report(build_instance(spec0, spec1), cfg,
                            promise)


class TestDiamondInterval:
    """The report's map from a bracket on lambda to an interval on D."""

    def test_identical_extreme(self):
        assert _fvdg_interval(1.0, 1.0) == (0.0, 0.0)

    def test_far_extreme(self):
        assert _fvdg_interval(0.0, 0.0) == (2.0, 2.0)

    def test_halfway(self):
        lo, hi = _fvdg_interval(0.5, 0.5)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(math.sqrt(3.0))

    def test_clipping(self):
        lo, hi = _fvdg_interval(0.95, 1.15)
        assert 0.0 <= lo <= hi <= 2.0
        assert _fvdg_interval(1.05, 1.15) == (0.0, 0.0)
        assert _fvdg_interval(-0.15, -0.05) == (2.0, 2.0)


class TestDecide:
    def test_identical_close(self, identity_instance):
        report = solve_and_report(identity_instance, FAST, (1.9, 0.1))
        assert report.decision == "close"
        assert report.promise == (1.9, 0.1)
        assert report.thresholds[1] == pytest.approx(0.95)

    def test_orthogonal_far(self, orthogonal_instance):
        report = solve_and_report(orthogonal_instance, FAST, (1.9, 0.1))
        assert report.decision == "far"

    def test_inverted_thresholds_refused(self, identity_instance):
        with pytest.raises(GapTooSmallError, match="out of scope"):
            solve_and_report(identity_instance, FAST, (1.0, 0.9))

    def test_never_contradicts_oracle_on_promise_family(self):
        # Every member satisfies the (1.9, 0.1) promise with a known side.
        theta = 0.05
        family = [
            (unitary_instance(I2, I2), "close"),                 # distance 0
            (unitary_instance(I2, np.diag([1.0, np.exp(1j * theta)])), "close"),
            (unitary_instance(I2, PAULI_Z), "far"),              # distance 2
        ]
        for inst, want in family:
            assert solve_and_report(inst, FAST, (1.9, 0.1)).decision == want

    def test_constant_family_decisions(self, orthogonal_instance):
        report = solve_and_report(orthogonal_instance, FAST, (2.0, 0.1))
        assert report.decision == "far"


class TestPdnDecide:
    def test_wide_promise_proceeds(self):
        report = _decide_specs(constant_spec(KET0), constant_spec(KET1), (1.9, 0.1), FAST)
        assert report.decision == "far"

    def test_condition_failure_refuses(self):
        # a^2 - (4b - b^2) = 1.0 - 1.11 < 0.
        with pytest.raises(GapTooSmallError, match="out of scope"):
            _decide_specs(unitary_spec(I2), unitary_spec(I2), (1.0, 0.3), FAST)

    def test_refuses_exactly_where_decide_qcd_does(self):
        # a^2 - (4b - b^2) = 4 (t_close - t_far)(t_close + t_far), so the
        # paper's promise condition is the threshold-gap check: on a grid of
        # (a, b, delta), require_gap, the pre-solve refusal of every promise
        # decision, refuses exactly where the paper's form fails.
        decided = set()
        for delta in (0.05, 0.1, 0.2, 0.39):
            cfg = MMWConfig(delta=delta)
            slack = cfg.delta + cfg.resolved_delta1()
            for a in (k / 5 for k in range(1, 11)):
                for b in (k / 5 for k in range(10)):
                    if b >= a:
                        continue
                    t_far, t_close = promise_thresholds(a, b)
                    lhs = a * a - (4.0 * b - b * b)
                    rhs = 8.0 * slack * (t_close + t_far)
                    if abs(lhs - rhs) <= 1e-12:
                        continue
                    try:
                        require_gap((a, b), cfg)
                        passed = True
                    except GapTooSmallError:
                        passed = False
                    assert passed == (lhs > rhs), (a, b, delta)
                    decided.add(passed)
        assert decided == {True, False}

    def test_extreme_promise_decidable_at_loose_delta(self):
        report = _decide_specs(
            unitary_spec(I2), unitary_spec(I2), (2.0, 0.0), MMWConfig(delta=0.39)
        )
        assert report.decision == "close"
        assert report.thresholds == (0.0, 1.0)


@functools.cache
def _one_round_result():
    return solve_equilibrium(unitary_instance(I2, I2), MMWConfig(delta=0.2, rounds=1))


def _decision(lower, upper, promise):
    """The decision ``build_report`` takes on the bracket [lower, upper],
    None for a refusal, and the interval it reports."""
    result = dataclasses.replace(_one_round_result(), lower_cert=lower, upper_cert=upper)
    interval = build_report(result).interval
    try:
        return build_report(result, promise).decision, interval
    except GapTooSmallError as exc:
        assert "neither side" in str(exc)
        return None, interval


def _threshold_decision(lower, upper, a, b):
    """The rule on value thresholds that deciding on the interval replaced:
    'far' when upper lies below t_close, else 'close' when lower lies above
    t_far, else None."""
    t_far, t_close = promise_thresholds(a, b)
    if upper < t_close:
        return "far"
    if lower > t_far:
        return "close"
    return None


@st.composite
def _brackets_and_promises(draw):
    """A promise (a, b) and a bracket [lower, upper] in [0, 1] whose ends
    are random, random above the thresholds t_far and t_close, within a few
    ulps of them, or 1e-11 to 1e-6 from them."""
    b, a = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2, unique=True)))
    ends = []
    for threshold in promise_thresholds(a, b):
        mode = draw(st.sampled_from(["random", "above", "ulps", "near"]))
        if mode in ("random", "above"):
            end = draw(st.floats(threshold if mode == "above" else 0.0, 1.0))
        elif mode == "ulps":
            end = threshold + draw(st.integers(-3, 3)) * math.ulp(threshold)
        else:
            end = threshold + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.integers(6, 11))
        ends.append(min(1.0, max(0.0, end)))
    lower, upper = sorted(ends)
    return a, b, lower, upper


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(case=_brackets_and_promises())
# upper = t_close = 0.85, a tie: 2 (1 - 0.85) = 0.30000000000000004 lies
# above b, so the printed interval [0.30000000000000004, 1.9596] decides
# 'far', where the threshold rule refused.
@example(case=(1.9, 0.3, 0.2, 0.85))
# lower = 1e-9 lies above t_far = 0, but 2 sqrt(1 - lower^2) rounds to
# 2.0 = a: the threshold rule decided 'close', the interval refuses.
@example(case=(2.0, 1.0, 1e-9, 1.0))
def test_decision_reads_the_reported_interval(case):
    # The two rules agree wherever each bracket end is more than 1e-12 from
    # its threshold and each interval end more than 1e-12 from its bound.
    # Each margin covers the other rule's rounding: where lambda -> D is
    # flat (lambda near 0) an interval end rounds onto a, and where it is
    # steep (a near 0) t_far = sqrt(4 - a^2)/2 rounds to 1.
    a, b, lower, upper = case
    got, (lo, hi) = _decision(lower, upper, (a, b))
    assert got == ("far" if lo > b else "close" if hi < a else None)
    t_far, t_close = promise_thresholds(a, b)
    if min(abs(upper - t_close), abs(lower - t_far), abs(lo - b), abs(hi - a)) > 1e-12:
        assert got == _threshold_decision(lower, upper, a, b)


class TestContainment:
    def test_unitary_family_subset(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            u, v = random_unitary(rng, 2), random_unitary(rng, 2)
            report = solve_and_report(unitary_instance(u, v), FAST)
            truth = unitary_diamond(u, v)
            lo, hi = report.interval
            assert lo - 1e-9 <= truth <= hi + 1e-9


class TestBracketReport:
    def test_run_to_t_is_inside_the_a_priori_interval(self):
        # T = 2 rounds end before this pair's bracket closes (round 8 at
        # delta = 0.02).
        rng = np.random.default_rng(5)
        inst = build_instance(*(random_kraus_pair_spec(rng) for _ in range(2)))
        cfg = MMWConfig(delta=0.02, rounds=2)
        report = solve_and_report(inst, cfg)
        result = report.result
        assert result.stop_reason == "rounds"
        assert result.iterations == 2 and first_closed_round(result) is None
        mean = float(np.mean(column(result, "loss")))
        slack = cfg.delta + cfg.resolved_delta1()
        old_lo = _fvdg_interval(mean - slack, mean + slack)[0]
        lo, hi = report.interval
        assert old_lo < lo <= hi
        assert report.interval == _fvdg_interval(result.lower_cert, result.upper_cert)
        # The a-priori window mean -/+ (delta + delta1) holds only at the
        # formula's T: here its lower end lies above the value, which the
        # naive bracket, rigorous on its own, pins below it.
        naive_lb, naive_ub = naive_equilibrium(inst)
        assert naive_lb <= result.upper_cert and result.lower_cert <= naive_ub
        assert mean - slack > naive_ub
        assert result.value == result.upper_cert < mean

    def test_bracket_stop_reports_the_bracket(self):
        report = solve_and_report(unitary_instance(I2, PAULI_Z), FAST)
        result = report.result
        assert result.stop_reason == "bracket"
        assert result.iterations < 555
        assert result.upper_cert - result.lower_cert <= FAST.delta
        assert report.interval == pytest.approx((2.0, 2.0), abs=1e-9)


def _promises_around(d, slack):
    """Promises (a, b) that distance d satisfies, with the true side, whose
    threshold gap just clears twice the solver slack: d as the 'far' end with
    the largest b, and d as the 'close' end with the smallest a."""
    gap = 2.0 * slack + 1e-3
    t_far = math.sqrt(max(0.0, 4.0 - d * d)) / 2.0
    t_close = (2.0 - d) / 2.0
    out = []
    b = 2.0 - 2.0 * (t_far + gap)
    if 0.0 <= b < d:
        out.append(((d, b), "far"))
    if t_close - gap >= 0.0:
        a = math.sqrt(4.0 - 4.0 * (t_close - gap) ** 2)
        if d < a <= 2.0:
            out.append(((a, d), "close"))
    return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]),
       delta=st.sampled_from([0.1, 0.2, 0.4]), rounds=st.sampled_from([1, 2, 5, None]))
def test_bracket_interval_contains_unitary_distance(seed, n, delta, rounds):
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng, n), random_unitary(rng, n)
    inst, truth = unitary_instance(u, v), unitary_diamond(u, v)
    cfg = MMWConfig(delta=delta, rounds=rounds)
    report = solve_and_report(inst, cfg)
    result = report.result
    lo, hi = report.interval
    assert 0.0 <= lo <= hi <= 2.0
    assert lo - 1e-9 <= truth <= hi + 1e-9
    assert result.iterations <= result.rounds
    assert result.stop_reason in ("bracket", "rounds")
    if result.stop_reason == "bracket":
        assert result.upper_cert - result.lower_cert <= delta
    # A promise the true distance satisfies is decided on its side or refused.
    for (a, b), want in _promises_around(truth, delta + cfg.resolved_delta1()):
        try:
            assert solve_and_report(inst, cfg, (a, b)).decision == want, (a, b)
        except GapTooSmallError:
            assert rounds is not None


def _rank_deficient_density(rng, m, support, flat):
    """Density of rank len(support) < m on the given computational-basis
    directions, with flat or random weights."""
    weights = np.zeros(m)
    weights[support] = 1.0 if flat else rng.uniform(0.1, 1.0, len(support))
    return np.diag(weights / weights.sum()).astype(complex)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3]),
       m=st.sampled_from([2, 3, 4]), delta=st.sampled_from([0.1, 0.2]),
       flat=st.booleans())
def test_degenerate_constant_outputs_keep_the_distance(data, seed, n, m, delta, flat):
    # sigma0 lives on directions [0, r0), sigma1 on [start, start + r1); both
    # ranks lie below m and the supports share at least direction start.
    # Flat weights on equal ranks make the difference vanish exactly on the
    # shared directions; the common rotation turns those zeros into
    # roundoff-sized eigenvalues.
    r0 = data.draw(st.integers(1, m - 1), label="r0")
    r1 = data.draw(st.integers(1, m - 1), label="r1")
    start = data.draw(st.integers(0, min(r0 - 1, m - r1)), label="start")
    rng = np.random.default_rng(seed)
    w = random_unitary(rng, m)
    sigmas = [w @ _rank_deficient_density(rng, m, list(support), flat) @ w.conj().T
              for support in (range(r0), range(start, start + r1))]
    truth = constant_diamond(*sigmas)
    cfg = MMWConfig(delta=delta)
    inst = build_instance(*(constant_spec(x, n) for x in sigmas))
    report = solve_and_report(inst, cfg)
    result = report.result
    lo, hi = report.interval
    assert lo - 1e-9 <= truth <= hi + 1e-9
    assert result.lower_cert <= result.upper_cert + 1e-9
    assert result.iterations <= cfg.resolved_rounds(n) == result.rounds


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), kinds=st.tuples(*[st.sampled_from(SPEC_KINDS)] * 2),
       m=st.integers(1, 4), envs=st.tuples(*[st.integers(1, 4)] * 2),
       delta=st.sampled_from([0.05, 0.2]))
@example(seed=1, kinds=("kraus1", "kraus"), m=2, envs=(1, 3), delta=0.2)
@example(seed=2, kinds=("kraus", "kraus"), m=3, envs=(2, 2), delta=0.2)
@example(seed=3, kinds=("kraus", "kraus1"), m=4, envs=(3, 1), delta=0.2)
def test_single_input_dimension_holds_the_state_distance(seed, kinds, m, envs, delta):
    # n = 1 is state discrimination: each channel is its output state
    # rho_k = tr_Z(A_k A_k*), the one density is exact, and one round's
    # exact best response brackets D = ||rho0 - rho1||_1. A unitary kind
    # sets m = 1 for both specs (a unitary is a 1 x 1 phase), and every
    # channel into one dimension outputs the state 1, so D = 0. "kraus1" is
    # a one-operator set, "kraus" has envs[k] operators (at least two).
    specs = random_specs(np.random.default_rng(seed), kinds, 1, m, envs)
    m = specs[0].output_dim
    rhos = [partial_trace(a @ a.conj().T, (m, a.shape[0] // m), (0,))
            for a in (s.isometry for s in specs)]
    truth = 0.0 if "unitary" in kinds else trace_norm(rhos[0] - rhos[1])
    report = solve_and_report(build_instance(*specs), MMWConfig(delta=delta))
    lo, hi = report.interval
    assert report.result.iterations == 1
    assert lo - 1e-9 <= truth <= hi + 1e-9


_PAULIS = (I2, PAULI_X, np.array([[0.0, -1j], [1j, 0.0]]), PAULI_Z)


def _pauli_probabilities(draw_slot, rng):
    """Probability vector over the four Paulis whose slots are 0, 1e-12,
    1e-8 or random; the random slots (at least one) carry the rest."""
    slots = [draw_slot() for _ in range(4)]
    if "random" not in slots:
        slots[int(rng.integers(4))] = "random"
    tiny = {"zero": 0.0, "1e-12": 1e-12, "1e-8": 1e-8}
    p = np.array([tiny.get(slot, 0.0) for slot in slots])
    free = [k for k, slot in enumerate(slots) if slot == "random"]
    p[free] = (1.0 - p.sum()) * rng.dirichlet(np.ones(len(free)))
    return p


def _pauli_spec(p, form):
    """The Pauli channel rho -> sum_i p_i s_i rho s_i as Kraus operators
    sqrt(p_i) s_i, or as the isometry stacking them with the environment
    index after the output index."""
    kraus = [math.sqrt(pi) * np.asarray(s, dtype=complex) for pi, s in zip(p, _PAULIS)]
    if form == "kraus":
        return ChannelSpec("kraus", 2, 2, tuple(kraus))
    iso = np.stack(kraus, axis=1).reshape(2 * len(kraus), 2)
    return ChannelSpec("stinespring", 2, 2, (iso,), env_dim=len(kraus))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), delta=st.sampled_from([0.1, 0.2]),
       forms=st.tuples(*[st.sampled_from(["kraus", "stinespring"])] * 2))
def test_near_singular_pauli_kraus_sets_keep_the_distance(data, seed, delta, forms):
    # The diamond distance of two Pauli channels is the l1 distance of
    # their probability vectors.
    rng = np.random.default_rng(seed)
    slot = st.sampled_from(["zero", "1e-12", "1e-8", "random"])
    p, q = (_pauli_probabilities(lambda: data.draw(slot), rng) for _ in range(2))
    truth = float(np.abs(p - q).sum())
    specs = [_pauli_spec(x, form) for x, form in zip((p, q), forms)]
    report = solve_and_report(build_instance(*specs),
                              MMWConfig(delta=delta))
    lo, hi = report.interval
    assert lo - 1e-9 <= truth <= hi + 1e-9

