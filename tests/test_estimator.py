import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from diamondeq import (
    DiamondReport,
    GapTooSmallError,
    MMWConfig,
    ValidationError,
    build_instance,
    decide_qcd,
    diamond_interval,
    equilibrium_report,
    normalize,
    pdn_decide,
    solve_and_report,
)
from diamondeq.estimator import _fvdg_interval
from diamondeq.oracles import naive_equilibrium, random_unitary, unitary_diamond
from tests.conftest import (
    I2,
    KET0,
    KET1,
    PAULI_Z,
    constant_spec,
    first_closed_round,
    random_kraus_pair_spec,
    unitary_instance,
    unitary_spec,
)

FAST = MMWConfig(delta=0.2)


class TestDiamondInterval:
    def test_identical_extreme(self):
        assert diamond_interval(1.0, 0.0) == (0.0, 0.0)

    def test_far_extreme(self):
        assert diamond_interval(0.0, 0.0) == (2.0, 2.0)

    def test_halfway(self):
        lo, hi = diamond_interval(0.5, 0.0)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(math.sqrt(3.0))

    def test_monotone_in_slack(self):
        widths = [diamond_interval(0.6, d) for d in (0.0, 0.05, 0.1, 0.3)]
        los = [w[0] for w in widths]
        his = [w[1] for w in widths]
        assert all(a >= b for a, b in zip(los, los[1:]))
        assert all(a <= b for a, b in zip(his, his[1:]))

    def test_clipping(self):
        lo, hi = diamond_interval(1.05, 0.1)
        assert 0.0 <= lo <= hi <= 2.0

    def test_rejects_implausible_value(self):
        with pytest.raises(ValidationError, match="plausible"):
            diamond_interval(1.5, 0.1)
        with pytest.raises(ValidationError, match="nonnegative"):
            diamond_interval(0.5, -0.1)


class TestDecide:
    def test_identical_close(self, identity_instance):
        report = decide_qcd(identity_instance, 1.9, 0.1, FAST)
        assert report.decision == "close"
        assert report.promise == (1.9, 0.1)
        assert report.thresholds[1] == pytest.approx(0.95)

    def test_orthogonal_far(self, orthogonal_instance):
        report = decide_qcd(orthogonal_instance, 1.9, 0.1, FAST)
        assert report.decision == "far"

    def test_inverted_thresholds_refused(self, identity_instance):
        with pytest.raises(GapTooSmallError, match="out of scope"):
            decide_qcd(identity_instance, 1.0, 0.9, FAST)

    def test_never_contradicts_oracle_on_promise_family(self):
        # Every member satisfies the (1.9, 0.1) promise with a known side.
        theta = 0.05
        family = [
            (unitary_instance(I2, I2), "close"),                 # distance 0
            (unitary_instance(I2, np.diag([1.0, np.exp(1j * theta)])), "close"),
            (unitary_instance(I2, PAULI_Z), "far"),              # distance 2
        ]
        for inst, want in family:
            assert decide_qcd(inst, 1.9, 0.1, FAST).decision == want

    def test_constant_family_decisions(self, orthogonal_instance):
        report = decide_qcd(orthogonal_instance, 2.0, 0.1, FAST)
        assert report.decision == "far"


class TestPdnDecide:
    def test_wide_promise_proceeds(self):
        report = pdn_decide(constant_spec(KET0), constant_spec(KET1), 1.9, 0.1, FAST)
        assert report.decision == "far"

    def test_condition_failure_refuses(self):
        # a^2 - (4b - b^2) = 1.0 - 1.11 < 0.
        with pytest.raises(GapTooSmallError, match="out of scope"):
            pdn_decide(unitary_spec(I2), unitary_spec(I2), 1.0, 0.3, FAST)

    def test_refuses_exactly_where_decide_qcd_does(self):
        # a^2 - (4b - b^2) = 4 (t_close - t_far)(t_close + t_far), so the
        # paper's promise condition is the threshold-gap check; on a grid of
        # (a, b, delta) both entry points refuse, or decide, alike.
        specs = (unitary_spec(I2), unitary_spec(PAULI_Z))
        inst = build_instance(*(normalize(s) for s in specs))
        decided = set()
        for delta in (0.05, 0.1, 0.2, 0.39):
            cfg = MMWConfig(delta=delta)
            for a in (k / 5 for k in range(1, 11)):
                for b in (k / 5 for k in range(10)):
                    if b >= a:
                        continue
                    outcomes = []
                    for decide in (lambda: pdn_decide(*specs, a, b, cfg),
                                   lambda: decide_qcd(inst, a, b, cfg)):
                        try:
                            outcomes.append(decide().decision)
                        except GapTooSmallError as exc:
                            outcomes.append(str(exc))
                    assert outcomes[0] == outcomes[1], (a, b, delta)
                    decided.add(outcomes[0] in ("far", "close"))
        assert decided == {True, False}

    def test_extreme_promise_decidable_at_loose_delta(self):
        report = pdn_decide(
            unitary_spec(I2), unitary_spec(I2), 2.0, 0.0, MMWConfig(delta=0.39)
        )
        assert report.decision == "close"
        assert report.thresholds == (0.0, 1.0)


class TestContainment:
    def test_unitary_family_subset(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            u, v = random_unitary(rng, 2), random_unitary(rng, 2)
            report = equilibrium_report(unitary_instance(u, v), FAST)
            truth = unitary_diamond(u, v)
            lo, hi = report.interval
            assert lo - 1e-9 <= truth <= hi + 1e-9


class TestBracketReport:
    def test_run_to_t_is_inside_the_a_priori_interval(self):
        # T = 20 rounds end before this pair's bracket closes (round 86).
        rng = np.random.default_rng(5)
        inst = build_instance(*(normalize(random_kraus_pair_spec(rng)) for _ in range(2)))
        cfg = MMWConfig(delta=0.2, rounds=20)
        report, result = solve_and_report(inst, cfg)
        assert report.stop_reason == result.trace.stop_reason == "rounds"
        assert report.iterations == 20 and first_closed_round(result.trace) is None
        mean = float(np.mean(result.trace.losses))
        old_lo = diamond_interval(mean, cfg.delta + cfg.resolved_delta1())[0]
        lo, hi = report.interval
        assert old_lo < lo <= hi
        assert report.interval == _fvdg_interval(report.lower_cert, report.upper_cert)
        # The a-priori window mean -/+ (delta + delta1) holds only at the
        # formula's T: here its lower end lies above the value, which the
        # naive bracket, rigorous on its own, pins below it.
        naive_lb, naive_ub = naive_equilibrium(inst)
        assert naive_lb <= report.upper_cert and report.lower_cert <= naive_ub
        assert mean - (cfg.delta + cfg.resolved_delta1()) > naive_ub
        assert report.value == report.upper_cert < mean

    def test_bracket_stop_reports_the_bracket(self):
        report = equilibrium_report(unitary_instance(I2, PAULI_Z), FAST)
        assert report.stop_reason == "bracket"
        assert report.iterations < 555
        assert report.upper_cert - report.lower_cert <= FAST.delta
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
    report, result = solve_and_report(inst, cfg)
    lo, hi = report.interval
    assert lo - 1e-9 <= truth <= hi + 1e-9
    assert report.iterations <= result.trace.rounds
    assert report.stop_reason in ("bracket", "rounds")
    if report.stop_reason == "bracket":
        assert report.upper_cert - report.lower_cert <= delta
    # A promise the true distance satisfies is decided on its side or refused.
    for (a, b), want in _promises_around(truth, delta + cfg.resolved_delta1()):
        try:
            assert decide_qcd(inst, a, b, cfg).decision == want, (a, b)
        except GapTooSmallError:
            assert rounds is not None


class TestReportInvariants:
    def test_interval_must_be_ordered(self):
        with pytest.raises(ValidationError, match="ordered"):
            DiamondReport(
                value=0.5, delta=0.2, delta1=0.02, interval=(1.5, 1.0),
                lower_cert=0.4, upper_cert=0.6, iterations=10,
            )

    def test_decision_requires_promise(self):
        with pytest.raises(ValidationError, match="together"):
            DiamondReport(
                value=0.5, delta=0.2, delta1=0.02, interval=(0.5, 1.5),
                lower_cert=0.4, upper_cert=0.6, iterations=10, decision="far",
            )

    def test_decision_vocabulary(self):
        with pytest.raises(ValidationError, match="far.*close"):
            DiamondReport(
                value=0.5, delta=0.2, delta1=0.02, interval=(0.5, 1.5),
                lower_cert=0.4, upper_cert=0.6, iterations=10,
                decision="maybe", promise=(1.9, 0.1),
            )
