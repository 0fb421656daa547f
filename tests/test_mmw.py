import dataclasses
import math

import numpy as np
import pytest

from diamondeq import (
    CertificateViolation,
    MMWConfig,
    OracleBoundError,
    ValidationError,
    best_effect,
    difference_adjoint_factors,
    kron_sum,
    marginal_difference_output,
    regret_check,
    solve_equilibrium,
    solve_generic,
)
from diamondeq import mmw
from diamondeq.cli import trace_to_records
from diamondeq.oracles import naive_equilibrium, random_density, random_unitary
from tests.conftest import (
    constant_spec,
    difference_adjoint,
    difference_output,
    first_closed_round,
    min_eig_projector,
    random_kraus_pair_spec,
    replay_losses,
    unitary_spec,
)
from diamondeq import build_instance, normalize

FAST = MMWConfig(delta=0.2)


class TestConfig:
    def test_iteration_formula(self):
        # ceil(16 ln 4 / 0.04) = ceil(554.5...) = 555
        assert MMWConfig(delta=0.2).resolved_rounds(4) == 555
        # ln 1 = 0, but a single density still needs its one exact round.
        assert MMWConfig(delta=0.2).resolved_rounds(1) == 1
        # Below the clamp T is the formula, bit for bit.
        for delta in (0.05, 0.1, 0.2, 0.4, 1.0, 2.0):
            for dim in (2, 4, 9, 64, 576):
                want = math.ceil(16.0 * math.log(dim) / (delta * delta))
                assert MMWConfig(delta=delta).resolved_rounds(dim) == want

    def test_defaults(self):
        cfg = MMWConfig(delta=0.2)
        assert cfg.resolved_epsilon() == pytest.approx(0.05)
        assert cfg.resolved_delta1() == pytest.approx(0.02)

    @pytest.mark.parametrize("delta", [1e-300, 1e-160, 1e-3])
    def test_tiny_delta_clamps_the_formula(self, delta):
        # delta^2 underflows to 0 at 1e-300 and the quotient overflows at
        # 1e-160; at 1e-3 the formula's 22 180 710 rounds exceed the clamp.
        assert MMWConfig(delta=delta).resolved_rounds(4) == mmw.MAX_ROUNDS
        # N = 1 needs its one round whatever delta is.
        assert MMWConfig(delta=delta).resolved_rounds(1) == 1

    def test_overrides(self):
        cfg = MMWConfig(delta=0.2, rounds=10)
        assert cfg.resolved_rounds(100) == 10

    @pytest.mark.parametrize("kwargs", [
        {"delta": 0.0},
        {"delta": 2.5},
        {"delta": -0.1},
        {"delta": 0.2, "rounds": 0},
        {"delta": 0.2, "rounds": -5},
        {"delta": float("nan")},
        {"delta": 0.2, "rounds": mmw.MAX_ROUNDS + 1},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValidationError):
            MMWConfig(**kwargs)


class TestMetaAlgorithm:
    def test_zero_oracle_keeps_uniform_density(self):
        cfg = MMWConfig(delta=0.2, rounds=25)
        res, seen = replay_losses([(np.zeros((3, 3)),)] * 25, (3,), cfg)
        trace = res.trace
        for (rho,) in seen:
            assert np.allclose(rho, np.eye(3) / 3, atol=1e-12)
        # Every <rho(t), M(t)> is 0; the round values are the witness's bound.
        assert np.allclose(trace.step_inners, 0.0)
        assert np.all(trace.losses == 1.0)
        # With nothing accumulated the regret slack is exactly ln(N)/eps.
        slack = regret_check(trace, delta1=0.0)
        assert slack == pytest.approx(math.log(3) / cfg.resolved_epsilon(), abs=1e-12)

    @pytest.mark.parametrize("dims", [1, 5, (2, 3), (4, 4), (1, 3, 2)])
    def test_first_densities_are_exactly_uniform(self, dims, monkeypatch):
        # The zero loss sums start from their exact decomposition: rho(1) is
        # I/d per factor to the last bit, and the only eigendecompositions of
        # a one-round run are the loss's, the new sums' and the averaged
        # witness's adjoint image's, one each per factor.
        factor_dims = (dims,) if isinstance(dims, int) else dims
        calls = []
        herm_eig = mmw.herm_eig
        monkeypatch.setattr(mmw, "herm_eig", lambda h: calls.append(h) or herm_eig(h))

        zeros = tuple(np.zeros((d, d)) for d in factor_dims)
        _, seen = replay_losses([zeros], factor_dims, MMWConfig(delta=0.2, rounds=1))
        assert len(seen) == 1
        assert all(np.array_equal(r, np.eye(d) / d) for r, d in zip(seen[0], factor_dims))
        assert len(calls) == 3 * len(factor_dims)

    def test_rank_one_oracle_matches_scalar_recursion(self):
        # Constant loss diag(1, 0, ..., 0): the weight on coordinate 1 decays
        # as exp(-eps (t-1)) against N-1 idle coordinates.
        n = 4
        cfg = MMWConfig(delta=0.2, rounds=60)
        eps = cfg.resolved_epsilon()
        _, seen = replay_losses([(np.diag([1.0] + [0.0] * (n - 1)),)] * 60, (n,), cfg)
        assert len(seen) == 60
        for t, (rho,) in enumerate(seen, start=1):
            decay = math.exp(-eps * (t - 1))
            want = decay / (decay + n - 1)
            assert rho[0, 0].real == pytest.approx(want, abs=1e-12)

    def test_regret_inequality_on_random_sequences(self):
        rng = np.random.default_rng(42)
        for run in range(20):
            n = int(rng.integers(2, 5))
            rounds = int(rng.integers(5, 40))
            losses = []
            for _ in range(rounds):
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                h = 0.5 * (g + g.conj().T)
                _, u = np.linalg.eigh(h)
                losses.append(((u * rng.uniform(0.0, 1.0, n)) @ u.conj().T,))

            trace = replay_losses(losses, (n,), MMWConfig(delta=0.2, rounds=rounds))[0].trace
            # Adversarial comparator.
            assert regret_check(trace, delta1=0.0) >= -1e-9
            # Arbitrary comparators satisfy it a fortiori.
            for _ in range(3):
                star = random_density(rng, n)
                assert regret_check(trace, star, delta1=0.0) >= -1e-9

    def test_oracle_bound_violation_is_hard_error(self):
        with pytest.raises(OracleBoundError, match="violate"):
            replay_losses([(1.5 * np.eye(2),)] * 5, (2,), MMWConfig(delta=0.2, rounds=5))

    def test_tiny_violations_are_clipped(self):
        # The second eigenvalue 0.5 keeps the bracket open for all 5 rounds.
        res, _ = replay_losses([(np.diag([1.0 + 5e-10, 0.5]),)] * 5, (2,),
                               MMWConfig(delta=0.2, rounds=5))
        trace = res.trace
        assert trace.executed == 5
        assert trace.m_max_eig.max() <= 1.0 + 1e-9
        # Clipped losses keep the accumulated sum inside the cone.
        assert np.linalg.eigvalsh(kron_sum(trace.loss_sums))[-1] <= 5.0 + 1e-12

    def test_product_run_matches_dense_kronecker_sum(self):
        # A two-factor run is the one-factor run on the Kronecker-sum loss:
        # rho(t) = rho_0(t) (x) rho_1(t) and every record agrees.
        rng = np.random.default_rng(9)
        dims = (2, 3)

        def half_unit(d):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            _, u = np.linalg.eigh(0.5 * (g + g.conj().T))
            return (u * rng.uniform(0.0, 0.5, d)) @ u.conj().T

        losses = [(half_unit(2), half_unit(3)) for _ in range(30)]
        cfg = MMWConfig(delta=0.2, rounds=30)
        product, seen_product = replay_losses(losses, dims, cfg)
        dense, seen_dense = replay_losses([(kron_sum(pair),) for pair in losses], (6,), cfg)
        product, dense = product.trace, dense.trace
        assert len(seen_product) == len(seen_dense) == 30
        for (rho0, rho1), (rho,) in zip(seen_product, seen_dense):
            assert np.linalg.norm(np.kron(rho0, rho1) - rho) <= 1e-12
        assert product.dim == dense.dim == 6
        for name in ("losses", "step_inners", "exp_min", "exp_max",
                     "rho_min_eig", "m_min_eig", "m_max_eig", "sum_min_eig"):
            assert np.allclose(getattr(product, name), getattr(dense, name),
                               rtol=0.0, atol=1e-12), name
        assert np.linalg.norm(kron_sum(product.loss_sums) - kron_sum(dense.loss_sums)) <= 1e-12
        assert regret_check(product, delta1=0.0) >= -1e-9

    def test_tiny_violations_are_clipped_in_factor_form(self):
        # Spectrum [0.5, 1 + 1e-9]: the bracket stays open for all 5 rounds.
        half = np.diag([0.5 + 5e-10, 0.25])
        res, _ = replay_losses([(half, half)] * 5, (2, 2), MMWConfig(delta=0.2, rounds=5))
        trace = res.trace
        assert trace.executed == 5
        assert trace.m_max_eig.max() == pytest.approx(1.0 + 1e-9)
        # The rescaled losses keep the accumulated sum inside the cone.
        assert np.linalg.eigvalsh(kron_sum(trace.loss_sums))[-1] <= 5.0 + 1e-12

    def test_iteration_cap_carries_partial_trace(self, monkeypatch):
        # The formula asks for 278 rounds at N = 2; the clamp cuts T to 10,
        # and the run returns the trace of those 10 rounds.
        monkeypatch.setattr(mmw, "MAX_ROUNDS", 10)
        trace = replay_losses([(np.zeros((2, 2)),)] * 10, (2,), MMWConfig(delta=0.2))[0].trace
        assert trace.executed == 10 and trace.rounds == 10
        assert trace.stop_reason == "rounds"

    def test_stop_reason_without_stop_hook(self, monkeypatch):
        # Zero losses never close the bracket, so the run uses up T.
        zeros = [(np.zeros((2, 2)),)] * 5
        trace = replay_losses(zeros, (2,), MMWConfig(delta=0.2, rounds=5))[0].trace
        assert trace.stop_reason == "rounds" and trace.executed == 5
        # A T clamped by MAX_ROUNDS ends the same way as a set one.
        monkeypatch.setattr(mmw, "MAX_ROUNDS", 3)
        trace = replay_losses(zeros, (2,), MMWConfig(delta=0.2))[0].trace
        assert trace.stop_reason == "rounds" and trace.executed == 3

    def test_exponent_records(self):
        # Loss diag(1, 1/2): lambda_min 1/2 keeps the bracket open.
        trace = replay_losses([(np.diag([1.0, 0.5]),)] * 8, (2,),
                              MMWConfig(delta=0.2, rounds=8))[0].trace
        eps = trace.epsilon
        # After t-1 losses the exponent is -eps (t-1) diag(1, 1/2).
        assert np.allclose(trace.exp_min, -eps * np.arange(8))
        assert np.allclose(trace.exp_max, -0.5 * eps * np.arange(8))
        assert trace.exponent_norm_bound == pytest.approx(eps * 8)


class TestSolveEquilibrium:
    def test_identical_channels(self, identity_instance):
        res = solve_equilibrium(identity_instance, FAST)
        assert res.value >= 1.0 - 0.2 - 0.02
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.trace.rounds == 555
        assert res.iterations == first_closed_round(res.trace)

    def test_stops_when_the_bracket_closes(self):
        # Seeded Kraus pair whose bracket stays wider than delta for 85 rounds.
        rng = np.random.default_rng(5)
        inst = build_instance(*(normalize(random_kraus_pair_spec(rng)) for _ in range(2)))
        res = solve_equilibrium(inst, FAST)
        assert res.trace.stop_reason == "bracket"
        assert res.iterations == first_closed_round(res.trace) == 86
        assert res.iterations < res.trace.rounds == 555
        assert res.upper_cert - res.lower_cert <= FAST.delta
        assert res.value == res.upper_cert == np.min(res.trace.losses)
        assert 0.0 < res.widening <= 1e-9
        assert regret_check(res.trace) >= 0.0
        lb, ub = naive_equilibrium(inst, iters=10, seed=0)
        assert res.lower_cert <= ub + 1e-9 and lb - 1e-9 <= res.upper_cert

    def test_orthogonal_constants(self, orthogonal_instance):
        res = solve_equilibrium(orthogonal_instance, FAST)
        assert res.value <= 0.2 + 0.02
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_phase_pair_window(self, phase_instance):
        res = solve_equilibrium(phase_instance, FAST)
        assert 1.0 - math.sqrt(2) / 2 - 0.2 <= res.value <= math.sqrt(0.5) + 0.2

    def test_density_and_loss_records(self, phase_instance):
        trace = solve_equilibrium(phase_instance, FAST).trace
        assert np.all(trace.rho_trace_err <= 1e-9)
        assert np.all(trace.rho_min_eig >= -1e-9)
        assert np.all(trace.m_min_eig >= -1e-9)
        assert np.all(trace.m_max_eig <= 1.0 + 1e-9)
        assert np.all(trace.losses >= -1e-9)
        assert np.all(trace.losses <= 1.0 + 1e-9)

    def test_certificates_bracket_value(self, phase_instance):
        res = solve_equilibrium(phase_instance, FAST)
        assert res.lower_cert <= res.value + res.trace.delta + 1e-9
        assert res.upper_cert >= res.value - res.trace.delta - 1e-9
        assert res.lower_cert <= res.upper_cert + 2 * res.trace.delta1 + 1e-9

    def test_crossed_certificates_raise_beyond_the_slack(self, phase_instance):
        res = solve_equilibrium(phase_instance, FAST)
        slack = 2.0 * res.trace.delta1 + 1e-9
        inside = dataclasses.replace(res, lower_cert=res.upper_cert + slack - 1e-12)
        assert inside.lower_cert > inside.upper_cert
        with pytest.raises(CertificateViolation, match="certificates crossed"):
            dataclasses.replace(res, lower_cert=res.upper_cert + slack + 1e-12)

    def test_determinism(self, phase_instance):
        first = solve_equilibrium(phase_instance, FAST)
        second = solve_equilibrium(phase_instance, FAST)
        assert trace_to_records(first) == trace_to_records(second)
        assert first.value == second.value
        assert first.lower_cert == second.lower_cert
        assert first.upper_cert == second.upper_cert

    def test_regret_slack_on_solver_runs(self, identity_instance, phase_instance):
        for inst in (identity_instance, phase_instance):
            trace = solve_equilibrium(inst, FAST).trace
            assert regret_check(trace, min_eig_projector(kron_sum(trace.loss_sums))) >= -1e-6

    def test_default_comparator_is_the_adversarial_projector(self, phase_instance):
        # regret_check's default comparator, the sum of the factors'
        # lambda_min, equals <P, S> for the minimum-eigenvector projector P
        # of the N x N loss sum S, on a two-factor and a one-factor run.
        two = solve_equilibrium(phase_instance, FAST).trace
        rng = np.random.default_rng(3)
        losses = []
        for _ in range(20):
            u = random_unitary(rng, 4)
            losses.append(((u * rng.uniform(0.0, 1.0, 4)) @ u.conj().T,))

        one = replay_losses(losses, (4,), MMWConfig(delta=0.2, rounds=20))[0].trace
        for trace in (two, one):
            assert abs(regret_check(trace)
                       - regret_check(trace, min_eig_projector(kron_sum(trace.loss_sums)))) <= 1e-9

    def test_certificate_sandwich_vs_naive(self):
        rng = np.random.default_rng(5)
        for seed in range(3):
            inst = build_instance(
                normalize(random_kraus_pair_spec(rng)),
                normalize(random_kraus_pair_spec(rng)),
            )
            res = solve_equilibrium(inst, FAST)
            lb, ub = naive_equilibrium(inst, iters=8, seed=seed)
            # Both brackets are rigorous, so they cross-bracket up to roundoff.
            assert res.lower_cert <= ub + 1e-9
            assert res.upper_cert >= lb - 1e-9
            mid, half = 0.5 * (lb + ub), 0.5 * (ub - lb)
            assert abs(res.value - mid) <= 0.2 + 0.02 + half + 1e-9


def _seeded_pair(kind, n):
    rng = np.random.default_rng(100 * n + len(kind))
    if kind == "unitary":
        return unitary_spec(random_unitary(rng, n)), unitary_spec(random_unitary(rng, n))
    if kind == "kraus":
        return random_kraus_pair_spec(rng, n, 2), random_kraus_pair_spec(rng, n, 2)
    if kind == "constant":
        return constant_spec(random_density(rng, 2), n), constant_spec(random_density(rng, 2), n)
    # Padded environment: z = 1 against z = 3.
    return unitary_spec(random_unitary(rng, n)), random_kraus_pair_spec(rng, n, 3)


def _dense_reference(inst, scale=1.0):
    return solve_generic(
        (inst.pair_dim,),
        lambda rho: difference_output(inst, scale * rho),
        lambda eff: (difference_adjoint(inst, eff),),
        lambda y: (best_effect(y)[0], 0.0),
        1.0,
        FAST,
        loss_range=(0.0, 1.0),
    )


def _gap(a, b) -> float:
    return max(abs(a.value - b.value), abs(a.lower_cert - b.lower_cert),
               abs(a.upper_cert - b.upper_cert))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["unitary", "kraus", "constant", "padded"])
def test_product_solver_matches_dense_reference(kind, n):
    # The one-factor dense game on the joint n^2 x n^2 density is the
    # reference for the two-factor product solver.
    inst = build_instance(*(normalize(spec) for spec in _seeded_pair(kind, n)))
    product = solve_equilibrium(inst, FAST)
    dense = _dense_reference(inst)
    assert product.iterations == dense.iterations
    for res in (product, dense):
        assert regret_check(res.trace) >= -1e-6
    # Each lower certificate bounds the true value from below and each upper
    # certificate from above, so they bracket across the two runs too.
    assert product.lower_cert <= dense.upper_cert + 1e-9
    assert dense.lower_cert <= product.upper_cert + 1e-9
    if _gap(product, dense) > 1e-9:
        # Allowed only where the game amplifies roundoff: near-degenerate best
        # responses make the dense run itself move by more than 1e-9 when its
        # density is perturbed by one part in 1e15.
        assert _gap(_dense_reference(inst, 1.0 + 1e-15), dense) > 1e-9


# Zero-sum game embedded as diagonal operators; the classical value of
# [[3, 1], [1, 2]] is 5/3 at x = (1/3, 2/3).
PAYOFF = np.array([[3.0, 1.0], [1.0, 2.0]])


def _matrix_game(err, cfg):
    def apply_op(rho):
        return np.diag(PAYOFF.T @ np.real(np.diag(rho)))

    def adjoint_op(sigma):
        return (np.diag(PAYOFF @ np.real(np.diag(sigma))),)

    def best_column(value_op):
        weights = np.real(np.diag(value_op))
        pick = int(np.argmax(weights))
        out = np.zeros((2, 2))
        out[pick, pick] = 1.0
        return out, err

    return solve_generic((2,), apply_op, adjoint_op, best_column, 3.0, cfg)


def _small_game(**overrides):
    """Arguments of a one-factor game whose every round has value 1."""
    args = {
        "dims": (2,),
        "apply_op": lambda rho: np.eye(2) / 2,
        "adjoint_op": lambda eff: (np.zeros((2, 2)),),
        "argmax_op": lambda y: (np.eye(2), 0.0),
        "bound": 1.0,
        "cfg": MMWConfig(delta=0.2, rounds=2),
    }
    return {**args, **overrides}


class TestSolveGeneric:
    def test_zero_map(self):
        res = solve_generic(
            (3,),
            lambda rho: np.zeros((2, 2)),
            lambda eff: (np.zeros((3, 3)),),
            lambda y: (best_effect(y)[0], 0.0),
            1.0,
            MMWConfig(delta=0.2, rounds=20),
        )
        assert res.value == 0.0

    def test_reproduces_equilibrium_solver_exactly(self, phase_instance):
        cfg = FAST
        inst = phase_instance
        direct = solve_equilibrium(inst, cfg)
        generic = solve_generic(
            (inst.input_dim, inst.input_dim),
            lambda first, second: marginal_difference_output(inst, first, second),
            lambda eff: difference_adjoint_factors(inst, eff),
            lambda y: best_effect(y),
            1.0,
            cfg,
            loss_range=(0.0, 1.0),
        )
        assert trace_to_records(direct) == trace_to_records(generic)
        assert direct.value == generic.value
        assert direct.lower_cert == generic.lower_cert

    def test_matrix_game_value(self):
        bound = 3.0
        cfg = MMWConfig(delta=0.05)
        res = _matrix_game(0.0, cfg)
        tol = bound * (cfg.delta + cfg.resolved_delta1())
        assert abs(res.value - 5.0 / 3.0) <= tol
        assert res.lower_cert <= 5.0 / 3.0 + 1e-9
        assert res.upper_cert >= 5.0 / 3.0 - 1e-9
        assert res.iterations == first_closed_round(res.trace, bound) <= res.trace.rounds

    @pytest.mark.parametrize("err", [-0.5, math.inf, math.nan])
    def test_best_response_error_must_be_finite_and_nonnegative(self, err):
        # A negative error would round the values down past the game's 5/3
        # (the bracket [1.018, 1.167] after 171 rounds); an infinite one
        # leaves no upper certificate.
        with pytest.raises(OracleBoundError, match="best-response error"):
            _matrix_game(err, MMWConfig(delta=0.05))

    def test_bound_violation_detected(self):
        with pytest.raises(OracleBoundError, match="bound"):
            solve_generic(
                (2,),
                lambda rho: 5.0 * np.eye(2),
                lambda eff: (np.zeros((2, 2)),),
                lambda y: (np.eye(2), 0.0),
                1.0,
                MMWConfig(delta=0.2, rounds=5),
            )

    @pytest.mark.parametrize("call, error, match", [
        pytest.param(lambda: solve_generic(**_small_game(bound=0.0)),
                     ValidationError, "must be positive", id="zero-bound"),
        pytest.param(lambda: solve_generic(**_small_game(bound=-1.0)),
                     ValidationError, "must be positive", id="negative-bound"),
        pytest.param(lambda: solve_generic(**_small_game(loss_range=(0.0, 0.5))),
                     OracleBoundError, "outside promised range", id="loss-range"),
        pytest.param(lambda: solve_generic(**_small_game(dims=(2, 0))),
                     ValidationError, "factor dimensions", id="factor-dim"),
        pytest.param(lambda: solve_generic(**_small_game(
                         dims=(2, 3), apply_op=lambda r0, r1: np.eye(2) / 2,
                         adjoint_op=lambda eff: (np.zeros((2, 2)), np.zeros((2, 2))))),
                     OracleBoundError, "shapes", id="adjoint-factor-shape"),
        pytest.param(lambda: regret_check(solve_generic(**_small_game()).trace, np.eye(3) / 3),
                     ValidationError, "does not match", id="rho-star-shape"),
    ])
    def test_entry_checks(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


def test_min_eig_projector():
    p = min_eig_projector(np.diag([3.0, -2.0, 1.0]))
    want = np.zeros((3, 3))
    want[1, 1] = 1.0
    assert np.allclose(p, want)
