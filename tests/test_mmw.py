import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondeq import (
    CertificateViolation,
    ChannelSpec,
    MMWConfig,
    OracleBoundError,
    ValidationError,
    best_effect,
    difference_adjoint_factors,
    herm_eig,
    marginal_difference_output,
    solve_equilibrium,
    solve_generic,
)
from diamondeq import mmw, tolerances
from diamondeq.cli import trace_to_records
from diamondeq.estimator import build_report
from diamondeq.oracles import (
    constant_diamond,
    diamond_lower_search,
    naive_equilibrium,
    random_density,
    random_unitary,
    unitary_diamond,
)
from tests.conftest import (
    I2,
    PAULI_X,
    PAULI_Z,
    certified_bracket,
    column,
    constant_spec,
    difference_adjoint,
    difference_output,
    fidelity,
    first_closed_round,
    kron_sum,
    mat_exp_hermitian,
    min_eig_projector,
    random_kraus_pair_spec,
    random_specs,
    regret_check,
    replay_losses,
    unitary_spec,
)
from diamondeq import build_instance

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
        assert cfg.resolved_delta1() == pytest.approx(0.02)

    def test_learning_rate_rule(self):
        # eta_t = min(1/2, sqrt(8 ln N / t)): capped while t <= 32 ln N
        # (44 rounds at N = 4), then sqrt(8 ln N / t), whatever delta is.
        assert mmw.learning_rate(1, 4) == mmw.learning_rate(44, 4) == 0.5
        assert mmw.learning_rate(45, 4) == pytest.approx(math.sqrt(8.0 * math.log(4) / 45))
        want = math.sqrt(8.0 * math.log(576)) / 100
        assert mmw.learning_rate(10_000, 576) == pytest.approx(want)
        etas = [mmw.learning_rate(t, 9) for t in range(1, 500)]
        assert all(a >= b for a, b in zip(etas, etas[1:]))
        # A single density has nothing to learn.
        assert mmw.learning_rate(1, 1) == 0.0

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
        for (rho,) in seen:
            assert np.allclose(rho, np.eye(3) / 3, atol=1e-12)
        # Every <rho(t), M(t)> is 0; the round values are the witness's bound.
        assert np.allclose(column(res, "inner"), 0.0)
        assert np.all(column(res, "loss") == 1.0)
        # With nothing accumulated the regret slack is exactly the bound's
        # ln(N)/eta_T + sum_t eta_t/8; eta_t is capped at 1/2 for t <= 32 ln 3.
        slack = regret_check(res, delta1=0.0)
        assert slack == pytest.approx(math.log(3) / 0.5 + 25 * 0.5 / 8.0, abs=1e-12)

    @pytest.mark.parametrize("dims", [1, 5, (2, 3), (4, 4), (1, 3, 2)])
    def test_first_densities_are_exactly_uniform(self, dims, monkeypatch):
        # The zero loss sums start from their exact decomposition: rho(1) is
        # I/d per factor to the last bit, and the only eigendecompositions of
        # a one-round run are the loss's, one per factor: the round-1 sums
        # are the losses, so the averaged certificate reuses their spectra.
        factor_dims = (dims,) if isinstance(dims, int) else dims
        calls = []
        herm_eig = mmw.herm_eig
        monkeypatch.setattr(mmw, "herm_eig", lambda h: calls.append(h) or herm_eig(h))

        zeros = tuple(np.zeros((d, d)) for d in factor_dims)
        _, seen = replay_losses([zeros], factor_dims, MMWConfig(delta=0.2, rounds=1))
        assert len(seen) == 1
        assert all(np.array_equal(r, np.eye(d) / d) for r, d in zip(seen[0], factor_dims))
        assert len(calls) == len(factor_dims)

    def test_rank_one_oracle_matches_scalar_recursion(self):
        # Constant loss diag(1, 0, ..., 0): the weight on coordinate 1 decays
        # as exp(-eta_t (t-1)) against N-1 idle coordinates, with
        # eta_t = min(1/2, sqrt(8 ln 4 / t)) capped up to t = 44.
        n = 4
        cfg = MMWConfig(delta=0.2, rounds=60)
        _, seen = replay_losses([(np.diag([1.0] + [0.0] * (n - 1)),)] * 60, (n,), cfg)
        assert len(seen) == 60
        for t, (rho,) in enumerate(seen, start=1):
            decay = math.exp(-min(0.5, math.sqrt(8.0 * math.log(n) / t)) * (t - 1))
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

            res = replay_losses(losses, (n,), MMWConfig(delta=0.2, rounds=rounds))[0]
            # Adversarial comparator.
            assert regret_check(res, delta1=0.0) >= -1e-9
            # Arbitrary comparators satisfy it a fortiori.
            for _ in range(3):
                star = random_density(rng, n)
                assert regret_check(res, star, delta1=0.0) >= -1e-9

    def test_oracle_bound_violation_is_hard_error(self):
        with pytest.raises(OracleBoundError, match="violate"):
            replay_losses([(1.5 * np.eye(2),)] * 5, (2,), MMWConfig(delta=0.2, rounds=5))

    def test_tiny_excursions_are_fed_back_unchanged(self):
        # The second eigenvalue 0.5 keeps the bracket open for all 5 rounds.
        loss = np.diag([1.0 + 5e-10, 0.5])
        res, _ = replay_losses([(loss,)] * 5, (2,), MMWConfig(delta=0.2, rounds=5))
        assert res.iterations == 5
        assert np.all(column(res, "m_max_eig") > 1.0)
        assert column(res, "m_max_eig").max() <= 1.0 + 1e-9
        # The loss sum is the plain sum of the losses, to the bit.
        assert np.array_equal(res.loss_sums[0], loss + loss + loss + loss + loss)

    def test_loss_sums_stay_exactly_hermitian(self):
        # Losses of the form (u * w) @ u* are Hermitian only up to roundoff.
        # The loop symmetrizes each adjoint factor on entry, so every loss
        # sum it accumulates equals its conjugate transpose to the bit.
        rng = np.random.default_rng(43)
        for dims in ((3,), (2, 4)):
            losses = []
            for _ in range(12):
                round_losses = []
                for d in dims:
                    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    _, u = np.linalg.eigh(0.5 * (g + g.conj().T))
                    w = rng.uniform(0.0, 1.0 / len(dims), d)
                    round_losses.append((u * w) @ u.conj().T)
                losses.append(tuple(round_losses))
            assert not all(np.array_equal(m, m.conj().T) for ms in losses for m in ms)
            res = replay_losses(losses, dims, MMWConfig(delta=0.2, rounds=12))[0]
            assert res.iterations == 12
            for total in res.loss_sums:
                assert np.array_equal(total, total.conj().T)

    @pytest.mark.parametrize("scale, fails", [(2.0, True), (0.5, False)])
    def test_adjoint_factors_are_checked_hermitian(self, scale, fails):
        # An adjoint factor may be off Hermitian by HERM_TOL in Frobenius
        # norm and no more. At bound b the loss M + e K, K = [[0, 1], [-1, 0]],
        # gives the image b (2 (M + e K) - I), off by 2 b e ||K - K*||_F =
        # 4 sqrt(2) b e. With b = 4 the loss itself is off by only an eighth
        # of that, so the factor's entry check is what refuses it.
        bound = 4.0
        e = scale * tolerances.HERM_TOL / (4.0 * math.sqrt(2.0) * bound)
        loss = np.diag([0.3, 0.6]) + e * np.array([[0.0, 1.0], [-1.0, 0.0]])
        cfg = MMWConfig(delta=0.2, rounds=2)
        if fails:
            with pytest.raises(ValidationError, match="not Hermitian"):
                replay_losses([(loss,)] * 2, (2,), cfg, bound)
        else:
            assert replay_losses([(loss,)] * 2, (2,), cfg, bound)[0].iterations == 2

    @pytest.mark.parametrize("scale, fails", [(2.0, True), (0.5, False)])
    def test_loss_tolerance_is_the_gate(self, scale, fails):
        # A loss spectrum may leave [0, 1] by LOSS_TOL and no more.
        loss = np.diag([1.0 + scale * mmw.LOSS_TOL, 0.5])
        cfg = MMWConfig(delta=0.2, rounds=2)
        if fails:
            with pytest.raises(OracleBoundError, match="beyond the tolerance"):
                replay_losses([(loss,)] * 2, (2,), cfg)
        else:
            assert replay_losses([(loss,)] * 2, (2,), cfg)[0].iterations == 2

    def test_error_records_count_the_rounding_bound(self):
        # Diagonal losses decompose exactly, so the error records are the
        # rounding bounds alone: u (2 ||M_k|| + sqrt(d_k)) per factor for
        # forming the loss, plus u ||S_k(t)|| for each add to the sums.
        u = mmw.UNIT_ROUNDOFF
        losses = [(np.diag([0.3, 0.1 * t]), np.diag([0.2, 0.0, 0.05 * t])) for t in range(1, 5)]
        res = replay_losses(losses, (2, 3), MMWConfig(delta=0.2, rounds=4))[0]
        sums, total = [np.zeros((2, 2)), np.zeros((3, 3))], 0.0
        for t, pair in enumerate(losses):
            formed = sum(u * (2.0 * np.linalg.norm(m) + math.sqrt(m.shape[0])) for m in pair)
            assert column(res, "m_eig_err")[t] == pytest.approx(formed, rel=1e-12)
            sums = [s + m for s, m in zip(sums, pair)]
            total += formed + sum(u * np.linalg.norm(s) for s in sums)
            assert column(res, "sum_eig_err")[t] == pytest.approx(total, rel=1e-12)

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
        assert len(seen_product) == len(seen_dense) == 30
        for (rho0, rho1), (rho,) in zip(seen_product, seen_dense):
            assert np.linalg.norm(np.kron(rho0, rho1) - rho) <= 1e-12
        assert product.dim == dense.dim == 6
        for key in ("loss", "inner", "exp_min", "exp_max",
                    "rho_min_eig", "m_min_eig", "m_max_eig", "sum_min_eig"):
            assert np.allclose(column(product, key), column(dense, key),
                               rtol=0.0, atol=1e-12), key
        assert np.linalg.norm(kron_sum(product.loss_sums) - kron_sum(dense.loss_sums)) <= 1e-12
        assert regret_check(product, delta1=0.0) >= -1e-9

    def test_tiny_excursions_are_fed_back_unchanged_in_factor_form(self):
        # Spectrum [0.5, 1 + 1e-9]: the bracket stays open for all 5 rounds.
        half = np.diag([0.5 + 5e-10, 0.25])
        res, _ = replay_losses([(half, half)] * 5, (2, 2), MMWConfig(delta=0.2, rounds=5))
        assert res.iterations == 5
        assert column(res, "m_max_eig").max() == pytest.approx(1.0 + 1e-9)
        # Each factor sum is the plain sum of that factor's losses, to the bit.
        want = half + half + half + half + half
        assert all(np.array_equal(s, want) for s in res.loss_sums)

    def test_iteration_cap_carries_partial_trace(self, monkeypatch):
        # The formula asks for 278 rounds at N = 2; the clamp cuts T to 10,
        # and the run returns the trace of those 10 rounds.
        monkeypatch.setattr(mmw, "MAX_ROUNDS", 10)
        res = replay_losses([(np.zeros((2, 2)),)] * 10, (2,), MMWConfig(delta=0.2))[0]
        assert res.iterations == 10 and res.rounds == 10
        assert res.stop_reason == "rounds"

    def test_stop_reason_without_stop_hook(self, monkeypatch):
        # Zero losses never close the bracket, so the run uses up T.
        zeros = [(np.zeros((2, 2)),)] * 5
        res = replay_losses(zeros, (2,), MMWConfig(delta=0.2, rounds=5))[0]
        assert res.stop_reason == "rounds" and res.iterations == 5
        # A T clamped by MAX_ROUNDS ends the same way as a set one.
        monkeypatch.setattr(mmw, "MAX_ROUNDS", 3)
        res = replay_losses(zeros, (2,), MMWConfig(delta=0.2))[0]
        assert res.stop_reason == "rounds" and res.iterations == 3

    def test_exponent_records(self):
        # Loss diag(1, 1/2): lambda_min 1/2 keeps the bracket open for all 30
        # rounds, past the cap eta = 1/2 that holds up to t = 32 ln 2 = 22.2.
        res = replay_losses([(np.diag([1.0, 0.5]),)] * 30, (2,),
                            MMWConfig(delta=0.2, rounds=30))[0]
        t = np.arange(1, 31)
        eta = np.minimum(0.5, np.sqrt(8.0 * math.log(2) / t))
        # After t-1 losses the exponent is -eta_t (t-1) diag(1, 1/2).
        assert np.allclose(column(res, "exp_min"), -eta * (t - 1), rtol=0.0, atol=1e-12)
        assert np.allclose(column(res, "exp_max"), -0.5 * eta * (t - 1), rtol=0.0, atol=1e-12)
        assert res.exponent_norm_bound == pytest.approx(np.max(eta * (t - 1)))
        assert res.exponent_norm_bound == pytest.approx(eta[-1] * 29)


class TestSolveEquilibrium:
    def test_identical_channels(self, identity_instance):
        res = solve_equilibrium(identity_instance, FAST)
        assert res.value >= 1.0 - 0.2 - 0.02
        assert res.value == pytest.approx(1.0, abs=1e-9)
        # ceil(16 ln 2 / 0.04) = 278: the game runs on one 2 x 2 density.
        assert res.rounds == 278
        assert res.iterations == first_closed_round(res)

    def test_stops_when_the_bracket_closes(self):
        # Seeded Kraus pair whose bracket stays wider than delta = 0.02 for 7
        # rounds; ceil(16 ln 2 / 0.02^2) = 27726.
        rng = np.random.default_rng(5)
        inst = build_instance(*(random_kraus_pair_spec(rng) for _ in range(2)))
        cfg = MMWConfig(delta=0.02)
        res = solve_equilibrium(inst, cfg)
        assert res.stop_reason == "bracket"
        assert res.iterations == first_closed_round(res) == 8
        assert res.iterations < res.rounds == 27726
        assert res.upper_cert - res.lower_cert <= cfg.delta
        assert res.value == res.upper_cert == certified_bracket(res)[1][-1]
        assert 0.0 < res.widening <= 1e-9
        assert regret_check(res) >= 0.0
        lb, ub = naive_equilibrium(inst, iters=10, seed=0)
        assert res.lower_cert <= ub + 1e-9 and lb - 1e-9 <= res.upper_cert

    def test_orthogonal_constants(self, orthogonal_instance):
        res = solve_equilibrium(orthogonal_instance, FAST)
        assert res.value <= 0.2 + 0.02
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_distinguishable_pairs_close_on_the_value_floor(self, orthogonal_instance):
        # lambda = 0 on perfectly distinguishable pairs, and the zero effect
        # certifies lambda >= 0 before any round: orthogonal constants and
        # Weyl (Pauli) channels on disjoint supports, in a seeded basis V,
        # close on their first round at the floor with no widening from it.
        v = random_unitary(np.random.default_rng(2), 2)
        pauli_y = np.array([[0.0, -1j], [1j, 0.0]])

        def weyl(probs, ops):
            kraus = tuple(math.sqrt(p) * v @ w @ v.conj().T for p, w in zip(probs, ops))
            return ChannelSpec("kraus", 2, 2, kraus)

        disjoint = build_instance(weyl((0.3, 0.7), (I2, PAULI_X)),
                                  weyl((0.6, 0.4), (pauli_y, PAULI_Z)))
        for inst in (orthogonal_instance, disjoint):
            res = solve_equilibrium(inst, FAST)
            assert res.value_floor == 0.0
            assert res.lower_cert == 0.0
            assert res.iterations == first_closed_round(res) == 1
            assert res.stop_reason == "bracket"
            assert 0.0 <= res.upper_cert <= 1e-9
            assert res.widening <= 1e-12

    @pytest.mark.parametrize("pair", ["orthogonal_instance", "identity_instance"])
    def test_first_round_closure_evaluates_no_candidate(self, pair, request):
        # A bracket closed by the first round's own value and witness leaves
        # no round open, so apply_op runs once and no candidate is recorded.
        inst = request.getfixturevalue(pair)
        densities = []

        def apply_op(sigma):
            densities.append(sigma)
            return marginal_difference_output(inst, sigma, sigma)

        res = solve_generic((inst.input_dim,), apply_op, lambda eff: _symmetric_adjoint(inst, eff),
                            best_effect, 1.0, FAST, loss_range=(0.0, 1.0))
        assert res.iterations == 1 and res.stop_reason == "bracket"
        assert len(densities) == 1 and res.iters[0]["cand_loss"] is None

    def test_phase_pair_window(self, phase_instance):
        res = solve_equilibrium(phase_instance, FAST)
        assert 1.0 - math.sqrt(2) / 2 - 0.2 <= res.value <= math.sqrt(0.5) + 0.2

    def test_density_and_loss_records(self, phase_instance):
        res = solve_equilibrium(phase_instance, FAST)
        assert np.all(column(res, "rho_trace_err") <= 1e-9)
        assert np.all(column(res, "rho_min_eig") >= -1e-9)
        assert np.all(column(res, "m_min_eig") >= -1e-9)
        assert np.all(column(res, "m_max_eig") <= 1.0 + 1e-9)
        assert np.all(column(res, "loss") >= -1e-9)
        assert np.all(column(res, "loss") <= 1.0 + 1e-9)

    def test_certificates_bracket_value(self, phase_instance):
        res = solve_equilibrium(phase_instance, FAST)
        assert res.lower_cert <= res.value + res.delta + 1e-9
        assert res.upper_cert >= res.value - res.delta - 1e-9
        assert res.lower_cert <= res.upper_cert + 1e-9

    def test_crossed_certificates_raise_beyond_the_slack(self, phase_instance):
        # The certificates may cross by roundoff only: 1e-9 at bound 1.
        res = solve_equilibrium(phase_instance, FAST)
        slack = 1e-9
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
            res = solve_equilibrium(inst, FAST)
            assert regret_check(res, min_eig_projector(kron_sum(res.loss_sums))) >= -1e-6

    def test_default_comparator_is_the_adversarial_projector(self, phase_instance):
        # regret_check's default comparator, the sum of the factors'
        # lambda_min, equals <P, S> for the minimum-eigenvector projector P
        # of the N x N loss sum S, on a two-factor and a one-factor run.
        two = solve_equilibrium(phase_instance, FAST)
        rng = np.random.default_rng(3)
        losses = []
        for _ in range(20):
            u = random_unitary(rng, 4)
            losses.append(((u * rng.uniform(0.0, 1.0, 4)) @ u.conj().T,))

        one = replay_losses(losses, (4,), MMWConfig(delta=0.2, rounds=20))[0]
        for res in (two, one):
            assert abs(regret_check(res)
                       - regret_check(res, min_eig_projector(kron_sum(res.loss_sums)))) <= 1e-9

    def test_certificate_sandwich_vs_naive(self):
        rng = np.random.default_rng(5)
        for seed in range(3):
            inst = build_instance(random_kraus_pair_spec(rng), random_kraus_pair_spec(rng))
            res = solve_equilibrium(inst, FAST)
            lb, ub = naive_equilibrium(inst, iters=8, seed=seed)
            # Both brackets are rigorous, so they cross-bracket up to roundoff.
            assert res.lower_cert <= ub + 1e-9
            assert res.upper_cert >= lb - 1e-9
            mid, half = 0.5 * (lb + ub), 0.5 * (ub - lb)
            assert abs(res.value - mid) <= 0.2 + 0.02 + half + 1e-9


def _adversarial_losses(rng, n, length):
    """Unit losses that each charge the coordinate the learner weights most,
    the one of smallest cumulative loss (the first on ties), in a random
    basis. The learner's densities depend only on past losses, so the
    sequence is fixed in advance and replayed."""
    u = random_unitary(rng, n)
    cumulative = np.zeros(n)
    losses = []
    for _ in range(length):
        k = int(np.argmin(cumulative))
        cumulative[k] += 1.0
        losses.append((np.outer(u[:, k], u[:, k].conj()),))
    return losses


class TestAnytimeGuarantee:
    @pytest.mark.parametrize("delta", [0.1, 0.2])
    @pytest.mark.parametrize("kind", ["unitary", "kraus"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_runs_to_the_formula_close_their_bracket(self, kind, n, delta):
        # At the formula's T the anytime bound leaves the bracket at most
        # about 0.54 delta wide, so no run may use up its rounds.
        rng = np.random.default_rng([7, n, len(kind)])
        if kind == "unitary":
            specs = unitary_spec(random_unitary(rng, n)), unitary_spec(random_unitary(rng, n))
        else:
            specs = random_kraus_pair_spec(rng, n, 2), random_kraus_pair_spec(rng, n, 2)
        cfg = MMWConfig(delta=delta)
        res = solve_equilibrium(build_instance(*specs), cfg)
        assert res.rounds == cfg.resolved_rounds(n)
        assert res.stop_reason == "bracket"
        assert res.iterations == first_closed_round(res) <= res.rounds
        assert res.upper_cert - res.lower_cert <= delta
        assert regret_check(res, delta1=0.0) >= -1e-9

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("length", [1, 7, 44, 45, 300])
    def test_regret_bound_on_adversarial_sequences(self, n, length):
        rng = np.random.default_rng([11, n, length])
        losses = _adversarial_losses(rng, n, length)
        res = replay_losses(losses, (n,), MMWConfig(delta=0.2, rounds=length))[0]
        assert res.iterations == length and res.stop_reason == "rounds"
        assert regret_check(res, delta1=0.0) >= -1e-9
        # The sequence is adversarial: every round charges the learner at
        # least 1/n, and the regret against the best coordinate is positive.
        assert np.all(column(res, "inner") >= 1.0 / n - 1e-12)
        assert np.sum(column(res, "inner")) > column(res, "sum_min_eig")[-1] + 1e-6

    def test_single_density_has_no_regret(self):
        # At N = 1 every eta_t is 0 and the bound collapses to equality.
        res = replay_losses([(np.array([[0.3]]),)] * 3, (1,),
                            MMWConfig(delta=0.2, rounds=3))[0]
        assert res.exponent_norm_bound == 0.0
        assert regret_check(res, delta1=0.0) == pytest.approx(0.0, abs=1e-12)


def _hermitian(rng, n, scale):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)


# The two inequalities the anytime regret proof in the ``mmw`` docstring
# rests on, checked on random instances.

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       scale=st.sampled_from([1e-3, 0.5, 2.0, 8.0]))
def test_golden_thompson(seed, n, scale):
    # tr exp(A + B) <= tr(exp(A) exp(B)) for Hermitian A, B.
    rng = np.random.default_rng(seed)
    a, b = _hermitian(rng, n, scale), _hermitian(rng, n, scale)
    joint = float(np.trace(mat_exp_hermitian(a + b)).real)
    product = float(np.trace(mat_exp_hermitian(a) @ mat_exp_hermitian(b)).real)
    assert joint <= product * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       eta=st.floats(1e-6, 4.0), c=st.sampled_from([0.0, 1e-9, 1e-3, 0.25]))
def test_hoeffding_lemma_for_densities(data, seed, n, eta, c):
    # tr(rho exp(-eta M)) <= exp(-eta <rho, M> + eta^2 (1 + 2c)^2/8) for
    # -cI <= M <= (1 + c)I, the interval of a loss fed back with an
    # excursion c; the spectrum of M may sit at the ends -c and 1 + c.
    rng = np.random.default_rng(seed)
    spectrum = data.draw(st.lists(st.sampled_from(["low", "high", "random"]), min_size=n,
                                  max_size=n), label="spectrum")
    ends = {"low": -c, "high": 1.0 + c}
    eigs = np.array([ends.get(e, rng.uniform(-c, 1.0 + c)) for e in spectrum])
    u = random_unitary(rng, n)
    m = (u * eigs) @ u.conj().T
    rho = random_density(rng, n)
    lhs = float(np.vdot(rho, mat_exp_hermitian(-eta * m)).real)
    rhs = math.exp(-eta * float(np.vdot(rho, m).real) + (eta * (1.0 + 2.0 * c)) ** 2 / 8.0)
    assert lhs <= rhs * (1.0 + 1e-12)


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


def _product_game(inst, cfg=FAST):
    """The channel-pair game in its two-factor form: one n x n density per
    input marginal, the plus arm reading the first and the minus arm the
    second, and the Kronecker-sum loss (I + G+ (x) I - I (x) G-) / 2. Its
    value is ``solve_equilibrium``'s, which plays one density as both."""
    n = inst.input_dim
    return solve_generic(
        (n, n),
        lambda first, second: marginal_difference_output(inst, first, second),
        lambda eff: difference_adjoint_factors(inst, eff),
        best_effect,
        1.0,
        cfg,
        loss_range=(0.0, 1.0),
    )


def _symmetric_adjoint(inst, eff):
    """The one-factor adjoint image (G+ - G-,) that ``solve_equilibrium``
    feeds back, from the factors of ``difference_adjoint_factors``."""
    g_plus, minus_g_minus = difference_adjoint_factors(inst, eff)
    return (g_plus + minus_g_minus,)


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
    inst = build_instance(*_seeded_pair(kind, n))
    product = _product_game(inst)
    dense = _dense_reference(inst)
    # Both close their brackets. Their round counts may differ: the product
    # run's upper candidates mix each factor, the dense run's the joint
    # density.
    assert product.stop_reason == dense.stop_reason == "bracket"
    # The symmetric game on one n x n density plays for the same value with
    # half the log-dimension, and takes no more rounds.
    symmetric = solve_equilibrium(inst, FAST)
    assert symmetric.iterations <= dense.iterations
    for res in (product, dense, symmetric):
        assert regret_check(res) >= -1e-6
    # Each lower certificate bounds the true value from below and each upper
    # certificate from above, so they bracket across the runs too.
    for a, b in ((product, dense), (symmetric, dense), (symmetric, product)):
        assert a.lower_cert <= b.upper_cert + 1e-9
        assert b.lower_cert <= a.upper_cert + 1e-9
    if product.iterations == dense.iterations and _gap(product, dense) > 1e-9:
        # Allowed only where the game amplifies roundoff: near-degenerate best
        # responses make the dense run itself move by more than 1e-9 when its
        # density is perturbed by one part in 1e15.
        assert _gap(_dense_reference(inst, 1.0 + 1e-15), dense) > 1e-9


def _averaged_image_min(factors):
    """lambda_min of a Kronecker sum of Hermitian factors, lowered by the
    factors' measured eigendecomposition errors: the lower certificate of
    the averaged witness, taken from its adjoint image."""
    decs = [herm_eig(f) for f in factors]
    return sum(float(d.eigenvalues[-1]) - d.error_bound for d in decs)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["unitary", "kraus", "constant", "padded"])
def test_averaged_certificate_matches_the_adjoint_image(kind, n):
    # The loop reads the averaged witness's certificate off its loss sum;
    # the reference eigendecomposes the adjoint image of the averaged
    # witness itself. The loop takes the adjoint image of each round's
    # witness only, never of an upper candidate's.
    inst = build_instance(*_seeded_pair(kind, n))
    witnesses = []

    def adjoint_op(eff):
        witnesses.append(eff)
        return _symmetric_adjoint(inst, eff)

    res = solve_generic(
        (n,),
        lambda sigma: marginal_difference_output(inst, sigma, sigma),
        adjoint_op,
        best_effect,
        1.0,
        FAST,
        loss_range=(0.0, 1.0),
    )
    assert trace_to_records(res) == trace_to_records(solve_equilibrium(inst, FAST))
    # One adjoint image per round, none after the loop.
    assert len(witnesses) == res.iterations
    lower, upper, averaged = certified_bracket(res)
    reference = _averaged_image_min(_symmetric_adjoint(inst, np.mean(witnesses, axis=0)))
    assert abs(averaged[-1] - reference) <= 1e-12
    # The loss-sum rounding bound keeps the certificate at or below it.
    assert averaged[-1] <= reference
    # The result's bracket is the one the loop stopped on.
    assert res.lower_cert == lower[-1] and res.upper_cert == upper[-1]
    assert res.lower_cert >= max(averaged[-1], 0.0)


#: Spec kinds of the two channels of each pair kind in the symmetric-game
#: property; "padded" is z = 1 against a Kraus set of at least two operators.
_PAIR_KINDS = {
    "unitary": ("unitary", "unitary"),
    "kraus": ("kraus", "kraus"),
    "stinespring": ("stinespring", "stinespring"),
    "constant": ("constant", "constant"),
    "padded": ("unitary", "kraus"),
}


@pytest.mark.parametrize("kind", sorted(_PAIR_KINDS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 4),
       envs=st.tuples(*[st.integers(1, 4)] * 2), delta=st.sampled_from([0.1, 0.2]))
def test_symmetric_game_brackets_the_pair(kind, seed, n, m, envs, delta):
    # The min player's one density sigma plays both input marginals. Where
    # D has a closed form it lies in the interval; each round's witness
    # certifies lambda_min(G+ - G-), at least the two-factor game's
    # lambda_min(G+) - lambda_max(G-) for the same witness; and the bracket
    # overlaps the two-factor game's, whose value is the same.
    specs = random_specs(np.random.default_rng(seed), _PAIR_KINDS[kind], n, m, envs)
    inst = build_instance(*specs)
    cfg = MMWConfig(delta=delta)
    witnesses = []

    def adjoint_op(eff):
        witnesses.append(eff)
        return _symmetric_adjoint(inst, eff)

    res = solve_generic(
        (n,),
        lambda sigma: marginal_difference_output(inst, sigma, sigma),
        adjoint_op,
        best_effect,
        1.0,
        cfg,
        loss_range=(0.0, 1.0),
    )
    assert trace_to_records(res) == trace_to_records(solve_equilibrium(inst, cfg))

    if kind in ("unitary", "constant"):
        mats = [s.matrices[0] for s in specs]
        truth = (unitary_diamond if kind == "unitary" else constant_diamond)(*mats)
        lo, hi = build_report(res).interval
        assert lo - 1e-9 <= truth <= hi + 1e-9

    # A witness's certificate 2 (m_min_eig - m_eig_err) - 1 lies at most
    # twice its charged error 2 m_eig_err below lambda_min(G+ - G-), which
    # Weyl's inequality puts at or above lambda_min(G+) - lambda_max(G-).
    # The two coincide where an eigenvector for lambda_min(G+) is one for
    # lambda_max(G-), as at n = 1, so only that error separates the
    # certificates there.
    errs = 2.0 * column(res, "m_eig_err")
    singles = 2.0 * column(res, "m_min_eig") - 1.0 - errs
    for single, err, witness in zip(singles, errs, witnesses, strict=True):
        g_plus, minus_g_minus = (herm_eig(f) for f in difference_adjoint_factors(inst, witness))
        # lambda_max(G-) is -lambda_min(-G-).
        product = (float(g_plus.eigenvalues[-1]) - g_plus.error_bound
                   + float(minus_g_minus.eigenvalues[-1]) - minus_g_minus.error_bound)
        assert single + 2.0 * err >= product

    product = _product_game(inst, cfg)
    assert res.lower_cert <= product.upper_cert + 1e-9
    assert product.lower_cert <= res.upper_cert + 1e-9


@pytest.mark.parametrize("kind", sorted(_PAIR_KINDS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.integers(1, 4),
       envs=st.tuples(*[st.integers(1, 4)] * 2), delta=st.sampled_from([0.02, 0.1]))
def test_candidates_never_undercut_the_value(kind, seed, n, m, envs, delta):
    # Every upper candidate, rounded up by its error bound, is at least
    # lambda: the closed form sqrt(1 - D^2/4) for unitary pairs and the
    # fidelity ||sqrt(sigma0) sqrt(sigma1)||_1 for constant ones, and for
    # the other kinds the best-response sandwich's lower end. The reported
    # interval holds D, or at least a sampled lower bound on it. The loop
    # takes one adjoint image per round and evaluates at most two
    # candidates in a round. The sandwich is limited to n <= 3.
    specs = random_specs(np.random.default_rng(seed), _PAIR_KINDS[kind], n, m, envs)
    inst = build_instance(*specs)
    calls = {"apply": 0, "adjoint": 0}

    def apply_op(sigma):
        calls["apply"] += 1
        return marginal_difference_output(inst, sigma, sigma)

    def adjoint_op(eff):
        calls["adjoint"] += 1
        return _symmetric_adjoint(inst, eff)

    cfg = MMWConfig(delta=delta)
    res = solve_generic((n,), apply_op, adjoint_op, best_effect, 1.0, cfg, loss_range=(0.0, 1.0))
    assert trace_to_records(res) == trace_to_records(solve_equilibrium(inst, cfg))
    assert calls["adjoint"] == res.iterations
    assert res.iterations <= calls["apply"] <= 3 * res.iterations

    lo, hi = build_report(res).interval
    mats = [s.matrices[0] for s in specs]
    if kind == "unitary":
        truth = unitary_diamond(*mats)
        value = math.sqrt(max(0.0, 1.0 - truth * truth / 4.0))
        assert lo - 1e-9 <= truth <= hi + 1e-9
    elif kind == "constant":
        truth = constant_diamond(*mats)
        value = fidelity(*mats)
        assert lo - 1e-9 <= truth <= hi + 1e-9
    else:
        value = naive_equilibrium(inst, iters=3, seed=seed % 1000)[0]
        assert diamond_lower_search(*specs, trials=20, seed=0) <= hi + 1e-9
    candidates = [row["cand_loss"] for row in res.iters if row["cand_loss"] is not None]
    assert all(c >= value - 1e-12 for c in candidates)


@pytest.mark.parametrize("losses", [
    # Spectrum [0.5, 1 + 5e-10].
    [np.diag([1.0 + 5e-10, 0.5])] * 5,
    # Spectrum [-5e-10, 1].
    [np.diag([-5e-10, 1.0]), np.diag([1.0, -5e-10])] * 2,
], ids=["above-one", "below-zero"])
def test_averaged_certificate_with_tiny_excursions_stays_below_the_image(losses):
    # Every round's loss leaves [0, 1] by roundoff and is fed back as it is.
    # The certificate taken from the loss sum stays at or below the averaged
    # image's own minimum. Every witness is the 1 x 1 identity, and round
    # t's image is 2 M(t) - I, so the averaged image is 2 mean(M) - I.
    rounds = len(losses)
    res, _ = replay_losses([(m,) for m in losses], (2,), MMWConfig(delta=0.2, rounds=rounds))
    assert res.iterations == rounds and res.value_floor is None
    assert np.all((column(res, "m_max_eig") > 1.0) | (column(res, "m_min_eig") < 0.0))
    lower, _, averaged = certified_bracket(res)
    reference = _averaged_image_min((2.0 * np.mean(losses, axis=0) - np.eye(2),))
    assert averaged[-1] <= reference
    assert reference - averaged[-1] <= 1e-8
    assert res.lower_cert == lower[-1] <= reference


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
            (inst.input_dim,),
            lambda sigma: marginal_difference_output(inst, sigma, sigma),
            lambda eff: _symmetric_adjoint(inst, eff),
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
        assert res.iterations == first_closed_round(res, bound) <= res.rounds
        # The min player's best response reaches 5/3 exactly; rounding each
        # candidate up by its error bound keeps it at or above the value.
        candidates = [row["cand_loss"] for row in res.iters if row["cand_loss"] is not None]
        assert candidates and min(candidates) >= 5.0 / 3.0

    @pytest.mark.parametrize("delta, rounds, lower, upper", [
        (0.05, 19, 29.0 / 19.0, 1.6666666666666756),
        (0.1, 10, 1.4, 1.6666666666666756),
        (0.2, 6, 7.0 / 6.0, 1.6666666666666756),
        (0.5, 1, 1.0, 2.0),
    ])
    def test_matrix_game_has_no_value_floor(self, delta, rounds, lower, upper):
        # A game without a loss range gets no floor. From round 1 on, the
        # min player's best response to the round's loss is the optimal
        # mixture (1/3, 2/3), so the upper certificate is 5/3 rounded up by
        # that candidate's error bound, 9e-15, and only the lower end moves;
        # at delta = 0.5 the first round's bracket closes before any
        # candidate. The diagonal eigendecompositions are exact, so the
        # widening is rounding bounds alone, and the lower certificate before
        # its error, rebuilt from the records, is the table's fraction.
        res = _matrix_game(0.0, MMWConfig(delta=delta))
        assert res.value_floor is None
        assert res.iterations == rounds
        assert res.upper_cert == upper
        assert 0.0 < res.widening <= 2e-14
        unlowered = 3.0 * max(2.0 * column(res, "m_min_eig").max() - 1.0,
                              2.0 * column(res, "sum_min_eig")[-1] / rounds - 1.0)
        assert unlowered == pytest.approx(lower, rel=0.0, abs=1e-14)
        assert res.lower_cert == certified_bracket(res, 3.0)[0][-1] <= unlowered

    @pytest.mark.parametrize("err", [-0.5, math.inf, math.nan])
    def test_best_response_error_must_be_finite_and_nonnegative(self, err):
        # A negative error would round the values down past the game's 5/3
        # (the bracket [1.167, 1.178] after 6 rounds); an infinite one
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
        pytest.param(lambda: solve_generic(**_small_game(argmax_op=lambda y: (np.eye(3), 0.0))),
                     OracleBoundError, "witness of shape", id="witness-shape"),
        pytest.param(lambda: regret_check(solve_generic(**_small_game()), np.eye(3) / 3),
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
