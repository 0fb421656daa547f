import math

import numpy as np
import pytest

from diamondeq import (
    EigDecomp,
    EigendecompositionError,
    ValidationError,
    best_effect,
    fidelity,
    herm_eig,
    hs_inner,
    kron_sum,
    partial_trace,
    trace_norm,
)
from diamondeq import linalg
from diamondeq.linalg import require_hermitian
from diamondeq.oracles import random_density, random_unitary
from tests.conftest import KET0, PAULI_X, PAULI_Z, mat_exp_hermitian


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_contraction(rng, dim):
    """Random Hermitian with spectrum inside [0, 1]."""
    h = random_hermitian(rng, dim)
    _, u = np.linalg.eigh(h)
    return (u * rng.uniform(0.0, 1.0, dim)) @ u.conj().T


def taylor_exp(h, terms=40):
    """Independent oracle: term-wise Taylor series of exp(H)."""
    out = np.eye(h.shape[0], dtype=complex)
    power = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        power = power @ h / k
        out = out + power
    return out


class TestHermEig:
    def test_already_diagonal(self):
        dec = herm_eig(np.diag([3.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [3.0, -1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))

    def test_identity(self):
        dec = herm_eig(np.eye(4))
        assert np.allclose(dec.eigenvalues, np.ones(4))

    def test_pauli_x(self):
        # Hand diagonalization: eigenvalues (1, -1), eigenvectors (1, +-1)/sqrt(2).
        dec = herm_eig(PAULI_X)
        assert np.allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)
        assert np.allclose(np.abs(dec.eigenvectors), np.full((2, 2), 1.0 / math.sqrt(2)))

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_residual_invariants(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(20):
            h = random_hermitian(rng, dim)
            dec = herm_eig(h)
            assert np.all(np.diff(dec.eigenvalues) <= 1e-14)
            u = dec.eigenvectors
            assert np.linalg.norm((u * dec.eigenvalues) @ u.conj().T - h) <= 1e-10 * dim
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-10 * dim

    def test_nan_residuals_fail_the_gate(self):
        # Entries near the float maximum overflow inside eigh; the NaN
        # residuals must fail the residual gate, not slip past it.
        h = np.array([[1e308, 1e308], [1e308, -1e308]])
        with np.errstate(all="ignore"), pytest.raises(EigendecompositionError):
            herm_eig(h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMatExp:
    # The eigendecomposition exponential that the exp-versus-linear bound
    # tests take as their reference.
    def test_zero(self):
        assert np.allclose(mat_exp_hermitian(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        got = mat_exp_hermitian(np.diag([-1.0, 0.0]))
        assert np.allclose(got, np.diag([math.exp(-1.0), 1.0]))

    def test_against_taylor_oracle(self):
        eps = 0.05
        h = np.array([[0.0, -eps], [-eps, 0.0]])
        assert np.linalg.norm(mat_exp_hermitian(h) - taylor_exp(h)) <= 1e-12

    def test_random_against_taylor(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = random_hermitian(rng, 3, scale=0.4)
            assert np.linalg.norm(mat_exp_hermitian(h) - taylor_exp(h)) <= 1e-12

    def test_positive_definite(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 4)
        w = np.linalg.eigvalsh(mat_exp_hermitian(h))
        assert np.all(w > 0)


class TestPosProj:
    # best_effect's effect is the projector onto the strictly positive
    # eigenspace.
    def test_sign_pattern(self):
        assert np.allclose(best_effect(np.diag([2.0, -1.0]))[0], np.diag([1.0, 0.0]))

    def test_zero_matrix(self):
        # Strictly positive eigenvalues only, so the zero matrix projects to zero.
        assert np.allclose(best_effect(np.zeros((3, 3)))[0], np.zeros((3, 3)))

    def test_pauli_x(self):
        assert np.allclose(best_effect(PAULI_X)[0], 0.5 * np.ones((2, 2)))

    def test_idempotent_away_from_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = random_hermitian(rng, 4)
            w = np.linalg.eigvalsh(h)
            if np.min(np.abs(w)) <= 1e-8:
                continue
            p, err = best_effect(h)
            assert 0.0 < err <= 1e-12
            assert np.linalg.norm(p @ p - p) <= 1e-8
            w = np.linalg.eigvalsh(p)
            assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12


def perturbed_eig(rng, h, size):
    """A decomposition of h with eigenpairs off by about ``size`` and its
    residuals measured, as herm_eig measures them."""
    w, u = np.linalg.eigh(h)
    n = h.shape[0]
    w = np.sort(w + size * rng.standard_normal(n))[::-1]
    u = u[:, ::-1] + size * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    recon = float(np.linalg.norm(h - (u * w) @ u.conj().T))
    unit = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    return EigDecomp(w, u, recon, unit)


class TestErrorBounds:
    def test_herm_eig_returns_its_residuals(self):
        rng = np.random.default_rng(21)
        h = random_hermitian(rng, 5)
        dec = herm_eig(h)
        u = dec.eigenvectors
        assert dec.recon == np.linalg.norm(h - (u * dec.eigenvalues) @ u.conj().T)
        assert dec.unit == np.linalg.norm(u.conj().T @ u - np.eye(5))
        assert 0.0 < dec.error_bound <= 1e-12

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_residuals_are_numpy_norms_bitwise(self, dim, monkeypatch):
        # require_hermitian's residual and herm_eig's recon and unit feed the
        # reported widening, so they must equal np.linalg.norm of the same
        # differences to the last bit.
        rng = np.random.default_rng(300 + dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = random_hermitian(rng, dim) + 1e-13 * g  # Hermitian within HERM_TOL
        norms = []
        frobenius = linalg._frobenius

        def recorded(d):
            norms.append((np.linalg.norm(d), frobenius(d)))
            return norms[-1][1]

        monkeypatch.setattr(linalg, "_frobenius", recorded)
        dec = herm_eig(h)
        assert len(norms) == 3
        assert all(want == got for want, got in norms)
        assert norms[0][1] == np.linalg.norm(h - h.conj().T) > 0.0
        hs, u = 0.5 * (h + h.conj().T), dec.eigenvectors
        assert dec.recon == np.linalg.norm(hs - (u * dec.eigenvalues) @ u.conj().T)
        assert dec.unit == np.linalg.norm(u.conj().T @ u - np.eye(dim))

    @pytest.mark.parametrize("size", [1e-8, 1e-5, 1e-3])
    def test_weyl_bound_covers_perturbed_eigenvalues(self, size):
        rng = np.random.default_rng(22)
        for _ in range(20):
            h = random_hermitian(rng, 4)
            dec = perturbed_eig(rng, h, size)
            exact = np.linalg.eigvalsh(h)[::-1]
            assert np.max(np.abs(exact - dec.eigenvalues)) <= dec.error_bound

    @pytest.mark.parametrize("size", [1e-8, 1e-5, 1e-3])
    def test_best_effect_bound_covers_perturbed_eigensolver(self, size, monkeypatch):
        rng = np.random.default_rng(23)
        for _ in range(20):
            h = random_hermitian(rng, 4)
            dec = perturbed_eig(rng, h, size)
            monkeypatch.setattr(linalg, "herm_eig", lambda _h, dec=dec: dec)
            p, err = best_effect(h)
            best = float(np.sum(np.clip(np.linalg.eigvalsh(h), 0.0, None)))
            assert best - hs_inner(p, h).real <= err


class TestTraceNorm:
    def test_hermitian_diagonal(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_unitary(self, dim):
        rng = np.random.default_rng(dim)
        assert trace_norm(random_unitary(rng, dim)) == pytest.approx(dim, abs=1e-10)

    def test_state_difference(self):
        assert trace_norm(KET0 - np.eye(2) / 2) == pytest.approx(1.0)

    def test_positive_part_splitting(self):
        # ||H||_1 = <P0 - P1, H> for the positive/nonpositive eigenspace split.
        rng = np.random.default_rng(11)
        for _ in range(30):
            h = random_hermitian(rng, 4)
            p0 = best_effect(h)[0]
            p1 = np.eye(4) - p0
            split = hs_inner(p0 - p1, h).real
            assert split == pytest.approx(trace_norm(h), abs=1e-9)


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(12)
        for dim in (2, 3):
            rho = random_density(rng, dim)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_supports(self):
        assert fidelity(KET0, np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        assert fidelity(KET0, np.eye(2) / 2) == pytest.approx(1.0 / math.sqrt(2))

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(13)
        p, q = random_density(rng, 3), random_density(rng, 3)
        base = fidelity(p, q)
        for c in (0.5, 2.0, 7.25):
            assert fidelity(c * p, c * q) == pytest.approx(c * base, rel=1e-10)

    def test_rejects_negative_input(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            fidelity(np.diag([1.0, -0.5]), np.eye(2))

    def test_fuchs_van_de_graaf(self):
        # 1 - D <= F <= sqrt(1 - D^2) for D = half trace distance.
        rng = np.random.default_rng(14)
        for dim in (2, 3):
            for _ in range(50):
                rho, sigma = random_density(rng, dim), random_density(rng, dim)
                f = fidelity(rho, sigma)
                d = 0.5 * trace_norm(rho - sigma)
                assert f >= 1.0 - d - 1e-9
                assert f <= math.sqrt(max(0.0, 1.0 - d * d)) + 1e-9


class TestExpLinearBound:
    def test_shrunk_linear_dominates_exp(self):
        # exp(-eps M) <= I - eps' M for 0 <= M <= I, eps in (0, 1/2],
        # with eps' = 1 - e^{-eps} >= eps (1 - eps).
        rng = np.random.default_rng(15)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            m = random_contraction(rng, dim)
            eps = float(rng.uniform(1e-6, 0.5))
            eps_prime = -math.expm1(-eps)
            gap = (np.eye(dim) - eps_prime * m) - mat_exp_hermitian(-eps * m)
            assert np.linalg.eigvalsh(gap)[0] >= -1e-10
            assert eps_prime >= eps * (1.0 - eps)


class TestPartialTrace:
    def test_factorized(self):
        rng = np.random.default_rng(16)
        rho_a, rho_b = random_density(rng, 2), random_density(rng, 3)
        got = partial_trace(np.kron(rho_a, rho_b), (2, 3), (0,))
        assert np.allclose(got, rho_a, atol=1e-12)

    def test_identity_over_first_factor(self):
        assert np.allclose(partial_trace(np.eye(4), (2, 2), (1,)), 2.0 * np.eye(2))

    def test_bell_state_marginals(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / math.sqrt(2)
        rho = np.outer(bell, bell.conj())
        for keep in ((0,), (1,)):
            assert np.allclose(partial_trace(rho, (2, 2), keep), np.eye(2) / 2)

    def test_trace_preserved_and_linear(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        b = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        dims = (2, 3, 2)
        ta = partial_trace(a, dims, (0, 2))
        assert np.trace(ta) == pytest.approx(np.trace(a), abs=1e-10)
        combo = partial_trace(2.0 * a - 1j * b, dims, (0, 2))
        assert np.allclose(combo, 2.0 * ta - 1j * partial_trace(b, dims, (0, 2)))

    def test_full_trace(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        got = partial_trace(a, (2, 3), ())
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(np.trace(a), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="does not match"):
            partial_trace(np.eye(4), (2, 3), (0,))


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(5), np.eye(5)) == pytest.approx(5.0)

    def test_traceless_pauli_product(self):
        assert hs_inner(PAULI_X, PAULI_Z) == pytest.approx(0.0, abs=1e-14)

    def test_purity(self):
        assert hs_inner(np.eye(2) / 2, np.eye(2) / 2).real == pytest.approx(0.5)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_real_for_hermitian_pair(self):
        rng = np.random.default_rng(20)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        assert abs(hs_inner(a, b).imag) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape mismatch"):
            hs_inner(np.eye(2), np.eye(3))


class TestKron:
    def test_kron_sum_spectrum_and_exponential(self):
        rng = np.random.default_rng(22)
        factors = [random_hermitian(rng, d) for d in (2, 3, 2)]
        s = kron_sum(factors)
        eye2, eye3 = np.eye(2), np.eye(3)
        want = (np.kron(np.kron(factors[0], eye3), eye2)
                + np.kron(np.kron(eye2, factors[1]), eye2)
                + np.kron(np.kron(eye2, eye3), factors[2]))
        assert np.linalg.norm(s - want) <= 1e-12
        sums = sorted(a + b + c for a in np.linalg.eigvalsh(factors[0])
                      for b in np.linalg.eigvalsh(factors[1])
                      for c in np.linalg.eigvalsh(factors[2]))
        assert np.allclose(np.linalg.eigvalsh(s), sums, atol=1e-12)
        exps = [mat_exp_hermitian(f) for f in factors]
        assert np.allclose(mat_exp_hermitian(s), np.kron(np.kron(exps[0], exps[1]), exps[2]),
                           atol=1e-10)


def test_require_hermitian_returns_symmetrized():
    h = np.array([[1.0, 1e-12j], [0.0, 2.0]])
    out = require_hermitian(h)
    assert np.allclose(out, out.conj().T)


def test_herm_eig_error_names_dimension():
    # Error paths carry the dimension for diagnostics; exercised via the
    # residual-check branch with an impossible tolerance.
    from diamondeq import tolerances

    old = tolerances.EIG_TOL
    tolerances.EIG_TOL = 1e-30
    try:
        with pytest.raises(EigendecompositionError, match="4x4"):
            herm_eig(np.diag([1.0, 2.0, 3.0, 4.0]) + 1e-3 * PAULI_X.repeat(2, 0).repeat(2, 1))
    finally:
        tolerances.EIG_TOL = old
