import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamondeq import (
    ChannelSpec,
    EigDecomp,
    ValidationError,
    build_instance,
    check_isometry,
)
from diamondeq import channels, partial_trace, tolerances
from diamondeq.oracles import random_density, random_unitary
from tests.conftest import (
    I2,
    KET0,
    PAULI_X,
    PAULI_Z,
    SPEC_KINDS,
    basis_units,
    channel_output,
    constant_spec,
    random_specs,
    unitary_spec,
)

RESET_KRAUS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),   # |0><0|
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),   # |0><1|
)


def dilated_output(spec, rho):
    """The channel's output tr_Z(A rho A*) from its dilation A = spec.isometry."""
    a = spec.isometry
    m = spec.output_dim
    return partial_trace(a @ rho @ a.conj().T, (m, a.shape[0] // m), (0,))


def rotate_eigenvectors(monkeypatch, theta):
    """Make the eigendecomposition of a constant target, taken when its spec
    is built, rotate its first two eigenvectors into each other by the angle
    ``theta``."""
    real = channels.herm_eig

    def rotated(h):
        dec = real(h)
        c, s = math.cos(theta), math.sin(theta)
        v = dec.eigenvectors.copy()
        v[:, :2] = v[:, :2] @ np.array([[c, -s], [s, c]])
        return EigDecomp(dec.eigenvalues, v, dec.recon, dec.unit)

    monkeypatch.setattr(channels, "herm_eig", rotated)


class TestChannelSpecValidation:
    def test_unitary_accepts(self):
        spec = unitary_spec(PAULI_Z)
        assert spec.kind == "unitary"

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="not unitary|not an isometry"):
            ChannelSpec("unitary", 2, 2, (np.array([[1.0, 0.0], [0.0, 0.5]]),))

    def test_kraus_rejects_non_trace_preserving(self):
        bad = (np.diag([1.0, 0.0]), np.array([[0.0, np.sqrt(0.9)], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="trace preserving") as err:
            ChannelSpec("kraus", 2, 2, bad)
        assert "1.000e-01" in str(err.value)

    @pytest.mark.parametrize("seed", range(6))
    def test_kraus_residual_matches_the_operator_loop(self, seed):
        # The check sums K*K as one product of the stacked operators; the
        # per-operator sum is the reference. Kicks of 0.5 to 10 ISO_TOL put
        # the residual on both sides of the gate, never within roundoff of it.
        rng = np.random.default_rng([41, seed])
        m, k = (int(v) for v in rng.integers(1, 4, size=2))
        n = int(rng.integers(1, min(3, k * m) + 1))
        g = rng.standard_normal((k * m, n)) + 1j * rng.standard_normal((k * m, n))
        ops = np.split(np.linalg.qr(g)[0], k)
        kick = rng.standard_normal((m, n))
        for scale in (0.0, 0.5, 10.0):
            step = scale * tolerances.ISO_TOL * kick / np.linalg.norm(kick)
            kicked = (ops[0] + step, *ops[1:])
            loop = float(np.linalg.norm(sum(op.conj().T @ op for op in kicked) - np.eye(n)))
            if loop <= tolerances.ISO_TOL:
                ChannelSpec("kraus", n, m, kicked)
                continue
            with pytest.raises(ValidationError, match="trace preserving") as err:
                ChannelSpec("kraus", n, m, kicked)
            assert float(str(err.value).rsplit(" ", 1)[1]) == pytest.approx(loop, rel=1e-3)

    def test_constant_requires_density(self):
        with pytest.raises(ValidationError, match="trace"):
            ChannelSpec("constant", 2, 2, (2.0 * KET0,))

    def test_stinespring_infers_env_dim(self):
        a = np.zeros((4, 2), dtype=complex)
        a[0, 0] = a[1, 1] = 1.0
        spec = ChannelSpec("stinespring", 2, 2, (a,))
        assert spec.env_dim == 2

    def test_stinespring_rejects_bad_shape(self):
        # 3 rows do not split into m = 2 output rows; 3 columns are not n = 2.
        for rows, cols in ((3, 2), (4, 3)):
            with pytest.raises(ValidationError, match="incompatible"):
                ChannelSpec("stinespring", 2, 2, (np.eye(rows)[:, :cols],))

    def test_stinespring_env_dim_crosscheck(self):
        a = np.zeros((4, 2), dtype=complex)
        a[0, 0] = a[1, 1] = 1.0
        with pytest.raises(ValidationError, match="env_dim"):
            ChannelSpec("stinespring", 2, 2, (a,), env_dim=3)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown channel kind"):
            ChannelSpec("choi", 2, 2, (I2,))


PLUS = np.full((2, 2), 0.5)  # |+><+|


class TestNormalize:
    """Normalization to the Stinespring isometry ``ChannelSpec.isometry``."""

    @pytest.mark.parametrize("kind", ["unitary", "stinespring"])
    def test_returns_the_spec_matrix(self, kind):
        rng = np.random.default_rng(12)
        if kind == "unitary":
            spec = unitary_spec(random_unitary(rng, 3))
        else:
            g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
            spec = ChannelSpec("stinespring", 3, 2, (np.linalg.qr(g)[0],))
        assert spec.isometry is spec.matrices[0]

    @pytest.mark.parametrize("kind", SPEC_KINDS)
    def test_isometry_is_read_only(self, kind):
        spec = random_specs(np.random.default_rng(13), (kind,), 2, 2, (2,))[0]
        with pytest.raises(ValueError, match="read-only"):
            spec.isometry[0, 0] = 0.0

    def test_unitary(self):
        spec = unitary_spec(PAULI_Z)
        assert spec.isometry.shape == (2, 2)
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2)
        assert np.allclose(dilated_output(spec, rho), PAULI_Z @ rho @ PAULI_Z.conj().T)

    def test_kraus_reset(self):
        # Qubit reset: applying both Kraus terms to I/2 gives |0><0|.
        spec = ChannelSpec("kraus", 2, 2, RESET_KRAUS)
        assert spec.isometry.shape == (4, 2)
        assert np.allclose(dilated_output(spec, np.eye(2) / 2), KET0, atol=1e-12)

    def test_kraus_matches_direct_application_on_basis(self):
        rng = np.random.default_rng(1)
        iso = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))[0]
        ops = tuple(iso[2 * i:2 * i + 2, :] for i in range(3))
        spec = ChannelSpec("kraus", 2, 2, ops)
        for x in basis_units(2):
            direct = sum(k @ x @ k.conj().T for k in ops)
            dilated = dilated_output(spec, x)
            assert np.linalg.norm(direct - dilated) <= 1e-9

    def test_constant_maximally_mixed(self):
        spec = constant_spec(np.eye(2) / 2)
        assert spec.isometry.shape == (8, 2)
        for i in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, i] = 1.0
            assert np.allclose(dilated_output(spec, e), np.eye(2) / 2, atol=1e-12)

    def test_constant_low_rank_target(self):
        spec = constant_spec(KET0, input_dim=3)
        rng = np.random.default_rng(2)
        assert np.allclose(dilated_output(spec, random_density(rng, 3)), KET0, atol=1e-12)

    @pytest.mark.parametrize("n, residual", [(1, None), (2, "1.273e-09"), (4, "1.800e-09")])
    def test_constant_dilation_isometry_is_checked(self, n, residual):
        # sigma = diag(1 + 0.9e-9, 0) passes the density check, but its
        # dilation has A*A = (1 + 0.9e-9) I_n, a residual of 0.9e-9 sqrt(n):
        # within ISO_TOL at n = 1 only.
        sigma = np.diag([1.0 + 0.9e-9, 0.0])
        if residual is None:
            spec = ChannelSpec("constant", n, 2, (sigma,))
            assert spec.isometry.shape == (4, 1)
            assert build_instance(spec, spec).env_dim == 2
            return
        with pytest.raises(ValidationError) as info:
            ChannelSpec("constant", n, 2, (sigma,))
        assert str(info.value) == ("channel isometry is not an isometry: "
                                   f"||A*A - I||_F = {residual} > 1.000e-09")

    def test_constant_target_off_hermitian_within_density_tol(self):
        # An antisymmetric kick of 3e-10 passes the density check, whose
        # symmetrized copy is exactly diag(0.6, 0.4). The dilation is built
        # from that copy, so it equals the exact target's; decomposed as
        # given, the kicked target would fail the eigendecomposition's
        # residual gate (about 6e-10 against 2e-10 at m = 2).
        exact = np.diag([0.6, 0.4])
        kicked = exact + 3e-10 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(constant_spec(kicked).isometry, constant_spec(exact).isometry)

    def test_constant_reconstruction_names_residual(self, monkeypatch):
        # Rotating the eigenvectors of sigma = |+><+| (eigenvalues 1 and 0)
        # by theta keeps the dilation an isometry but reconstructs
        # R sigma R*, off by sqrt(2) sin(theta) in the Frobenius norm.
        theta = 1e-3
        rotate_eigenvectors(monkeypatch, theta)
        with pytest.raises(ValidationError) as info:
            constant_spec(PLUS, input_dim=3)
        message = str(info.value)
        prefix = "constant dilation does not reproduce the target state: ||sigma^ - sigma||_F = "
        assert message.startswith(prefix) and message.endswith(" > 1.000e-09")
        residual = float(message[len(prefix):].split(" ")[0])
        assert residual == pytest.approx(math.sqrt(2) * math.sin(theta), rel=1e-3)

    @pytest.mark.parametrize("scale, fails", [(2.0, True), (0.5, False)])
    def test_constant_reconstruction_limit_is_density_tol(self, scale, fails, monkeypatch):
        # The rotation by theta with sqrt(2) sin(theta) = scale * DENSITY_TOL
        # puts that residual on the reconstruction of |+><+|; the check fails
        # exactly when it exceeds DENSITY_TOL.
        theta = math.asin(scale * tolerances.DENSITY_TOL / math.sqrt(2))
        rotate_eigenvectors(monkeypatch, theta)
        if fails:
            with pytest.raises(ValidationError, match="does not reproduce the target state"):
                constant_spec(PLUS)
        else:
            constant_spec(PLUS)


class TestApply:
    """The normalized channel's action, applied through its dilation."""

    def test_identity(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        assert np.allclose(dilated_output(unitary_spec(I2), rho), rho)

    def test_reset_constant(self):
        rng = np.random.default_rng(4)
        out = dilated_output(constant_spec(KET0), random_density(rng, 2))
        assert np.allclose(out, KET0, atol=1e-12)

    def test_depolarizing_mixture(self):
        p = 0.3
        pauli_y = np.array([[0.0, -1j], [1j, 0.0]])
        ops = (math.sqrt(1 - p) * I2, math.sqrt(p / 3) * PAULI_X,
               math.sqrt(p / 3) * pauli_y, math.sqrt(p / 3) * PAULI_Z)
        want = sum(k @ KET0 @ k.conj().T for k in ops)
        assert np.allclose(dilated_output(ChannelSpec("kraus", 2, 2, ops), KET0), want, atol=1e-12)

    def test_output_is_density(self):
        rng = np.random.default_rng(5)
        specs = [
            unitary_spec(random_unitary(rng, 2)),
            ChannelSpec("kraus", 2, 2, RESET_KRAUS),
            constant_spec(random_density(rng, 2)),
        ]
        for spec in specs:
            for _ in range(50):
                out = dilated_output(spec, random_density(rng, 2))
                assert abs(np.trace(out).real - 1.0) <= 1e-9
                assert np.linalg.eigvalsh(out)[0] >= -1e-9


class TestIsometry:
    def test_unitary_residual(self):
        rng = np.random.default_rng(9)
        assert check_isometry(random_unitary(rng, 4)) <= 1e-12

    def test_zero_matrix(self):
        assert check_isometry(np.zeros((5, 3))) == pytest.approx(math.sqrt(3))

    def test_stacked_isometries(self):
        rng = np.random.default_rng(10)
        a0, a1 = random_unitary(rng, 3), random_unitary(rng, 3)
        stacked = np.vstack([a0, a1]) / math.sqrt(2)
        assert check_isometry(stacked) <= 1e-10


@pytest.mark.parametrize("kind", SPEC_KINDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.integers(1, 3),
       z=st.integers(1, 3))
@example(seed=0, n=1, m=1, z=1)
def test_dilation_action_on_every_unit(kind, seed, n, m, z):
    # The spec's isometry reproduces the spec's own action,
    # tr_Z(A E_ij A*) = Q(E_ij), on every matrix unit, for every kind.
    spec = random_specs(np.random.default_rng(seed), (kind,), n, m, (z,))[0]
    a = spec.isometry
    m = spec.output_dim
    assert a.shape[1] == n and a.shape[0] % m == 0
    for x in basis_units(n):
        got = partial_trace(a @ x @ a.conj().T, (m, a.shape[0] // m), (0,))
        assert np.linalg.norm(got - channel_output(spec, x)) <= 1e-12
