import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diamondeq import (
    ChannelSpec,
    ValidationError,
    build_instance,
    check_isometry,
    normalize,
)
from diamondeq import channels, partial_trace, tolerances
from diamondeq.oracles import random_density, random_unitary
from tests.conftest import I2, KET0, PAULI_X, PAULI_Z, constant_spec, unitary_spec

RESET_KRAUS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),   # |0><0|
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),   # |0><1|
)


def dilated_output(spec, rho):
    """The channel's output tr_Z(A rho A*) from its dilation A = normalize(spec)."""
    a = normalize(spec)
    m = spec.output_dim
    return partial_trace(a @ rho @ a.conj().T, (m, a.shape[0] // m), (0,))


def rotate_dilation(monkeypatch, theta):
    """Make normalize's built dilation carry the phase e^{i theta[y, x]} on
    output row y of input column x."""
    real = channels._dilation

    def rotated(spec):
        a = real(spec)
        m, n = spec.output_dim, spec.input_dim
        return (np.exp(1j * theta)[:, None, :] * a.reshape(m, -1, n)).reshape(a.shape)

    monkeypatch.setattr(channels, "_dilation", rotated)


def basis_units(n):
    for i in range(n):
        for j in range(n):
            x = np.zeros((n, n), dtype=complex)
            x[i, j] = 1.0
            yield x


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
    @pytest.mark.parametrize("kind", ["unitary", "stinespring"])
    def test_returns_the_spec_matrix(self, kind):
        rng = np.random.default_rng(12)
        if kind == "unitary":
            spec = unitary_spec(random_unitary(rng, 3))
        else:
            g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
            spec = ChannelSpec("stinespring", 3, 2, (np.linalg.qr(g)[0],))
        assert normalize(spec) is spec.matrices[0]

    def test_unitary(self):
        spec = unitary_spec(PAULI_Z)
        assert normalize(spec).shape == (2, 2)
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2)
        assert np.allclose(dilated_output(spec, rho), PAULI_Z @ rho @ PAULI_Z.conj().T)

    def test_kraus_reset(self):
        # Qubit reset: applying both Kraus terms to I/2 gives |0><0|.
        spec = ChannelSpec("kraus", 2, 2, RESET_KRAUS)
        assert normalize(spec).shape == (4, 2)
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
        assert normalize(spec).shape == (8, 2)
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
        spec = ChannelSpec("constant", n, 2, (np.diag([1.0 + 0.9e-9, 0.0]),))
        if residual is None:
            assert normalize(spec).shape == (4, 1)
            assert build_instance(spec, spec).env_dim == 2
            return
        message = ("channel isometry is not an isometry: "
                   f"||A*A - I||_F = {residual} > 1.000e-09")
        for call in (normalize, lambda s: build_instance(s, s)):
            with pytest.raises(ValidationError) as info:
                call(spec)
            assert str(info.value) == message

    @pytest.mark.parametrize("spec, theta, unit, residual", [
        (ChannelSpec("kraus", 3, 3, (np.eye(3) / math.sqrt(2),) * 2),
         np.outer([0.0, 1e-3, 0.5], np.ones(3)), "(0,1)", 2 * math.sin(1e-3 / 2)),
        (constant_spec(PLUS, input_dim=3), np.array([[0.0, 0.0, 0.0], [0.0, 1e-3, 0.5]]),
         "(1,1)", math.sqrt(2) * math.sin(1e-3 / 2)),
    ], ids=["kraus", "constant"])
    def test_deviation_names_first_unit(self, spec, theta, unit, residual, monkeypatch):
        # The phases keep the dilation an isometry but change its channel, and
        # the first failing unit in row-major order is named, not the largest.
        # kraus: the identity on n = 3 with phases phi = (0, a, b) on the
        # output rows acts as X -> D X D*, off by |1 - e^{i(phi_i - phi_j)}|
        # on unit (i, j). constant: sigma = |+><+| with phase phi_x on output
        # row 1 of column x sends E_xx to D_x sigma D_x*, off by
        # sqrt(2) sin(phi_x / 2), and the off-diagonal units to 0.
        rotate_dilation(monkeypatch, theta)
        with pytest.raises(ValidationError) as info:
            normalize(spec)
        message = str(info.value)
        prefix = f"normalized channel deviates from the {spec.kind} action on basis unit {unit}: "
        assert message.startswith(prefix + "residual ")
        assert float(message.rsplit(" ", 1)[1]) == pytest.approx(residual, rel=1e-3)

    @pytest.mark.parametrize("scale, fails", [(2.0, True), (0.5, False)])
    def test_deviation_limit_is_basis_tol(self, scale, fails, monkeypatch):
        # A phase on output row 1 puts a residual of about t = scale * BASIS_TOL
        # on the units (0, 1) and (1, 0) of the identity on n = 2 (kraus), and
        # a phase of sqrt(2) t on row 1 of column 1 puts it on the unit (1, 1)
        # of |+><+| from n = 2 (constant). The check fails exactly when t
        # exceeds BASIS_TOL.
        t = scale * tolerances.BASIS_TOL
        cases = [
            (ChannelSpec("kraus", 2, 2, (I2 / math.sqrt(2),) * 2),
             np.array([[0.0, 0.0], [t, t]]), r"\(0,1\)"),
            (constant_spec(PLUS), np.array([[0.0, 0.0], [0.0, math.sqrt(2) * t]]), r"\(1,1\)"),
        ]
        for spec, theta, unit in cases:
            with monkeypatch.context() as patch:
                rotate_dilation(patch, theta)
                if fails:
                    with pytest.raises(ValidationError, match=r"basis unit " + unit):
                        normalize(spec)
                else:
                    normalize(spec)


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


def _native_output(spec, x):
    """The spec's own action on one input matrix, as a reference."""
    if spec.kind == "constant":
        return spec.matrices[0] * np.trace(x)
    return sum(k @ x @ k.conj().T for k in spec.matrices)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["kraus", "constant"]),
       n=st.integers(1, 4), m=st.integers(1, 4), z=st.integers(1, 3), pad=st.integers(0, 2),
       eps=st.one_of(st.just(0.0), st.floats(-8.0, -4.0).map(lambda e: 10.0 ** e)))
def test_dilation_residuals_match_unit_loop(seed, kind, n, m, z, pad, eps):
    # The batched per-unit residuals of normalize's check on a built
    # dilation equal a loop of partial traces over the matrix units, on
    # padded and perturbed dilations, and both flag the same units.
    rng = np.random.default_rng(seed)
    if kind == "constant":
        spec = ChannelSpec("constant", n, m, (random_density(rng, m),))
    else:
        assume(m * z >= n)
        g = rng.standard_normal((m * z, n)) + 1j * rng.standard_normal((m * z, n))
        a = np.linalg.qr(g)[0]
        spec = ChannelSpec(kind, n, m, tuple(a.reshape(m, z, n)[:, k] for k in range(z)))
    a = normalize(spec)
    z = a.shape[0] // m
    env = z + pad
    iso = np.zeros((m, env, n), dtype=np.complex128)
    iso[:, :z] = a.reshape(m, z, n)
    iso = iso.reshape(m * env, n)
    col = rng.integers(n)
    kick = rng.standard_normal(iso.shape[0]) + 1j * rng.standard_normal(iso.shape[0])
    iso[:, col] += eps * kick / np.linalg.norm(kick)

    batched = channels._spec_residuals(spec, iso)
    loop = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            x = np.zeros((n, n), dtype=complex)
            x[i, j] = 1.0
            got = partial_trace(iso @ x @ iso.conj().T, (m, env), (0,))
            loop[i, j] = np.linalg.norm(got - _native_output(spec, x))
    np.testing.assert_allclose(batched, loop, rtol=1e-9, atol=1e-13)
    flagged = loop > tolerances.BASIS_TOL
    assert np.array_equal(batched > tolerances.BASIS_TOL, flagged)
    assert flagged.any() == (eps > 0.0)
