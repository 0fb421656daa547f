import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diamondeq import (
    ChannelSpec,
    StinespringChannel,
    ValidationError,
    apply,
    check_isometry,
    normalize,
)
from diamondeq import channels, partial_trace, tolerances
from diamondeq.channels import pad_env
from diamondeq.oracles import random_density, random_unitary
from tests.conftest import I2, KET0, PAULI_X, PAULI_Z, constant_spec, unitary_spec

RESET_KRAUS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),   # |0><0|
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),   # |0><1|
)


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

    def test_constant_requires_density(self):
        with pytest.raises(ValidationError, match="trace"):
            ChannelSpec("constant", 2, 2, (2.0 * KET0,))

    def test_stinespring_infers_env_dim(self):
        a = np.zeros((4, 2), dtype=complex)
        a[0, 0] = a[1, 1] = 1.0
        spec = ChannelSpec("stinespring", 2, 2, (a,))
        assert spec.env_dim == 2

    def test_stinespring_env_dim_crosscheck(self):
        a = np.zeros((4, 2), dtype=complex)
        a[0, 0] = a[1, 1] = 1.0
        with pytest.raises(ValidationError, match="env_dim"):
            ChannelSpec("stinespring", 2, 2, (a,), env_dim=3)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown channel kind"):
            ChannelSpec("choi", 2, 2, (I2,))


class TestNormalize:
    def test_unitary(self):
        ch = normalize(unitary_spec(PAULI_Z))
        assert ch.env_dim == 1
        assert np.allclose(ch.isometry, PAULI_Z)
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2)
        assert np.allclose(apply(ch, rho), PAULI_Z @ rho @ PAULI_Z.conj().T)

    def test_kraus_reset(self):
        # Qubit reset: applying both Kraus terms to I/2 gives |0><0|.
        ch = normalize(ChannelSpec("kraus", 2, 2, RESET_KRAUS))
        assert ch.env_dim == 2
        assert np.allclose(apply(ch, np.eye(2) / 2), KET0, atol=1e-12)

    def test_kraus_matches_direct_application_on_basis(self):
        rng = np.random.default_rng(1)
        iso = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))[0]
        ops = tuple(iso[2 * i:2 * i + 2, :] for i in range(3))
        spec = ChannelSpec("kraus", 2, 2, ops)
        ch = normalize(spec)
        a = ch.isometry
        from diamondeq import partial_trace

        for x in basis_units(2):
            direct = sum(k @ x @ k.conj().T for k in ops)
            dilated = partial_trace(a @ x @ a.conj().T, (2, ch.env_dim), (0,))
            assert np.linalg.norm(direct - dilated) <= 1e-9

    def test_constant_maximally_mixed(self):
        ch = normalize(constant_spec(np.eye(2) / 2))
        assert ch.env_dim == 4
        for i in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, i] = 1.0
            assert np.allclose(apply(ch, e), np.eye(2) / 2, atol=1e-12)

    def test_constant_low_rank_target(self):
        ch = normalize(constant_spec(KET0, input_dim=3))
        rng = np.random.default_rng(2)
        assert np.allclose(apply(ch, random_density(rng, 3)), KET0, atol=1e-12)

    @pytest.mark.parametrize("spec", [
        unitary_spec(np.eye(3)),
        ChannelSpec("kraus", 3, 3, (np.eye(3) / math.sqrt(2), np.eye(3) / math.sqrt(2))),
        ChannelSpec("stinespring", 3, 3, (np.kron(np.eye(3), np.ones((2, 1)) / math.sqrt(2)),)),
    ], ids=["unitary", "kraus", "stinespring"])
    def test_deviation_names_first_unit(self, spec, monkeypatch):
        # Each spec is the identity channel on n = 3. A dilation rotated by
        # D = diag(1, e^{ia}, e^{ib}) on Y is still an isometry but acts as
        # X -> D X D*, off by |1 - e^{i(phi_i - phi_j)}| on unit (i, j). The
        # first failing unit in row-major order is (0, 1), not the largest.
        a, b = 1e-3, 0.5
        phases = np.exp(1j * np.array([0.0, a, b]))
        real = channels.StinespringChannel

        def rotated(iso, n, m, z):
            return real(np.repeat(phases, z)[:, None] * iso, n, m, z)

        monkeypatch.setattr(channels, "StinespringChannel", rotated)
        with pytest.raises(ValidationError) as info:
            normalize(spec)
        message = str(info.value)
        prefix = f"normalized channel deviates from the {spec.kind} action on basis unit (0,1): "
        assert message.startswith(prefix + "residual ")
        assert float(message.rsplit(" ", 1)[1]) == pytest.approx(2 * math.sin(a / 2), rel=1e-3)

    @pytest.mark.parametrize("scale, fails", [(2.0, True), (0.5, False)])
    def test_deviation_limit_is_basis_tol(self, scale, fails, monkeypatch):
        # A phase a on one output row puts a residual of about a on the units
        # (0, 1) and (1, 0); the check fails exactly when that exceeds BASIS_TOL.
        phases = np.exp(1j * np.array([0.0, scale * tolerances.BASIS_TOL]))
        real = channels.StinespringChannel
        monkeypatch.setattr(channels, "StinespringChannel",
                            lambda iso, n, m, z: real(phases[:, None] * iso, n, m, z))
        if fails:
            with pytest.raises(ValidationError, match=r"basis unit \(0,1\)"):
                normalize(unitary_spec(I2))
        else:
            normalize(unitary_spec(I2))


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(3)
        ch = normalize(unitary_spec(I2))
        rho = random_density(rng, 2)
        assert np.allclose(apply(ch, rho), rho)

    def test_reset_constant(self):
        ch = normalize(constant_spec(KET0))
        rng = np.random.default_rng(4)
        assert np.allclose(apply(ch, random_density(rng, 2)), KET0, atol=1e-12)

    def test_depolarizing_mixture(self):
        p = 0.3
        pauli_y = np.array([[0.0, -1j], [1j, 0.0]])
        ops = (math.sqrt(1 - p) * I2, math.sqrt(p / 3) * PAULI_X,
               math.sqrt(p / 3) * pauli_y, math.sqrt(p / 3) * PAULI_Z)
        ch = normalize(ChannelSpec("kraus", 2, 2, ops))
        want = sum(k @ KET0 @ k.conj().T for k in ops)
        assert np.allclose(apply(ch, KET0), want, atol=1e-12)

    def test_output_is_density(self):
        rng = np.random.default_rng(5)
        specs = [
            unitary_spec(random_unitary(rng, 2)),
            ChannelSpec("kraus", 2, 2, RESET_KRAUS),
            constant_spec(random_density(rng, 2)),
        ]
        for spec in specs:
            ch = normalize(spec)
            for _ in range(50):
                out = apply(ch, random_density(rng, 2))
                assert abs(np.trace(out).real - 1.0) <= 1e-9
                assert np.linalg.eigvalsh(out)[0] >= -1e-9

    def test_rejects_non_density(self):
        ch = normalize(unitary_spec(I2))
        with pytest.raises(ValidationError, match="trace"):
            apply(ch, 2.0 * np.eye(2))

    def test_dimension_mismatch(self):
        ch = normalize(unitary_spec(I2))
        with pytest.raises(ValidationError):
            apply(ch, np.eye(3) / 3)


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


def test_pad_env_preserves_action():
    rng = np.random.default_rng(11)
    ch = normalize(ChannelSpec("kraus", 2, 2, RESET_KRAUS))
    padded = pad_env(ch, 5)
    assert padded.env_dim == 5
    assert check_isometry(padded.isometry) <= 1e-12
    for _ in range(5):
        rho = random_density(rng, 2)
        assert np.allclose(apply(ch, rho), apply(padded, rho), atol=1e-12)


def test_pad_env_rejects_shrinking():
    ch = normalize(ChannelSpec("kraus", 2, 2, RESET_KRAUS))
    with pytest.raises(ValidationError, match="shrink"):
        pad_env(ch, 1)


def test_stinespring_channel_rejects_bad_shape():
    with pytest.raises(ValidationError, match="shape"):
        StinespringChannel(np.eye(2), 2, 2, 2)


def _native_output(spec, x):
    """The spec's own action on one input matrix, as a reference."""
    if spec.kind == "constant":
        return spec.matrices[0] * np.trace(x)
    if spec.kind == "stinespring":
        a = spec.matrices[0]
        return partial_trace(a @ x @ a.conj().T, (spec.output_dim, spec.env_dim), (0,))
    return sum(k @ x @ k.conj().T for k in spec.matrices)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["stinespring", "kraus", "unitary", "constant"]),
       n=st.integers(1, 4), m=st.integers(1, 4), z=st.integers(1, 3), pad=st.integers(0, 2),
       eps=st.one_of(st.just(0.0), st.floats(-8.0, -4.0).map(lambda e: 10.0 ** e)))
def test_dilation_residuals_match_unit_loop(seed, kind, n, m, z, pad, eps):
    # The batched per-unit residuals of normalize's check equal a loop of
    # partial traces over the matrix units, on padded and perturbed
    # dilations, and both flag the same units.
    rng = np.random.default_rng(seed)
    if kind == "unitary":
        spec = unitary_spec(random_unitary(rng, n))
        m = n
    elif kind == "constant":
        spec = ChannelSpec("constant", n, m, (random_density(rng, m),))
    else:
        assume(m * z >= n)
        g = rng.standard_normal((m * z, n)) + 1j * rng.standard_normal((m * z, n))
        a = np.linalg.qr(g)[0]
        mats = (a,) if kind == "stinespring" else tuple(a.reshape(m, z, n)[:, k] for k in range(z))
        spec = ChannelSpec(kind, n, m, mats)
    ch = normalize(spec)
    ch = pad_env(ch, ch.env_dim + pad)
    iso = ch.isometry.copy()
    col = rng.integers(n)
    kick = rng.standard_normal(iso.shape[0]) + 1j * rng.standard_normal(iso.shape[0])
    iso[:, col] += eps * kick / np.linalg.norm(kick)

    batched = channels._spec_residuals(spec, iso)
    loop = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            x = np.zeros((n, n), dtype=complex)
            x[i, j] = 1.0
            got = partial_trace(iso @ x @ iso.conj().T, (m, ch.env_dim), (0,))
            loop[i, j] = np.linalg.norm(got - _native_output(spec, x))
    np.testing.assert_allclose(batched, loop, rtol=1e-9, atol=1e-13)
    flagged = loop > tolerances.BASIS_TOL
    assert np.array_equal(batched > tolerances.BASIS_TOL, flagged)
    assert flagged.any() == (eps > 0.0)
