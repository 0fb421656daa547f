import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diamondeq import (
    ReducedInstance,
    StinespringChannel,
    ValidationError,
    best_effect,
    build_instance,
    difference_adjoint_factors,
    hs_inner,
    normalize,
    partial_trace,
    promise_thresholds,
    trace_norm,
)
from diamondeq import reduction, tolerances
from diamondeq.channels import pad_env
from diamondeq.oracles import random_density
from tests.conftest import (
    I2,
    KET0,
    PAULI_Z,
    PHASE_S,
    arm_outputs,
    constant_spec,
    difference_adjoint,
    difference_output,
    random_kraus_pair_spec,
    unitary_instance,
    unitary_spec,
)


def random_effect(rng, dim):
    """Random Hermitian with spectrum inside [0, 1]."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (g + g.conj().T)
    _, u = np.linalg.eigh(h)
    return (u * rng.uniform(0.0, 1.0, dim)) @ u.conj().T


class TestBuildInstance:
    def test_identity_pair_stacks(self, identity_instance):
        s = 1.0 / math.sqrt(2)
        assert np.allclose(identity_instance.stack_plus, np.vstack([I2, I2]) * s)
        assert np.allclose(identity_instance.stack_minus, np.vstack([I2, -I2]) * s)
        assert identity_instance.pair_dim == 4
        assert identity_instance.witness_dim == 2

    def test_explicit_z_pair(self):
        inst = unitary_instance(I2, PAULI_Z)
        s = 1.0 / math.sqrt(2)
        assert np.allclose(inst.stack_plus, np.vstack([I2, PAULI_Z]) * s)
        assert np.allclose(inst.stack_minus, np.vstack([I2, -PAULI_Z]) * s)
        for stack in (inst.stack_plus, inst.stack_minus):
            residual = np.linalg.norm(stack.conj().T @ stack - np.eye(2))
            assert residual <= 1e-12

    def test_orthogonal_constants_build(self, orthogonal_instance):
        assert orthogonal_instance.env_dim == 4
        assert orthogonal_instance.witness_dim == 8

    def test_mixed_kind_pair_pads_environment(self):
        inst = build_instance(
            normalize(unitary_spec(I2)), normalize(constant_spec(KET0))
        )
        assert inst.env_dim == 4

    def test_decomposition_identity(self):
        # tr over (flag, Z) of 2 S+ X S-* equals Q0(X) - Q1(X) on every unit.
        inst = unitary_instance(I2, PHASE_S)
        n, m, z = inst.input_dim, inst.output_dim, inst.env_dim
        for i in range(n):
            for j in range(n):
                x = np.zeros((n, n), dtype=complex)
                x[i, j] = 1.0
                lhs = partial_trace(
                    2.0 * inst.stack_plus @ x @ inst.stack_minus.conj().T,
                    (2, m, z), (1,),
                )
                rhs = x - PHASE_S @ x @ PHASE_S.conj().T
                assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            build_instance(
                normalize(unitary_spec(I2)),
                normalize(unitary_spec(np.eye(3))),
            )

    def test_identity_failure_names_first_unit(self, monkeypatch):
        # Rotating the Q1 half of both stacks by D = diag(1, e^{ia}, e^{ib})
        # on Y keeps them isometries, but the stacks then decompose
        # Q0 - D Q1 D*. For the identity pair on n = 3 unit (i, j) is off by
        # |1 - e^{i(phi_i - phi_j)}|; the first failing unit in row-major
        # order is (0, 1), not the largest.
        a, b = 1e-3, 0.5
        phases = np.exp(1j * np.array([0.0, a, b]))
        ch = normalize(unitary_spec(np.eye(3)))
        vstack = np.vstack

        def rotated_vstack(blocks):
            top, bottom = blocks
            return vstack([top, phases[:, None] * bottom])

        monkeypatch.setattr(np, "vstack", rotated_vstack)
        with pytest.raises(ValidationError) as info:
            build_instance(ch, ch)
        message = str(info.value)
        prefix = "stack decomposition identity fails on basis unit (0,1): "
        assert message.startswith(prefix + "residual ")
        assert float(message.rsplit(" ", 1)[1]) == pytest.approx(2 * math.sin(a / 2), rel=1e-3)

    @pytest.mark.parametrize("scale, fails", [(2.0, True), (0.5, False)])
    def test_identity_limit_is_basis_tol(self, scale, fails, monkeypatch):
        # A phase a on one Y row of the Q1 half puts a residual of about a on
        # the units (0, 1) and (1, 0); the check fails exactly when that
        # exceeds BASIS_TOL.
        phases = np.exp(1j * np.array([0.0, scale * tolerances.BASIS_TOL]))
        ch = normalize(unitary_spec(I2))
        vstack = np.vstack
        monkeypatch.setattr(
            np, "vstack", lambda blocks: vstack([blocks[0], phases[:, None] * blocks[1]]))
        if fails:
            with pytest.raises(ValidationError, match=r"basis unit \(0,1\)"):
                build_instance(ch, ch)
        else:
            build_instance(ch, ch)


class TestDifferenceOutput:
    def test_identical_channels_value_one(self, identity_instance):
        rng = np.random.default_rng(0)
        for rho in (np.eye(4) / 4, random_density(rng, 4)):
            diff = difference_output(identity_instance, rho)
            assert trace_norm(diff) == pytest.approx(2.0, abs=1e-10)
            assert abs(np.trace(diff)) <= 1e-10

    def test_identity_pair_arms_orthogonal(self, identity_instance):
        out_plus, out_minus = arm_outputs(identity_instance, np.eye(4) / 4)
        assert np.allclose(out_plus, 0.5 * np.array([[1, 1], [1, 1]]))
        assert np.allclose(out_minus, 0.5 * np.array([[1, -1], [-1, 1]]))

    def test_depends_only_on_marginals(self, phase_instance):
        # Bell-correlated state vs maximally mixed: both have I/2 marginals.
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / math.sqrt(2)
        got_corr = difference_output(phase_instance, np.outer(bell, bell.conj()))
        got_mixed = difference_output(phase_instance, np.eye(4) / 4)
        assert np.allclose(got_corr, got_mixed, atol=1e-12)
        # Swapping correlations inside a mixture of products changes nothing.
        rng = np.random.default_rng(1)
        rho_a, rho_b, rho_c, rho_d = (random_density(rng, 2) for _ in range(4))
        straight = 0.5 * (np.kron(rho_a, rho_b) + np.kron(rho_c, rho_d))
        crossed = 0.5 * (np.kron(rho_a, rho_d) + np.kron(rho_c, rho_b))
        assert np.allclose(
            difference_output(phase_instance, straight),
            difference_output(phase_instance, crossed),
            atol=1e-12,
        )

    def test_orthogonal_constants_vanish_on_equal_marginals(self, orthogonal_instance):
        rng = np.random.default_rng(2)
        best = 1.0
        for _ in range(10):
            rho_a = random_density(rng, 2)
            diff = difference_output(orthogonal_instance, np.kron(rho_a, rho_a))
            value = float(hs_inner(best_effect(diff)[0], diff).real)
            best = min(best, value)
            assert np.linalg.norm(diff) <= 1e-10
        assert best <= 1e-10

    def test_traceless_and_unit_trace_arms(self, phase_instance):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = random_density(rng, 4)
            out_plus, out_minus = arm_outputs(phase_instance, rho)
            assert abs(np.trace(out_plus).real - 1.0) <= 1e-9
            assert abs(np.trace(out_minus).real - 1.0) <= 1e-9
            assert abs(np.trace(difference_output(phase_instance, rho))) <= 1e-10
            for arm in (out_plus, out_minus):
                assert np.linalg.eigvalsh(arm)[0] >= -1e-9

    def test_dimension_mismatch(self, identity_instance):
        with pytest.raises(ValidationError, match="shape"):
            difference_output(identity_instance, np.eye(2) / 2)


class TestDifferenceAdjoint:
    def test_zero_effect(self, phase_instance):
        out = difference_adjoint(phase_instance, np.zeros((2, 2)))
        assert np.allclose(out, np.zeros((4, 4)))

    def test_identity_effect(self, orthogonal_instance):
        # Both arms are trace preserving, so the identity effect cancels.
        d = orthogonal_instance.witness_dim
        out = difference_adjoint(orthogonal_instance, np.eye(d))
        assert np.linalg.norm(out) <= 1e-10

    @pytest.mark.parametrize("fixture", ["identity_instance", "phase_instance",
                                         "orthogonal_instance"])
    def test_duality_residual(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        rng = np.random.default_rng(4)
        for _ in range(100):
            rho = random_density(rng, inst.pair_dim)
            effect = random_effect(rng, inst.witness_dim)
            lhs = hs_inner(effect, difference_output(inst, rho))
            rhs = hs_inner(difference_adjoint(inst, effect), rho)
            assert abs(lhs - rhs) <= 1e-10

    def test_image_spectrum_bounded(self, phase_instance):
        rng = np.random.default_rng(5)
        for _ in range(50):
            effect = random_effect(rng, phase_instance.witness_dim)
            w = np.linalg.eigvalsh(difference_adjoint(phase_instance, effect))
            assert w[0] >= -1.0 - 1e-9
            assert w[-1] <= 1.0 + 1e-9

    def test_block_form_matches_lifted_stacks(self):
        # Reference formulas on the full (flag, Y, Z) space: arm outputs are
        # tr_Y(S sigma S*), adjoint factors S* (E lifted by I_Y) S.
        rng = np.random.default_rng(7)
        inst = build_instance(
            normalize(random_kraus_pair_spec(rng, n=3, k=2)),
            normalize(random_kraus_pair_spec(rng, n=3, k=3)),
        )
        n, m, z = inst.input_dim, inst.output_dim, inst.env_dim
        rho = random_density(rng, inst.pair_dim)
        first = partial_trace(rho, (n, n), (0,))
        second = partial_trace(rho, (n, n), (1,))
        effect = random_effect(rng, inst.witness_dim)
        lifted = np.einsum(
            "qkrl,ym->qykrml", effect.reshape(2, z, 2, z), np.eye(m)
        ).reshape(2 * m * z, 2 * m * z)
        out_plus, out_minus = arm_outputs(inst, rho)
        g_plus, neg_g_minus = difference_adjoint_factors(inst, effect)
        for stack, sigma, out, g in (
            (inst.stack_plus, first, out_plus, g_plus),
            (inst.stack_minus, second, out_minus, -neg_g_minus),
        ):
            want_out = partial_trace(stack @ sigma @ stack.conj().T, (2, m, z), (0, 2))
            assert np.linalg.norm(out - want_out) <= 1e-12
            assert np.linalg.norm(g - stack.conj().T @ lifted @ stack) <= 1e-12
        eye = np.eye(n)
        want = np.kron(g_plus, eye) + np.kron(eye, neg_g_minus)
        assert np.linalg.norm(difference_adjoint(inst, effect) - want) <= 1e-12

    def test_rejects_out_of_bounds_effect(self, phase_instance):
        with pytest.raises(ValidationError, match="outside"):
            difference_adjoint(phase_instance, 1.5 * np.eye(2))


class TestThresholds:
    def test_paper_scale_promise(self):
        upper_far, lower_close = promise_thresholds(1.9, 0.1)
        assert upper_far == pytest.approx(math.sqrt(4 - 1.9 ** 2) / 2)
        assert upper_far == pytest.approx(0.31225, abs=5e-6)
        assert lower_close == pytest.approx(0.95)

    def test_extreme_promise(self):
        assert promise_thresholds(2.0, 0.0) == (0.0, 1.0)

    def test_intermediate_promise(self):
        upper_far, lower_close = promise_thresholds(1.5, 0.5)
        assert upper_far == pytest.approx(math.sqrt(1.75) / 2)
        assert lower_close == pytest.approx(0.75)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.5, 0.7), (2.1, 0.1), (1.0, -0.1)])
    def test_ordering_violations(self, a, b):
        with pytest.raises(ValidationError, match="promise"):
            promise_thresholds(a, b)


def test_constant_pair_difference_is_rank_structured(orthogonal_instance):
    # For orthogonal constant targets the difference splits over the flag
    # blocks and is driven purely by the marginal difference.
    rng = np.random.default_rng(6)
    rho_a, rho_b = random_density(rng, 2), random_density(rng, 2)
    diff = difference_output(orthogonal_instance, np.kron(rho_a, rho_b))
    assert trace_norm(diff) == pytest.approx(trace_norm(rho_a - rho_b), abs=1e-10)


def _random_isometry(rng, rows, cols):
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(g)[0]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.integers(1, 3),
       z0=st.integers(1, 3), z1=st.integers(1, 3), which=st.sampled_from([0, 1]),
       eps=st.one_of(st.just(0.0), st.floats(-8.0, -4.0).map(lambda e: 10.0 ** e)))
def test_stack_residuals_match_unit_loop(seed, n, m, z0, z1, which, eps):
    # The batched per-unit residuals of build_instance's check equal a loop
    # of partial traces over the matrix units, on padded environments and
    # perturbed stacks, and both flag the same units.
    assume(m * min(z0, z1) >= n)
    rng = np.random.default_rng(seed)
    ch0 = StinespringChannel(_random_isometry(rng, m * z0, n), n, m, z0)
    ch1 = StinespringChannel(_random_isometry(rng, m * z1, n), n, m, z1)
    inst = build_instance(ch0, ch1)
    z = inst.env_dim
    a0, a1 = pad_env(ch0, z).isometry, pad_env(ch1, z).isometry
    stacks = [inst.stack_plus.copy(), inst.stack_minus.copy()]
    col = rng.integers(n)
    kick = rng.standard_normal(2 * m * z) + 1j * rng.standard_normal(2 * m * z)
    stacks[which][:, col] += eps * kick / np.linalg.norm(kick)
    plus, minus = stacks

    batched = reduction._stack_residuals(ReducedInstance(plus, minus, n, m, z), a0, a1)
    loop = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            x = np.zeros((n, n), dtype=complex)
            x[i, j] = 1.0
            lhs = partial_trace(2.0 * plus @ x @ minus.conj().T, (2, m, z), (1,))
            rhs = (partial_trace(a0 @ x @ a0.conj().T, (m, z), (0,))
                   - partial_trace(a1 @ x @ a1.conj().T, (m, z), (0,)))
            loop[i, j] = np.linalg.norm(lhs - rhs)
    np.testing.assert_allclose(batched, loop, rtol=1e-9, atol=1e-13)
    flagged = loop > tolerances.BASIS_TOL
    assert np.array_equal(batched > tolerances.BASIS_TOL, flagged)
    assert flagged.any() == (eps > 0.0)
