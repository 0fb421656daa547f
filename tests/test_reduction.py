import math
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamondeq import (
    ChannelSpec,
    ValidationError,
    best_effect,
    build_instance,
    check_isometry,
    difference_adjoint_factors,
    partial_trace,
    promise_thresholds,
    trace_norm,
)
from diamondeq import tolerances
from diamondeq.oracles import random_density, random_unitary
from tests.conftest import (
    I2,
    KET0,
    PAULI_Z,
    PHASE_S,
    SPEC_KINDS,
    arm_outputs,
    basis_units,
    channel_output,
    constant_spec,
    difference_adjoint,
    difference_output,
    random_kraus_pair_spec,
    random_specs,
    stacks,
    unitary_instance,
    unitary_spec,
)


def _pair_specs(kind):
    """A channel pair of the given kind; "stinespring" has environments
    z = 2 and 3 on n = 3, m = 2, "mixed" has z = 1 and 4."""
    rng = np.random.default_rng([3, len(kind)])
    if kind == "unitary":
        return [unitary_spec(random_unitary(rng, 3)) for _ in range(2)]
    if kind == "kraus":
        return [random_kraus_pair_spec(rng, 3, k) for k in (2, 3)]
    if kind == "constant":
        return [constant_spec(random_density(rng, 2), 3) for _ in range(2)]
    if kind == "stinespring":
        return [ChannelSpec("stinespring", 3, 2, (_random_isometry(rng, 2 * z, 3),))
                for z in (2, 3)]
    return [unitary_spec(random_unitary(rng, 2)), random_kraus_pair_spec(rng, 2, 4)]


def random_effect(rng, dim):
    """Random Hermitian with spectrum inside [0, 1]."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (g + g.conj().T)
    _, u = np.linalg.eigh(h)
    return (u * rng.uniform(0.0, 1.0, dim)) @ u.conj().T


class TestBuildInstance:
    def test_identity_pair_stacks(self, identity_instance):
        s = 1.0 / math.sqrt(2)
        plus, minus = stacks(identity_instance)
        assert np.allclose(plus, np.vstack([I2, I2]) * s)
        assert np.allclose(minus, np.vstack([I2, -I2]) * s)
        assert identity_instance.pair_dim == 4
        assert identity_instance.witness_dim == 2

    def test_explicit_z_pair(self):
        inst = unitary_instance(I2, PAULI_Z)
        s = 1.0 / math.sqrt(2)
        plus, minus = stacks(inst)
        assert np.allclose(plus, np.vstack([I2, PAULI_Z]) * s)
        assert np.allclose(minus, np.vstack([I2, -PAULI_Z]) * s)
        for stack in (plus, minus):
            residual = np.linalg.norm(stack.conj().T @ stack - np.eye(2))
            assert residual <= 1e-12

    @pytest.mark.parametrize("kind", ["unitary", "kraus", "padded", "constant"])
    def test_minus_gram_is_the_plus_gram_bit_for_bit(self, kind):
        # test_stack_identity_on_every_unit checks the plus blocks' isometry
        # residual only: the minus blocks flip the sign of both factors in the
        # A1 half of every product, which is exact, so their Gram matrix is
        # the same array.
        rng = np.random.default_rng([3, len(kind)])
        # Environments z = 2 and z = 3 for "padded": the first is zero-padded.
        shapes = {"unitary": (1, 1), "kraus": (2, 2), "padded": (2, 3)}
        if kind == "constant":
            specs = [constant_spec(random_density(rng, 2), 3) for _ in range(2)]
        else:
            specs = [random_kraus_pair_spec(rng, 3, k) for k in shapes[kind]]
        inst = build_instance(*specs)
        n = inst.input_dim
        plus, minus = (b.reshape(-1, n) for b in (inst.blocks_plus, inst.blocks_minus))
        assert np.array_equal(minus.conj().T @ minus, plus.conj().T @ plus)

    @pytest.mark.parametrize("kind", ["unitary", "kraus", "constant", "stinespring", "mixed"])
    def test_blocks_match_the_stacked_construction(self, kind):
        # The blocks are, byte for byte, those read off the stacks
        # (A0; +-A1) / sqrt(2) of the environment-padded isometries.
        specs = _pair_specs(kind)
        inst = build_instance(*specs)
        n, m, z = inst.input_dim, inst.output_dim, inst.env_dim
        padded = []
        for spec in specs:
            iso = spec.isometry
            a = np.zeros((m, z, n), dtype=np.complex128)
            a[:, : iso.shape[0] // m] = iso.reshape(m, -1, n)
            padded.append(a.reshape(m * z, n))
        s = 1.0 / math.sqrt(2.0)
        a0, a1 = padded
        for stack, blocks in ((np.vstack([a0, a1]) * s, inst.blocks_plus),
                              (np.vstack([a0, -a1]) * s, inst.blocks_minus)):
            want = np.ascontiguousarray(
                stack.reshape(2, m, z, n).transpose(0, 2, 1, 3).reshape(2 * z, m, n))
            assert blocks.shape == want.shape
            assert blocks.tobytes() == want.tobytes()

    def test_padding_preserves_each_channel_action(self):
        # A mixed pair (z = 1 and 4) pads the unitary's environment with
        # zero rows; each half of the plus stack, times sqrt(2), is still an
        # isometry dilating its own channel.
        rng = np.random.default_rng(11)
        specs = _pair_specs("mixed")
        inst = build_instance(*specs)
        m, z = inst.output_dim, inst.env_dim
        isos = [spec.isometry for spec in specs]
        assert [iso.shape[0] // m for iso in isos] + [z] == [1, 4, 4]
        halves = math.sqrt(2.0) * stacks(inst)[0].reshape(2, m * z, -1)
        for iso, a in zip(isos, halves):
            assert check_isometry(a) <= 1e-12
            for _ in range(5):
                rho = random_density(rng, 2)
                got = partial_trace(a @ rho @ a.conj().T, (m, z), (0,))
                want = partial_trace(iso @ rho @ iso.conj().T, (m, iso.shape[0] // m), (0,))
                assert np.allclose(got, want, atol=1e-12)

    def test_orthogonal_constants_build(self, orthogonal_instance):
        assert orthogonal_instance.env_dim == 4
        assert orthogonal_instance.witness_dim == 8

    def test_mixed_kind_pair_pads_environment(self):
        inst = build_instance(unitary_spec(I2), constant_spec(KET0))
        assert inst.env_dim == 4

    def test_decomposition_identity(self):
        # tr over (flag, Z) of 2 S+ X S-* equals Q0(X) - Q1(X) on every unit.
        inst = unitary_instance(I2, PHASE_S)
        n, m, z = inst.input_dim, inst.output_dim, inst.env_dim
        plus, minus = stacks(inst)
        for i in range(n):
            for j in range(n):
                x = np.zeros((n, n), dtype=complex)
                x[i, j] = 1.0
                lhs = partial_trace(2.0 * plus @ x @ minus.conj().T, (2, m, z), (1,))
                rhs = x - PHASE_S @ x @ PHASE_S.conj().T
                assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            build_instance(unitary_spec(I2), unitary_spec(np.eye(3)))


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
            value = float(np.vdot(best_effect(diff)[0], diff).real)
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
            lhs = np.vdot(effect, difference_output(inst, rho))
            rhs = np.vdot(difference_adjoint(inst, effect), rho)
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
        inst = build_instance(random_kraus_pair_spec(rng, n=3, k=2),
                              random_kraus_pair_spec(rng, n=3, k=3))
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
        plus, minus = stacks(inst)
        for stack, sigma, out, g in (
            (plus, first, out_plus, g_plus),
            (minus, second, out_minus, -neg_g_minus),
        ):
            want_out = partial_trace(stack @ sigma @ stack.conj().T, (2, m, z), (0, 2))
            assert np.linalg.norm(out - want_out) <= 1e-12
            assert np.linalg.norm(g - stack.conj().T @ lifted @ stack) <= 1e-12
        eye = np.eye(n)
        want = np.kron(g_plus, eye) + np.kron(eye, neg_g_minus)
        assert np.linalg.norm(difference_adjoint(inst, effect) - want) <= 1e-12


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


@pytest.mark.parametrize("kinds", list(combinations_with_replacement(SPEC_KINDS, 2)),
                         ids="-".join)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.integers(1, 3),
       envs=st.tuples(st.integers(1, 3), st.integers(1, 3)))
@example(seed=0, n=1, m=1, envs=(1, 3))
def test_stack_identity_on_every_unit(kinds, seed, n, m, envs):
    # The block layout makes tr_{flag,Z}(2 S+ E_ij S-*) = Q0(E_ij) - Q1(E_ij)
    # on every matrix unit, with Q_k read off the spec's own operators, for
    # pairs of every two kinds in both orders; the environments differ in
    # general, so the smaller one is zero-padded. The stacks are isometries
    # within ISO_TOL, since each spec's isometry is; the minus stack's Gram
    # matrix is the plus stack's bit for bit.
    specs = random_specs(np.random.default_rng(seed), kinds, n, m, envs)
    for q0, q1 in (specs, specs[::-1]):
        inst = build_instance(q0, q1)
        m, z = inst.output_dim, inst.env_dim
        assert check_isometry(inst.blocks_plus.reshape(-1, n)) <= tolerances.ISO_TOL
        plus, minus = stacks(inst)
        for x in basis_units(n):
            lhs = partial_trace(2.0 * plus @ x @ minus.conj().T, (2, m, z), (1,))
            rhs = channel_output(q0, x) - channel_output(q1, x)
            assert np.linalg.norm(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("call", ["build_instance", "normalize"])
def test_set_up_memory_at_n_64(call):
    # An arc pair at n = 64 and D = 1.4: U and U W with W = V diag(e^{i phi}) V*,
    # the phases spanning [0, s]. Set-up needs only the n x n operators and
    # the (2, 64, 64) blocks, about 1 MB. The bound rules out any check that
    # forms the n x n grid of per-unit outputs, which is O(n^4): 513 MB
    # here. ``normalize`` builds the pair as one-operator Kraus specs, whose
    # isometries are formed and checked at construction.
    rng = np.random.default_rng(64)
    n, s = 64, 2.0 * math.asin(0.7)
    phases = np.concatenate([[0.0, s], rng.uniform(0.0, s, n - 2)])
    v, u = random_unitary(rng, n), random_unitary(rng, n)
    pair = [unitary_spec(u), unitary_spec(u @ (v * np.exp(1j * phases)) @ v.conj().T)]
    tracemalloc.start()
    try:
        if call == "build_instance":
            build_instance(*pair)
        else:
            for spec in pair:
                ChannelSpec("kraus", n, n, spec.matrices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
