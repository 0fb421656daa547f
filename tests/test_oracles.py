import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondeq import ValidationError, build_instance, trace_norm
from diamondeq.oracles import (
    constant_diamond,
    diamond_lower_search,
    fmax_estimate,
    naive_equilibrium,
    random_density,
    random_state_vector,
    random_unitary,
    unitary_diamond,
)
from diamondeq.oracles import _hull_distance
from diamondeq import solve_equilibrium, MMWConfig
from tests.conftest import (
    I2,
    KET0,
    KET1,
    PAULI_Z,
    PHASE_S,
    arm_outputs,
    constant_spec,
    fidelity,
    random_kraus_pair_spec,
    unitary_instance,
    unitary_spec,
)


class TestHullDistance:
    def test_single_point(self):
        assert _hull_distance(np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_segment(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert _hull_distance(pts) == pytest.approx(1.0 / math.sqrt(2))

    def test_origin_inside(self):
        pts = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert _hull_distance(pts) == 0.0

    def test_origin_outside_polygon(self):
        pts = np.array([[1.0, 1.0], [2.0, 1.0], [1.5, 3.0]])
        assert _hull_distance(pts) == pytest.approx(math.sqrt(2.0))

    def test_degenerate_cluster(self):
        pts = np.array([[1.0, 0.0]] * 4)
        assert _hull_distance(pts) == pytest.approx(1.0)


class TestUnitaryDiamond:
    def test_equal_unitaries(self):
        assert unitary_diamond(I2, I2) == 0.0

    def test_pauli_z(self):
        assert unitary_diamond(I2, PAULI_Z) == pytest.approx(2.0)

    def test_phase_gate(self):
        assert unitary_diamond(I2, PHASE_S) == pytest.approx(math.sqrt(2.0))

    def test_small_rotation(self):
        theta = 0.05
        got = unitary_diamond(I2, np.diag([1.0, np.exp(1j * theta)]))
        assert got == pytest.approx(2.0 * math.sin(theta / 2.0), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3):
            for _ in range(10):
                val = unitary_diamond(random_unitary(rng, dim), random_unitary(rng, dim))
                assert 0.0 <= val <= 2.0 + 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="unitary"):
            unitary_diamond(np.diag([1.0, 0.5]), I2)


class TestConstantDiamond:
    def test_equal(self):
        assert constant_diamond(KET0, KET0) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert constant_diamond(KET0, KET1) == pytest.approx(2.0)

    def test_pure_vs_mixed(self):
        assert constant_diamond(KET0, np.eye(2) / 2) == pytest.approx(1.0)


class TestLowerSearch:
    def test_identical(self):
        assert diamond_lower_search(unitary_spec(I2), unitary_spec(I2), 5, 0) \
            == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_constants_found_immediately(self):
        got = diamond_lower_search(constant_spec(KET0), constant_spec(KET1), 1, 0)
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_phase_pair_converges(self):
        got = diamond_lower_search(unitary_spec(I2), unitary_spec(PHASE_S), 2000, 7)
        assert got >= math.sqrt(2.0) - 5e-2

    def test_is_lower_bound_for_unitary_family(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            u, v = random_unitary(rng, 2), random_unitary(rng, 2)
            got = diamond_lower_search(unitary_spec(u), unitary_spec(v), 100, 3)
            assert got <= unitary_diamond(u, v) + 1e-9


class TestNaiveEquilibrium:
    def test_identical(self, identity_instance):
        lb, ub = naive_equilibrium(identity_instance, iters=10, seed=0)
        assert lb >= 1.0 - 2e-2
        assert ub <= 1.0 + 1e-9
        assert lb <= ub + 1e-12

    def test_orthogonal(self, orthogonal_instance):
        lb, ub = naive_equilibrium(orthogonal_instance, iters=10, seed=0)
        assert ub <= 2e-2

    def test_phase_pair_sandwich(self, phase_instance):
        lb, ub = naive_equilibrium(phase_instance, iters=10, seed=0)
        assert ub - lb <= 0.42
        assert lb <= math.sqrt(0.5) + 1e-9
        assert ub >= 1.0 - math.sqrt(2.0) / 2.0 - 1e-9

    def test_brackets_solver_value(self, phase_instance):
        lb, ub = naive_equilibrium(phase_instance, iters=10, seed=0)
        res = solve_equilibrium(phase_instance, MMWConfig(delta=0.2))
        assert lb - (0.2 + 0.02 + 2e-2) <= res.value <= ub + (0.2 + 0.02 + 2e-2)

    def test_dimension_guard(self):
        rng = np.random.default_rng(2)
        inst = unitary_instance(random_unitary(rng, 4), random_unitary(rng, 4))
        with pytest.raises(ValidationError, match="dim"):
            naive_equilibrium(inst, iters=1, seed=0)


class TestFmaxEstimate:
    def test_identical_arms_orthogonal(self, identity_instance):
        assert fmax_estimate(identity_instance, restarts=10, seed=0) <= 2e-2

    def test_orthogonal_constants(self, orthogonal_instance):
        assert fmax_estimate(orthogonal_instance, restarts=10, seed=0) >= 2.0 - 2e-2

    def test_phase_pair(self, phase_instance):
        got = fmax_estimate(phase_instance, restarts=50, seed=0)
        assert got >= math.sqrt(2.0) - 5e-2
        assert got <= math.sqrt(2.0) + 1e-9

    def test_dimension_guard(self):
        rng = np.random.default_rng(3)
        inst = unitary_instance(random_unitary(rng, 4), random_unitary(rng, 4))
        with pytest.raises(ValidationError, match="dim"):
            fmax_estimate(inst, restarts=1, seed=0)

    def test_pointwise_fvg_upper_bound(self, phase_instance, orthogonal_instance):
        # At every evaluated input pair, the doubled fidelity of the actual
        # arm outputs respects the Fuchs-van de Graaf upper bound computed at
        # that same pair.
        rng = np.random.default_rng(4)
        for inst in (phase_instance, orthogonal_instance):
            for _ in range(20):
                rho = np.kron(random_density(rng, 2), random_density(rng, 2))
                plus, minus = arm_outputs(inst, rho)
                doubled = 2.0 * fidelity(plus, minus)
                h = 0.5 * trace_norm(plus - minus)
                assert doubled <= 2.0 * math.sqrt(max(0.0, 1.0 - h * h)) + 1e-9


class TestRandomHelpers:
    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 4)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_random_density_is_density(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 3)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho)[0] >= 0.0

    def test_random_state_vector_normalized(self):
        rng = np.random.default_rng(7)
        v = random_state_vector(rng, 5)
        assert np.linalg.norm(v) == pytest.approx(1.0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       kind=st.sampled_from(["unitary", "kraus", "padded"]))
def test_naive_bracket_crosses_solver_certificates(seed, n, kind):
    # The naive (lb, ub) and the solver's [lower_cert, upper_cert] are both
    # rigorous brackets on the same value, so each side bounds the other's.
    rng = np.random.default_rng(seed)
    if kind == "unitary":
        specs = (unitary_spec(random_unitary(rng, n)), unitary_spec(random_unitary(rng, n)))
    elif kind == "kraus":
        specs = (random_kraus_pair_spec(rng, n, 2), random_kraus_pair_spec(rng, n, 2))
    else:
        # Padded environment: z = 1 against z = 3.
        specs = (unitary_spec(random_unitary(rng, n)), random_kraus_pair_spec(rng, n, 3))
    inst = build_instance(*specs)
    lb, ub = naive_equilibrium(inst, iters=2, seed=seed)
    res = solve_equilibrium(inst, MMWConfig(delta=0.2))
    assert lb <= ub + 1e-12
    assert lb <= res.upper_cert + 1e-9
    assert res.lower_cert <= ub + 1e-9
