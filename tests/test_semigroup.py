import numpy as np
import pytest

from dilatio.channels import (
    identity_channel,
    random_channel,
    superoperator_matrix,
    unitary_channel,
)
from dilatio.errors import HorizonError, MemoryGuardError
from dilatio.fixtures import amplitude_damping, haar_unitary
from dilatio.linalg import basis_state, matrix_units, trace_distance, trace_norm
from dilatio.semigroup import (
    build_semigroup_dilation,
    evolve,
    heisenberg_evolve,
    shift_marginal,
    verify_dilation,
)

from dilatio.register import BlockPermutation, RegisterDilation

from helpers import (
    dense,
    kraus_apply,
    kraus_apply_dual,
    omega,
    partial_trace,
    random_density,
    random_matrix,
)


class TestBuild:
    def test_identity_channel_exact(self):
        ch = identity_channel(2)
        bundle = build_semigroup_dilation(ch, 5)
        report = verify_dilation(bundle, ch, tol=1e-12)
        assert report.passed

    def test_unitary_conjugation(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(2, rng)
        ch = unitary_channel(u)
        bundle = build_semigroup_dilation(ch, 4)
        rho = random_density(2, rng)
        for n in range(5):
            expected = np.linalg.matrix_power(u, n) @ rho @ np.linalg.matrix_power(u, n).conj().T
            assert trace_distance(evolve(bundle, rho, n), expected) <= 1e-10

    def test_amplitude_damping_horizon_six(self):
        ch = amplitude_damping(0.5)
        bundle = build_semigroup_dilation(ch, 6)
        assert bundle.shape == (2, 4, 7)
        assert bundle.horizon == 6
        report = verify_dilation(bundle, ch, tol=1e-9)
        assert report.passed
        assert len(report.residuals) == 7

    @pytest.mark.parametrize("gamma, horizon", [(1e-11, 10), (1e-11, 30), (1e-12, 10)])
    def test_weak_damping_dilates_and_verifies(self, gamma, horizon):
        # a certified channel whose powers have Choi eigenvalues near
        # 1e-11 of the largest: dropping them would leave the cell blocks
        # short of unitary or the powers short of trace preserving
        ch = amplitude_damping(gamma)
        report = verify_dilation(build_semigroup_dilation(ch, horizon), ch, tol=1e-9)
        assert report.passed and max(report.residuals) <= 1e-13

    def test_intermediate_state_identity(self):
        # V^n (A (x) omega) V^dag^n == U_n (A (x) omega~) U_n^dag (x) |e_n><e_n|,
        # U_n the build's dilation of T^n
        from dilatio.linalg import kron
        from dilatio.register import word_unitaries

        ch = amplitude_damping(0.3)
        bundle = build_semigroup_dilation(ch, 4)
        table = word_unitaries([ch], 4)
        rng = np.random.default_rng(1)
        a = random_matrix(2, rng)
        inner_omega = basis_state(0, 4)
        for n in range(5):
            vn = np.linalg.matrix_power(dense(bundle.forms[0]), n)
            lhs = vn @ kron(a, omega(bundle)) @ vn.conj().T
            step = table[n]  # the identity at n = 0
            rhs = kron(step @ kron(a, inner_omega) @ step.conj().T, basis_state(n, 5))
            assert trace_norm(lhs - rhs) <= 1e-9

    def test_horizon_eight(self):
        ch = random_channel(2, rank=4, seed=88)
        bundle = build_semigroup_dilation(ch, 8)
        assert bundle.shape == (2, 4, 9)
        assert verify_dilation(bundle, ch, tol=1e-9).passed

    def test_memory_guard(self):
        with pytest.raises(MemoryGuardError):
            build_semigroup_dilation(identity_channel(3), 200)
        # override succeeds where the default refuses
        bundle = build_semigroup_dilation(identity_channel(2), 2, max_total_dim=10**9)
        assert bundle.horizon == 2

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            build_semigroup_dilation(identity_channel(2), 0)


class TestEvolve:
    def test_zero_steps_is_identity(self):
        bundle = build_semigroup_dilation(amplitude_damping(0.2), 3)
        rng = np.random.default_rng(2)
        rho = random_density(2, rng)
        np.testing.assert_allclose(evolve(bundle, rho, 0), rho, atol=1e-12)

    def test_identity_channel_is_stationary(self):
        bundle = build_semigroup_dilation(identity_channel(2), 4)
        rng = np.random.default_rng(3)
        rho = random_density(2, rng)
        for n in range(5):
            assert trace_distance(evolve(bundle, rho, n), rho) <= 1e-11

    def test_qutrit_channel_against_kraus_power(self):
        ch = random_channel(3, rank=2, seed=4)
        bundle = build_semigroup_dilation(ch, 5)
        rng = np.random.default_rng(5)
        rho = random_density(3, rng)
        expected = rho
        for _ in range(5):
            expected = kraus_apply(ch.kraus, expected)
        assert trace_distance(evolve(bundle, rho, 5), expected) <= 1e-9

    def test_trace_preserved(self):
        bundle = build_semigroup_dilation(amplitude_damping(0.4), 5)
        rng = np.random.default_rng(6)
        rho = random_density(2, rng)
        for n in range(6):
            assert np.trace(evolve(bundle, rho, n)).real == pytest.approx(1.0, abs=1e-10)

    def test_horizon_enforced(self):
        bundle = build_semigroup_dilation(amplitude_damping(0.2), 2)
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(HorizonError):
            evolve(bundle, rho, 3)
        with pytest.raises(HorizonError):
            evolve(bundle, rho, -1)


class TestVerify:
    def test_fresh_bundle_passes(self):
        ch = random_channel(2, rank=3, seed=7)
        bundle = build_semigroup_dilation(ch, 5)
        assert verify_dilation(bundle, ch, tol=1e-9).passed

    def test_negative_control_identity_operator(self):
        ch = amplitude_damping(0.5)
        good = build_semigroup_dilation(ch, 3)
        cells, b = good.forms[0].blocks.shape[:2]
        eye = BlockPermutation(np.arange(cells), np.broadcast_to(np.eye(b), (cells, b, b)))
        sabotaged = RegisterDilation(
            "semigroup", good.dim, good.ancilla_dim, good.registers, (eye,), good.psi
        )
        report = verify_dilation(sabotaged, ch, tol=1e-9)
        assert not report.passed
        assert report.residuals[0] <= 1e-12  # n = 0 still fine
        assert max(report.residuals[1:]) > 1e-3

    def test_wrong_channel_fails(self):
        bundle = build_semigroup_dilation(amplitude_damping(0.5), 3)
        report = verify_dilation(bundle, amplitude_damping(0.1), tol=1e-9)
        assert not report.passed

    def test_dimension_mismatch(self):
        bundle = build_semigroup_dilation(amplitude_damping(0.5), 2)
        with pytest.raises(ValueError):
            verify_dilation(bundle, identity_channel(3))

    def test_residual_grows_at_most_linearly(self):
        # each word's isometry is made exact before it is completed, so the
        # rounding of the words' families does not compound: without that
        # step the largest residual was 1.6e-13 at N=64 and 1.03e-11 at N=511.
        # N=64 sits at the rounding floor, so linear growth is stated as a
        # bound n * 5.1e-16 (at 511, 8 times the 3.3e-14 once read at 64)
        ch = random_channel(2, rank=4, seed=1)
        largest = {
            n: verify_dilation(build_semigroup_dilation(ch, n, 10**9), ch).max_residual
            for n in (64, 511, 2047)
        }
        assert largest[511] < 1e-12
        for n, residual in largest.items():
            assert residual <= n * 5.1e-16, n


class TestShiftMarginal:
    def test_walker_stays_sharp(self):
        ch = random_channel(2, rank=2, seed=8)
        bundle = build_semigroup_dilation(ch, 5)
        rng = np.random.default_rng(9)
        rho = random_density(2, rng)
        for n in range(6):
            marginal = shift_marginal(bundle, rho, n)
            assert trace_norm(marginal - basis_state(n, 6)) <= 1e-9


class TestHeisenbergEvolve:
    def test_identity_observable(self):
        bundle = build_semigroup_dilation(amplitude_damping(0.3), 4)
        for n in range(5):
            out = heisenberg_evolve(bundle, np.eye(2, dtype=complex), n)
            np.testing.assert_allclose(out, np.eye(2), atol=1e-10)

    def test_zero_steps(self):
        bundle = build_semigroup_dilation(amplitude_damping(0.3), 3)
        rng = np.random.default_rng(10)
        b = random_matrix(2, rng)
        np.testing.assert_allclose(heisenberg_evolve(bundle, b, 0), b, atol=1e-12)

    def test_matches_dual_kraus_powers(self):
        ch = random_channel(2, rank=3, seed=11)
        bundle = build_semigroup_dilation(ch, 5)
        rng = np.random.default_rng(12)
        b = random_matrix(2, rng)
        expected = b
        for n in range(6):
            assert trace_norm(heisenberg_evolve(bundle, b, n) - expected) <= 1e-9
            expected = kraus_apply_dual(ch.kraus, expected)

    def test_pairing_with_schroedinger_evolution(self):
        ch = random_channel(2, rank=2, seed=13)
        bundle = build_semigroup_dilation(ch, 4)
        rng = np.random.default_rng(14)
        for n in (0, 2, 4):
            rho = random_density(2, rng)
            b = random_matrix(2, rng)
            lhs = np.trace(b @ evolve(bundle, rho, n))
            rhs = np.trace(heisenberg_evolve(bundle, b, n) @ rho)
            assert abs(lhs - rhs) <= 1e-9

    def test_horizon_enforced(self):
        bundle = build_semigroup_dilation(amplitude_damping(0.2), 2)
        with pytest.raises(HorizonError):
            heisenberg_evolve(bundle, np.eye(2, dtype=complex), 5)


def test_verify_against_superoperator_is_independent_of_kraus_path():
    # the verification oracle is a plain matrix power of M(T)
    ch = random_channel(2, rank=4, seed=15)
    m = superoperator_matrix(ch)
    bundle = build_semigroup_dilation(ch, 4)
    for e in matrix_units(2):
        expected = np.linalg.matrix_power(m, 4) @ e.flatten(order="F")
        got = evolve_like(bundle, e, 4)
        assert np.abs(got.flatten(order="F") - expected).max() <= 1e-9


def evolve_like(bundle, operator, n):
    """Evolve an arbitrary operator (not just a state) through the bundle."""
    vn = np.linalg.matrix_power(dense(bundle.forms[0]), n)
    big = vn @ np.kron(operator, omega(bundle)) @ vn.conj().T
    return partial_trace(big, list(bundle.shape), keep=0)
