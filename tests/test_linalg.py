import warnings

import numpy as np
import pytest

from dilatio.linalg import (
    complete_isometry_to_unitary,
    is_psd,
    is_pure_state,
    check_density_matrix,
    kron,
    matrix_units,
    trace,
    trace_norm,
)

from helpers import partial_trace, random_density, random_hermitian, random_isometry, random_matrix


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(3)) == pytest.approx(3.0)

    def test_traceless_pauli_x(self):
        assert trace(np.array([[0, 1], [1, 0]])) == pytest.approx(0.0)

    def test_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            h = random_hermitian(4, rng)
            assert trace(h) == pytest.approx(np.linalg.eigvalsh(h).sum(), abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            trace(np.zeros((2, 3)))


class TestTraceNorm:
    def test_density_matrix_is_one(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4):
            assert trace_norm(random_density(dim, rng)) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_nilpotent_from_svd_oracle(self):
        a = np.array([[0, 2], [0, 0]], dtype=complex)
        # singular values are the square roots of eig(A^dag A) = {0, 4}
        oracle = np.sqrt(np.linalg.eigvalsh(a.conj().T @ a)).sum()
        assert oracle == pytest.approx(2.0)
        assert trace_norm(a) == pytest.approx(2.0, abs=1e-12)

    def test_dominates_trace_with_equality_on_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_matrix(3, rng)
            assert trace_norm(g) >= abs(trace(g)) - 1e-12
            psd = g.conj().T @ g
            assert trace_norm(psd) == pytest.approx(trace(psd).real, abs=1e-10)


class TestKron:
    def test_identity_factors(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(7)
        rho, omega = random_density(2, rng), random_density(3, rng)
        assert trace(kron(rho, omega)) == pytest.approx(trace(rho) * trace(omega), abs=1e-12)

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b, c, d = (random_matrix(2, rng) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_associative_exactly_on_integer_entries(self):
        # products of small integers are exact in binary floating point
        rng = np.random.default_rng(9)
        ints = lambda: (
            rng.integers(-3, 4, size=(2, 2)) + 1j * rng.integers(-3, 4, size=(2, 2))
        ).astype(complex)
        for _ in range(10):
            a, b, c = ints(), ints(), ints()
            np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


class TestPartialTrace:
    """The dense reference of tests/helpers.py; the library has none."""

    def test_product_state_marginal(self):
        rng = np.random.default_rng(10)
        rho, omega = random_density(2, rng), random_density(3, rng)
        out = partial_trace(kron(rho, omega), [2, 3], keep=0)
        np.testing.assert_allclose(out, rho, atol=1e-13)

    def test_composition_over_a_tensor_pair(self):
        # tracing two factors at once equals tracing them one at a time
        rng = np.random.default_rng(11)
        rho = random_density(2 * 3 * 4, rng)
        joint = partial_trace(rho, [2, 3, 4], keep=0)
        last_first = partial_trace(rho, [2, 3, 4], keep=(0, 1))
        nested = partial_trace(last_first, [2, 3], keep=0)
        np.testing.assert_allclose(joint, nested, atol=1e-13)

    def test_adjoint_identity_random_tests(self):
        rng = np.random.default_rng(12)
        a = random_matrix(6, rng)
        reduced = partial_trace(a, [2, 3], keep=0)
        eye = np.eye(3)
        for _ in range(20):
            b = random_matrix(2, rng)
            lhs = np.trace(b @ reduced)
            rhs = np.trace(kron(b, eye) @ a)
            assert abs(lhs - rhs) <= 1e-12

    def test_keep_second_factor(self):
        rng = np.random.default_rng(13)
        rho, omega = random_density(2, rng), random_density(3, rng)
        out = partial_trace(kron(rho, omega), [2, 3], keep=1)
        np.testing.assert_allclose(out, omega, atol=1e-13)


class TestPsd:
    def test_identity(self):
        assert is_psd(np.eye(4))

    def test_indefinite_diagonal(self):
        assert not is_psd(np.diag([1.0, -1.0]))

    def test_gram_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_matrix(3, rng)
            assert is_psd(g.conj().T @ g)

    def test_non_hermitian_is_false(self):
        assert not is_psd(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_overflowing_hermitian_part_is_false_without_a_warning(self):
        # 1e308 + 1e308 overflows: the check reports False, not numpy's warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_psd(np.diag([1e308, 1e308]))


class TestStates:
    def test_check_density_matrix(self):
        rng = np.random.default_rng(18)
        rho = random_density(3, rng)
        np.testing.assert_array_equal(check_density_matrix(rho), rho)
        with pytest.raises(ValueError):
            check_density_matrix(2 * rho)
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([1.5, -0.5]))

    def test_purity(self):
        assert is_pure_state(np.diag([1.0, 0.0]))
        assert not is_pure_state(np.diag([0.5, 0.5]))

    @pytest.mark.parametrize("weight, pure", [
        (0.0, True), (0.3, False), (0.9e-10, True), (1.1e-10, False),
    ])
    def test_purity_takes_one_eigendecomposition(self, monkeypatch, weight, pure):
        # (1 - w)|a><a| + w|b><b| in a random basis: the second eigenvalue is
        # w, so the weights around 1e-10 sit just inside and outside the bound
        q, _ = np.linalg.qr(random_matrix(4, np.random.default_rng(19)))
        rho = q @ np.diag([1 - weight, weight, 0.0, 0.0]) @ q.conj().T
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        assert is_pure_state(rho) is pure
        assert len(calls) == 1


def matrix_and_stack(rows, cols, seed):
    """A random isometry, and a (3, rows, cols) stack of them: each case of
    the completion runs on both."""
    rng = np.random.default_rng(seed)
    return [random_isometry(rows, cols, rng),
            np.stack([random_isometry(rows, cols, rng) for _ in range(3)])]


class TestUnitaryCompletion:
    def test_square_unitary_passes_through(self):
        for u in matrix_and_stack(4, 4, 19):
            np.testing.assert_array_equal(complete_isometry_to_unitary(u), u)

    def test_first_identity_column(self):
        v = np.eye(2, 1, dtype=complex)
        np.testing.assert_array_equal(complete_isometry_to_unitary(v), np.eye(2))
        completed = complete_isometry_to_unitary(np.tile(v, (3, 1, 1)))
        np.testing.assert_array_equal(completed, np.tile(np.eye(2), (3, 1, 1)))

    def test_random_tall_isometry(self):
        for v in matrix_and_stack(8, 2, 20):
            u = complete_isometry_to_unitary(v)
            assert np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(8)) <= 1e-10
            np.testing.assert_array_equal(u[..., :2], v)  # bit for bit
        for w in range(3):  # each member of a stack is completed as it would be alone
            np.testing.assert_array_equal(u[w], complete_isometry_to_unitary(v[w]))

    def test_completion_is_deterministic(self):
        for v in matrix_and_stack(6, 3, 21):
            np.testing.assert_array_equal(
                complete_isometry_to_unitary(v), complete_isometry_to_unitary(v.copy())
            )

    def test_rejects_non_orthonormal(self):
        bad = np.ones((3, 2))
        good = random_isometry(3, 2, np.random.default_rng(22))
        for v in (bad, np.stack([good, bad, good])):  # one bad member spoils a stack
            with pytest.raises(ValueError):
                complete_isometry_to_unitary(v)


def test_matrix_units_form_a_basis():
    units = matrix_units(3)
    assert len(units) == 9
    assert sum(np.abs(e).sum() for e in units) == 9
