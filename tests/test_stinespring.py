import numpy as np
import pytest

from dilatio import channels, linalg, register, stinespring
from dilatio.channels import (
    KrausChannel,
    dual,
    identity_channel,
    random_channel,
    unitary_channel,
)
from dilatio.errors import RejectedChannelError
from dilatio.fixtures import amplitude_damping, haar_unitary, transpose_channel
from dilatio.linalg import basis_state, kron, matrix_units, trace_norm
from dilatio.stinespring import (
    GeneralDilation,
    UnitaryDilation,
    general_stinespring,
    heisenberg_dilation,
    stinespring_unitary,
)

from helpers import (
    count_calls,
    kraus_apply,
    kraus_apply_dual,
    partial_trace,
    random_density,
    random_matrix,
)


def reconstruction_residual(dilation, ch):
    return max(
        trace_norm(dilation.apply(e) - kraus_apply(ch.kraus, e))
        for e in matrix_units(ch.dim_in)
    )


class TestStinespringUnitary:
    def test_identity_channel(self):
        dil = stinespring_unitary(identity_channel(2))
        assert reconstruction_residual(dil, identity_channel(2)) <= 1e-12
        # restricted to H (x) e_0 the unitary is the embedding x -> x (x) e_0
        for h in range(2):
            column = dil.unitary[:, h * dil.ancilla_dim]
            expected = np.zeros(2 * dil.ancilla_dim, dtype=complex)
            expected[h * dil.ancilla_dim] = 1.0
            np.testing.assert_allclose(column, expected, atol=1e-12)

    def test_unitary_conjugation(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(2, rng)
        ch = unitary_channel(u)
        dil = stinespring_unitary(ch)
        assert dil.ancilla_dim == 4  # universal size even when C would do
        a = random_matrix(2, rng)
        np.testing.assert_allclose(dil.apply(a), u @ a @ u.conj().T, atol=1e-12)

    def test_amplitude_damping_on_operator_basis(self):
        ch = amplitude_damping(0.3)
        dil = stinespring_unitary(ch)
        assert reconstruction_residual(dil, ch) <= 1e-10

    def test_random_channels(self):
        for dim, seed in [(2, 1), (2, 2), (3, 3), (3, 4)]:
            ch = random_channel(dim, rank=dim, seed=seed)
            dil = stinespring_unitary(ch)
            assert dil.ancilla_dim == dim * dim
            assert reconstruction_residual(dil, ch) <= 1e-10

    def test_deterministic(self):
        ch = amplitude_damping(0.5)
        a = stinespring_unitary(ch).unitary
        b = stinespring_unitary(ch).unitary
        np.testing.assert_array_equal(a, b)

    def test_rejects_non_cptp(self):
        with pytest.raises(RejectedChannelError):
            stinespring_unitary(transpose_channel())

    def test_rejects_heisenberg_picture(self):
        with pytest.raises(ValueError):
            stinespring_unitary(dual(identity_channel(2)))

    def test_certifies_the_channel_once(self, monkeypatch):
        calls = count_calls(monkeypatch, channels, "certify_chois")
        stinespring_unitary(amplitude_damping(0.3))
        assert [len(chois) for chois, in calls] == [1]

    @pytest.mark.parametrize("n_steps", [1, 5, 40])
    def test_is_the_t1_cell_of_the_word_table(self, n_steps):
        # one Kraus rule: the build's T^1 cell, bit for bit, in any batch
        rng = np.random.default_rng(16)
        mixture = KrausChannel(2, 2, [haar_unitary(2, rng), haar_unitary(2, rng)],
                               coefficients=(0.25, 0.75))
        for ch in [amplitude_damping(0.5), random_channel(2, rank=3, seed=1),
                   random_channel(3, rank=9, seed=1), mixture]:
            np.testing.assert_array_equal(
                stinespring_unitary(ch).unitary, register.word_unitaries([ch], n_steps)[1]
            )


class TestDilationAxioms:
    def test_embed_then_trace_is_identity(self):
        # E o J == id on a full operator basis
        dil = stinespring_unitary(amplitude_damping(0.2))
        for e in matrix_units(2):
            embedded = kron(e, dil.omega)
            back = partial_trace(embedded, [2, dil.ancilla_dim], keep=0)
            assert trace_norm(back - e) <= 1e-12

    def test_module_homomorphism_identity(self):
        # E(E*(B) A) == B E(A) with E = tr_K and E* = i_K
        rng = np.random.default_rng(5)
        anc = 4
        for _ in range(20):
            b = random_matrix(2, rng)
            a_big = random_matrix(2 * anc, rng)
            lhs = partial_trace(kron(b, np.eye(anc)) @ a_big, [2, anc], keep=0)
            rhs = b @ partial_trace(a_big, [2, anc], keep=0)
            assert trace_norm(lhs - rhs) <= 1e-10

    def test_conditional_expectation_identity(self):
        # E(A B) == A E(B) for the concrete pair, i.e.
        # tr_K((A (x) id) B_big) == A tr_K(B_big)
        rng = np.random.default_rng(6)
        anc = 4
        for _ in range(20):
            a = random_matrix(2, rng)
            b_big = random_matrix(2 * anc, rng)
            lhs = partial_trace(kron(a, np.eye(anc)) @ b_big, [2, anc], keep=0)
            rhs = a @ partial_trace(b_big, [2, anc], keep=0)
            assert trace_norm(lhs - rhs) <= 1e-10

    def test_heisenberg_unitality(self):
        # J(id) through the dual dilation returns id
        dil = stinespring_unitary(random_channel(2, rank=3, seed=7))
        out = dil.apply_heisenberg(np.eye(2, dtype=complex))
        np.testing.assert_allclose(out, np.eye(2), atol=1e-10)


class TestGeneralStinespring:
    def test_full_trace_channel(self):
        # T = tr maps to a 1x1 output and reconstructs the scalar trace
        bras = tuple(np.eye(2, dtype=complex)[i].reshape(1, 2) for i in range(2))
        ch = KrausChannel(2, 1, bras)
        dil = general_stinespring(ch)
        rng = np.random.default_rng(8)
        a = random_matrix(2, rng)
        out = dil.apply(a)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(np.trace(a), abs=1e-10)

    def test_replacement_channel(self):
        # T(A) = tr(A) |0><0| on a qutrit output
        kraus = tuple(
            np.eye(3, 1, dtype=complex) @ np.eye(2, dtype=complex)[i].reshape(1, 2)
            for i in range(2)
        )
        ch = KrausChannel(2, 3, kraus)
        dil = general_stinespring(ch)
        rng = np.random.default_rng(9)
        a = random_matrix(2, rng)
        expected = np.trace(a) * np.diag([1.0, 0.0, 0.0])
        np.testing.assert_allclose(dil.apply(a), expected, atol=1e-10)

    def test_random_rectangular_channel(self):
        rng = np.random.default_rng(10)
        g = random_matrix(2, rng, rows=6)
        q, _ = np.linalg.qr(g)
        kraus = tuple(q[3 * i:3 * (i + 1), :] for i in range(2))
        ch = KrausChannel(2, 3, kraus)
        dil = general_stinespring(ch)
        worst = max(
            trace_norm(dil.apply(e) - kraus_apply(kraus, e)) for e in matrix_units(2)
        )
        assert worst <= 1e-10


    @pytest.mark.parametrize("rank, coefficients", [(7, None), (2, (1.5, -0.5))],
                             ids=["longer-than-rank-bound", "signed"])
    def test_families_that_need_re_extraction(self, rank, coefficients):
        rng = np.random.default_rng(11)
        if coefficients is None:
            q, _ = np.linalg.qr(random_matrix(2, rng, rows=3 * rank))
            kraus = tuple(q[3 * i:3 * (i + 1), :] for i in range(rank))
        else:
            isometry, _ = np.linalg.qr(random_matrix(2, rng, rows=3))
            kraus = (isometry, isometry)  # 1.5 V . V^dag - 0.5 V . V^dag
        ch = KrausChannel(2, 3, kraus, coefficients=coefficients)
        dil = general_stinespring(ch)
        assert dil.shape == (2, 3, 36)
        worst = max(
            trace_norm(dil.apply(e) - kraus_apply(ch.kraus, e, ch.coefficients))
            for e in matrix_units(2)
        )
        assert worst <= 1e-12

    def test_composite_family_against_per_operator_products(self):
        # omega_H (x) T(tr_G(.)): operator (i, g) is (|e_0> (x) K_i)(id_H (x) <g|)
        ch = random_channel(2, 2, seed=12)
        embed = np.kron(np.eye(2, 1), np.eye(2))
        expected = [
            embed @ k @ np.kron(np.eye(2), np.eye(2)[g].reshape(1, 2))
            for k in ch.kraus for g in range(2)
        ]
        square = KrausChannel(4, 4, tuple(expected))
        np.testing.assert_allclose(
            general_stinespring(ch).unitary, stinespring_unitary(square).unitary, atol=1e-15
        )


class TestDilationValidation:
    @pytest.mark.parametrize("make", [
        lambda u: UnitaryDilation(u, 2, 2, np.diag([1.0, 0.0])),
        lambda u: GeneralDilation(u, 1, 2, 2, np.diag([1.0, 0.0]), np.diag([1.0, 0.0])),
    ], ids=["unitary", "general"])
    def test_one_unitary_check(self, make):
        make(np.eye(4))
        with pytest.raises(ValueError, match="not unitary"):
            make(np.diag([1.0, 1.0, 1.0, 0.5]))
        with pytest.raises(ValueError, match=r"unitary of shape \(2, 2\), expected \(4, 4\)"):
            make(np.eye(2))

    @pytest.mark.parametrize("omega", [np.eye(2), np.diag([1.0, -1.0]), basis_state(0, 3)],
                             ids=["trace-two", "not-positive", "wrong-dimension"])
    @pytest.mark.parametrize("make", [
        lambda w: UnitaryDilation(np.eye(4), 2, 2, w),
        lambda w: GeneralDilation(np.eye(4), 1, 2, 2, w, np.diag([1.0, 0.0])),
        lambda w: GeneralDilation(np.eye(4), 1, 2, 2, np.diag([1.0, 0.0]), w),
    ], ids=["unitary", "general-output", "general-ancilla"])
    def test_one_purity_rule_for_every_ancilla_state(self, make, omega):
        with pytest.raises(ValueError, match="ancilla state must be a pure state"):
            make(omega)


class TestOneReadBack:
    def test_no_dense_lift_or_partial_trace(self, monkeypatch):
        # every read-back is the Kraus channel of the columns U (1 (x) psi)
        ch = random_channel(2, rank=3, seed=15)
        unitary, general = stinespring_unitary(ch), general_stinespring(ch)
        heisenberg = heisenberg_dilation(dual(ch))

        def refuse(*args, **kwargs):
            raise AssertionError("a read-back reached a dense lift")

        for module in (linalg, stinespring):
            monkeypatch.setattr(module, "kron", refuse)
        assert reconstruction_residual(unitary, ch) <= 1e-10
        assert reconstruction_residual(general, ch) <= 1e-10
        worst = max(
            trace_norm(heisenberg.apply_heisenberg(e) - kraus_apply_dual(ch.kraus, e))
            for e in matrix_units(2)
        )
        assert worst <= 1e-10


class TestHeisenbergDilation:
    def test_identity_observable_map(self):
        s = dual(identity_channel(2))
        dil = heisenberg_dilation(s)
        rng = np.random.default_rng(11)
        b = random_matrix(2, rng)
        np.testing.assert_allclose(dil.apply_heisenberg(b), b, atol=1e-12)

    def test_unitary_pair(self):
        rng = np.random.default_rng(12)
        u = haar_unitary(2, rng)
        s = dual(unitary_channel(u))
        dil = heisenberg_dilation(s)
        b = random_matrix(2, rng)
        np.testing.assert_allclose(dil.apply_heisenberg(b), u.conj().T @ b @ u, atol=1e-11)

    def test_dual_of_amplitude_damping(self):
        t = amplitude_damping(0.3)
        s = dual(t)
        dil = heisenberg_dilation(s)
        worst = max(
            trace_norm(dil.apply_heisenberg(e) - kraus_apply_dual(t.kraus, e))
            for e in matrix_units(2)
        )
        assert worst <= 1e-10

    def test_duality_pairing_through_the_dilation(self):
        rng = np.random.default_rng(13)
        t = random_channel(2, rank=2, seed=14)
        dil = stinespring_unitary(t)
        for _ in range(10):
            rho = random_density(2, rng)
            b = random_matrix(2, rng)
            lhs = np.trace(b @ dil.apply(rho))
            rhs = np.trace(dil.apply_heisenberg(b) @ rho)
            assert abs(lhs - rhs) <= 1e-11

    def test_requires_heisenberg_picture(self):
        with pytest.raises(ValueError):
            heisenberg_dilation(identity_channel(2))

    def test_certifies_the_channel_once(self, monkeypatch):
        calls = count_calls(monkeypatch, channels, "certify_chois")
        heisenberg_dilation(dual(amplitude_damping(0.3)))
        assert [len(chois) for chois, in calls] == [1]

    @pytest.mark.parametrize("ch", [transpose_channel(), KrausChannel(2, 2, [1.1 * np.eye(2)])],
                             ids=["not-cp", "not-unital"])
    def test_refuses_a_dual_that_is_not_a_channel(self, ch):
        with pytest.raises(RejectedChannelError):
            heisenberg_dilation(dual(ch))
