import numpy as np
import pytest

from dilatio.channels import (
    HEISENBERG,
    SCHROEDINGER,
    ChoiMatrix,
    KrausChannel,
    apply_channel,
    apply_superoperator,
    choi,
    compose,
    convex_combine,
    detect_unitary_conjugation,
    dual,
    identity_channel,
    kraus_from_choi,
    plain_kraus,
    power,
    random_channel,
    superoperator_matrix,
    unitary_channel,
    verify_cptp,
)
from dilatio.errors import RejectedChannelError
from dilatio.fixtures import PAULI_X, amplitude_damping, haar_unitary, transpose_channel
from dilatio.linalg import matrix_units, trace_norm

from helpers import (
    channel_matrix_oracle,
    fro,
    kraus_apply,
    kraus_apply_dual,
    random_density,
    random_isometry,
    random_matrix,
)


def superop_distance(c1, c2):
    return fro(superoperator_matrix(c1) - superoperator_matrix(c2))


class TestVerifyCptp:
    def test_amplitude_damping_accepted(self):
        report = verify_cptp(amplitude_damping(0.3))
        assert report.accepted
        assert report.max_violation <= 1e-12

    def test_transpose_rejected_with_cp_false(self):
        report = verify_cptp(transpose_channel())
        assert not report.cp
        assert report.tp_or_unital  # the transpose map is trace preserving
        assert not report.accepted

    def test_random_isometry_channels(self):
        for seed in range(8):
            report = verify_cptp(random_channel(3, rank=4, seed=seed))
            assert report.accepted and report.max_violation <= 1e-10

    def test_non_trace_preserving_rejected(self):
        half = KrausChannel(2, 2, (np.eye(2, dtype=complex) / np.sqrt(2),))
        report = verify_cptp(half)
        assert report.cp and not report.tp_or_unital

    def test_heisenberg_unitality(self):
        report = verify_cptp(dual(amplitude_damping(0.4)))
        assert report.accepted


class TestChoi:
    def test_identity_channel_is_entangled_projector(self):
        c = choi(identity_channel(2))
        omega_vec = np.eye(2, dtype=complex).reshape(-1)  # |00> + |11>
        np.testing.assert_allclose(c.matrix, np.outer(omega_vec, omega_vec), atol=1e-14)
        assert np.trace(c.matrix) == pytest.approx(2.0)

    def test_unitary_conjugation_rank_one(self):
        rng = np.random.default_rng(1)
        c = choi(unitary_channel(haar_unitary(2, rng)))
        eig = np.linalg.eigvalsh(c.matrix)
        assert eig[-1] == pytest.approx(2.0, abs=1e-12)
        assert abs(eig[:-1]).max() <= 1e-12

    def test_two_kraus_channel_rank_two(self):
        c = choi(random_channel(3, rank=2, seed=4))
        eig = np.sort(np.linalg.eigvalsh(c.matrix))[::-1]
        assert (eig > 1e-10 * eig[0]).sum() <= 2

    def test_transpose_choi_is_swap(self):
        c = choi(transpose_channel())
        swap = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        np.testing.assert_allclose(c.matrix, swap, atol=1e-14)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(c.matrix)), [-1, 1, 1, 1], atol=1e-12
        )

    def test_heisenberg_picture_refused(self):
        with pytest.raises(ValueError):
            choi(dual(identity_channel(2)))


class TestKrausFromChoi:
    def test_identity_roundtrip(self):
        out = kraus_from_choi(choi(identity_channel(2)))
        assert len(out.kraus) == 1
        k = out.kraus[0]
        # single Kraus proportional to the identity with unit modulus phase
        assert abs(abs(k[0, 0]) - 1.0) <= 1e-12
        np.testing.assert_allclose(k / k[0, 0], np.eye(2), atol=1e-12)

    def test_unitary_conjugation_roundtrip(self):
        rng = np.random.default_rng(2)
        u = haar_unitary(3, rng)
        out = kraus_from_choi(choi(unitary_channel(u)))
        assert len(out.kraus) == 1
        k = out.kraus[0]
        assert fro(k.conj().T @ k - np.eye(3)) <= 1e-10

    def test_composition_roundtrip_against_superoperator(self):
        damp = amplitude_damping(0.3)
        twice = compose(damp, damp)
        extracted = kraus_from_choi(choi(twice))
        assert superop_distance(twice, extracted) <= 1e-10

    def test_choi_roundtrip_frobenius(self):
        ch = random_channel(3, rank=5, seed=9)
        extracted = kraus_from_choi(choi(ch))
        assert fro(choi(extracted).matrix - choi(ch).matrix) <= 1e-9

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            kraus_from_choi(choi(transpose_channel()))


class TestCompose:
    def test_identity_neutral(self):
        t = random_channel(2, rank=3, seed=5)
        assert superop_distance(compose(identity_channel(2), t), t) <= 1e-12
        assert superop_distance(compose(t, identity_channel(2)), t) <= 1e-12

    def test_unitary_conjugations_multiply(self):
        rng = np.random.default_rng(6)
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        lhs = compose(unitary_channel(u), unitary_channel(v))
        assert superop_distance(lhs, unitary_channel(u @ v)) <= 1e-12

    def test_dual_reverses_composition(self):
        # (T o S)* == S* o T*, checked at the superoperator level
        for seed in range(5):
            t = random_channel(2, rank=2, seed=seed)
            s = random_channel(2, rank=3, seed=seed + 100)
            lhs = dual(compose(t, s))
            rhs = compose(dual(s), dual(t))
            assert superop_distance(lhs, rhs) <= 1e-11

    def test_rank_cap(self):
        t = random_channel(2, rank=4, seed=7)
        composite = compose(t, t)
        assert len(composite.kraus) <= 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_channel(2), identity_channel(3))


@pytest.fixture
def compose_calls(monkeypatch):
    """One entry per call of channels.compose, wherever power looks it up."""
    from dilatio import channels

    calls = []
    original = channels.compose

    def counting(t1, t2):
        calls.append((t1, t2))
        return original(t1, t2)

    monkeypatch.setattr(channels, "compose", counting)
    return calls


def rectangular_channel(d_in, d_out, rank, seed):
    """A d_in -> d_out channel from a seeded random isometry, cut into blocks."""
    q = random_isometry(d_out * rank, d_in, np.random.default_rng(seed))
    return KrausChannel(d_in, d_out, tuple(q[i * d_out:(i + 1) * d_out] for i in range(rank)))


def per_operator_compose(t1, t2):
    """The composite's Kraus list and coefficients, one product at a time."""
    if t1.picture == SCHROEDINGER:
        return ([a @ b for a in t1.kraus for b in t2.kraus],
                [x * y for x in t1.coeffs() for y in t2.coeffs()])
    return ([b @ a for b in t2.kraus for a in t1.kraus],
            [y * x for y in t2.coeffs() for x in t1.coeffs()])


def per_operator_choi(kraus, coefficients):
    """sum_i c_i vec(K_i) vec(K_i)^dag with row-major vecs, one outer product at a time."""
    n = kraus[0].size
    c = np.zeros((n, n), dtype=complex)
    for w, k in zip(coefficients, kraus):
        c += w * np.outer(k.reshape(-1), k.reshape(-1).conj())
    return c


def fixed_phase(k):
    """k with its first entry in row-major order above 1e-8 times its largest
    modulus made real positive, one entry at a time."""
    scale = np.abs(k).max()
    for entry in k.ravel():
        if abs(entry) > 1e-8 * scale:
            return k * (entry.conjugate() / abs(entry))
    return k


def per_operator_kraus_sum(kraus, coefficients):
    return sum(w * (k.conj().T @ k) for w, k in zip(coefficients, kraus))


def per_operator_apply(ch, a):
    """The channel's sandwich sum, one operator at a time, picture by picture."""
    out = 0
    for c, k in zip(ch.coeffs(), ch.kraus):
        if ch.picture == SCHROEDINGER:
            out = out + c * (k @ a @ k.conj().T)
        else:
            out = out + c * (k.conj().T @ a @ k)
    return out


def per_operator_superoperator(ch):
    """sum_i c_i conj(K_i) (x) K_i, or sum_i c_i K_i^T (x) K_i^dag in the
    Heisenberg picture, one Kronecker product at a time."""
    if ch.picture == SCHROEDINGER:
        blocks = [c * np.kron(k.conj(), k) for c, k in zip(ch.coeffs(), ch.kraus)]
    else:
        blocks = [c * np.kron(k.T, k.conj().T) for c, k in zip(ch.coeffs(), ch.kraus)]
    return np.sum(blocks, axis=0)


# (t1, t2) pairs whose composites stay within the rank bound or are signed,
# so the stacked composite is never re-extracted
UNCAPPED_PAIRS = {
    "schroedinger": (random_channel(2, 2, seed=80), random_channel(2, 2, seed=81)),
    "heisenberg": (dual(random_channel(2, 2, seed=82)), dual(random_channel(2, 2, seed=83))),
    "signed-transpose": (transpose_channel(), amplitude_damping(0.3)),
    "rectangular-2-3": (rectangular_channel(2, 3, 2, seed=84), random_channel(2, 2, seed=85)),
    "rectangular-heisenberg": (
        dual(random_channel(2, 2, seed=86)), dual(rectangular_channel(2, 3, 2, seed=87))
    ),
}
CHANNELS = {
    "schroedinger": random_channel(3, 4, seed=88),
    "heisenberg": dual(random_channel(3, 4, seed=89)),
    "signed-transpose": transpose_channel(),
    "rectangular-2-3": rectangular_channel(2, 3, 3, seed=90),
    "rectangular-heisenberg": dual(rectangular_channel(2, 3, 3, seed=94)),
    "signed-heisenberg": dual(transpose_channel()),
}


class TestStackedKraus:
    """The stacked-array paths against per-operator references kept here."""

    @pytest.mark.parametrize("name", UNCAPPED_PAIRS)
    def test_compose_equals_pairwise_products(self, name):
        t1, t2 = UNCAPPED_PAIRS[name]
        kraus, coeffs = per_operator_compose(t1, t2)
        out = compose(t1, t2)
        assert out.picture == t1.picture and out.stack.shape == (len(kraus),) + kraus[0].shape
        np.testing.assert_array_equal(out.stack, np.array(kraus))
        assert out.coeffs() == tuple(coeffs)
        assert (out.coefficients is None) is all(c == 1.0 for c in coeffs)

    @pytest.mark.parametrize("picture", [SCHROEDINGER, HEISENBERG])
    def test_capped_compose_keeps_the_map(self, picture):
        t1, t2 = random_channel(2, 4, seed=91), random_channel(2, 4, seed=92)
        if picture == HEISENBERG:
            t1, t2 = dual(t1), dual(t2)
        kraus, coeffs = per_operator_compose(t1, t2)
        out = compose(t1, t2)
        assert len(out.kraus) == 4 and len(kraus) == 16
        # stored families induce the same map in one picture iff in the other
        assert fro(channel_matrix_oracle(out.kraus) - channel_matrix_oracle(kraus, coeffs)) <= 1e-13

    @pytest.mark.parametrize("name", CHANNELS)
    def test_apply_equals_per_operator_loop(self, name):
        ch = CHANNELS[name]
        side = ch.dim_in if ch.picture == SCHROEDINGER else ch.dim_out
        a = random_matrix(side, np.random.default_rng(95))
        np.testing.assert_array_equal(apply_channel(ch, a), per_operator_apply(ch, a))

    @pytest.mark.parametrize("name", CHANNELS)
    def test_superoperator_equals_per_operator_krons(self, name):
        ch = CHANNELS[name]
        np.testing.assert_array_equal(superoperator_matrix(ch), per_operator_superoperator(ch))

    @pytest.mark.parametrize("picture", [SCHROEDINGER, HEISENBERG])
    def test_uncapped_mixture_equals_scaled_operators(self, picture):
        members = [rectangular_channel(2, 3, 2, seed=96), rectangular_channel(2, 3, 3, seed=97)]
        if picture == HEISENBERG:
            members = [dual(m) for m in members]
        out = convex_combine(members, [0.25, 0.75])
        expected = [np.sqrt(0.25) * k for k in members[0].kraus]
        expected += [np.sqrt(0.75) * k for k in members[1].kraus]
        assert out.picture == picture and out.coefficients is None
        np.testing.assert_array_equal(out.stack, np.array(expected))

    @pytest.mark.parametrize("name", ["schroedinger", "signed-transpose", "rectangular-2-3"])
    def test_choi_equals_outer_product_sum(self, name):
        ch = CHANNELS[name]
        expected = per_operator_choi(ch.kraus, ch.coeffs())
        assert fro(choi(ch).matrix - expected) <= 1e-14

    @pytest.mark.parametrize("name", CHANNELS)
    def test_certification_equals_per_operator_sums(self, name):
        ch = CHANNELS[name]
        acting = ch.kraus if ch.picture == SCHROEDINGER else [k.conj().T for k in ch.kraus]
        c = per_operator_choi(acting, ch.coeffs())
        cp = max(fro(c - c.conj().T), max(0.0, -np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min()))
        tp = fro(per_operator_kraus_sum(ch.kraus, ch.coeffs()) - np.eye(ch.dim_in))
        report = verify_cptp(ch)
        assert report.max_violation == pytest.approx(max(cp, tp), abs=1e-13)
        assert (report.cp, report.tp_or_unital) == (cp <= 1e-10, tp <= 1e-10)

    @pytest.mark.parametrize("name", ["schroedinger", "rectangular-2-3"])
    def test_kraus_from_choi_equals_per_eigenvector_loop(self, name):
        ch = CHANNELS[name]
        c = ChoiMatrix(per_operator_choi(ch.kraus, ch.coeffs()), ch.dim_in, ch.dim_out)
        eigenvalues, vectors = np.linalg.eigh(0.5 * (c.matrix + c.matrix.conj().T))
        expected = [
            fixed_phase(np.sqrt(eigenvalues[i]) * vectors[:, i].reshape(ch.dim_out, ch.dim_in))
            for i in reversed(range(eigenvalues.size))
            if eigenvalues[i] > 1e-10 * eigenvalues[-1]
        ]
        out = kraus_from_choi(c)
        assert len(expected) == len(ch.kraus)
        np.testing.assert_array_equal(out.stack, np.array(expected))

    def test_stack_is_read_only_and_kraus_views_it(self):
        ch = rectangular_channel(2, 3, 3, seed=93)
        assert ch.stack.shape == (3, 3, 2) and not ch.stack.flags.writeable
        assert all(np.shares_memory(k, ch.stack) for k in ch.kraus)
        # a stack argument is copied like a list of operators
        given = np.array(ch.kraus)
        again = KrausChannel(2, 3, given)
        given[0, 0, 0] = 5.0
        np.testing.assert_array_equal(again.stack, ch.stack)

    @pytest.mark.parametrize("kraus", [
        (np.eye(2), np.eye(3)),       # operators of different shapes
        (np.eye(2)[0],),              # not a matrix
        (np.full((2, 2), np.nan),),   # not finite
    ])
    def test_stack_validation(self, kraus):
        with pytest.raises(ValueError):
            KrausChannel(2, 2, kraus)


class TestReextraction:
    """Families longer than dim_in * dim_out are re-extracted above a
    rounding floor, so no composition or mixture sheds trace."""

    def test_tiny_mixture_weight_is_kept(self):
        # the random member's Choi eigenvalues sit near 1e-11 of the largest
        mix = convex_combine([identity_channel(2), random_channel(2, 4, seed=1)],
                             [1 - 1e-10, 1e-10])
        assert len(mix.kraus) == 4
        report = verify_cptp(mix)
        assert report.accepted and report.max_violation <= 1e-13

    @pytest.mark.parametrize("gamma", [1e-11, 1e-12])
    def test_weak_damping_powers_keep_their_trace(self, gamma):
        t = amplitude_damping(gamma)
        for n in (10, 30, 60):
            assert verify_cptp(power(t, n)).max_violation <= 1e-13

    def test_kraus_from_choi_keeps_its_cut(self):
        mix = convex_combine([identity_channel(2), random_channel(2, 4, seed=1)],
                             [1 - 1e-10, 1e-10])
        assert len(kraus_from_choi(choi(mix)).kraus) == 1
        assert len(kraus_from_choi(choi(mix), tol=1e-13).kraus) == 4

    def test_noise_eigenvalues_are_dropped(self):
        # ten qutrit operators, re-extracted: the Choi rank is two, and the
        # other seven eigenvalues are rounding at 1e-16 of the largest
        rng = np.random.default_rng(98)
        u, v = unitary_channel(haar_unitary(3, rng)), unitary_channel(haar_unitary(3, rng))
        mix = convex_combine([u] * 9 + [v], [0.1] * 10)
        assert len(mix.kraus) == 2

    def test_plain_kraus_of_an_unsigned_family(self):
        ch = random_channel(2, 3, seed=100)
        assert plain_kraus(ch) is ch.stack
        weighted = KrausChannel(2, 2, ch.stack, coefficients=(0.5, 2.0, 1.0))
        np.testing.assert_array_equal(
            plain_kraus(weighted), np.sqrt([0.5, 2.0, 1.0])[:, None, None] * ch.stack
        )

    @pytest.mark.parametrize("ch", [
        KrausChannel(2, 3, np.array([rectangular_channel(2, 3, 1, seed=101).kraus[0]] * 2),
                     coefficients=(1.5, -0.5)),
        rectangular_channel(2, 3, 7, seed=102),
        dual(random_channel(2, 4, seed=103)),
    ], ids=["signed", "longer-than-rank-bound", "heisenberg"])
    def test_plain_kraus_keeps_the_map(self, ch):
        plain = KrausChannel(ch.dim_in, ch.dim_out, plain_kraus(ch), picture=ch.picture)
        assert plain.coefficients is None and len(plain.kraus) <= ch.dim_in * ch.dim_out
        np.testing.assert_allclose(
            per_operator_superoperator(plain), per_operator_superoperator(ch), atol=1e-14
        )

    def test_extracted_operators_lead_with_a_real_positive_entry(self):
        for k in kraus_from_choi(choi(random_channel(3, 5, seed=104))).kraus:
            flat = np.abs(k.ravel())
            lead = k.ravel()[np.argmax(flat > 1e-8 * flat.max())]
            assert lead.imag == 0.0 and lead.real > 0.0

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_reextraction_ignores_the_order_of_the_choi_sum(self, gamma, p):
        # one mixture, its Choi sum taken in two orders: the eigensolver may
        # return an eigenvector with another phase, which the phase rule removes
        for n in range(1, 7):
            a = power(amplitude_damping(gamma), n)
            b = compose(amplitude_damping(gamma), a)
            x = convex_combine([a, b], [p, 1 - p])
            y = convex_combine([b, a], [1 - p, p])
            np.testing.assert_allclose(x.stack, y.stack, rtol=0, atol=1e-11)


class TestPower:
    def test_zeroth_power_is_identity(self):
        t = random_channel(3, rank=2, seed=8)
        assert superop_distance(power(t, 0), identity_channel(3)) == 0.0

    def test_unitary_power(self):
        rng = np.random.default_rng(9)
        u = haar_unitary(2, rng)
        assert superop_distance(
            power(unitary_channel(u), 5), unitary_channel(np.linalg.matrix_power(u, 5))
        ) <= 1e-11

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5])
    def test_damping_excited_population(self, gamma):
        # matrix-power oracle for the (1 - gamma)^n decay of |1><1|
        t = amplitude_damping(gamma)
        m = channel_matrix_oracle(t.kraus)
        excited = np.diag([0.0, 1.0]).astype(complex)
        for n in (1, 3, 6):
            oracle_state = np.linalg.matrix_power(m, n) @ excited.flatten(order="F")
            oracle_pop = oracle_state.reshape(2, 2, order="F")[1, 1].real
            assert oracle_pop == pytest.approx((1 - gamma) ** n, abs=1e-12)
            evolved = apply_channel(power(t, n), excited)
            assert evolved[1, 1].real == pytest.approx((1 - gamma) ** n, abs=1e-10)

    @pytest.mark.parametrize(
        "t, n_max",
        [
            (random_channel(2, rank=3, seed=41), 40),
            (dual(random_channel(2, rank=3, seed=42)), 40),
            # a signed rank-one map keeps one Kraus operator at every power
            (KrausChannel(2, 2, (haar_unitary(2, np.random.default_rng(43)),),
                          coefficients=(-0.9,)), 40),
            # signed lists are never re-extracted, so they grow as 4^n
            (transpose_channel(), 6),
        ],
        ids=["schroedinger", "heisenberg", "signed-rank-one", "transpose"],
    )
    def test_every_power_matches_matrix_power(self, t, n_max):
        m = superoperator_matrix(t)
        for n in range(n_max + 1):
            expected = np.linalg.matrix_power(m, n)
            assert fro(superoperator_matrix(power(t, n)) - expected) <= 1e-9, n

    def test_first_power_is_the_channel_itself(self):
        t = random_channel(2, rank=2, seed=44)
        assert power(t, 1) is t

    def test_composition_count_is_logarithmic(self, compose_calls):
        t = random_channel(2, rank=2, seed=45)
        for n in range(1, 130):
            compose_calls.clear()
            power(t, n)
            # floor(log2 n) squarings and popcount(n) - 1 products
            assert len(compose_calls) <= n.bit_length() - 1 + bin(n).count("1") - 1, n

    def test_semigroup_build_makes_n_log_n_compositions(self, compose_calls):
        from dilatio.semigroup import build_semigroup_dilation

        build_semigroup_dilation(amplitude_damping(0.3), 95)
        # T^2 .. T^95 from one shared table; a fresh power per step took
        # 659, and rebuilding each power by repeated composition 4465
        assert len(compose_calls) == 94

    def test_shared_table_is_bit_identical_to_fresh_powers(self, compose_calls):
        t = random_channel(2, rank=4, seed=46)
        known = {}
        table = {e: power(t, e, known) for e in range(1, 131)}
        assert len(compose_calls) == 129
        assert known == table  # the same objects, filled as the table grew
        for e in range(1, 131):
            fresh = power(t, e)
            np.testing.assert_array_equal(table[e].stack, fresh.stack, err_msg=str(e))
            assert table[e].coefficients == fresh.coefficients


class TestConvexCombine:
    def test_single_channel(self):
        t = random_channel(2, rank=2, seed=10)
        assert superop_distance(convex_combine([t], [1.0]), t) <= 1e-12

    def test_bit_flip(self):
        mix = convex_combine([identity_channel(2), unitary_channel(PAULI_X)], [0.5, 0.5])
        assert verify_cptp(mix).accepted
        rho = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(apply_channel(mix, rho), np.eye(2) / 2, atol=1e-12)

    def test_random_mixtures_accepted(self):
        rng = np.random.default_rng(11)
        members = [random_channel(2, rank=2, seed=s) for s in (20, 21, 22)]
        for _ in range(5):
            w = rng.random(3)
            w /= w.sum()
            assert verify_cptp(convex_combine(members, w)).accepted

    def test_bad_weights(self):
        t = identity_channel(2)
        with pytest.raises(ValueError):
            convex_combine([t, t], [0.7, 0.7])
        with pytest.raises(ValueError):
            convex_combine([t, t], [1.5, -0.5])


class TestDual:
    def test_unitary_dual_acts_as_inverse_conjugation(self):
        rng = np.random.default_rng(12)
        u = haar_unitary(3, rng)
        s = dual(unitary_channel(u))
        b = random_matrix(3, rng)
        np.testing.assert_allclose(apply_channel(s, b), u.conj().T @ b @ u, atol=1e-12)

    def test_involution(self):
        t = random_channel(2, rank=3, seed=13)
        assert superop_distance(dual(dual(t)), t) == 0.0

    def test_pairing_identity(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            t = random_channel(3, rank=2, seed=seed + 30)
            s = dual(t)
            for _ in range(10):
                a, b = random_matrix(3, rng), random_matrix(3, rng)
                lhs = np.trace(b @ apply_channel(t, a))
                rhs = np.trace(apply_channel(s, b) @ a)
                assert abs(lhs - rhs) <= 1e-11

    def test_dual_commutes_with_powers(self):
        t = random_channel(2, rank=2, seed=41)
        assert superop_distance(power(dual(t), 3), dual(power(t, 3))) <= 1e-11

    def test_dual_of_tp_is_unital(self):
        for seed in range(5):
            s = dual(random_channel(2, rank=4, seed=seed + 40))
            np.testing.assert_allclose(
                apply_channel(s, np.eye(2, dtype=complex)), np.eye(2), atol=1e-10
            )


class TestDetectUnitaryConjugation:
    def test_hadamard(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        found = detect_unitary_conjugation(unitary_channel(h))
        np.testing.assert_allclose(found, h, atol=1e-12)

    def test_damping_is_not_unitary(self):
        assert detect_unitary_conjugation(amplitude_damping(0.5)) is None

    def test_haar_recovery_up_to_phase(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            u = haar_unitary(3, rng)
            found = detect_unitary_conjugation(unitary_channel(u))
            assert found is not None
            phase = np.vdot(found.ravel(), u.ravel())
            phase /= abs(phase)
            assert fro(found * phase - u) <= 1e-9


class TestSuperoperator:
    def test_identity(self):
        np.testing.assert_allclose(superoperator_matrix(identity_channel(3)), np.eye(9))

    def test_unitary_conjugation_form(self):
        rng = np.random.default_rng(16)
        u = haar_unitary(2, rng)
        np.testing.assert_allclose(
            superoperator_matrix(unitary_channel(u)), np.kron(u.conj(), u), atol=1e-14
        )

    def test_matches_kraus_application(self):
        rng = np.random.default_rng(17)
        t = random_channel(3, rank=4, seed=18)
        m = superoperator_matrix(t)
        np.testing.assert_allclose(m, channel_matrix_oracle(t.kraus), atol=1e-13)
        rho = random_density(3, rng)
        np.testing.assert_allclose(
            apply_superoperator(m, rho), kraus_apply(t.kraus, rho), atol=1e-13
        )

    def test_heisenberg_matrix(self):
        t = random_channel(2, rank=3, seed=19)
        s = dual(t)
        rng = np.random.default_rng(20)
        b = random_matrix(2, rng)
        np.testing.assert_allclose(
            apply_superoperator(superoperator_matrix(s), b),
            kraus_apply_dual(t.kraus, b),
            atol=1e-13,
        )

    def test_power_matches_matrix_power(self):
        t = random_channel(2, rank=3, seed=21)
        m = superoperator_matrix(t)
        for n in (2, 4, 7):
            assert fro(superoperator_matrix(power(t, n)) - np.linalg.matrix_power(m, n)) <= 1e-9


class TestRandomChannel:
    def test_rank_one_is_unitary_conjugation(self):
        t = random_channel(3, rank=1, seed=22)
        assert detect_unitary_conjugation(t) is not None

    def test_always_accepted(self):
        for seed in range(10):
            report = verify_cptp(random_channel(2, rank=3, seed=seed))
            assert report.accepted and report.max_violation <= 1e-10

    def test_deterministic_per_seed(self):
        a = random_channel(3, rank=2, seed=23)
        b = random_channel(3, rank=2, seed=23)
        for ka, kb in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(ka, kb)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            random_channel(2, rank=0, seed=0)
        with pytest.raises(ValueError):
            random_channel(2, rank=5, seed=0)


class TestSemigroupProperties:
    def test_closure_under_composition_and_mixing(self):
        for dim in (2, 3):
            for seed in range(10):
                t = random_channel(dim, rank=2, seed=seed)
                s = random_channel(dim, rank=3, seed=seed + 500)
                assert verify_cptp(compose(t, s)).max_violation <= 1e-10
                assert verify_cptp(convex_combine([t, s], [0.25, 0.75])).max_violation <= 1e-10

    def test_channels_preserve_state_trace_norm(self):
        rng = np.random.default_rng(24)
        for seed in range(5):
            t = random_channel(3, rank=3, seed=seed + 60)
            for _ in range(4):
                out = apply_channel(t, random_density(3, rng))
                assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
                assert trace_norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_sequential_limit_stability(self):
        # interpolants (1 - 1/k) T + (1/k) S stay accepted and converge to T
        t = random_channel(2, rank=2, seed=70)
        s = random_channel(2, rank=3, seed=71)
        previous = np.inf
        for k in (1, 2, 5, 10, 100):
            mix = convex_combine([t, s], [1 - 1 / k, 1 / k])
            assert verify_cptp(mix).accepted
            distance = superop_distance(mix, t)
            assert distance <= previous + 1e-12
            previous = distance
        assert previous <= 1e-1  # k = 100 interpolant is already close
        assert verify_cptp(t).accepted


class TestKrausChannelValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            KrausChannel(2, 2, (np.zeros((2, 3)),))

    def test_immutable_operators(self):
        t = identity_channel(2)
        with pytest.raises(ValueError):
            t.kraus[0][0, 0] = 5.0

    def test_operators_are_copies(self):
        # a view of the caller's array, taken before, must not reach the channel
        x = np.eye(2, dtype=complex)
        view = x[:]
        ch = KrausChannel(2, 2, (x,))
        view[0, 0] = 5.0
        assert ch.kraus[0][0, 0] == 1.0
        assert x.flags.writeable

    def test_coefficient_length_checked(self):
        with pytest.raises(ValueError):
            KrausChannel(2, 2, (np.eye(2),), coefficients=(1.0, 2.0))

    def test_rejected_channel_error_type(self):
        from dilatio.channels import require_accepted

        with pytest.raises(RejectedChannelError):
            require_accepted(transpose_channel())


def test_operator_basis_reconstruction_uses_full_basis():
    # sanity: apply_channel on matrix units determines the channel
    t = amplitude_damping(0.3)
    m = superoperator_matrix(t)
    for e in matrix_units(2):
        np.testing.assert_allclose(
            apply_superoperator(m, e), kraus_apply(t.kraus, e), atol=1e-13
        )
