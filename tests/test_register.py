"""Differential tests: the column path against the dense reconstruction.

The reference is the definition itself: the word w = G_1^e_1 G_2^e_2 ...
as a dense D x D matrix (``helpers.dense`` of each generator), the lift
A (x) omega, the sandwich w (A (x) omega) w^dag and its partial trace.
The column path must agree with it on every mode, on random block
permutations that are not in register form, and on a sabotaged bundle
that must still fail verification.  The generators written cell by cell
into the register view must equal the dense assembly
(sum_c B_c (x) P_c)(id (x) shift) they replace.  The block permutation
form must give the dense Gram residual, the dense unitarity decision and
the dense powers, and keep D x D arrays out of a load, a cyclic evolve
and the control guard's build, verify and evolve.
"""

import re
import tracemalloc
import warnings
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatio import control, cyclic, register, semigroup
from dilatio.channels import (
    CPTP_ATOL,
    KrausChannel,
    column_channel,
    compose,
    convex_combine,
    dual,
    identity_channel,
    power,
    random_channel,
    superoperator_matrix,
    unitary_channel,
    unvec,
    vec,
    verify_cptp,
)
from dilatio.control import (
    build_control_dilation,
    check_commuting,
    reachable_set,
    verify_reachable_inclusion,
)
from dilatio.cyclic import CyclePeriod, build_cyclic_dilation, detect_cycle, wrap_count
from dilatio.cyclic import evolve_cyclic
from dilatio.errors import MemoryGuardError, RejectedChannelError
from dilatio.fixtures import haar_unitary, random_commuting_pair, rotation_channel
from dilatio.linalg import (
    is_pure_state,
    is_unitary,
    matrix_units,
    pure_state_vector,
    stored_entries,
    trace_norm,
    unitarity_residual,
)
from dilatio.register import (
    DILATION_ATOL,
    BlockPermutation,
    _apply_power,
    RegisterDilation,
    power_words,
    reconstruct,
    verify_words,
    word_columns,
)
from dilatio.semigroup import build_semigroup_dilation, heisenberg_evolve
from dilatio.stinespring import heisenberg_dilation, stinespring_unitary
from dilatio.serialize import (
    load_bundle,
    matrix_to_blob,
    save_bundle,
)

from helpers import (
    bundle_document,
    count_calls,
    dense,
    load_document,
    omega,
    partial_trace,
    random_density,
    random_matrix,
)

# residuals and reconstructions sit near 1e-14; the two paths sum in
# different orders, so they agree to rounding, far inside this bound
AGREE = 1e-11

small = settings(max_examples=8, deadline=None, database=None, derandomize=True)

# (d, Kraus rank, seed), d in 1..3 and rank in 1..d^2
channel_params = st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, d * d), st.integers(0, 2**16))
)


def dense_word(bundle, exponents):
    powers = [np.linalg.matrix_power(dense(g), e) for g, e in zip(bundle.forms, exponents)]
    return reduce(np.matmul, powers)


def dense_reconstruct(bundle, exponents, a, keep=0):
    w = dense_word(bundle, exponents)
    big = w @ np.kron(a, omega(bundle)) @ w.conj().T
    return partial_trace(big, list(bundle.shape), keep=keep)


def dense_residuals(bundle, words, operators=None):
    operators = matrix_units(bundle.dim) if operators is None else operators
    return [
        max(
            trace_norm(dense_reconstruct(bundle, exponents, e) - unvec(oracle @ vec(e)))
            for e in operators
        )
        for _, exponents, oracle in words
    ]


def assert_reconstructions_agree(bundle, exponents, rng, keeps=(0,)):
    a = random_matrix(bundle.dim, rng)
    for keep in keeps:
        np.testing.assert_allclose(
            reconstruct(bundle, exponents, a, keep=keep),
            dense_reconstruct(bundle, exponents, a, keep=keep),
            atol=AGREE,
        )


def assert_sweep_agrees(bundle, channels, words, operators=None):
    words = list(words)
    report = verify_words(bundle, channels, words, 1e-9, operators=operators)
    assert report.labels == tuple(label for label, _, _ in words)
    np.testing.assert_allclose(
        report.residuals, dense_residuals(bundle, words, operators), atol=AGREE
    )
    return report


def random_pure_state(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def random_block_permutation(cells, b, rng):
    """Haar blocks on a random permutation of the cells: no register shift."""
    return BlockPermutation(rng.permutation(cells), [haar_unitary(b, rng) for _ in range(cells)])


def control_words(t, s, horizon):
    mt, ms = superoperator_matrix(t), superoperator_matrix(s)
    return [
        (f"N={n},k={k}", (k, n - k),
         np.linalg.matrix_power(mt, k) @ np.linalg.matrix_power(ms, n - k))
        for n in range(horizon + 1)
        for k in range(n + 1)
    ]


@small
@given(channel_params, st.integers(1, 3))
def test_semigroup_columns_match_dense(params, horizon):
    d, rank, seed = params
    ch = random_channel(d, rank, seed)
    bundle = build_semigroup_dilation(ch, horizon)
    rng = np.random.default_rng(seed)
    env = bundle.ancilla_dim * bundle.shift_dim
    for n in range(horizon + 1):
        assert_reconstructions_agree(bundle, (n,), rng, keeps=(0, 2))
        b = random_matrix(d, rng)
        w = dense_word(bundle, (n,))
        lifted = np.kron(np.eye(d), omega(bundle)) @ w.conj().T @ np.kron(b, np.eye(env)) @ w
        dual = partial_trace(lifted, [d, env], keep=0)
        np.testing.assert_allclose(heisenberg_evolve(bundle, b, n), dual, atol=AGREE)
    assert assert_sweep_agrees(bundle, [ch], power_words(ch, horizon)).passed


@small
@given(st.integers(1, 3), st.integers(2, 5), st.integers(0, 2**16))
def test_cyclic_columns_match_dense(d, order, seed):
    rng = np.random.default_rng(seed)
    q = haar_unitary(d, rng)
    phases = np.exp(2j * np.pi * rng.integers(0, order, d) / order)
    ch = unitary_channel((q * phases) @ q.conj().T)
    period = detect_cycle(ch)
    bundle = build_cyclic_dilation(ch, period)
    m = period.m
    # exponents past D / d reach the generator through one matrix power
    for n in (1, m, 3 * m + 1, bundle.forms[0].dim):
        assert_reconstructions_agree(bundle, (n + wrap_count(m, n),), rng, keeps=(0, 2))
    words = power_words(ch, 2 * m + 1, lambda n: n + wrap_count(m, n) if n else 0)
    assert assert_sweep_agrees(bundle, [ch], words).passed


@small
@given(channel_params, st.integers(1, 2), st.floats(0.1, 0.9))
def test_control_columns_match_dense(params, horizon, weight):
    d, rank, seed = params
    if d == 3:
        horizon = 1  # at horizon 2 (D = 243) the dense reference takes 0.5 s
    t = random_channel(d, rank, seed)
    s = convex_combine([identity_channel(d), t], [weight, 1 - weight])
    bundle = build_control_dilation(t, s, horizon)
    rng = np.random.default_rng(seed)
    for n in range(horizon + 1):
        for k in range(n + 1):
            assert_reconstructions_agree(bundle, (k, n - k), rng, keeps=(0, (2, 3)))
    assert assert_sweep_agrees(bundle, [t, s], control_words(t, s, horizon)).passed
    rho = random_density(d, rng)
    words = control_words(t, s, horizon)[-(horizon + 1):]
    inclusion = verify_reachable_inclusion(bundle, t, s, rho, horizon)
    np.testing.assert_allclose(
        inclusion.residuals, dense_residuals(bundle, words, [rho]), atol=AGREE
    )


@small
@given(channel_params, st.integers(2, 3))
def test_unitaries_outside_register_form_match_dense(params, cells):
    # Haar blocks on random cell permutations and a pure omega that is no
    # basis state: the column path may rely on nothing but unitarity and purity
    d, rank, seed = params
    rng = np.random.default_rng(seed)
    anc = d * d * cells
    v = random_block_permutation(cells, d ** 3, rng)
    bundle = RegisterDilation("semigroup", d, d * d, (cells,), (v,), random_pure_state(anc, rng))
    ch = random_channel(d, rank, seed)
    for n in range(cells):
        assert_reconstructions_agree(bundle, (n,), rng, keeps=(0, 2))
    assert_sweep_agrees(bundle, [ch], power_words(ch, cells - 1))

    u, v = (random_block_permutation(cells * cells, d ** 3, rng) for _ in range(2))
    pair = RegisterDilation(
        "control", d, d * d, (cells, cells), (u, v), random_pure_state(anc * cells, rng)
    )
    for k, rest in ((0, 1), (1, 0), (1, 1), (2, 0)):
        assert_reconstructions_agree(pair, (k, rest), rng, keeps=(0, (2, 3)))
    assert_sweep_agrees(pair, [ch, ch], control_words(ch, ch, 2))


@small
@given(channel_params, st.integers(1, 3))
def test_identity_generator_still_fails(params, horizon):
    d, rank, seed = params
    ch = random_channel(d, rank, seed)
    good = build_semigroup_dilation(ch, horizon)
    cells, b = good.forms[0].blocks.shape[:2]
    eye = BlockPermutation(np.arange(cells), np.broadcast_to(np.eye(b), (cells, b, b)))
    sabotaged = RegisterDilation("semigroup", d, d * d, good.registers, (eye,), good.psi)
    report = assert_sweep_agrees(sabotaged, [ch], power_words(ch, horizon))
    assert report.residuals[0] <= AGREE
    # a unitary channel (rank 1 at d = 1) is the identity, which V = id reproduces
    if d > 1:
        assert not report.passed


def dense_assemble(cells, shift, block_dim):
    """(sum_c B_c (x) P_c)(id (x) shift) over (block, register projector) pairs."""
    total = block_dim * shift.shape[0]
    blocks = np.zeros((total, total), dtype=complex)
    for block, projector in cells:
        blocks += np.kron(block, projector)
    return blocks @ np.kron(np.eye(block_dim), shift)


def cell(c, length):
    p = np.zeros((length, length), dtype=complex)
    p[c, c] = 1.0
    return p


def step(length):
    """e_i -> e_(i+1 mod length)."""
    return np.roll(np.eye(length, dtype=complex), 1, axis=0)


def step_unitaries(ch, count):
    """Dilation unitaries of T^0 .. T^count on the common H (x) K~ space:
    the identity, then the build's table of words T^1 .. T^count."""
    return [np.eye(ch.dim_in ** 3, dtype=complex)] + list(
        register.word_unitaries([ch], count)[1:count + 1]
    )


def control_word_unitaries(t, s, horizon):
    """u(M, k), the dilation unitary of T^k S^(M-k) for 1 <= M <= horizon,
    0 <= k <= M, from the build's table, and the identity at every other
    (M, k) of the window, -1 included."""
    table = register.word_unitaries([t, s], horizon)
    return lambda total, k: table[total, k]


def walk_reference(path):
    length = len(path) - 1
    cells = [(path[c + 1] @ path[c].conj().T, cell(c, length)) for c in range(length)]
    return dense_assemble(cells, step(length), path[0].shape[0])


@pytest.mark.parametrize("d, horizon", [(1, 3), (2, 1), (2, 4), (3, 2)])
def test_semigroup_generator_matches_dense_assembly(d, horizon):
    ch = random_channel(d, d * d, seed=d + horizon)
    steps = step_unitaries(ch, horizon)
    bundle = build_semigroup_dilation(ch, horizon)
    # array_equal identifies -0.0 with 0.0: the product with the shift
    # may flip the sign of a zero entry, nothing else
    assert np.array_equal(dense(bundle.forms[0]), walk_reference(steps[:1] + steps))


@pytest.mark.parametrize("period", [2, 3, 5])
def test_cyclic_generator_matches_dense_assembly(period):
    ch = rotation_channel(period)
    steps = step_unitaries(ch, period - 1)
    bundle = build_cyclic_dilation(ch, detect_cycle(ch))
    assert bundle.period == period
    assert np.array_equal(dense(bundle.forms[0]), walk_reference(steps + steps[:1]))


@pytest.mark.parametrize("d, horizon", [(1, 2), (2, 1), (2, 3)])
def test_control_generators_match_dense_assembly(d, horizon):
    t = random_channel(d, d * d, seed=d + horizon)
    s = convex_combine([identity_channel(d), t], [0.4, 0.6])
    u_word = control_word_unitaries(t, s, horizon)
    length, b = horizon + 1, d ** 3
    eye = np.eye(length, dtype=complex)
    cells_t = [
        (u_word(m, n) @ u_word(m - 1, n - 1).conj().T, np.kron(cell(m, length), cell(n, length)))
        for m in range(length)
        for n in range(length)
    ]
    cells_s = [
        (u_word(n, 0) @ u_word(n - 1, 0).conj().T, np.kron(cell(n, length), eye))
        for n in range(length)
    ]
    bundle = build_control_dilation(t, s, horizon)
    shift_t = np.kron(step(length), step(length))
    shift_s = np.kron(step(length), eye)
    assert np.array_equal(dense(bundle.forms[0]), dense_assemble(cells_t, shift_t, b))
    assert np.array_equal(dense(bundle.forms[1]), dense_assemble(cells_s, shift_s, b))


def built_bundle(mode):
    if mode == "semigroup":
        return build_semigroup_dilation(random_channel(2, 4, seed=5), 4)
    if mode == "cyclic":
        ch = rotation_channel(5)
        return build_cyclic_dilation(ch, detect_cycle(ch))
    t = random_channel(2, 4, seed=6)
    return build_control_dilation(t, convex_combine([identity_channel(2), t], [0.3, 0.7]), 2)


def dense_gram_residual(g):
    return float(np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0])))


def rebuilt(bundle, forms):
    return RegisterDilation(
        bundle.mode, bundle.dim, bundle.ancilla_dim, bundle.registers, forms, bundle.psi
    )


@pytest.mark.parametrize("mode", ["semigroup", "cyclic", "control"])
def test_block_residual_matches_dense_gram(mode):
    bundle = built_bundle(mode)
    cells = int(np.prod(bundle.registers))
    for form in bundle.forms:
        # register form: one d^3 x d^3 block per cell
        assert form.blocks.shape == (cells, bundle.dim ** 3, bundle.dim ** 3)
        assert abs(unitarity_residual(form.blocks) - dense_gram_residual(dense(form))) <= 1e-14
        # a non-unitary perturbation of one block: residuals of order one
        off = form.blocks.copy()
        off[1] *= 1.5
        far = BlockPermutation(form.src, off)
        assert unitarity_residual(far.blocks) == pytest.approx(
            dense_gram_residual(dense(far)), rel=1e-12
        )


@pytest.mark.parametrize("mode", ["semigroup", "cyclic", "control"])
@pytest.mark.parametrize("target", [0.9e-10, 1.1e-10])
def test_block_check_decides_as_the_dense_check(mode, target):
    # scaling one block by 1 + t / (2 sqrt(b)) puts ||G^dag G - I||_F at
    # about t, just inside or just outside the 1e-10 bound
    bundle = built_bundle(mode)
    form = bundle.forms[0]
    blocks = form.blocks.copy()
    blocks[0] *= 1 + target / (2 * np.sqrt(blocks.shape[1]))
    scaled = BlockPermutation(form.src, blocks)
    dense_accepts = is_unitary(dense(scaled))
    assert dense_accepts is (target < 1e-10)
    if dense_accepts:
        rebuilt(bundle, (scaled,) + bundle.forms[1:])
    else:
        with pytest.raises(ValueError, match="not unitary"):
            rebuilt(bundle, (scaled,) + bundle.forms[1:])


def test_two_cells_reading_one_source_are_not_unitary():
    bundle = built_bundle("semigroup")
    form = bundle.forms[0]
    src = form.src.copy()
    src[1] = src[0]  # every block unitary, but one source cell is never read
    with pytest.raises(ValueError, match="not a permutation"):
        BlockPermutation(src, form.blocks)
    cells, b = form.blocks.shape[:2]
    g = np.zeros((b * cells, b * cells), dtype=complex)
    view = g.reshape(b, cells, b, cells)
    for c in range(cells):
        view[:, c, :, src[c]] = form.blocks[c]
    # read from a v1 file's entries, the same generator is refused
    with pytest.raises(ValueError, match="not a permutation"):
        BlockPermutation.from_entries(*stored_entries(g), b * cells, cells)


def test_blocks_are_copies():
    # a view of the caller's blocks, taken before, must not reach the form
    blocks = np.stack([np.eye(2, dtype=complex)] * 3)
    view = blocks[:]
    form = BlockPermutation([2, 0, 1], blocks)
    view[0, 0, 0] = 5.0
    assert form.blocks[0, 0, 0] == 1.0
    assert blocks.flags.writeable


def test_block_powers_match_matrix_power():
    bundle = built_bundle("cyclic")
    form = bundle.forms[0]
    v = dense(form)
    for e in (1, 2, 3, 4, 5, 6, 7, 63, 64, 65, 100, 511, 999, 1000):
        np.testing.assert_allclose(dense(form.power(e)), np.linalg.matrix_power(v, e), atol=1e-12)


@pytest.mark.parametrize(
    "refused, match",
    [
        (lambda: built_bundle("cyclic").forms[0].power(0), r"power 0: the exponent"),
        (lambda: built_bundle("cyclic").forms[0].power(-1), r"power -1: the exponent"),
        (lambda: reconstruct(built_bundle("semigroup"), (-1,), np.eye(2) / 2),
         r"word \(-1,\): exponents must be nonnegative"),
        (lambda: reconstruct(built_bundle("control"), (-1, 2), np.eye(2) / 2),
         r"word \(-1, 2\): exponents must be nonnegative"),
    ],
    ids=["power-0", "power-minus-1", "semigroup-word", "control-word"],
)
def test_negative_exponents_are_refused(refused, match):
    # power(-1) shifted -1 >> 1 == -1 forever; a negative word exponent read as 0
    with pytest.raises(ValueError, match=match):
        refused()


def test_block_product_matches_dense_product():
    # the register shifts all commute; random cell permutations do not
    rng = np.random.default_rng(8)
    a, b = (
        BlockPermutation(rng.permutation(5), [haar_unitary(3, rng) for _ in range(5)])
        for _ in range(2)
    )
    np.testing.assert_allclose(dense(a @ b), dense(a) @ dense(b), atol=1e-14)
    np.testing.assert_allclose(dense(b @ a), dense(b) @ dense(a), atol=1e-14)
    columns = random_matrix(2, rng, rows=15)
    cell_major = columns.reshape(3, 5, 2).transpose(1, 0, 2)
    cells, blocks = _apply_power(a, 1, (np.arange(5), cell_major))
    moved = np.zeros_like(cell_major)
    moved[cells] = blocks
    np.testing.assert_allclose(
        moved.transpose(1, 0, 2).reshape(15, 2), dense(a) @ columns, atol=1e-14
    )


def test_haar_generators_are_refused():
    # a Haar unitary is no block permutation of the register cells: its
    # entries are refused, and so is its one-cell form
    rng = np.random.default_rng(7)
    bundle = built_bundle("semigroup")
    v = haar_unitary(bundle.forms[0].dim, rng)
    with pytest.raises(ValueError, match="no block permutation"):
        BlockPermutation.from_entries(*stored_entries(v), v.shape[0], bundle.shift_dim)
    with pytest.raises(ValueError, match="expected 5 cells"):
        rebuilt(bundle, (BlockPermutation([0], v[np.newaxis]),))


def test_load_and_large_cyclic_evolve_form_no_dense_square(tmp_path, monkeypatch):
    ch = rotation_channel(6)
    path = tmp_path / "rot.bundle"
    save_bundle(path, build_cyclic_dilation(ch, detect_cycle(ch)))
    shapes = {"matrix_power": [], "is_unitary": []}

    def counting(name, fn):
        def wrapper(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "matrix_power", counting("matrix_power", np.linalg.matrix_power))
    monkeypatch.setattr(
        "dilatio.register.is_unitary", counting("is_unitary", is_unitary)
    )
    bundle = load_bundle(path)
    evolve_cyclic(bundle, np.diag([1.0, 0.0]), 10**12)
    total = bundle.dim * bundle.ancilla_dim * bundle.period
    assert shapes["is_unitary"] == [(6, 8, 8)]
    assert all(s[-2:] != (total, total) for s in shapes["matrix_power"])


@pytest.mark.parametrize("mode", ["semigroup", "cyclic", "control"])
def test_built_state_is_a_basis_vector(mode):
    # psi = e_0 (x) e_origin, bit for bit
    bundle = built_bundle(mode)
    origin = bundle.registers[0] - 1 if mode == "cyclic" else 0
    cells = int(np.prod(bundle.registers))
    expected = np.kron(np.eye(bundle.ancilla_dim)[0], np.eye(cells)[origin])
    np.testing.assert_array_equal(bundle.psi, expected)
    assert not bundle.psi.flags.writeable


def test_state_vector_and_dense_omega_give_one_bundle(tmp_path):
    # a v1 file holds the dense omega, which reads back as psi
    rng = np.random.default_rng(47)
    d, cells = 2, 3
    psi = random_pure_state(d * d * cells, rng)
    v = random_block_permutation(cells, d ** 3, rng)
    from_psi = RegisterDilation("semigroup", d, d * d, (cells,), (v,), psi)
    save_bundle(tmp_path / "b.bundle", from_psi)
    from_omega = load_bundle(tmp_path / "b.bundle")
    np.testing.assert_array_equal(from_psi.psi, psi)
    # the reduction keeps psi up to a global phase, which omega cancels
    np.testing.assert_allclose(omega(from_omega), np.outer(psi, psi.conj()), atol=1e-15)
    for n in range(cells):
        for a in matrix_units(d) + [random_density(d, rng)]:
            for keep in (0, 2):
                np.testing.assert_allclose(
                    reconstruct(from_psi, (n,), a, keep), reconstruct(from_omega, (n,), a, keep),
                    atol=1e-14,
                )


@pytest.mark.parametrize("defect, message", [
    ("mixed", "not pure"),
    ("non-hermitian", "not Hermitian"),
    ("trace", "trace"),
    ("norm", "norm"),
    ("shape", "shape"),
])
def test_impure_or_unnormalised_states_are_refused(defect, message, tmp_path):
    rng = np.random.default_rng(48)
    bundle = built_bundle("semigroup")
    anc = bundle.ancilla_dim * bundle.shift_dim
    psi = rng.standard_normal(anc) + 1j * rng.standard_normal(anc)
    psi /= np.linalg.norm(psi)
    phi = np.roll(psi, 1)
    phi -= np.vdot(psi, phi) * psi
    phi /= np.linalg.norm(phi)
    state = {
        "mixed": 0.999 * np.outer(psi, psi.conj()) + 0.001 * np.outer(phi, phi.conj()),
        "non-hermitian": np.outer(psi, psi.conj()) + 1e-6j * np.outer(psi, phi.conj()),
        "trace": 1.001 * np.outer(psi, psi.conj()),
        "norm": 1.001 * psi,
        "shape": psi[1:],
    }[defect]
    with pytest.raises(ValueError, match=message):
        if state.ndim == 1:
            RegisterDilation("semigroup", bundle.dim, bundle.ancilla_dim, bundle.registers,
                             bundle.forms, state)
        else:  # a dense omega reaches the library only from a v1 file
            doc = bundle_document(bundle, tmp_path)
            doc["omega"]["blob"] = matrix_to_blob(state)
            load_document(doc, tmp_path)


@pytest.mark.parametrize("weight", [0.0, 1e-12, 0.5e-10, 2e-10, 1e-6, 0.3])
def test_dense_state_check_is_no_weaker_than_the_spectrum(weight):
    # (1 - w)|a><a| + w|b><b|: wherever the norm checks accept, the
    # eigenvalue test accepts too (Weyl's inequality)
    q, _ = np.linalg.qr(random_matrix(12, np.random.default_rng(49)))
    rho = q @ np.diag([1 - weight, weight] + [0.0] * 10) @ q.conj().T
    try:
        pure_state_vector(rho, 12)
    except ValueError:
        assert weight > 0
    else:
        assert is_pure_state(rho)


def test_guard_build_makes_no_composition_and_decomposes_no_wide_matrix(monkeypatch):
    # the d = 3 N = 150 guard build (D = 4077): no composition, and two
    # batched eigendecompositions, of the 150 Choi matrices (9 x 9) and of
    # the 150 isometries' Gram matrices (3 x 3), none wider than d^2
    from dilatio import channels, register

    calls, widths = [], []
    original = channels.compose

    def counting(t1, t2):
        calls.append(1)
        return original(t1, t2)

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            widths.append(np.shape(a)[-1])
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(channels, "compose", counting)
    monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
    bundle = build_semigroup_dilation(random_channel(3, 9, 1), 150)
    assert bundle.forms[0].dim == 4077
    assert calls == []
    assert widths == [9, 3]


@pytest.mark.parametrize("pair", [False, True], ids=["one-channel", "control-pair"])
def test_word_table_is_one_pass(monkeypatch, pair):
    # every word is certified and cut in one batch: no composition, no
    # cut of a composite map, no channel power and no per-word verify_cptp
    from dilatio import channels

    chans = list(random_commuting_pair(2, seed=4)) if pair else [random_channel(3, 5, seed=4)]

    def refusing(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"word_unitaries called {name}")
        return refused

    for name in ("compose", "_from_superoperator", "power", "verify_cptp"):
        monkeypatch.setattr(channels, name, refusing(name))
    calls = count_calls(monkeypatch, channels, "certify_chois")
    table = register.word_unitaries(chans, 5)
    # T^1 .. T^5, or T^k S^(M-k) for 1 <= M <= 5: 2 + 3 + 4 + 5 + 6 words
    assert [len(chois) for chois, in calls] == [20 if pair else 5]
    assert table.shape == (7,) * len(chans) + (chans[0].dim_in ** 3,) * 2


# (d, k, N): a qubit or qutrit, one channel or a pair, horizon up to 6
pass_shapes = st.tuples(st.sampled_from([2, 3]), st.sampled_from([1, 2]), st.integers(1, 6))
passes = settings(max_examples=20, deadline=None, database=None, derandomize=True)


def pass_words(k, n_steps):
    """The exponents of every word of the pass, in its order."""
    return [head + (total - sum(head),)
            for total in range(1, n_steps + 1)
            for head in product(range(total + 1), repeat=k - 1)]


def sequential_word(chans, word):
    """The word's channel by power and compose, and its superoperator as a
    product of one factor M_j per letter."""
    d = chans[0].dim_in
    letters = [superoperator_matrix(ch) for ch, e in zip(chans, word) for _ in range(e)]
    oracle = reduce(np.matmul, letters, np.eye(d * d, dtype=complex))
    return reduce(compose, (power(ch, e) for ch, e in zip(chans, word))), oracle


@passes
@given(shape=pass_shapes, data=st.data())
def test_pass_families_reproduce_the_sequential_products(shape, data):
    # each word's unitary, read back on x (x) e_0, is the family of the word
    d, k, n_steps = shape
    ranks = data.draw(st.lists(st.integers(1, d * d), min_size=k, max_size=k))
    seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=k, max_size=k))
    chans = [random_channel(d, r, seed) for r, seed in zip(ranks, seeds)]
    table = register.word_unitaries(chans, n_steps)
    for word in pass_words(k, n_steps):
        channel, oracle = sequential_word(chans, word)
        assert verify_cptp(channel).accepted
        u = table[(sum(word),) + word[:-1]]
        got = superoperator_matrix(column_channel(u[:, ::d * d], 1, d))
        assert np.linalg.norm(got - oracle) <= 1e-12, word


@passes
@given(shape=pass_shapes, data=st.data())
def test_pass_refuses_exactly_the_words_verify_cptp_refuses(shape, data):
    # K = sqrt(1 + v / sqrt(d)) I_d violates TP by v, and a word of total n
    # by about n v: v at 0.9 or 1.1 of the boundary CPTP_ATOL / j of total j
    d, k, n_steps = shape
    j = data.draw(st.integers(1, n_steps))
    v = data.draw(st.sampled_from([0.9, 1.1])) * CPTP_ATOL / j
    chans = [KrausChannel(d, d, [np.sqrt(1 + v / np.sqrt(d)) * np.eye(d)])] * k
    refused = [w for w in pass_words(k, n_steps)
               if not verify_cptp(sequential_word(chans, w)[0]).accepted]
    if not refused:
        register.word_unitaries(chans, n_steps)
        return
    label = " ".join(f"{t}^{e}" for t, e in zip("TS", refused[0]))
    with pytest.raises(RejectedChannelError, match="channel rejected: cp=True, "
                       rf"tp_or_unital=False, max_violation=\S+, word {re.escape(label)}$"):
        register.word_unitaries(chans, n_steps)


def test_refused_control_word_is_named():
    # T and S each violate TP by 0.9e-10 and pass; the first word of total
    # 2 in the table's order, T^0 S^2, misses by 1.8e-10
    k = np.sqrt(1 + 0.9e-10 / np.sqrt(2)) * np.eye(2)
    t = KrausChannel(2, 2, [k])
    with pytest.raises(RejectedChannelError) as refusal:
        build_control_dilation(t, t, 3)
    assert str(refusal.value) == (
        "channel rejected: cp=True, tp_or_unital=False, max_violation=1.800e-10, word T^0 S^2"
    )


@pytest.mark.parametrize("ch", [
    KrausChannel(2, 2, [np.eye(2)], coefficients=(1e200,)),
    KrausChannel(2, 2, [1e200 * np.eye(2)]),
], ids=["coefficient", "operator"])
def test_overflowing_channel_is_refused_without_a_warning(ch):
    # the powers (coefficient) or the superoperator itself (operator)
    # overflow to inf; the pass refuses T^1, and no RuntimeWarning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RejectedChannelError, match=r", word T\^1$"):
            build_semigroup_dilation(ch, 4)


def test_guard_refuses_before_any_word_is_certified():
    # the words are certified in the pass, after the guard, in every mode:
    # an uncertified channel past the guard meets the guard (exit 4), not a
    # refusal (exit 3).  Neither the period nor the commutation check
    # certifies, and both run after the pass.
    ch = KrausChannel(2, 2, [1.1 * np.eye(2)])
    with pytest.raises(MemoryGuardError, match="total dimension 4104 exceeds the guard 4096"):
        build_semigroup_dilation(ch, 512)
    with pytest.raises(RejectedChannelError, match=r", word T\^1$"):
        build_semigroup_dilation(ch, 511)
    with pytest.raises(MemoryGuardError, match="total dimension 4104 exceeds the guard 4096"):
        build_cyclic_dilation(ch, CyclePeriod(513))
    with pytest.raises(RejectedChannelError, match=r", word T\^1$"):
        build_cyclic_dilation(ch, CyclePeriod(512))
    with pytest.raises(MemoryGuardError, match="total dimension 8712 exceeds the guard 8192"):
        build_control_dilation(ch, ch, 32)
    with pytest.raises(RejectedChannelError, match=r", word T\^0 S\^1$"):
        build_control_dilation(ch, ch, 31)


# a map whose Kraus sum misses the identity by 0.21, and one whose Choi
# matrix and Kraus sum overflow their norms
UNCERTIFIED = {
    "not-trace-preserving": KrausChannel(2, 2, [1.1 * np.eye(2)]),
    "overflowing": KrausChannel(2, 2, [np.eye(2)], coefficients=[1e200]),
}


@pytest.mark.parametrize("ch", UNCERTIFIED.values(), ids=UNCERTIFIED.keys())
def test_predicates_answer_for_an_uncertified_map(ch):
    # check_commuting and detect_cycle certify nothing and warn of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_commuting(ch, identity_channel(2))
        assert isinstance(check_commuting(ch, ch), bool)
        assert detect_cycle(ch) is None


# every call that dilates or runs a channel, with the uncertified map as
# the only channel or as one of a pair
REFUSING = {
    "stinespring_unitary": stinespring_unitary,
    "heisenberg_dilation": lambda ch: heisenberg_dilation(dual(ch)),
    "semigroup": lambda ch: build_semigroup_dilation(ch, 2),
    "cyclic": lambda ch: build_cyclic_dilation(ch, CyclePeriod(3)),
    "control": lambda ch: build_control_dilation(ch, ch, 2),
    "control-second": lambda ch: build_control_dilation(identity_channel(2), ch, 2),
    "reachable": lambda ch: reachable_set(ch, ch, np.diag([1.0, 0.0]), 2),
    "reachable-second": lambda ch: reachable_set(identity_channel(2), ch, np.diag([1.0, 0.0]), 2),
}


@pytest.mark.parametrize("call", REFUSING.values(), ids=REFUSING.keys())
@pytest.mark.parametrize("ch", UNCERTIFIED.values(), ids=UNCERTIFIED.keys())
def test_every_dilation_refuses_an_uncertified_map(ch, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RejectedChannelError, match="^channel rejected: "):
            call(ch)


MODES = ("semigroup", "cyclic", "control")


def built_channels(mode):
    """The channels ``built_bundle`` dilates."""
    if mode == "semigroup":
        return [random_channel(2, 4, seed=5)]
    if mode == "cyclic":
        return [rotation_channel(5)]
    t = random_channel(2, 4, seed=6)
    return [t, convex_combine([identity_channel(2), t], [0.3, 0.7])]


@pytest.mark.parametrize("mode", MODES)
def test_every_word_occupies_one_cell(mode, monkeypatch):
    # verify and evolve carry each word's columns as one (d^3, d) block on
    # one cell, so a step costs O(b^2 d), not O(D b d)
    bundle, channels = built_bundle(mode), built_channels(mode)
    seen, word_channel = [], register.word_channel

    def spy(bundle, columns):
        seen.append(columns)
        return word_channel(bundle, columns)

    for module in (register, semigroup):
        monkeypatch.setattr(module, "word_channel", spy)
    rho = np.diag([0.7, 0.3])
    if mode == "semigroup":
        semigroup.verify_dilation(bundle, channels[0])
        semigroup.evolve(bundle, rho, bundle.horizon)
        semigroup.heisenberg_evolve(bundle, rho, bundle.horizon)
        words = bundle.horizon + 3
    elif mode == "cyclic":
        cyclic.verify_cyclic_dilation(bundle, channels[0], n_max=12)
        cyclic.evolve_cyclic(bundle, rho, 7)
        cyclic.evolve_cyclic(bundle, rho, 10**12)
        words = 15
    else:
        control.verify_control_dilation(bundle, *channels)
        control.evolve_control(bundle, rho, "TS")
        control.verify_reachable_inclusion(bundle, *channels, rho, 2)
        words = 6 + 1 + 3
    assert len(seen) == words
    for cells, blocks in seen:
        assert cells.shape == (1,)
        assert blocks.shape == (1, bundle.dim ** 3, bundle.dim)


def mode_calls(bundle, mode):
    ch, rho = built_channels(mode)[0], np.diag([0.7, 0.3])
    return {
        "semigroup.evolve": lambda: semigroup.evolve(bundle, rho, 1),
        "semigroup.heisenberg_evolve": lambda: semigroup.heisenberg_evolve(bundle, rho, 1),
        "semigroup.verify_dilation": lambda: semigroup.verify_dilation(bundle, ch),
        "semigroup.shift_marginal": lambda: semigroup.shift_marginal(bundle, rho, 1),
        "control.evolve_control": lambda: control.evolve_control(bundle, rho, "TS"),
        "control.verify_control_dilation": lambda: control.verify_control_dilation(bundle, ch, ch),
        "control.word_shift_marginal": lambda: control.word_shift_marginal(bundle, rho, 1, 1),
        "control.verify_reachable_inclusion":
            lambda: control.verify_reachable_inclusion(bundle, ch, ch, rho, 1),
        "cyclic.evolve_cyclic": lambda: cyclic.evolve_cyclic(bundle, rho, 3),
        "cyclic.verify_cyclic_dilation": lambda: cyclic.verify_cyclic_dilation(bundle, ch, 3),
    }


@pytest.mark.parametrize("call, mode", [
    (call, mode) for call in mode_calls(None, "semigroup") for mode in MODES
    if not call.startswith(mode)
])
def test_a_bundle_of_another_mode_is_refused_by_name(call, mode, monkeypatch):
    bundle = built_bundle(mode)

    def no_column_work(*args):
        raise AssertionError("column work on a bundle of the wrong mode")

    monkeypatch.setattr(register, "_apply_power", no_column_work)
    with pytest.raises(ValueError, match=mode):
        mode_calls(bundle, mode)[call]()


def test_control_guard_verifies_every_word():
    # N = 31 on two registers, D = 8192: the largest bundle the control guard admits
    t, s = random_commuting_pair(2, seed=7)
    bundle = build_control_dilation(t, s, 31)
    assert bundle.forms[0].dim == 8192
    report = control.verify_control_dilation(bundle, t, s)
    assert len(report.residuals) == 32 * 33 // 2
    assert report.passed and report.max_residual <= 1e-9


def test_control_guard_stays_far_below_one_dense_generator():
    # build, verify and evolve at D = 8192, where one dense D x D array
    # would take 1 GiB; the blocks of both generators take 2 MiB
    t, s = random_commuting_pair(2, seed=7)
    tracemalloc.start()
    try:
        bundle = build_control_dilation(t, s, 31)
        assert control.verify_control_dilation(bundle, t, s).passed
        control.evolve_control(bundle, np.diag([0.5, 0.5]), "TS" * 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bundle.forms[0].dim == 8192
    assert peak < 16 << 20


def test_cyclic_sweep_keeps_no_columns_per_word():
    # the one walk keeps only its latest word, so from n_max = 200 to 2000
    # the peak grows by the report (a label and a residual per word),
    # less than one word's columns per word
    ch = rotation_channel(5)
    bundle = build_cyclic_dilation(ch, detect_cycle(ch))
    column_bytes = bundle.dim ** 3 * bundle.dim * 16

    def peak(n_max):
        tracemalloc.start()
        try:
            assert cyclic.verify_cyclic_dilation(bundle, ch, n_max=n_max).passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(200), peak(2000)
    assert large - small < 1800 * column_bytes
    assert large < 10 * small


@pytest.mark.parametrize(
    "mode, horizon, words", [("semigroup", 16, 17), ("control", 6, 28), ("reachable", 6, 7)]
)
def test_sweep_takes_one_generator_step_per_word(monkeypatch, mode, horizon, words):
    # W words cost W - 1 generator steps: the empty word is J, and every
    # other word advances a kept word's columns by one generator.  The
    # reachable words U^k V^(N-k) of one N share no walk: swept from k = N
    # down, each is U^k past V^(N-k) J, one V step past the last, so the
    # sweep takes N(N+3)/2 steps and reports k ascending
    rho = random_density(2, np.random.default_rng(3))
    chans, build, verify = {
        "semigroup": ([random_channel(3, 9, seed=1)], build_semigroup_dilation,
                      semigroup.verify_dilation),
        "control": (random_commuting_pair(2, seed=7), build_control_dilation,
                    control.verify_control_dilation),
        "reachable": (random_commuting_pair(2, seed=7), build_control_dilation,
                      lambda bundle, t, s: control.verify_reachable_inclusion(
                          bundle, t, s, rho, horizon)),
    }[mode]
    bundle = build(*chans, horizon)
    calls = count_calls(monkeypatch, register, "_apply_power")
    report = verify(bundle, *chans)
    steps = sum(e for _, e, _ in calls)
    assert report.passed and len(report.residuals) == words
    if mode != "reachable":
        assert steps == words - 1
        return
    assert steps == horizon * (horizon + 3) // 2
    assert report.labels == tuple(f"N={horizon},k={k}" for k in range(horizon + 1))
    # the residuals of a sweep that starts every word from J
    alone = [
        verify_words(bundle, chans, [word], DILATION_ATOL, operators=[rho]).residuals[0]
        for word in control_words(*chans, horizon)[-words:]
    ]
    assert report.residuals == tuple(alone)


@small
@given(st.integers(1, 4), st.integers(0, 2**16), st.data())
def test_one_walk_table_gives_every_word_its_fresh_columns(horizon, seed, data):
    # every word of a control bundle through one walk table, in a random
    # order: each word's columns are those of a fresh walk table
    bundle = build_control_dilation(*random_commuting_pair(2, seed=seed), horizon)
    words = [(k, n - k) for n in range(horizon + 1) for k in range(n + 1)]
    walks = {}
    for word in data.draw(st.permutations(words)):
        cells, blocks = register._columns(bundle, walks, word)
        fresh_cells, fresh_blocks = word_columns(bundle, word)
        assert np.array_equal(cells, fresh_cells)
        np.testing.assert_allclose(blocks, fresh_blocks, rtol=0, atol=1e-12)
