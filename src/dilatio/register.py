"""The shift-register dilation behind the semigroup, cyclic and control modes.

One construction serves every mode.  k channels T_1 .. T_k (k = 1 for
semigroup and cyclic, 2 for a control pair) give k registers of length
L = N + 1, whose cells c = (total, e_1, ..., e_(k-1)) carry the
Stinespring unitary u(c) of the word T_1^e_1 ... T_k^(total - sum e)
(``word_unitaries``: one array, the identity off the table and at index
-1 on every axis).  Generator j moves the walker by its shift vector
delta: it shifts the total register and, for j < k, register j.  Its
block at cell c is u(x) u(x - delta)^dag at x = c * delta, which is 0 on
the registers it does not shift, and cell c reads cell (c - delta) mod L
(``shift_generator``, all blocks in one batched product).  A pure omega
pins the walker to an origin cell, so a word of generators telescopes to
the unitary of its endpoint.  The table takes one power table per channel,
built through one shared dict of known powers, so T^1 .. T^N cost N - 1
compositions, and dilates all its words in one batched completion.
Cyclic bundles roll the one-channel table back one cell so the register
closes into the cycle.  Every reconstruction is tr_K(w (A (x) omega) w^dag)
for a word w = G_1^e_1 G_2^e_2 ... in the generators.

Every generator is therefore a block permutation
G = sum_c B_c (x) |c><src(c)| of b x b blocks on the L^k register cells
(b = d^3), and that form (``BlockPermutation``) is the only one the
library holds and runs: the unitarity check is per block, O(L b^3)
instead of O(D^3), and powers and products stay block permutations, so
no path builds a D x D matrix.

omega = |psi><psi| is pure, and a bundle holds psi, not the anc x anc
matrix (anc = d^2 L^k): a build passes the basis vector e_0 (x) e_origin.
The reconstruction depends only on the d columns C = w J of the
word applied to the embedding J : x -> x (x) psi:
tr_K(w (A (x) omega) w^dag) = sum_a C_a A C_a^dag, the Kraus channel of
the d x d pieces C_a of C (``channels.column_channel``).  C lives on the
cells of psi's support, one for a built bundle, held as one b x d block
per cell (``word_columns``).  A word one generator longer than a kept one
costs O(b^2 d) per occupied cell, against (2 d^2 + 1) O(D^3) for a dense
D x D power, the lifts A (x) omega and two D x D sandwiches per basis element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .channels import (
    SCHROEDINGER,
    KrausChannel,
    apply_channel,
    column_channel,
    compose,
    power,
    require_accepted,
    superoperator_matrix,
    vec,
)
from .errors import HorizonError, MemoryGuardError
from .linalg import (
    check_density_matrix,
    is_unitary,
    matrix_units,
    pure_state_vector,
)

# Default tolerance for dilation-identity verification.
DILATION_ATOL = 1e-9
# Per mode, the shift vector of each generator, one generator per channel
# and per register: G_j shifts the total register and, for j < k, register j.
SHIFTS = {"semigroup": ((1,),), "cyclic": ((1,),), "control": ((1, 1), (1, 0))}


@dataclass(frozen=True)
class VerificationReport:
    """Labelled residual table from a dilation verification sweep."""

    tolerance: float
    residuals: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.residuals) != len(self.labels):
            raise ValueError("residuals and labels differ in length")

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass(frozen=True)
class BlockPermutation:
    """G = sum_c B_c (x) |c><src(c)| on C^b (x) C^L, the cell index fast
    (row i * L + c): block B_c carries cell src(c) onto cell c.  ``src``
    is a permutation of the L cells, ``blocks`` is (L, b, b), both copied
    and read-only; ``dst``, the inverse of ``src``, gives the cell that
    each cell is carried onto."""

    src: np.ndarray
    blocks: np.ndarray
    dst: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        src = np.array(self.src, dtype=np.intp)
        blocks = np.array(self.blocks, dtype=np.complex128, order="C")
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2] or src.shape != blocks.shape[:1]:
            raise ValueError(f"blocks of shape {blocks.shape} do not fit {src.size} cells")
        if not np.array_equal(np.sort(src), np.arange(src.size)):
            raise ValueError("the block sources are not a permutation of the cells")
        if not np.all(np.isfinite(blocks)):
            raise ValueError("blocks contain NaN or Inf entries")
        dst = np.argsort(src)  # the inverse permutation
        for name, value in (("src", src), ("blocks", blocks), ("dst", dst)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def from_entries(cls, index, values, total: int, cells: int) -> BlockPermutation:
        """The form of the total x total generator whose row-major entries
        are ``values`` at the flat ``index`` and 0 elsewhere, on
        C^(total / cells) (x) C^cells, read off the exact pattern of its
        nonzero entries: entry (i L + c, j L + s) lies in the block from cell
        s to cell c.  A pattern that is no block permutation is refused."""
        b = total // cells
        row, col = np.divmod(index, total)
        i, c = np.divmod(row, cells)
        j, s = np.divmod(col, cells)
        nonzero = values != 0
        src = np.full(cells, -1)
        src[c[nonzero]] = s[nonzero]  # the permutation, if the nonzero entries hold one
        if not (src[c[nonzero]] == s[nonzero]).all():
            raise ValueError(f"generator is no block permutation of its {cells} register cells")
        inside = s == src[c]
        blocks = np.zeros((cells, b, b), dtype=np.complex128)
        blocks[c[inside], i[inside], j[inside]] = values[inside]
        return cls(src, blocks)

    @property
    def dim(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat row-major index, value) of every block entry, ascending:
        B_c[i, j] sits at row i L + c, column j L + src(c).  The inverse of
        ``from_entries``."""
        cells, b = self.blocks.shape[:2]
        rows = np.arange(b)[:, np.newaxis] * cells + np.arange(cells)  # (b, L): i L + c
        cols = np.arange(b)[:, np.newaxis] * cells + self.src  # (b, L): j L + src(c)
        index = rows[:, :, np.newaxis] * self.dim + cols.T[np.newaxis]
        return index.reshape(-1), self.blocks.transpose(1, 0, 2).reshape(-1)

    def __matmul__(self, other: BlockPermutation) -> BlockPermutation:
        """G H for H on the same cells: (G H)_c = B_c H_src(c)."""
        return BlockPermutation(other.src[self.src], self.blocks @ other.blocks[self.src])

    def power(self, e: int) -> BlockPermutation:
        """G^e for e >= 1, by repeated squaring: at most 2 log2(e) products."""
        if e < 1:
            raise ValueError(f"block permutation power {e}: the exponent must be at least 1")
        result, base = None, self
        while True:
            if e & 1:
                result = base if result is None else result @ base
            e >>= 1
            if not e:
                return result
            base = base @ base


@dataclass(frozen=True, init=False)
class RegisterDilation:
    """Generators (V,), or (U, V) for a control pair (T, S), each a block
    permutation on the register cells, and the vector psi of the pure state
    omega = |psi><psi| on K~ (x) registers.  ``registers`` is (N + 1,) for
    horizon N, (m,) for period m, or (N + 1, N + 1) for a control bundle."""

    mode: str
    dim: int
    ancilla_dim: int
    registers: tuple[int, ...]
    forms: tuple[BlockPermutation, ...]
    psi: np.ndarray

    def __init__(self, mode, dim, ancilla_dim, registers, forms, psi):
        if mode not in SHIFTS:
            raise ValueError(f"unknown dilation mode {mode!r}")
        count = len(SHIFTS[mode])
        registers = tuple(int(r) for r in registers)
        if len(registers) != count or len(set(registers)) != 1 or len(forms) != count:
            raise ValueError(f"{mode} bundles need {count} equal registers and generators")
        if mode == "cyclic" and registers[0] < 2:
            raise ValueError("period must be at least 2")
        cells = int(np.prod(registers))
        anc = ancilla_dim * cells
        n = dim * anc
        for g in forms:
            if g.blocks.shape[0] != cells or g.dim != n:
                raise ValueError(
                    f"generator of {g.blocks.shape[0]} cells and dimension {g.dim}, "
                    f"expected {cells} cells and dimension {n}"
                )
            # ||G^dag G - I||_F over the blocks: O(L b^3), not O(D^3)
            if not is_unitary(g.blocks):
                raise ValueError("bundle operator is not unitary within 1e-10")
        if np.shape(psi) != (anc,):
            raise ValueError(f"bundle ancilla state of shape {np.shape(psi)}, expected ({anc},)")
        try:
            psi = pure_state_vector(psi, anc)
        except ValueError as exc:
            raise ValueError(f"bundle ancilla state on K~ (x) the registers: {exc}") from exc
        for name, value in (
            ("mode", mode), ("dim", dim), ("ancilla_dim", ancilla_dim),
            ("registers", registers), ("forms", tuple(forms)), ("psi", psi),
        ):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.dim, self.ancilla_dim) + self.registers

    @property
    def shift_dim(self) -> int:
        return self.registers[0]

    @property
    def horizon(self) -> int | None:
        """The largest step count reproduced; None for cyclic bundles, which have none."""
        return None if self.mode == "cyclic" else self.registers[0] - 1

    @property
    def period(self) -> int | None:
        """The cycle length m of a cyclic bundle; None for the other modes."""
        return self.registers[0] if self.mode == "cyclic" else None


def guard_total_dim(total: int, limit: int) -> None:
    """Refuse a build whose total dimension exceeds the memory guard."""
    if total > limit:
        raise MemoryGuardError(
            f"total dimension {total} exceeds the guard {limit}; "
            f"raise the limit to proceed"
        )


def word_unitaries(channels: Sequence[KrausChannel], n_steps: int) -> np.ndarray:
    """The table of shape (n_steps + 2,) * k + (b, b): the Stinespring unitary
    of T_1^e_1 ... T_(k-1)^e_(k-1) T_k^(total - sum e) at each cell
    (total, e_1, ..., e_(k-1)), 1 <= total <= n_steps, the identity elsewhere
    and at index -1 of every axis.  One power table per channel
    (n_steps - 1 compositions), k - 1 compositions and one certification
    per word past total 1 (those are the channels, which the caller
    certifies), and one ``stinespring_unitaries`` for all words."""
    # imported here, the one user, so that verify and evolve do not load it
    from .stinespring import stinespring_unitaries

    k = len(channels)
    # one channel's words are its powers 1..N; with more, every exponent 0..N occurs
    exponents = range(1 if k == 1 else 0, n_steps + 1)
    powers = []
    for ch in channels:
        known = {}  # shared by the channel's exponents: one composition each
        powers.append({e: power(ch, e, known) for e in exponents})
    cells, words = [], []
    for total in range(1, n_steps + 1):
        for head in product(range(total + 1), repeat=k - 1):
            if sum(head) <= total:
                word = head + (total - sum(head),)
                channel = reduce(compose, (p[e] for p, e in zip(powers, word)))
                if total > 1:
                    require_accepted(channel)
                cells.append((total,) + head)
                words.append(channel)
    eye = np.eye(channels[0].dim_in ** 3, dtype=np.complex128)
    table = np.tile(eye, (n_steps + 2,) * k + (1, 1))  # the identity off the table
    table[tuple(np.transpose(cells))] = stinespring_unitaries(words)
    return table


def shift_generator(table: np.ndarray, registers: tuple[int, ...], shift: tuple[int, ...]):
    """The generator that moves the walker by ``shift``: cell c reads cell
    (c - shift) mod L and carries u(x) u(x - shift)^dag at x = c * shift
    (0 on the registers it does not shift), all blocks in one batched
    product over the table u of ``word_unitaries``."""
    shift = np.asarray(shift)
    cells = np.indices(registers).reshape(len(registers), -1).T  # row-major
    src = np.ravel_multi_index(((cells - shift) % registers).T, registers)
    u = table[tuple((cells * shift).T)]
    before = table[tuple((cells * shift - shift).T)]
    return BlockPermutation(src, u @ before.conj().swapaxes(1, 2))


def require_square(mode: str, channels: Sequence[KrausChannel]) -> None:
    """Refuse a channel that is not square or not in the schroedinger picture."""
    if any(ch.picture != SCHROEDINGER or not ch.is_square for ch in channels):
        raise ValueError(f"{mode} dilation needs square schroedinger channels")


def build_register_dilation(
    mode: str, channels: Sequence[KrausChannel], n_steps: int, max_total_dim: int
) -> RegisterDilation:
    """The dilation of ``channels`` on registers of length n_steps + 1: one
    word-unitary table, one generator per shift vector of the mode, and
    omega on the origin cell, (0, ..., 0) unless the register is a cycle."""
    require_square(mode, channels)
    for ch in channels:
        require_accepted(ch)
    d = channels[0].dim_in
    registers = (n_steps + 1,) * len(channels)
    cells = int(np.prod(registers))
    guard_total_dim(d ** 3 * cells, max_total_dim)

    table = word_unitaries(channels, n_steps)
    origin = (0,) * len(registers)
    if mode == "cyclic":
        # the cycle closes, U_m = U_0 = id: cell i - 1 carries U_i and the
        # walker waits on cell m - 1, so its first step lands on U_1
        table = np.roll(table, -1, axis=0)
        origin = (n_steps,)
    forms = [shift_generator(table, registers, shift) for shift in SHIFTS[mode]]
    # psi = e_0 (x) e_origin on K~ (x) the registers
    psi = np.zeros(d * d * cells, dtype=np.complex128)
    psi[np.ravel_multi_index(origin, registers)] = 1.0
    return RegisterDilation(mode, d, d * d, registers, forms, psi)


def require_mode(bundle: RegisterDilation, *modes: str) -> None:
    """Refuse a bundle of any other mode, naming its mode."""
    if bundle.mode not in modes:
        raise ValueError(f"a {bundle.mode} bundle, where a {' or '.join(modes)} bundle is needed")


def check_horizon(bundle: RegisterDilation, n: int) -> None:
    """Refuse a cyclic bundle, which has no horizon, and a step count
    outside 0..horizon, where the register would wrap."""
    require_mode(bundle, "semigroup", "control")
    if not 0 <= n <= bundle.horizon:
        raise HorizonError(f"step {n} outside the horizon 0..{bundle.horizon}; the register wraps")


def check_system_state(bundle: RegisterDilation, rho0) -> np.ndarray:
    """A density matrix on the bundle's system space H."""
    rho = check_density_matrix(rho0)
    if rho.shape != (bundle.dim, bundle.dim):
        raise ValueError(f"state of shape {rho.shape} does not match system dim {bundle.dim}")
    return rho


def _apply_power(g: BlockPermutation, e: int, columns):
    """g^e on columns (cells, blocks): e steps while they cost no more than
    one product of the blocks (e * blocks.size <= g.blocks.size), else g^e
    by squaring on the blocks first."""
    cells, blocks = columns
    if e * blocks.size > g.blocks.size:
        g, e = g.power(e), 1
    for _ in range(e):
        cells = g.dst[cells]
        blocks = g.blocks[cells] @ blocks
    return cells, blocks


def _exponents(bundle: RegisterDilation, exponents: Sequence[int]) -> tuple[int, ...]:
    """A word's exponents, refused unless there is one per generator and
    none is negative."""
    exponents = tuple(exponents)
    if len(exponents) != len(bundle.forms):
        raise ValueError(
            f"word {exponents}: a {bundle.mode} bundle takes {len(bundle.forms)} exponent(s)"
        )
    if min(exponents) < 0:
        raise ValueError(f"word {exponents}: exponents must be nonnegative")
    return exponents


def word_columns(bundle: RegisterDilation, exponents: Sequence[int]):
    """w J for the word w = G_1^e_1 G_2^e_2 ..., generators applied right
    to left, as (cells, blocks): the cells where J = id (x) psi is nonzero
    and one (b, d) block per cell, column x of which is e_x (x) psi there."""
    exponents = _exponents(bundle, exponents)
    amplitudes = bundle.psi.reshape(bundle.ancilla_dim, -1)
    cells = np.flatnonzero(amplitudes.any(axis=0))
    blocks = np.einsum("xy,ac->cxay", np.eye(bundle.dim), amplitudes[:, cells])
    columns = (cells, blocks.reshape(cells.size, -1, bundle.dim))
    for g, e in reversed(list(zip(bundle.forms, exponents))):
        columns = _apply_power(g, e, columns)
    return columns


def word_channel(bundle: RegisterDilation, columns) -> KrausChannel:
    """The channel A -> tr_K(C A C^dag) of columns C = (cells, blocks): the
    blocks stacked are columns on C^cells (x) C^d (x) C^(b / d), one Kraus
    operator per occupied cell and ancilla index."""
    return column_channel(columns[1].reshape(-1, bundle.dim), len(columns[1]), bundle.dim)


def reconstruct(
    bundle: RegisterDilation, exponents: Sequence[int], a: np.ndarray, keep=0
) -> np.ndarray:
    """tr(w (a (x) omega) w^dag) for the word with these exponents, traced
    down to the system (keep=0) or to every register (keep=2, or (2, 3))."""
    registers = tuple(range(2, len(bundle.shape)))
    keep = (keep,) if isinstance(keep, int) else tuple(keep)
    if keep not in ((0,), registers):
        raise ValueError(f"keep {keep}: a {bundle.mode} bundle keeps (0,) or {registers}")
    columns = word_columns(bundle, exponents)
    if keep == (0,):
        return apply_channel(word_channel(bundle, columns), a)
    cells, blocks = columns
    total = int(np.prod(bundle.registers))
    out = np.zeros((total, total), dtype=np.complex128)
    out[np.ix_(cells, cells)] = np.einsum("cqz,eqz->ce", blocks @ a, blocks.conj())
    return out


def power_words(ch: KrausChannel, n_max: int, exponent=lambda n: n):
    """(label, exponents, oracle) triples for T^0 .. T^n_max, the oracle a
    superoperator matrix power; V^exponent(n) reproduces T^n."""
    m = superoperator_matrix(ch)
    m_power = np.eye(m.shape[0], dtype=np.complex128)
    for n in range(n_max + 1):
        yield f"n={n}", (exponent(n),), m_power
        m_power = m_power @ m


def _advance(bundle: RegisterDilation, kept: dict, exponents: tuple[int, ...]):
    """Columns of a word, from the kept columns of a word that differs only
    by a lower exponent of the word's leftmost generator (its first nonzero
    exponent), or from J if no such word is kept."""
    i = next((i for i, e in enumerate(exponents) if e), 0)
    rest = exponents[:i] + exponents[i + 1:]
    start = max(
        (p for p in kept if p[:i] + p[i + 1:] == rest and p[i] <= exponents[i]),
        key=lambda p: p[i],
        default=None,
    )
    if start is None:
        return word_columns(bundle, exponents)
    return _apply_power(bundle.forms[i], exponents[i] - start[i], kept[start])


def verify_words(
    bundle: RegisterDilation,
    channels: Sequence[KrausChannel],
    words: Iterable[tuple[str, Sequence[int], np.ndarray]],
    tol: float,
    operators: Sequence[np.ndarray] | None = None,
) -> VerificationReport:
    """Residual table over (label, exponents, oracle superoperator) words:
    the worst trace-norm gap, over ``operators`` (a full operator basis by
    default), between the reconstruction through the stored generators and
    omega and the oracle.  A word's columns advance from a word one total
    degree lower by one generator product; only the words of the current
    and the previous total degree are kept."""
    for ch in channels:
        if ch.picture != SCHROEDINGER or not ch.is_square:
            raise ValueError("verification needs square schroedinger channels")
        if ch.dim_in != bundle.dim:
            raise ValueError(
                f"channel dimension {ch.dim_in} does not match bundle dimension {bundle.dim}"
            )
    if operators is None:
        operators = matrix_units(bundle.dim)
    # one column vec(e) per operator, so that one product maps them all
    stacked = np.stack([vec(e) for e in operators], axis=1)
    degree, previous, current = None, {}, {}
    residuals = []
    labels = []
    for label, exponents, oracle in words:
        exponents = _exponents(bundle, exponents)
        if sum(exponents) != degree:
            degree, previous, current = sum(exponents), current, {}
        columns = _advance(bundle, {**previous, **current}, exponents)
        current[exponents] = columns
        gap = superoperator_matrix(word_channel(bundle, columns)) - oracle
        # unvec of each image (column-stacking); the transposes have the
        # same trace norms, but not to the last bit
        images = (gap @ stacked).T.reshape(-1, bundle.dim, bundle.dim).transpose(0, 2, 1)
        residuals.append(float(np.linalg.svd(images, compute_uv=False).sum(axis=1).max()))
        labels.append(label)
    return VerificationReport(tolerance=tol, residuals=tuple(residuals), labels=tuple(labels))
