"""Quantum channels as finite Kraus families.

A channel stores its r Kraus operators of shape (dim_out, dim_in) as one
(r, dim_out, dim_in) array, so composition, the Choi operator and the
Kraus-sum identity are each one array product, plus a picture flag:

* ``schroedinger`` acts on states,      A -> sum_i c_i K_i A K_i^dag,
  and is trace preserving when sum_i c_i K_i^dag K_i == id;
* ``heisenberg`` acts on observables,   B -> sum_i c_i K_i^dag B K_i,
  and is unital under the same Kraus-sum identity.

``dual`` therefore flips the picture flag and nothing else, and is an
involution.  The optional real ``coefficients`` (default: all ones)
extend the plain sandwich to signed combinations; every
Hermiticity-preserving map can be written that way, which is what makes
non-CP test fixtures such as the transpose map expressible in the same
container while keeping the Choi positivity test meaningful.

Both pictures act by one rule, X -> sum_i c_i A_i X A_i^dag over the
acting stack A_i = K_i (Schroedinger) or K_i^dag (Heisenberg).  One
channel algebra serves composition, powers and mixtures: products, matrix
powers and weighted sums of superoperators, read back by one Choi cut
that keeps sqrt|lambda| v, with coefficient sign lambda, of every Choi
eigenpair above the rounding floor KEEP_RTOL * max|lambda|, so each
result holds at most dim_in * dim_out operators.

Every square dilation takes its certified Kraus families from one place,
``kraus_of_superoperators``, behind one precondition, ``require_square``.
Every CPTP verdict is one computation: ``certify_chois`` of the Choi
matrices reshuffled from Schroedinger superoperators (``_chois``).

Superoperators use column-stacking vectorization,
vec(X A Y) == (Y^T (x) X) vec(A), so a Schroedinger channel has matrix
sum_i c_i conj(K_i) (x) K_i.  Choi operators use the unnormalized
maximally entangled vector: C == sum_ij T(E_ij) (x) E_ij, whose rank-one
pieces are row-major vectorizations of the Kraus operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RejectedChannelError
from .linalg import (
    as_complex_matrix,
    frozen_matrix,
    hermitize,
    is_unitary,
    unitarity_residual,
)

SCHROEDINGER = "schroedinger"
HEISENBERG = "heisenberg"

# Default certification tolerance for CPTP acceptance.
CPTP_ATOL = 1e-10
# Choi eigenvalues at or below RANK_RTOL * (largest eigenvalue) count as zero.
RANK_RTOL = 1e-10
# Re-extraction keeps every Choi eigenvalue above KEEP_RTOL * (largest): a
# dropped eigenvalue is trace the Kraus sum loses (a cut at RANK_RTOL sheds
# up to CPTP_ATOL per composition), and Choi sums round near 1e-16 * largest.
KEEP_RTOL = 1e-13
# detect_unitary_conjugation: Choi eigenvalues at or below CONJUGATION_TOL *
# (largest) count as zero, and the one operator left must be unitary within it.
CONJUGATION_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """A linear map in Kraus form; immutable after construction.

    ``dim_in``/``dim_out`` always refer to the Schroedinger orientation
    (the Kraus operators are dim_out x dim_in); the Heisenberg action of
    the same stored family runs in the reverse direction.  The operators
    are held as one read-only (r, dim_out, dim_in) array, ``stack``,
    validated once; ``kraus`` is the tuple of its r views.  ``kraus`` may
    be given as such an array or as a sequence of matrices, and is copied.
    """

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]
    picture: str = SCHROEDINGER
    coefficients: tuple[float, ...] | None = None
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("channel dimensions must be positive")
        if self.picture not in (SCHROEDINGER, HEISENBERG):
            raise ValueError(f"unknown picture {self.picture!r}")
        if len(self.kraus) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        try:
            stack = np.array(self.kraus, dtype=np.complex128)  # a C-order copy
        except ValueError as exc:
            raise ValueError("Kraus operators differ in shape") from exc
        if stack.ndim != 3 or stack.shape[1:] != (self.dim_out, self.dim_in):
            raise ValueError(
                f"Kraus operators of shape {stack.shape[1:]} do not match "
                f"({self.dim_out}, {self.dim_in})"
            )
        if not np.all(np.isfinite(stack)):
            raise ValueError("Kraus operators contain NaN or Inf entries")
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "kraus", tuple(stack))
        if self.coefficients is not None:
            coeffs = tuple(float(c) for c in self.coefficients)
            if len(coeffs) != len(stack):
                raise ValueError("coefficients and Kraus list differ in length")
            if not all(math.isfinite(c) for c in coeffs):
                raise ValueError("coefficients must be finite reals")
            object.__setattr__(self, "coefficients", coeffs)

    @property
    def is_square(self) -> bool:
        return self.dim_in == self.dim_out

    def coeffs(self) -> tuple[float, ...]:
        return self.coefficients if self.coefficients is not None else (1.0,) * len(self.kraus)

    @property
    def weights(self) -> np.ndarray:
        """The coefficients as an array of length r."""
        return np.array(self.coeffs(), dtype=np.float64)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi operator of a map B^1(in) -> B^1(out), on the out (x) in space."""

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        m = frozen_matrix(self.matrix)
        n = self.dim_in * self.dim_out
        if m.shape != (n, n):
            raise ValueError(f"Choi matrix of shape {m.shape}, expected {(n, n)}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of verify_cptp: Choi positivity plus the Kraus-sum identity."""

    cp: bool
    tp_or_unital: bool
    max_violation: float

    @property
    def accepted(self) -> bool:
        return self.cp and self.tp_or_unital


def identity_channel(dim: int, picture: str = SCHROEDINGER) -> KrausChannel:
    return KrausChannel(dim, dim, (np.eye(dim, dtype=np.complex128),), picture=picture)


def unitary_channel(u, picture: str = SCHROEDINGER) -> KrausChannel:
    """The conjugation A -> U A U^dag for unitary U."""
    m = as_complex_matrix(u)
    if not is_unitary(m):
        raise ValueError("unitary_channel needs a unitary matrix")
    return KrausChannel(m.shape[0], m.shape[0], (m,), picture=picture)


def _acting(ch: KrausChannel) -> np.ndarray:
    """K_i (Schroedinger) or K_i^dag (Heisenberg): X -> sum_i c_i A_i X A_i^dag."""
    return ch.stack if ch.picture == SCHROEDINGER else ch.stack.conj().transpose(0, 2, 1)


def apply_channel(ch: KrausChannel, a) -> np.ndarray:
    """Apply the channel map to an operator of the appropriate size."""
    m = as_complex_matrix(a)
    acting = _acting(ch)
    side = acting.shape[2]
    if m.shape != (side, side):
        raise ValueError(f"operator of shape {m.shape} does not match channel input {side}")
    terms = acting @ m @ acting.conj().transpose(0, 2, 1)
    return np.sum(ch.weights[:, np.newaxis, np.newaxis] * terms, axis=0)


def column_channel(columns: np.ndarray, before: int, dim_out: int) -> KrausChannel:
    """The channel A -> tr_E(C A C^dag) of columns C = U (1 (x) psi) with rows on
    C^before (x) C^dim_out (x) C^after, E the before and after factors."""
    dim_in = columns.shape[1]
    stack = columns.reshape(before, dim_out, -1, dim_in).transpose(0, 2, 1, 3)
    return KrausChannel(dim_in, dim_out, stack.reshape(-1, dim_out, dim_in))


def vec(a) -> np.ndarray:
    """Column-stacking vectorization."""
    return as_complex_matrix(a).flatten(order="F")


def unvec(v, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Inverse of vec; square by default."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    if shape is None:
        side = math.isqrt(v.size)
        if side * side != v.size:
            raise ValueError(f"vector of length {v.size} is not a square matrix")
        shape = (side, side)
    return v.reshape(shape, order="F")


def superoperator_matrix(ch: KrausChannel) -> np.ndarray:
    """Matrix M with vec(channel(A)) == M @ vec(A), column stacking.

    This is the brute-force oracle the dilation modules verify against:
    powers of the channel are plain matrix powers of M.
    """
    acting = _acting(ch)
    r, rows, cols = acting.shape
    # conj(A_i) (x) A_i for every i in one broadcast product
    blocks = acting.conj()[:, :, None, :, None] * acting[:, None, :, None, :]
    blocks = blocks.reshape(r, rows * rows, cols * cols)
    return np.sum(ch.weights[:, np.newaxis, np.newaxis] * blocks, axis=0)


def apply_superoperator(m, a) -> np.ndarray:
    """Apply a vectorized-channel matrix to an operator."""
    m = as_complex_matrix(m)
    a = as_complex_matrix(a)
    image = m @ vec(a)
    d_out = math.isqrt(image.size)
    return unvec(image, (d_out, d_out))


def _chois(superoperators: np.ndarray) -> np.ndarray:
    """The Choi matrices (W, out, in, out, in) of a stack (W, d_out^2, d_in^2)
    of superoperators: the reshuffle M[(b, a), (j, i)] == C[(a, i), (b, j)]
    (Watrous 2018, ch. 2)."""
    d_out, d_in = (math.isqrt(n) for n in superoperators.shape[1:])
    return superoperators.reshape(-1, d_out, d_out, d_in, d_in).transpose(0, 2, 4, 1, 3)


def choi(ch: KrausChannel) -> ChoiMatrix:
    """Choi operator (T (x) id)(|Omega><Omega|) of a Schroedinger channel,
    reshuffled from its superoperator by ``_chois``."""
    if ch.picture != SCHROEDINGER:
        raise ValueError("choi is defined on the schroedinger picture")
    n = ch.dim_in * ch.dim_out
    return ChoiMatrix(_chois(superoperator_matrix(ch)[np.newaxis]).reshape(n, n),
                      ch.dim_in, ch.dim_out)


def certify_chois(chois: np.ndarray):
    """Certify W maps from their Choi matrices, a (W, out, in, out, in) stack:
    the CP violation max(||C - C^dag||_F, -lambda_min) and the TP violation
    ||tr_out C - id||_F = ||sum_i c_i K_i^dag K_i - id||_F of each (inf if
    not finite), and the spectra of the Hermitian parts, from one batched eigh."""
    count, rows, cols = chois.shape[:3]
    flat = chois.reshape(count, rows * cols, rows * cols)
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.linalg.norm(flat - flat.conj().swapaxes(1, 2), axis=(1, 2))
        hermitian = hermitize(flat)
        tp = np.linalg.norm(np.trace(chois, axis1=1, axis2=3) - np.eye(cols), axis=(1, 2))
    finite = np.isfinite(hermitian).all(axis=(1, 2))
    eigenvalues, vectors = np.linalg.eigh(np.where(finite[:, None, None], hermitian, 0.0))
    cp = np.where(finite, np.maximum(herm, -eigenvalues[:, 0]), np.inf)
    return cp, np.where(np.isnan(tp), np.inf, tp), eigenvalues, vectors


def _report(cp: float, tp: float, tol: float) -> CertificationReport:
    return CertificationReport(bool(cp <= tol), bool(tp <= tol), float(max(cp, tp)))


def verify_cptp(ch: KrausChannel, tol: float = CPTP_ATOL) -> CertificationReport:
    """Certify complete positivity (Choi PSD) and trace preservation or
    unitality (the shared Kraus-sum identity sum_i c_i K_i^dag K_i == id) by
    ``certify_chois`` of the Choi matrix reshuffled from the Schroedinger
    superoperator of the stored family (that of ``dual(ch)`` for a
    Heisenberg channel): the computation of the build's pass, bit for bit."""
    stored = ch if ch.picture == SCHROEDINGER else dual(ch)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite map is refused
        superoperator = superoperator_matrix(stored)
    cp, tp, _, _ = certify_chois(_chois(superoperator[np.newaxis]))
    return _report(cp[0], tp[0], tol)


def kraus_of_superoperators(superoperators: np.ndarray, labels) -> np.ndarray:
    """The zero-padded Kraus families (W, d^2, d, d) of W square maps from
    their superoperators, certified and cut at KEEP_RTOL by ``certify_chois``
    of their Choi matrices.  A refused map raises RejectedChannelError
    naming its label."""
    d = math.isqrt(superoperators.shape[1])
    cp, tp, eigenvalues, vectors = certify_chois(_chois(superoperators))
    for w in np.flatnonzero((cp > CPTP_ATOL) | (tp > CPTP_ATOL))[:1]:
        report = _report(cp[w], tp[w], CPTP_ATOL)
        raise RejectedChannelError(
            f"channel rejected: cp={report.cp}, tp_or_unital={report.tp_or_unital}, "
            f"max_violation={report.max_violation:.3e}, word {labels[w]}"
        )
    return _top_kraus(eigenvalues, vectors, KEEP_RTOL, (d, d))[0]


def kraus_from_choi(c: ChoiMatrix, tol: float = RANK_RTOL) -> KrausChannel:
    """Extract a minimal Kraus family from a PSD Choi operator.

    Eigenvectors with eigenvalue above ``tol * lambda_max`` become Kraus
    operators scaled by sqrt(eigenvalue), largest first; smaller
    eigenvalues are numerical zeros.  Raises unless ||C - C^dag||_F is at
    most ``tol * max(1, max |C_ij|)`` and -lambda_min at most
    ``tol * max(1, lambda_max)``, or if no operator is kept.

    The default cut, ``tol = RANK_RTOL``, can drop trace that a certified
    channel needs: the Choi matrix of ``convex_combine([identity_channel(2),
    random_channel(2, 4, 1)], [1 - 1e-10, 1e-10])`` comes back as one
    operator, which ``verify_cptp`` rejects at 1.02e-10.  Pass
    ``tol=KEEP_RTOL`` to keep every eigenvalue above rounding (four
    operators, accepted).
    """
    m = c.matrix
    if np.linalg.norm(m - m.conj().T) > tol * max(1.0, float(np.abs(m).max())):
        raise ValueError("Choi matrix is not Hermitian within tolerance")
    eigenvalues, vectors = np.linalg.eigh(hermitize(m))
    if eigenvalues[0] < -tol * max(1.0, eigenvalues[-1]):
        raise ValueError(f"Choi matrix is not PSD (min eigenvalue {eigenvalues[0]:.3e})")
    stack, kept = _top_kraus(eigenvalues, vectors, tol, (c.dim_out, c.dim_in))
    return KrausChannel(c.dim_in, c.dim_out, stack[:kept])


def _top_kraus(eigenvalues, vectors, rtol: float, shape):
    """sqrt(lambda) v, shaped (dim_out, dim_in), of every Choi eigenpair above
    rtol * lambda_max, largest first (eigh's eigenvalues ascend), zero padded
    along a stack (..., n) of spectra, and the number kept.  Each operator's
    first entry in row-major order whose modulus exceeds 1e-8 times its
    largest is made real positive, so no eigensolver phase reaches it."""
    eigenvalues, vectors = eigenvalues[..., ::-1], vectors[..., ::-1]
    kept = eigenvalues > rtol * eigenvalues[..., :1]
    rows = np.swapaxes(vectors * np.sqrt(np.where(kept, eigenvalues, 0.0))[..., None, :], -1, -2)
    size = np.abs(rows)
    first = np.argmax(size > 1e-8 * size.max(axis=-1, keepdims=True), axis=-1)
    lead = np.take_along_axis(rows, first[..., None], axis=-1)
    phase = lead.conj() / np.where(kept[..., None], np.abs(lead), 1.0)
    return (rows * phase).reshape(*rows.shape[:-1], *shape), kept.sum(axis=-1)


def _from_superoperator(m: np.ndarray, picture: str = SCHROEDINGER,
                        rtol: float = KEEP_RTOL) -> KrausChannel:
    """The channel of a Hermiticity-preserving map from its superoperator M
    in ``picture``, (d_out^2, d_in^2) in the Schroedinger orientation: the
    stored family's Schroedinger superoperator is M, or in the Heisenberg
    picture its adjoint M^dag, so a product there is the reversed product
    of the stored ones.  One eigh of its Choi matrix gives sqrt|lambda| v,
    with coefficient sign lambda (none when all are +1), of every eigenpair
    above rtol * max|lambda|, largest |lambda| first, phases by
    ``_top_kraus``; the zero map keeps one zero operator."""
    choi = _chois((m if picture == SCHROEDINGER else m.conj().T)[np.newaxis])[0]
    dim_out, dim_in = choi.shape[:2]
    eigenvalues, vectors = np.linalg.eigh(hermitize(choi.reshape(dim_out * dim_in, -1)))
    order = np.argsort(np.abs(eigenvalues), kind="stable")
    stack, kept = _top_kraus(np.abs(eigenvalues[order]), vectors[:, order], rtol, (dim_out, dim_in))
    signs = np.sign(eigenvalues[order[::-1]][:max(kept, 1)])
    coefficients = None if np.all(signs > 0) else signs
    return KrausChannel(dim_in, dim_out, stack[:len(signs)], picture, coefficients)


def compose(t1: KrausChannel, t2: KrausChannel) -> KrausChannel:
    """The composite map t1 after t2: the product of the two superoperators,
    read back by ``_from_superoperator``."""
    if t1.picture != t2.picture:
        raise ValueError("cannot compose channels in different pictures")
    consumes, produces = _acting(t1).shape[2], _acting(t2).shape[1]
    if consumes != produces:
        raise ValueError(f"dimension mismatch: t1 consumes {consumes}, t2 produces {produces}")
    return _from_superoperator(superoperator_matrix(t1) @ superoperator_matrix(t2), t1.picture)


def power(t: KrausChannel, n: int) -> KrausChannel:
    """The n-th iterate of a square channel: the n-th matrix power of its
    superoperator, by repeated squaring, read back by
    ``_from_superoperator``; n == 0 is the identity channel and n == 1 the
    channel itself."""
    if not t.is_square:
        raise ValueError("powers need a square channel")
    if n < 0:
        raise ValueError("negative powers are not defined for channels")
    if n == 0:
        return identity_channel(t.dim_in, picture=t.picture)
    if n == 1:
        return t
    return _from_superoperator(np.linalg.matrix_power(superoperator_matrix(t), n), t.picture)


def convex_combine(channels, weights) -> KrausChannel:
    """Mixture sum_k w_k T_k of channels with equal shape and picture: the
    weighted sum of their superoperators, read back by ``_from_superoperator``."""
    channels = list(channels)
    weights = [float(w) for w in weights]
    if not channels or len(channels) != len(weights):
        raise ValueError("need equally many channels and weights")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights sum to {sum(weights)!r}, not 1")
    if len({(ch.dim_in, ch.dim_out, ch.picture) for ch in channels}) > 1:
        raise ValueError("mixture members must share dimensions and picture")
    mixed = sum(w * superoperator_matrix(ch) for w, ch in zip(weights, channels))
    return _from_superoperator(mixed, channels[0].picture)


def dual(t: KrausChannel) -> KrausChannel:
    """The adjoint with respect to tr(B T(A)) == tr(T*(B) A): same Kraus
    family, opposite picture.  An involution in finite dimension."""
    flipped = HEISENBERG if t.picture == SCHROEDINGER else SCHROEDINGER
    return KrausChannel(t.dim_in, t.dim_out, t.stack, picture=flipped,
                        coefficients=t.coefficients)


def detect_unitary_conjugation(t: KrausChannel) -> np.ndarray | None:
    """Return U (phase normalized: first significant entry in row-major
    order made positive real) when the channel acts as A -> U A U^dag,
    i.e. when ``_from_superoperator`` cut at CONJUGATION_TOL leaves one
    operator, of coefficient +1 and unitary within CONJUGATION_TOL;
    otherwise None."""
    require_square("unitary detection", [t])
    cut = _from_superoperator(superoperator_matrix(t), rtol=CONJUGATION_TOL)
    if cut.coefficients is not None or len(cut.kraus) != 1:
        return None
    return cut.kraus[0] if unitarity_residual(cut.kraus[0]) <= CONJUGATION_TOL else None


def random_channel(dim: int, rank: int, seed: int) -> KrausChannel:
    """CPTP channel from a seeded random isometry.

    A complex Gaussian (dim * rank) x dim matrix is orthonormalized by QR
    and sliced into ``rank`` stacked blocks, so sum K^dag K == id holds up
    to rounding.  Deterministic for a fixed seed."""
    if not 1 <= rank <= dim * dim:
        raise ValueError(f"rank must lie in [1, {dim * dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim * rank, dim)) + 1j * rng.standard_normal((dim * rank, dim))
    q, _ = np.linalg.qr(g)
    return KrausChannel(dim, dim, q.reshape(rank, dim, dim))


def require_square(what: str, channels) -> None:
    """Refuse any channel that is not square or not in the schroedinger
    picture, and channels of unequal dimension, with a message saying
    that ``what`` needs them."""
    if any(ch.picture != SCHROEDINGER or not ch.is_square for ch in channels):
        raise ValueError(f"{what} needs square schroedinger channels")
    dims = [ch.dim_in for ch in channels]
    if len(set(dims)) > 1:
        raise ValueError(f"{what} needs channels of equal dimension, got "
                         f"{' and '.join(map(str, dims))}")


def require_certified(channels) -> None:
    """Refuse the first of one square Schroedinger channel (word T^1) or a
    pair (words T^1 S^0 and T^0 S^1) that ``kraus_of_superoperators`` does
    not certify: one batch of their superoperators, as in the build's pass."""
    labels = ["T^1"] if len(channels) == 1 else ["T^1 S^0", "T^0 S^1"]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite map is refused
        superoperators = np.stack([superoperator_matrix(ch) for ch in channels])
    kraus_of_superoperators(superoperators, labels)

