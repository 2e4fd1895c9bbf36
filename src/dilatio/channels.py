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
re-extraction keeps families at most dim_in * dim_out long: the Choi
eigenvectors above the rounding floor KEEP_RTOL * lambda_max.

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


def _choi_of(stack: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i c_i r_i r_i^dag over the row-major vecs r_i of a Kraus stack
    (the out (x) in layout), as one product R^T diag(c) conj(R)."""
    rows = stack.reshape(len(stack), -1)
    return (rows.T * weights) @ rows.conj()


def choi(ch: KrausChannel) -> ChoiMatrix:
    """Choi operator (T (x) id)(|Omega><Omega|) of a Schroedinger channel."""
    if ch.picture != SCHROEDINGER:
        raise ValueError("choi is defined on the schroedinger picture")
    return ChoiMatrix(_choi_of(ch.stack, ch.weights), ch.dim_in, ch.dim_out)


def verify_cptp(ch: KrausChannel, tol: float = CPTP_ATOL) -> CertificationReport:
    """Certify complete positivity (Choi PSD) and trace preservation or
    unitality (the shared Kraus-sum identity sum_i c_i K_i^dag K_i == id).
    A channel whose Choi matrix or Kraus sum overflows certifies nothing:
    the violation of each that is not finite reads inf."""
    weights = ch.weights
    with np.errstate(over="ignore", invalid="ignore"):
        choi_matrix = _choi_of(_acting(ch), weights)
        herm_violation = float(np.linalg.norm(choi_matrix - choi_matrix.conj().T))
        hermitian = hermitize(choi_matrix)

        # sum_i c_i K_i^dag K_i over the rows of every K_i, one product
        rows = ch.stack.reshape(-1, ch.dim_in)
        ksum = (rows.conj().T * np.repeat(weights, ch.dim_out)) @ rows
        tp_violation = float(np.linalg.norm(ksum - np.eye(ch.dim_in)))
    if np.isfinite(hermitian).all():
        eigenvalues = np.linalg.eigvalsh(hermitian)
        cp_violation = max(herm_violation, max(0.0, float(-eigenvalues.min())))
    else:
        cp_violation = math.inf
    if math.isnan(tp_violation):
        tp_violation = math.inf

    return CertificationReport(
        cp=cp_violation <= tol,
        tp_or_unital=tp_violation <= tol,
        max_violation=max(cp_violation, tp_violation),
    )


def kraus_from_choi(c: ChoiMatrix, tol: float = RANK_RTOL) -> KrausChannel:
    """Extract a minimal Kraus family from a PSD Choi operator.

    Eigenvectors with eigenvalue above ``tol * lambda_max`` become Kraus
    operators scaled by sqrt(eigenvalue), largest first; smaller
    eigenvalues are numerical zeros.  Raises on non-PSD input.

    The default cut, ``tol = RANK_RTOL``, can drop trace that a certified
    channel needs: the Choi matrix of ``convex_combine([identity_channel(2),
    random_channel(2, 4, 1)], [1 - 1e-10, 1e-10])`` comes back as one
    operator, which ``verify_cptp`` rejects at 1.02e-10.  Pass
    ``tol=KEEP_RTOL`` to keep every eigenvalue above rounding (four
    operators, accepted).
    """
    m = c.matrix
    scale = max(1.0, float(np.abs(m).max()))
    if np.linalg.norm(m - m.conj().T) > tol * scale:
        raise ValueError("Choi matrix is not Hermitian within tolerance")
    eigenvalues, vectors = np.linalg.eigh(hermitize(m))
    top = float(eigenvalues.max())
    if float(eigenvalues.min()) < -tol * max(1.0, top):
        raise ValueError(f"Choi matrix is not PSD (min eigenvalue {eigenvalues.min():.3e})")
    if top <= 0.0:
        raise ValueError("Choi matrix is zero; no Kraus family exists")
    stack = _top_kraus(eigenvalues, vectors, tol, (c.dim_out, c.dim_in))
    return KrausChannel(c.dim_in, c.dim_out, stack)


def _top_kraus(eigenvalues, vectors, rtol: float, shape) -> np.ndarray:
    """sqrt(lambda) v, shaped (dim_out, dim_in), of every Choi eigenpair above
    rtol * lambda_max, largest first (eigh's eigenvalues ascend), each with
    one phase rule: its first entry in row-major order whose modulus exceeds
    1e-8 times its largest is made real positive, so the family does not
    depend on the phase the eigensolver picks."""
    kept = np.flatnonzero(eigenvalues > rtol * eigenvalues[-1])[::-1]
    rows = (vectors[:, kept] * np.sqrt(eigenvalues[kept])).T
    size = np.abs(rows)
    first = np.argmax(size > 1e-8 * size.max(axis=1, keepdims=True), axis=1)
    lead = rows[np.arange(len(rows)), first]
    return (rows * (lead.conj() / np.abs(lead))[:, np.newaxis]).reshape(-1, *shape)


def _reextract(stack: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """At most dim_in * dim_out operators with the map of a CP family (in
    either picture: stored families agree in one iff in the other)."""
    eigenvalues, vectors = np.linalg.eigh(hermitize(_choi_of(stack, weights)))
    return _top_kraus(eigenvalues, vectors, KEEP_RTOL, stack.shape[1:])


def plain_kraus(ch: KrausChannel) -> np.ndarray:
    """A coefficient-free stack of at most dim_in * dim_out operators with the
    map of a CP channel: the stack, scaled by sqrt(c_i) if no c_i is negative,
    re-extracted if it is longer or signed."""
    weights = ch.weights
    if len(ch.stack) > ch.dim_in * ch.dim_out or np.any(weights < 0):
        return _reextract(ch.stack, weights)
    if ch.coefficients is None:
        return ch.stack
    return np.sqrt(weights)[:, np.newaxis, np.newaxis] * ch.stack


def _family(stack: np.ndarray, weights: np.ndarray, picture: str) -> KrausChannel:
    """The channel of a composite or mixed stack: re-extracted when longer than
    dim_in * dim_out unless signed, without coefficients when all are one."""
    dim_out, dim_in = stack.shape[1:]
    if len(stack) > dim_in * dim_out and np.all(weights >= 0):
        stack, weights = _reextract(stack, weights), None
    elif np.all(weights == 1.0):
        weights = None
    return KrausChannel(dim_in, dim_out, stack, picture=picture, coefficients=weights)


def compose(t1: KrausChannel, t2: KrausChannel) -> KrausChannel:
    """The composite map t1 after t2, with Kraus-rank re-extraction.

    Every product of a left and a right operator in one broadcast matmul,
    left index slow, so the stack equals the pairwise products bit for bit;
    the coefficients multiply as an outer product in the same order."""
    if t1.picture != t2.picture:
        raise ValueError("cannot compose channels in different pictures")
    if t1.picture == SCHROEDINGER:
        if t1.dim_in != t2.dim_out:
            raise ValueError(
                f"dimension mismatch: t1 consumes {t1.dim_in}, t2 produces {t2.dim_out}"
            )
        left, right = t1, t2
    else:
        # B -> t1(t2(B)) = sum (K2 K1)^dag B (K2 K1) in the stored orientation
        if t1.dim_out != t2.dim_in:
            raise ValueError(
                f"dimension mismatch: t1 consumes {t1.dim_out}, t2 produces {t2.dim_in}"
            )
        left, right = t2, t1
    products = left.stack[:, np.newaxis] @ right.stack[np.newaxis]
    stack = products.reshape(-1, *products.shape[2:])
    return _family(stack, np.outer(left.weights, right.weights).ravel(), t1.picture)


def power(t: KrausChannel, n: int, known: dict[int, KrausChannel] | None = None) -> KrausChannel:
    """The n-th iterate of a square channel; n == 0 is the identity channel.

    Repeated squaring: T^n = T^(n - h) T^h for the top bit h of n, and
    T^2h = T^h T^h, so one call makes floor(log2 n) + popcount(n) - 1
    compositions.  ``known`` maps exponents to powers of t already formed;
    it is read and filled, so a caller tabulating T^1 .. T^N through one
    dict makes one composition per exponent, and every entry is the same
    channel, bit for bit, as a fresh ``power(t, e)``.  All factors are
    powers of t and commute, so only rounding depends on the order.
    """
    if not t.is_square:
        raise ValueError("powers need a square channel")
    if n < 0:
        raise ValueError("negative powers are not defined for channels")
    if n == 0:
        return identity_channel(t.dim_in, picture=t.picture)
    known = {} if known is None else known
    known.setdefault(1, t)

    def walk(e: int) -> KrausChannel:
        if e not in known:
            h = 1 << (e.bit_length() - 1)
            pair = (walk(h >> 1), walk(h >> 1)) if e == h else (walk(e - h), walk(h))
            known[e] = compose(*pair)
        return known[e]

    return walk(n)


def convex_combine(channels, weights) -> KrausChannel:
    """Mixture sum_k w_k T_k of channels with equal shape and picture."""
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
    stack = np.concatenate([math.sqrt(w) * ch.stack for w, ch in zip(weights, channels)])
    coeffs = np.concatenate([ch.weights for ch in channels])
    return _family(stack, coeffs, channels[0].picture)


def dual(t: KrausChannel) -> KrausChannel:
    """The adjoint with respect to tr(B T(A)) == tr(T*(B) A): same Kraus
    family, opposite picture.  An involution in finite dimension."""
    flipped = HEISENBERG if t.picture == SCHROEDINGER else SCHROEDINGER
    return KrausChannel(t.dim_in, t.dim_out, t.stack, picture=flipped,
                        coefficients=t.coefficients)


def detect_unitary_conjugation(t: KrausChannel) -> np.ndarray | None:
    """Return U (phase normalized: first significant entry in row-major
    order made positive real) when the channel acts as A -> U A U^dag,
    i.e. when the Choi rank is one and the extracted operator is unitary,
    both within CONJUGATION_TOL; otherwise None."""
    if t.picture != SCHROEDINGER or not t.is_square:
        raise ValueError("unitary detection is defined for square schroedinger channels")
    eigenvalues, vectors = np.linalg.eigh(hermitize(choi(t).matrix))
    if eigenvalues[-1] <= 0.0:
        return None
    stack = _top_kraus(eigenvalues, vectors, CONJUGATION_TOL, (t.dim_out, t.dim_in))
    if len(stack) != 1 or unitarity_residual(stack[0]) > CONJUGATION_TOL:
        return None
    return stack[0]


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


def require_accepted(ch: KrausChannel) -> None:
    """Raise RejectedChannelError unless verify_cptp accepts the channel
    at CPTP_ATOL."""
    report = verify_cptp(ch)
    if not report.accepted:
        raise RejectedChannelError(
            f"channel rejected: cp={report.cp}, tp_or_unital={report.tp_or_unital}, "
            f"max_violation={report.max_violation:.3e}"
        )


# re-exported so channel consumers need one import
__all__ = [
    "SCHROEDINGER",
    "HEISENBERG",
    "CPTP_ATOL",
    "KrausChannel",
    "ChoiMatrix",
    "CertificationReport",
    "identity_channel",
    "unitary_channel",
    "apply_channel",
    "column_channel",
    "vec",
    "unvec",
    "superoperator_matrix",
    "apply_superoperator",
    "choi",
    "verify_cptp",
    "kraus_from_choi",
    "plain_kraus",
    "compose",
    "power",
    "convex_combine",
    "dual",
    "detect_unitary_conjugation",
    "random_channel",
    "require_accepted",
]
