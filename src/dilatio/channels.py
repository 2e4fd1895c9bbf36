"""Quantum channels as finite Kraus families.

A channel stores Kraus operators of shape (dim_out, dim_in) plus a
picture flag:

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

Superoperators use column-stacking vectorization,
vec(X A Y) == (Y^T (x) X) vec(A), so a Schroedinger channel has matrix
sum_i c_i conj(K_i) (x) K_i.  Choi operators use the unnormalized
maximally entangled vector: C == sum_ij T(E_ij) (x) E_ij, whose rank-one
pieces are row-major vectorizations of the Kraus operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RejectedChannelError
from .linalg import (
    as_complex_matrix,
    frozen_matrix,
    hermitize,
    is_unitary,
)

SCHROEDINGER = "schroedinger"
HEISENBERG = "heisenberg"

# Default certification tolerance for CPTP acceptance.
CPTP_ATOL = 1e-10
# Choi eigenvalues at or below RANK_RTOL * (largest eigenvalue) count as zero.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A linear map in Kraus form; immutable after construction.

    ``dim_in``/``dim_out`` always refer to the Schroedinger orientation
    (the Kraus operators are dim_out x dim_in); the Heisenberg action of
    the same stored family runs in the reverse direction.
    """

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]
    picture: str = SCHROEDINGER
    coefficients: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("channel dimensions must be positive")
        if self.picture not in (SCHROEDINGER, HEISENBERG):
            raise ValueError(f"unknown picture {self.picture!r}")
        if not self.kraus:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = []
        for k in self.kraus:
            m = frozen_matrix(k)
            if m.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus operator of shape {m.shape} does not match "
                    f"({self.dim_out}, {self.dim_in})"
                )
            ops.append(m)
        object.__setattr__(self, "kraus", tuple(ops))
        if self.coefficients is not None:
            coeffs = tuple(float(c) for c in self.coefficients)
            if len(coeffs) != len(ops):
                raise ValueError("coefficients and Kraus list differ in length")
            if not all(math.isfinite(c) for c in coeffs):
                raise ValueError("coefficients must be finite reals")
            object.__setattr__(self, "coefficients", coeffs)

    @property
    def is_square(self) -> bool:
        return self.dim_in == self.dim_out

    def coeffs(self) -> tuple[float, ...]:
        return self.coefficients if self.coefficients is not None else (1.0,) * len(self.kraus)


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


def apply_channel(ch: KrausChannel, a) -> np.ndarray:
    """Apply the channel map to an operator of the appropriate size."""
    m = as_complex_matrix(a)
    side = ch.dim_in if ch.picture == SCHROEDINGER else ch.dim_out
    if m.shape != (side, side):
        raise ValueError(f"operator of shape {m.shape} does not match channel input {side}")
    out = 0
    if ch.picture == SCHROEDINGER:
        for c, k in zip(ch.coeffs(), ch.kraus):
            out = out + c * (k @ m @ k.conj().T)
    else:
        for c, k in zip(ch.coeffs(), ch.kraus):
            out = out + c * (k.conj().T @ m @ k)
    return out


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
    blocks = []
    if ch.picture == SCHROEDINGER:
        for c, k in zip(ch.coeffs(), ch.kraus):
            blocks.append(c * np.kron(k.conj(), k))
    else:
        for c, k in zip(ch.coeffs(), ch.kraus):
            blocks.append(c * np.kron(k.T, k.conj().T))
    return np.sum(blocks, axis=0)


def apply_superoperator(m, a) -> np.ndarray:
    """Apply a vectorized-channel matrix to an operator."""
    m = as_complex_matrix(m)
    a = as_complex_matrix(a)
    image = m @ vec(a)
    d_out = math.isqrt(image.size)
    return unvec(image, (d_out, d_out))


def _choi_of(ops, coeffs) -> np.ndarray:
    n = ops[0].size
    c = np.zeros((n, n), dtype=np.complex128)
    for w, k in zip(coeffs, ops):
        r = k.reshape(-1)  # row-major vec matches the out (x) in layout
        c += w * np.outer(r, r.conj())
    return c


def choi(ch: KrausChannel) -> ChoiMatrix:
    """Choi operator (T (x) id)(|Omega><Omega|) of a Schroedinger channel."""
    if ch.picture != SCHROEDINGER:
        raise ValueError("choi is defined on the schroedinger picture")
    return ChoiMatrix(_choi_of(ch.kraus, ch.coeffs()), ch.dim_in, ch.dim_out)


def verify_cptp(ch: KrausChannel, tol: float = CPTP_ATOL) -> CertificationReport:
    """Certify complete positivity (Choi PSD) and trace preservation or
    unitality (the shared Kraus-sum identity sum_i c_i K_i^dag K_i == id)."""
    acting = ch.kraus if ch.picture == SCHROEDINGER else tuple(k.conj().T for k in ch.kraus)
    choi_matrix = _choi_of(acting, ch.coeffs())
    herm_violation = float(np.linalg.norm(choi_matrix - choi_matrix.conj().T))
    eigenvalues = np.linalg.eigvalsh(hermitize(choi_matrix))
    cp_violation = max(herm_violation, max(0.0, float(-eigenvalues.min())))

    ksum = np.zeros((ch.dim_in, ch.dim_in), dtype=np.complex128)
    for c, k in zip(ch.coeffs(), ch.kraus):
        ksum += c * (k.conj().T @ k)
    tp_violation = float(np.linalg.norm(ksum - np.eye(ch.dim_in)))

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
    cutoff = tol * top
    ops = []
    for i in reversed(range(eigenvalues.size)):
        if eigenvalues[i] <= cutoff:
            break
        k = math.sqrt(float(eigenvalues[i])) * vectors[:, i].reshape(c.dim_out, c.dim_in)
        ops.append(k)
    return KrausChannel(c.dim_in, c.dim_out, tuple(ops))


def _cap_kraus_rank(ch: KrausChannel) -> KrausChannel:
    """Re-extract through the Choi spectrum when compositions blew the list
    length past dim_in * dim_out.  Two stored lists induce the same map in
    one picture iff they do in the other, so the extraction is picture-safe."""
    if len(ch.kraus) <= ch.dim_in * ch.dim_out:
        return ch
    if ch.coefficients is not None and any(w < 0 for w in ch.coefficients):
        return ch  # signed maps keep their explicit list
    fresh = kraus_from_choi(ChoiMatrix(_choi_of(ch.kraus, ch.coeffs()), ch.dim_in, ch.dim_out))
    return KrausChannel(ch.dim_in, ch.dim_out, fresh.kraus, picture=ch.picture)


def compose(t1: KrausChannel, t2: KrausChannel) -> KrausChannel:
    """The composite map t1 after t2, with Kraus-rank re-extraction."""
    if t1.picture != t2.picture:
        raise ValueError("cannot compose channels in different pictures")
    if t1.picture == SCHROEDINGER:
        if t1.dim_in != t2.dim_out:
            raise ValueError(
                f"dimension mismatch: t1 consumes {t1.dim_in}, t2 produces {t2.dim_out}"
            )
        kraus = tuple(a @ b for a in t1.kraus for b in t2.kraus)
        coeffs = tuple(x * y for x in t1.coeffs() for y in t2.coeffs())
        dim_in, dim_out = t2.dim_in, t1.dim_out
    else:
        # B -> t1(t2(B)) = sum (K2 K1)^dag B (K2 K1) in the stored orientation
        if t1.dim_out != t2.dim_in:
            raise ValueError(
                f"dimension mismatch: t1 consumes {t1.dim_out}, t2 produces {t2.dim_in}"
            )
        kraus = tuple(b @ a for b in t2.kraus for a in t1.kraus)
        coeffs = tuple(y * x for y in t2.coeffs() for x in t1.coeffs())
        dim_in, dim_out = t1.dim_in, t2.dim_out
    trivial = all(c == 1.0 for c in coeffs)
    ch = KrausChannel(dim_in, dim_out, kraus, picture=t1.picture,
                      coefficients=None if trivial else coeffs)
    return _cap_kraus_rank(ch)


def power(t: KrausChannel, n: int) -> KrausChannel:
    """The n-th iterate of a square channel; n == 0 is the identity channel.

    Repeated squaring: floor(log2 n) squarings and popcount(n) - 1 further
    compositions, so a caller needing every power up to N makes
    O(N log N) compositions instead of O(N^2).  All factors are powers
    of t and commute, so only rounding depends on the order.
    """
    if not t.is_square:
        raise ValueError("powers need a square channel")
    if n < 0:
        raise ValueError("negative powers are not defined for channels")
    if n == 0:
        return identity_channel(t.dim_in, picture=t.picture)
    result, square = None, t
    while True:
        if n & 1:
            result = square if result is None else compose(result, square)
        n >>= 1
        if not n:
            return result
        square = compose(square, square)


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
    first = channels[0]
    for ch in channels[1:]:
        if (ch.dim_in, ch.dim_out, ch.picture) != (first.dim_in, first.dim_out, first.picture):
            raise ValueError("mixture members must share dimensions and picture")
    kraus: list[np.ndarray] = []
    coeffs: list[float] = []
    for w, ch in zip(weights, channels):
        root = math.sqrt(w)
        kraus.extend(root * k for k in ch.kraus)
        coeffs.extend(ch.coeffs())
    trivial = all(c == 1.0 for c in coeffs)
    out = KrausChannel(first.dim_in, first.dim_out, tuple(kraus), picture=first.picture,
                       coefficients=None if trivial else tuple(coeffs))
    return _cap_kraus_rank(out)


def dual(t: KrausChannel) -> KrausChannel:
    """The adjoint with respect to tr(B T(A)) == tr(T*(B) A): same Kraus
    family, opposite picture.  An involution in finite dimension."""
    flipped = HEISENBERG if t.picture == SCHROEDINGER else SCHROEDINGER
    return KrausChannel(t.dim_in, t.dim_out, t.kraus, picture=flipped,
                        coefficients=t.coefficients)


def _normalize_global_phase(k: np.ndarray) -> np.ndarray:
    scale = float(np.abs(k).max())
    flat = k.ravel()
    for entry in flat:
        if abs(entry) > 1e-8 * scale:
            return k * (entry.conjugate() / abs(entry))
    return k


def detect_unitary_conjugation(t: KrausChannel, tol: float = 1e-9) -> np.ndarray | None:
    """Return U (phase normalized: first significant entry in row-major
    order made positive real) when the channel acts as A -> U A U^dag,
    i.e. when the Choi rank is one and the extracted operator is unitary
    within tol; otherwise None."""
    if t.picture != SCHROEDINGER or not t.is_square:
        raise ValueError("unitary detection is defined for square schroedinger channels")
    eigenvalues, vectors = np.linalg.eigh(hermitize(choi(t).matrix))
    top = float(eigenvalues[-1])
    if top <= 0.0:
        return None
    if eigenvalues.size > 1 and float(eigenvalues[-2]) > tol * top:
        return None
    k = math.sqrt(top) * vectors[:, -1].reshape(t.dim_out, t.dim_in)
    if np.linalg.norm(k.conj().T @ k - np.eye(t.dim_in)) > tol:
        return None
    return _normalize_global_phase(k)


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
    kraus = tuple(q[i * dim:(i + 1) * dim, :] for i in range(rank))
    return KrausChannel(dim, dim, kraus)


def require_accepted(ch: KrausChannel, tol: float = CPTP_ATOL) -> None:
    """Raise RejectedChannelError unless verify_cptp accepts the channel."""
    report = verify_cptp(ch, tol)
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
    "vec",
    "unvec",
    "superoperator_matrix",
    "apply_superoperator",
    "choi",
    "verify_cptp",
    "kraus_from_choi",
    "compose",
    "power",
    "convex_combine",
    "dual",
    "detect_unitary_conjugation",
    "random_channel",
    "require_accepted",
]
