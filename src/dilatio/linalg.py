"""Dense complex linear algebra on tensor-product operator spaces.

Conventions used by every module in this package:

* matrices are dense numpy arrays with complex128 entries;
* composite spaces are big-endian: in a Kronecker product the left factor
  varies slowest, so a basis vector of H (x) K with factor indices (h, k)
  sits at row h * dim(K) + k;
* eigenvalue/singular-value output is consumed only through
  tolerance-gated predicates, never compared bit for bit.
"""

from __future__ import annotations

import numpy as np

# Frobenius tolerance for Hermiticity / isometry / unitarity checks.
HERMITIAN_ATOL = 1e-10
# Eigenvalues above -PSD_ATOL count as nonnegative.
PSD_ATOL = 1e-10


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def frozen_matrix(a) -> np.ndarray:
    """A validated, C-contiguous, read-only copy (for immutable containers):
    a view of the argument taken before cannot change it."""
    m = as_complex_matrix(a).copy()  # C order
    m.flags.writeable = False
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    """Average away the anti-Hermitian rounding residue of a matrix or a stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def trace(a) -> complex:
    """Sum of diagonal entries of a square matrix."""
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"trace needs a square matrix, got shape {m.shape}")
    return complex(np.trace(m))


def trace_norm(a) -> float:
    """Sum of singular values; equals the trace for positive semidefinite input."""
    m = as_complex_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference, the standard state metric."""
    return 0.5 * trace_norm(as_complex_matrix(a) - as_complex_matrix(b))


def kron(a, b) -> np.ndarray:
    """Kronecker product, first argument as the slow (left) factor."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def matrix_units(dim: int) -> list[np.ndarray]:
    """The operator basis E_ij, row-major order: E_00, E_01, ..."""
    return list(np.eye(dim * dim, dtype=np.complex128).reshape(-1, dim, dim))


def basis_state(index: int, dim: int) -> np.ndarray:
    """The pure state |index><index| as a dim x dim matrix."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    e = np.zeros((dim, dim), dtype=np.complex128)
    e[index, index] = 1.0
    return e


def is_hermitian(a, tol: float = HERMITIAN_ATOL) -> bool:
    """||a - a^dag||_F <= tol; a norm that overflows is too large."""
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(m - m.conj().T)) <= tol


def is_psd(a) -> bool:
    """True iff a is Hermitian within PSD_ATOL, its Hermitian part is finite
    and its minimum eigenvalue >= -PSD_ATOL."""
    m = as_complex_matrix(a)
    if not is_hermitian(m, PSD_ATOL):
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = hermitize(m)
    if not np.all(np.isfinite(hermitian)):
        return False
    eigenvalues = np.linalg.eigvalsh(hermitian)
    return bool(eigenvalues.min() >= -PSD_ATOL)


def _density_spectrum(rho) -> tuple[np.ndarray, np.ndarray]:
    """A validated state (Hermitian, PSD, unit trace, all within
    HERMITIAN_ATOL) and the ascending eigenvalues of its Hermitian part."""
    m = as_complex_matrix(rho)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"a state must be square, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("state is not Hermitian within tolerance")
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = hermitize(m)
    if not np.all(np.isfinite(hermitian)):
        raise ValueError("state entries overflow its eigenvalue check")
    eigenvalues = np.linalg.eigvalsh(hermitian)
    if eigenvalues.min() < -HERMITIAN_ATOL:
        raise ValueError(f"state has negative eigenvalue {eigenvalues.min():.3e}")
    if abs(np.trace(m) - 1.0) > HERMITIAN_ATOL:
        raise ValueError(f"state trace {np.trace(m):.12g} differs from 1")
    return m, eigenvalues


def check_density_matrix(rho) -> np.ndarray:
    """Validate a state: Hermitian, PSD, and unit trace, all within HERMITIAN_ATOL."""
    return _density_spectrum(rho)[0]


def is_pure_state(rho) -> bool:
    """Rank-one test: second largest eigenvalue at most HERMITIAN_ATOL, from
    the one eigendecomposition that validates the state."""
    m, eigenvalues = _density_spectrum(rho)
    return m.shape[0] == 1 or bool(eigenvalues[-2] <= HERMITIAN_ATOL)


def pure_state_vector(state, dim: int) -> np.ndarray:
    """A read-only psi with |psi><psi| the given pure state on C^dim.

    ``state`` is either psi itself, which must have unit norm within
    HERMITIAN_ATOL, or a dense omega.  omega is reduced to its column at
    its largest diagonal entry, divided by the square root of that entry
    (psi up to a global phase), and accepted when ||omega - omega^dag||_F,
    |tr omega - 1| and ||omega - psi psi^dag||_F are each at most
    HERMITIAN_ATOL.  By Weyl's inequality the last bounds every eigenvalue
    of the Hermitian part of omega but the largest by HERMITIAN_ATOL, so
    this O(dim^2) check is no weaker than is_pure_state's eigendecomposition.
    """
    a = np.asarray(state, dtype=np.complex128)
    if not np.all(np.isfinite(a)):
        raise ValueError("state contains NaN or Inf entries")
    if a.shape == (dim, dim):
        return pure_state_from_entries(*stored_entries(a), dim)
    if a.shape != (dim,):
        raise ValueError(f"state of shape {a.shape}, expected ({dim},) or ({dim}, {dim})")
    psi = a.copy()
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > HERMITIAN_ATOL:
        raise ValueError(f"state vector has norm {norm:.12g}, not 1")
    psi.flags.writeable = False
    return psi


def stored_entries(a) -> tuple[np.ndarray, np.ndarray]:
    """(flat row-major index, value) of every entry of ``a`` whose bytes are
    not all zero, so that a -0.0 keeps its sign: the sparse form in which
    the bundle reader hands over a decoded matrix."""
    flat = np.ascontiguousarray(a, dtype=np.complex128).reshape(-1)
    index = np.flatnonzero(flat.view(np.uint64).reshape(-1, 2).any(axis=1))
    return index, flat[index]


def pure_state_from_entries(index, values, dim: int) -> np.ndarray:
    """pure_state_vector of the dim x dim omega whose row-major entries are
    ``values`` at the sorted, distinct flat ``index`` and 0 elsewhere, with
    its three norms taken over the entries: O(entries + s^2) for a psi with
    s nonzero components, and psi bit for bit the dense one."""
    values = np.asarray(values, dtype=np.complex128)
    if not np.all(np.isfinite(values)):
        raise ValueError("state contains NaN or Inf entries")
    row, col = np.divmod(index, dim)
    # omega - omega^dag: each entry against its transposed twin; an entry
    # without one is also the only entry at its transposed place
    twin = col * dim + row
    at = np.searchsorted(index, twin)
    paired = at < index.size
    paired[paired] = index[at[paired]] == twin[paired]
    skew = values.copy()
    skew[paired] -= values[at[paired]].conj()
    if _norm_sq(skew) + _norm_sq(values[~paired]) > HERMITIAN_ATOL ** 2:
        raise ValueError("state is not Hermitian within tolerance")
    trace = values[row == col].sum()
    if abs(trace - 1.0) > HERMITIAN_ATOL:
        raise ValueError(f"state trace {trace:.12g} differs from 1")
    diagonal = np.zeros(dim)
    diagonal[row[row == col]] = values[row == col].real
    j = int(np.argmax(diagonal))
    psi = np.zeros(dim, dtype=np.complex128)
    psi[row[col == j]] = values[col == j]
    psi /= np.sqrt(diagonal[j])
    # omega - psi psi^dag: the entries off psi's support, and the support block
    support = np.flatnonzero(psi)
    place = np.full(dim, -1)
    place[support] = np.arange(support.size)
    inside = (place[row] >= 0) & (place[col] >= 0)
    block = -np.outer(psi[support], psi[support].conj())
    block[place[row[inside]], place[col[inside]]] += values[inside]
    if _norm_sq(values[~inside]) + _norm_sq(block) > HERMITIAN_ATOL ** 2:
        raise ValueError("state is not pure within tolerance")
    psi.flags.writeable = False
    return psi


def _norm_sq(a: np.ndarray) -> float:
    """||a||_F^2 of a complex array, by ufunc reductions: on the small
    arrays of a tolerance check a BLAS call costs far more than the sums."""
    return float(np.square(a.real).sum() + np.square(a.imag).sum())


def unitarity_residual(a) -> float:
    """||A^dag A - I||_F, or inf for a matrix that is not square.  A stack
    of square blocks (L, b, b) gets the same norm over the whole stack,
    which is that of G^dag G - I for the block permutation G the blocks
    form: O(L b^3) instead of O((L b)^3)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 3:
        m = as_complex_matrix(m)[np.newaxis]
    if m.shape[1] != m.shape[2]:
        return np.inf
    gram = m.conj().transpose(0, 2, 1) @ m
    return float(np.sqrt(_norm_sq(gram - np.eye(m.shape[1]))))


def is_unitary(a) -> bool:
    """unitarity_residual(a) <= HERMITIAN_ATOL, for a matrix or a stack of blocks."""
    return unitarity_residual(a) <= HERMITIAN_ATOL


def complete_isometry_to_unitary(v) -> np.ndarray:
    """Deterministically extend an isometry, or each of a (W, rows, cols)
    stack of them, to a square unitary.

    The input must have orthonormal columns (||V^dag V - I||_F, over the
    whole stack, within 1e-10).  The output's first ``cols`` columns equal
    the input columns bit for bit.  Completion rule, fixed so dilations are
    reproducible: the last rows - cols columns of the complete Householder
    QR of the input, whose first ``cols`` columns span the input's range.
    """
    m = np.asarray(v, dtype=np.complex128)
    if m.ndim not in (2, 3) or not np.all(np.isfinite(m)):
        raise ValueError(f"expected a finite matrix or stack of them, got shape {m.shape}")
    rows, cols = m.shape[-2:]
    if rows < cols:
        raise ValueError(f"isometry must be tall, got shape {m.shape}")
    gram = m.conj().swapaxes(-1, -2) @ m
    if _norm_sq(gram - np.eye(cols)) > HERMITIAN_ATOL ** 2:
        raise ValueError("input columns are not orthonormal within 1e-10")
    q = np.linalg.qr(m, mode="complete").Q
    q[..., :cols] = m
    return q
